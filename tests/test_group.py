"""Group algebra: exact identities checked pointwise and property-based."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heiscouple import group as grp

RTOL = 1e-12


def coords(n):
    box = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
    return st.lists(box, min_size=2 * n + 1, max_size=2 * n + 1).map(np.array)


def _rel(err, ref):
    return err / max(1.0, abs(ref))


@pytest.mark.parametrize("n", [1, 2, 3])
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_associativity(n, data):
    a = data.draw(coords(n))
    b = data.draw(coords(n))
    c = data.draw(coords(n))
    left = grp.mul(grp.mul(a, b), c)
    right = grp.mul(a, grp.mul(b, c))
    assert np.max(np.abs(left - right) / np.maximum(1.0, np.abs(right))) < RTOL


@pytest.mark.parametrize("n", [1, 2, 3])
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_identity_and_inverse(n, data):
    a = data.draw(coords(n))
    e = grp.identity(n)
    assert np.array_equal(grp.mul(a, e), a)
    assert np.array_equal(grp.mul(e, a), a)
    assert np.max(np.abs(grp.mul(a, grp.inverse(a)))) < RTOL * 100
    assert np.max(np.abs(grp.mul(grp.inverse(a), a))) < RTOL * 100


@pytest.mark.parametrize("n", [1, 2, 3])
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_left_invariance_of_quasidistance(n, data):
    a = data.draw(coords(n))
    b = data.draw(coords(n))
    c = data.draw(coords(n))
    d0 = grp.quasidistance(b, c)
    d1 = grp.quasidistance(grp.mul(a, b), grp.mul(a, c))
    # compare squared distances at the ambient scale: for nearly coincident
    # b, c the distances themselves are pure cancellation noise
    den = max(1.0, grp.quasinorm(a) ** 2, grp.quasinorm(b) ** 2, grp.quasinorm(c) ** 2)
    assert abs(d1**2 - d0**2) / den < RTOL


@pytest.mark.parametrize("n", [1, 2, 3])
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_dilation_homogeneity_and_automorphism(n, data):
    a = data.draw(coords(n))
    b = data.draw(coords(n))
    lam = data.draw(st.floats(min_value=0.01, max_value=100.0))
    assert _rel(
        abs(grp.quasinorm(grp.dilate(a, lam)) - lam * grp.quasinorm(a)),
        lam * grp.quasinorm(a),
    ) < RTOL
    auto = grp.dilate(grp.mul(a, b), lam)
    split = grp.mul(grp.dilate(a, lam), grp.dilate(b, lam))
    # normalize at the dilation's own scale: the vertical part carries lam^2,
    # so cancellation there is amplified by the same factor
    scale = max(lam, 1.0 / lam) ** 2 * np.maximum(1.0, np.abs(split))
    assert np.max(np.abs(auto - split) / scale) < RTOL


@pytest.mark.parametrize("n", [1, 2, 3])
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_rotation_isometry_and_automorphism(n, data):
    a = data.draw(coords(n))
    b = data.draw(coords(n))
    th = data.draw(st.floats(min_value=0.0, max_value=2 * math.pi))
    d0 = grp.quasidistance(a, b)
    d1 = grp.quasidistance(grp.rotate(a, th), grp.rotate(b, th))
    den = max(1.0, grp.quasinorm(a) ** 2, grp.quasinorm(b) ** 2)
    assert abs(d1**2 - d0**2) / den < RTOL
    auto = grp.rotate(grp.mul(a, b), th)
    split = grp.mul(grp.rotate(a, th), grp.rotate(b, th))
    assert np.max(np.abs(auto - split) / np.maximum(1.0, np.abs(split))) < 10 * RTOL


def test_quasinorm_symmetry_batch():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4096, 7))
    assert np.allclose(grp.quasinorm(a), grp.quasinorm(grp.inverse(a)), rtol=RTOL)


def test_point_accessors_roundtrip():
    a = grp.point([1.0, 2.0], [3.0, 4.0], -0.5)
    assert a.shape == (5,)
    assert np.array_equal(grp.horizontal(a), [1.0, 2.0, 3.0, 4.0])
    assert grp.vertical(a) == -0.5
    assert grp.npairs(a) == 2
    with pytest.raises(ValueError):
        grp.npairs(np.zeros(4))  # even length is not a group point


def test_symplectic_form_properties():
    rng = np.random.default_rng(4)
    u = rng.standard_normal((512, 6))
    v = rng.standard_normal((512, 6))
    w = grp.symplectic(u, v)
    assert np.allclose(w, -grp.symplectic(v, u), atol=1e-14)
    mu = np.concatenate([-u[:, 3:], u[:, :3]], axis=1)  # u -> M u
    mv = np.concatenate([-v[:, 3:], v[:, :3]], axis=1)
    assert np.allclose(grp.symplectic(mu, mv), w, atol=1e-13)
    assert np.allclose(grp.symplectic(u, u), 0.0, atol=1e-14)


def test_vertical_component_of_commutator():
    # [a, b] = a b a^-1 b^-1 is purely vertical with z = omega(hor a, hor b)
    rng = np.random.default_rng(5)
    a = rng.standard_normal((256, 5))
    b = rng.standard_normal((256, 5))
    comm = grp.mul(grp.mul(a, b), grp.mul(grp.inverse(a), grp.inverse(b)))
    assert np.max(np.abs(comm[:, :-1])) < 1e-12
    ref = grp.symplectic(a[:, :-1], b[:, :-1])
    assert np.allclose(comm[:, -1], ref, atol=1e-12)


def test_quasidistance_matches_quotient_quasinorm():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((128, 7))
    b = rng.standard_normal((128, 7))
    direct = grp.quasidistance(a, b)
    quot = grp.quasinorm(grp.mul(grp.inverse(a), b))
    assert np.allclose(direct, quot, rtol=1e-12)


def _quasidistance_oracle(a, b):
    # the definition, composed from the group operations
    return grp.quasinorm(grp.mul(grp.inverse(a), b))


def _signed_zero_points(rng, m, n):
    # points at mixed scales with +0.0 and -0.0 entries, and rows that
    # coincide with or negate rows of the other batch
    d = 2 * n + 1
    x = rng.standard_normal((m, d)) * rng.choice([1e-8, 1.0, 1e8], size=(m, d))
    y = rng.standard_normal((m, d))
    x[rng.random((m, d)) < 0.25] = 0.0
    x[rng.random((m, d)) < 0.25] = -0.0
    y[rng.random((m, d)) < 0.25] = -0.0
    y[rng.random((m, d)) < 0.25] = 0.0
    y[:4] = x[:4]
    y[4:8] = -x[4:8]
    x[8] = -0.0
    y[8] = 0.0
    return x, y


def _shape_cases(x, y):
    yield "pairwise", x[:, None, :], y[None, :, :]
    yield "elementwise", x, y
    yield "single", x[3], y[9]
    yield "point-batch", x[5], y
    yield "strided", x[::2], y[1::2]
    yield "transposed", np.asfortranarray(x)[:, None, :], np.asfortranarray(y)[None, :, :]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_quasidistance_is_bit_identical_to_its_definition(n):
    rng = np.random.default_rng(80 + n)
    for _ in range(5):
        x, y = _signed_zero_points(rng, 24, n)
        for label, a, b in _shape_cases(x, y):
            got, ref = grp.quasidistance(a, b), _quasidistance_oracle(a, b)
            assert type(got) is type(ref) and np.shape(got) == np.shape(ref), label
            # compare bits, so that -0.0 and +0.0 count as different
            assert np.array_equal(np.asarray(got).view(np.uint64),
                                  np.asarray(ref).view(np.uint64)), label


@pytest.mark.parametrize("n", [4, 5])
def test_quasidistance_agrees_with_its_definition_for_more_pairs(n):
    # numpy sums 2n >= 8 squares pairwise, so only the last bit may differ
    rng = np.random.default_rng(90 + n)
    x, y = _signed_zero_points(rng, 24, n)
    for label, a, b in _shape_cases(x, y):
        got, ref = grp.quasidistance(a, b), _quasidistance_oracle(a, b)
        assert np.shape(got) == np.shape(ref), label
        assert np.allclose(got, ref, rtol=1e-15, atol=0.0), label


def test_quasidistance_rejects_mismatched_points():
    with pytest.raises(ValueError, match="last axis"):
        grp.quasidistance(np.zeros(3), np.zeros(5))
