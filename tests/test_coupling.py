"""Coupling matrices, moving frames, and regime policies."""

import numpy as np
import pytest

from heiscouple import coupling as cpl

TOL = 1e-10


def _rand_contractions(rng, n, m, lo=0.05, hi=1.0):
    g = rng.standard_normal((m, 2 * n, 2 * n))
    smax = np.linalg.svd(g, compute_uv=False)[:, 0]
    return g * (rng.uniform(lo, hi, size=m) / smax)[:, None, None]


def _complex_structure(n):
    z = np.zeros((2 * n, 2 * n))
    z[:n, n:] = -np.eye(n)
    z[n:, :n] = np.eye(n)
    return z


def test_named_matrices():
    for n in (1, 2, 3):
        assert np.array_equal(cpl.synchronous_matrix(n), np.eye(2 * n))
        r = cpl.reflection_matrix(n)
        p = cpl.perverse_matrix(n)
        e1 = np.zeros(2 * n)
        e1[0] = 1.0
        e2 = np.zeros(2 * n)
        e2[n] = 1.0
        assert np.array_equal(r, np.eye(2 * n) - 2 * np.outer(e1, e1))
        assert np.array_equal(p, np.eye(2 * n) - 2 * np.outer(e2, e2))
        for mat in (r, p):
            assert cpl.validate_coupling_matrix(mat)
            # orthogonal, so the defect completion vanishes
            assert np.abs(cpl.complete_jhat(mat)).max() < TOL


def test_validate_coupling_matrix_boundary():
    assert cpl.validate_coupling_matrix(np.eye(4))
    assert not cpl.validate_coupling_matrix(1.5 * np.eye(4))
    # within tolerance of the unit sphere counts as valid
    assert cpl.validate_coupling_matrix((1.0 + 1e-12) * np.eye(2))
    assert not cpl.validate_coupling_matrix((1.0 + 1e-6) * np.eye(2))
    rng = np.random.default_rng(1)
    for j in _rand_contractions(rng, 2, 100):
        direct = np.linalg.svd(j, compute_uv=False)[0] <= 1.0 + 1e-10
        assert cpl.validate_coupling_matrix(j) == direct


def test_complete_jhat_defect_identity():
    rng = np.random.default_rng(2)
    for n in (1, 2):
        j = _rand_contractions(rng, n, 200)
        jhat = cpl.complete_jhat(j)
        res = jhat @ np.swapaxes(jhat, 1, 2) + j @ np.swapaxes(j, 1, 2)
        assert np.abs(res - np.eye(2 * n)).max() < TOL
        # PSD square root: jhat symmetric with nonnegative eigenvalues
        assert np.abs(jhat - np.swapaxes(jhat, 1, 2)).max() < TOL
        assert np.linalg.eigvalsh(jhat).min() > -TOL


def test_complete_jhat_rejects_expanding_matrix():
    with pytest.raises(ValueError, match="unit spectral norm"):
        cpl.complete_jhat(1.2 * np.eye(2))


def test_frame_properties():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        b = rng.standard_normal((500, 2 * n))
        bp = rng.standard_normal((500, 2 * n))
        q = cpl.frame(b, bp)
        d = b - bp
        e1 = d / np.linalg.norm(d, axis=1, keepdims=True)
        qt = np.swapaxes(q, 1, 2)
        assert np.abs(qt @ q - np.eye(2 * n)).max() < TOL
        assert np.abs(np.linalg.det(q) - 1.0).max() < TOL
        m = _complex_structure(n)
        assert np.abs(q @ m - m @ q).max() < TOL
        assert np.abs(q[:, :, 0] - e1).max() < TOL
        assert np.abs(q[:, :, n] - e1 @ m.T).max() < TOL


def test_frame_continuity_near_axis_flip():
    # the complex Householder must not blow up when the first complex
    # coordinate of e1 is near zero or near -1
    for e1 in ([0.0, 1.0], [-1.0, 0.0], [1e-12, np.sqrt(1 - 1e-24)]):
        q = cpl.frame(np.array(e1), np.zeros(2))
        assert np.abs(q.T @ q - np.eye(2)).max() < TOL
        assert np.allclose(q[:, 0], e1, atol=TOL)


def test_frame_raises_at_zero_separation():
    with pytest.raises(ValueError, match="R = 0"):
        cpl.frame(np.ones(4), np.ones(4))


def test_change_basis_invariants():
    rng = np.random.default_rng(4)
    n = 2
    j = _rand_contractions(rng, n, 300)
    b = rng.standard_normal((300, 2 * n))
    q = cpl.frame(b, np.zeros_like(b))
    k = cpl.change_basis(j, q)
    assert np.abs(np.trace(k, axis1=1, axis2=2) - np.trace(j, axis1=1, axis2=2)).max() < TOL
    assert np.abs(cpl.vertical_drift_trace(k) - cpl.vertical_drift_trace(j)).max() < TOL
    # conjugating back recovers J
    back = cpl.change_basis(k, np.swapaxes(q, 1, 2))
    assert np.abs(back - j).max() < TOL


def test_reduced_coefficients_named_policies():
    for n in (1, 2):
        sync = cpl.reduced_coefficients(cpl.synchronous_matrix(n))
        assert sync["var_r"] == 0.0 and sync["drift_r"] == 0.0
        assert sync["var_z"] == 4.0 and sync["rho"] == 0.0 and sync["drift_z"] == 0.0
        refl = cpl.reduced_coefficients(cpl.reflection_matrix(n))
        assert refl["var_r"] == 4.0 and refl["drift_r"] == 4.0
        assert refl["var_z"] == 4.0 and refl["rho"] == 0.0 and refl["drift_z"] == 0.0
        perv = cpl.reduced_coefficients(cpl.perverse_matrix(n))
        assert perv["var_r"] == 0.0 and perv["drift_r"] == 4.0
        assert perv["var_z"] == 0.0 and perv["rho"] == 0.0 and perv["drift_z"] == 0.0


def test_reduced_coefficients_rho_clipped_and_degenerate():
    n = 1
    k = np.array([[0.0, 1.0], [-1.0, 0.0]])  # rotation: K21 - K12 = -2
    out = cpl.reduced_coefficients(k)
    assert out["var_r"] == 2.0 and out["var_z"] == 2.0
    assert out["rho"] == -1.0  # (K21-K12)/sqrt(4) = -1, at the clip boundary
    out2 = cpl.reduced_coefficients(np.eye(2))
    assert out2["rho"] == 0.0  # var_r = 0 -> degenerate, defined as zero


def test_policy_validation():
    with pytest.raises(ValueError, match="unknown policy kind"):
        cpl.CouplingPolicy(kind="bogus")
    with pytest.raises(ValueError, match="epsilon"):
        cpl.kendall_policy(kappa=1.0, epsilon=1.0)
    with pytest.raises(ValueError, match="matrix"):
        cpl.CouplingPolicy(kind="custom")
    with pytest.raises(ValueError, match="not valid"):
        cpl.custom_policy(2.0 * np.eye(2))


def test_custom_policy_rejects_what_the_full_engine_rejects():
    # spectral norm within MATRIX_TOL of 1, but I - K K^T dips below -PSD_CLIP,
    # so complete_jhat (the full engine's Jhat) refuses it
    K = np.diag([1 + 5e-11, 1.0])
    assert cpl.validate_coupling_matrix(K)
    with pytest.raises(ValueError, match="exceeds unit spectral norm"):
        cpl.custom_policy(K)


def test_kendall_hysteresis_script():
    pol = cpl.kendall_policy(kappa=1.0, epsilon=0.5)
    # middle of the band: starts in reflection
    mem = pol.initial_regime(np.array(1.0), np.array(0.25))
    assert mem == cpl.REGIME_REFLECT
    # scripted (r2, z) path: out through the sync boundary, back through
    # the reflect boundary, with the band interior keeping the last state
    script = [
        (1.0, 0.40, cpl.REGIME_SYNC),      # 8 z^2 = 1.28 >= kappa^2 r^4 = 1
        (1.0, 0.30, cpl.REGIME_SYNC),      # inside band: hold sync
        (1.0, 0.17, cpl.REGIME_REFLECT),   # 8 z^2 = 0.23 <= 0.25: release
        (1.0, 0.21, cpl.REGIME_REFLECT),   # inside band: hold reflection
        (1.0, 0.36, cpl.REGIME_SYNC),      # out again
    ]
    for r2, z, want in script:
        mem = pol.next_regime(np.float64(r2), np.float64(z), mem)
        assert mem == want
    # sync region wins the initial tie so merged pairs stay merged
    assert pol.initial_regime(np.array(0.0), np.array(0.0)) == cpl.REGIME_SYNC


def test_kendall_thresholds_dilation_invariant():
    pol = cpl.kendall_policy(kappa=1.0, epsilon=0.5)
    rng = np.random.default_rng(5)
    r2 = np.exp(rng.uniform(-2, 2, size=1000))
    z = rng.standard_normal(1000)
    prev = np.full(1000, cpl.REGIME_REFLECT, dtype=np.int8)
    c = 7.3
    base = pol.next_regime(r2, z, prev)
    dil = pol.next_regime(c**2 * r2, c**2 * z, prev)
    assert np.array_equal(base, dil)


def test_reflection_policy_absorption_latch():
    pol = cpl.reflection_policy()
    prev = np.full(3, cpl.REGIME_REFLECT, dtype=np.int8)
    out = pol.next_regime(np.array([1.0, 0.0, 2.0]), np.zeros(3), prev)
    assert list(out) == [cpl.REGIME_REFLECT, cpl.REGIME_SYNC, cpl.REGIME_REFLECT]
    # the latch never releases
    out2 = pol.next_regime(np.array([1.0, 5.0, 2.0]), np.zeros(3), out)
    assert list(out2) == [cpl.REGIME_REFLECT, cpl.REGIME_SYNC, cpl.REGIME_REFLECT]


def test_custom_policy_matrix_passthrough():
    k = np.array([[0.5, 0.1], [-0.1, 0.5]])
    pol = cpl.custom_policy(k)
    mem = pol.initial_regime(np.array(1.0), np.array(0.0))
    assert pol.next_regime(1.0, 0.0, mem) == cpl.REGIME_CUSTOM
    assert np.array_equal(pol.matrix_for_regime(cpl.REGIME_CUSTOM), k)


def test_matrix_for_regime_only_for_reachable_regimes():
    assert cpl.synchronous_policy().regimes == (cpl.REGIME_SYNC,)
    assert cpl.reflection_policy().regimes == (cpl.REGIME_REFLECT, cpl.REGIME_SYNC)
    assert np.array_equal(cpl.reflection_policy().matrix_for_regime(cpl.REGIME_SYNC, 2), np.eye(4))
    with pytest.raises(ValueError, match="not reachable"):
        cpl.perverse_policy().matrix_for_regime(cpl.REGIME_SYNC)
    with pytest.raises(ValueError, match="not reachable"):
        cpl.kendall_policy().matrix_for_regime(cpl.REGIME_CUSTOM)
