"""Fixed-time couplings of two Heisenberg Brownian motions.

Couples the time-t laws of two group Brownian motions started at a and a',
pinning the horizontal difference to hor(a^{-1} a') on every joint sample and
moving only the vertical coordinate.  Every coupling here runs one pipeline,
`_pinned_couple`: reduce to canonical position (a = identity, offset rho along
the first horizontal axis) by a left translation and a horizontal rotation,
draw the left leg, couple its vertical with the translate by rho * Y_1 through
a conditional plan given the horizontal endpoint, add the Campbell correction
and undo the reduction.  The plans, looked up by name in `_PLANS`, are:

* ``plan="density"`` -- the conditional law of the vertical coordinate given
  the horizontal endpoint has an even, unimodal density (computed here by
  Fourier inversion of its characteristic function).  Between such a density
  and its translate the optimal plan for the concave cost sqrt|dz| keeps a
  point with probability min(1, f(z - s)/f(z)) and otherwise reflects it
  about s/2; reflection is the anti-monotone matching of the two residuals,
  which concavity prefers.  Exact marginals, cost linear in the shift.
* ``plan="assignment"`` -- empirical surrogate: an exact assignment between
  m_bridge conditional samples and their translate, with the drawn vertical
  pinned to its nearest atom.  Unbiased only as m_bridge grows; its cost
  floor is set by the atom spacing, so prefer "density" for small offsets.
* translation, the reference plan of `baseline_translation_couple`: every
  vertical moves by the full shift, so the cost scales like sqrt(rho) for
  small offsets -- what the two plans above are built to beat.

Every plan draws the left vertical from the exact conditional law,
tabulated once per n (`_law_table`): by Levy's area formula the law of
Z / sigma given the endpoint b depends only on (n, |b|^2 / t), so one table
of densities and normal-score maps covers every endpoint and horizon, with no
bridge discretization bias (the interpolation error is ~1e-5 in Z / sigma).
The normal score of each survival value is read from a tabulated normal tail
(`_normal_score`, built once from `math.erfc`), not from scipy, so the density
and translation plans run on numpy alone.
That law is read at the canonical endpoints once per call (`_law_at`) and
handed to the plan: the density plan's keep/reflect probability reads it, and
the assignment plan's atoms are drawn from it too, one normal each.  No plan
runs a Brownian bridge, so the `m_steps` argument is validated and otherwise
unused.

`sample_levy_area_given_endpoint`, the discrete-bridge area sampler, and
`conditional_vertical_density`, one FFT inversion per endpoint, are kept as
the independent references the tabulated law is tested against; no coupling
calls them.  The sampler streams through sample chunks of about
_BRIDGE_CELLS bridge steps, so its working memory is O(chunk) beyond the
O(n_samples) result arrays.  Draws are sample-major, so the chunk size never
changes a sample's bits.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from heiscouple import group as grp
from heiscouple.constants import STATIC_T_RANGE
from heiscouple.coupling import _frame_from_unit
# the level solver for concave costs on the line, bound to this public name so
# perfbench's tracer times static's solves under this module, one per sample
from heiscouple.estimators import _line_assignment as linear_sum_assignment
from heiscouple.simulate import _check, _check_count, _check_starts, philox_stream

# Standardized Fourier grid for conditional vertical densities: frequencies
# j * _DV for j < _M_GRID cover the slowest characteristic-function decay
# (endpoint near the origin) to below 1e-60; the reciprocal z-grid then has
# spacing 2*pi/(_M_GRID*_DV) ~ sigma/50 and reach pi/_DV ~ 20 sigma.
_M_GRID = 2048
_DV = 0.15625
# The half-line z-grid (in units of sigma) of the densities `_cf_rows` returns.
_Z_HALF = np.arange(_M_GRID // 2 + 1) * (2.0 * math.pi / (_M_GRID * _DV))

# Bridge steps per chunk of the area sampler (see the module docstring).
_BRIDGE_CELLS = 2**14

# Tabulated conditional law (`_law_table`): _LAW_CELLS uniform cells in
# s = r / (n + r) on [0, 1], and the normal-score map on g in [0, _G_MAX] in
# _G_CELLS cells.  A standard normal exceeds _G_MAX = 7 with probability
# 2.6e-12; there the computed survival function still has ~1e-4 relative
# accuracy.  _SURV_FLOOR cuts off the survival values that rounding has made
# meaningless.
_LAW_CELLS = 128
_G_MAX = 7.0
_G_CELLS = 1024
_SURV_FLOOR = 1e-14
# s-nodes per step of the table build; a block's temporaries fit in L2.
_LAW_BLOCK = 8
# Normal-tail table behind the normal score (`_normal_tail`): -log Phi(-g) on
# _TAIL_CELLS uniform cells of g in [0, _TAIL_G_MAX].  Phi(-_TAIL_G_MAX) =
# 6.2e-16 lies below _SURV_FLOOR, so every kept survival value is inside the
# table; linear interpolation in -log S is then within 2.4e-8 of the exact score.
_TAIL_G_MAX = 8.0
_TAIL_CELLS = 2**14


@dataclass
class StaticJointSample:
    """A batch of coupled endpoint pairs.

    Attributes:
        left: (m, 2n+1) samples of the time-t law started at a.
        right: (m, 2n+1) samples of the time-t law started at a'.
        cost: (m,) group quasidistances d_H(left, right).
        meta: provenance (plan, offsets, seed, discretization sizes).
    """

    left: np.ndarray
    right: np.ndarray
    cost: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def n_samples(self):
        return self.left.shape[0]

    def horizontal_offset(self):
        """Per-sample right.horizontal - left.horizontal, shape (m, 2n)."""
        return grp.horizontal(self.right) - grp.horizontal(self.left)


def _check_horizon(t):
    lo, hi = STATIC_T_RANGE
    _check(lo < t <= hi, "t", t, f"positive and finite, in ({lo:g}, {hi:g}]")


def sample_levy_area_given_endpoint(b, t=1.0, m_steps=1024, seed=0):
    """Vertical coordinate of a horizontal Brownian bridge 0 -> b on [0, t].

    Builds the bridge from scaled increments and accumulates the left-endpoint
    area sum (1/2) sum omega(B_{j-1}, dB_j), which is the vertical coordinate
    of the group path at time t given its horizontal endpoint b.  Bridges are
    built a chunk of about _BRIDGE_CELLS steps (at least one bridge) at a
    time, so working memory is O(chunk), not O(len(b) * m_steps).
    Normals are drawn sample by sample, so an endpoint's area depends neither
    on the chunking nor on the endpoints after it.

    Args:
        b: (..., 2n) horizontal endpoints; one area per leading index.
        t: horizon, positive and finite.
        m_steps: bridge discretization, an integer >= 1.
        seed: Philox stream seed, an integer in [0, 2**64).

    Returns:
        Array of areas with shape b.shape[:-1].
    """
    b = np.asarray(b, dtype=float)
    if b.ndim < 1 or b.shape[-1] < 2 or b.shape[-1] % 2:
        raise ValueError("endpoints must have even horizontal dimension 2n")
    _check_horizon(t)
    _check_count("m_steps", m_steps)
    rng = philox_stream(seed, 0)
    lead = b.shape[:-1]
    flat = b.reshape(-1, b.shape[-1])
    m, d = flat.shape
    out = np.empty(m)
    chunk = max(1, min(m, _BRIDGE_CELLS // m_steps))
    sqdt = math.sqrt(t / m_steps)
    frac = (np.arange(1, m_steps + 1) / m_steps)[:, None]
    for lo in range(0, m, chunk):
        k = min(chunk, m - lo)
        w = np.cumsum(rng.standard_normal((k, m_steps, d)) * sqdt, axis=1)
        # bridge: B_j = W_j - (j/m)(W_m - b)
        w -= frac * (w[:, -1:] - flat[lo:lo + k, None])
        prev = np.concatenate([np.zeros((k, 1, d)), w[:, :-1]], axis=1)
        out[lo:lo + k] = 0.5 * grp.symplectic(prev, w - prev).sum(axis=1)
    return out.reshape(lead)


def _log_phi(x, q_over_2t, n):
    """log E[exp(i u Z) | endpoint], parameterized by x = u t / 2 >= 0.

    log phi = -n log(sinh x / x) + (q/2t)(1 - x coth x), with series for
    small x and overflow-safe asymptotics for large x.
    """
    x = np.asarray(x, dtype=float)
    small = x < 1e-4
    xs = np.where(small, 1.0, x)
    big = np.minimum(xs, 350.0)
    log_ratio = np.where(
        small,
        x * x / 6.0,
        big + np.log1p(-np.exp(-2.0 * big)) - np.log(2.0 * big) + (xs - big),
    )
    xcoth = np.where(small, 1.0 + x * x / 3.0, xs + 2.0 * xs / np.expm1(2.0 * big))
    return -n * log_ratio + q_over_2t * (1.0 - xcoth)


def _cf_rows(s, n):
    """Characteristic functions and half-line densities of Z/sigma, one row per s.

    With r = |b|^2/t and s = r/(n + r), Levy's formula at the standardized
    frequencies v_j = j _DV (u = v/sigma) reads x = ut/2 = v sqrt(3 (1 - s)/n)
    and q/2t = r/2 = n s / (2 (1 - s)); s = 1 is the N(0, 1) limit.  FFT
    inversion gives the even density at z_k = 2 pi k/(_M_GRID _DV),
    k <= _M_GRID/2, counting the j = 0 term with half weight.

    Returns:
        (phi, half): phi (k, _M_GRID) and half (k, _M_GRID//2 + 1).
    """
    s = np.asarray(s, dtype=float)[:, None]
    v = np.arange(_M_GRID) * _DV
    inner = s < 1.0
    s_in = np.where(inner, s, 0.0)
    x = v * np.sqrt(3.0 * (1.0 - s_in) / n)
    phi = np.where(inner, np.exp(_log_phi(x, 0.5 * n * s_in / (1.0 - s_in), n)),
                   np.exp(-0.5 * v * v))
    half = (_DV / math.pi) * (np.fft.rfft(phi, axis=1).real - 0.5)
    return phi, half


def conditional_vertical_density(z, b, t=1.0):
    """Density of the vertical coordinate given horizontal endpoint b.

    Fourier inversion of the conditional characteristic function
    (x/sinh x)^n exp[(|b|^2/2t)(1 - x coth x)], x = ut/2: the half-line row
    of `_cf_rows` on `_Z_HALF`, read at |z|/sigma and 0 past its 20 sigma.
    Even and unimodal in z.  An independent reference for the tabulated law;
    no coupling calls it.

    Args:
        z: evaluation points, any shape.
        b: single finite horizontal endpoint (2n,).
        t: horizon, positive and finite.

    Returns:
        Densities with the shape of z.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim != 1 or b.size == 0 or b.size % 2:
        raise ValueError(f"b must be a single horizontal endpoint (2n,) with n >= 1, "
                         f"got shape {b.shape}")
    _check(np.all(np.isfinite(b)), "b", b, "finite")
    _check_horizon(t)
    z = np.asarray(z, dtype=float)
    n, q = b.size // 2, b @ b
    sigma = math.sqrt((t / 12.0) * (n * t + q))
    _, half = _cf_rows(np.array([q / (n * t + q)]), n)
    out = np.interp(np.abs(z) / sigma, _Z_HALF, half[0], right=0.0) / sigma
    return out if out.ndim else float(out)


class _Law(NamedTuple):
    """The standardized conditional vertical law of one n, on s-nodes."""

    density: np.ndarray  # (nodes, _M_GRID//2 + 1): f_s at z_k = k dz, z >= 0
    score: np.ndarray  # (nodes, _G_CELLS + 1): T_s(g_k), g_k = k _G_MAX/_G_CELLS


@functools.cache
def _normal_tail():
    """(-log Phi(-g), g) on the _TAIL_CELLS cells of [0, _TAIL_G_MAX], built on first use."""
    g = np.linspace(0.0, _TAIL_G_MAX, _TAIL_CELLS + 1)
    neg_log_tail = -np.log([0.5 * math.erfc(x / math.sqrt(2.0)) for x in g])
    for arr in (neg_log_tail, g):
        arr.flags.writeable = False
    return neg_log_tail, g


def _normal_score(surv):
    """The normal score g = Phi^{-1}(1 - S) of survival values S in [_SURV_FLOOR, 1/2].

    Read from `_normal_tail` by linear interpolation in -log S, where the
    score is smooth and nearly linear; within 2.4e-8 of the exact inverse.
    """
    neg_log_tail, g = _normal_tail()
    return np.interp(-np.log(surv), neg_log_tail, g)


@functools.lru_cache(maxsize=4)
def _law_table(n):
    """The conditional vertical law of H^n, tabulated once on first use.

    Given the horizontal endpoint b at time t, Z/sigma with
    sigma^2 = (t/12)(n t + |b|^2) has a law that depends only on (n, r) with
    r = |b|^2/t (Levy's area formula; see `_cf_rows`).  Nodes run uniformly
    in s = r/(n + r) over [0, 1]; s = 1 is the N(0, 1) limit.  Each stores
    the even density on the half-line z-grid `_Z_HALF` and the odd
    map T_s = F_s^{-1} o Phi on g in [0, _G_MAX]; `_law_at` reads both by
    bilinear interpolation.  About 2 MB per n, read-only.

    Integrating the density's trigonometric sum term by term gives the
    survival function on the grid,
    S(z) = 1/2 - (dv/pi) (z/2 + sum_j phi_j sin(v_j z)/v_j).  T_s is the
    inverse of z -> Phi^{-1}(1 - S(z)), linear between grid points in the
    normal score, which `_normal_score` reads from a tabulated normal tail;
    at s = 1 it is the identity to within 1e-5, the effect of rounding in
    the far tail of S.
    """
    nodes = np.linspace(0.0, 1.0, _LAW_CELLS + 1)
    v = np.arange(1, _M_GRID) * _DV
    z = _Z_HALF
    g = np.linspace(0.0, _G_MAX, _G_CELLS + 1)
    density = np.empty((nodes.size, z.size))
    score = np.empty((nodes.size, g.size))
    for lo in range(0, nodes.size, _LAW_BLOCK):
        phi, density[lo:lo + _LAW_BLOCK] = _cf_rows(nodes[lo:lo + _LAW_BLOCK], n)
        phi[:, 1:] /= v
        surv = 0.5 - (_DV / math.pi) * (0.5 * z - np.fft.rfft(phi, axis=1).imag)
        for k, row in enumerate(np.minimum.accumulate(surv, axis=1), lo):
            keep = row > _SURV_FLOOR
            score[k] = np.interp(g, _normal_score(row[keep]), z[keep])
    law = _Law(density, score)
    for arr in law:
        arr.flags.writeable = False
    return law


def _bilinear(table, node, w, pos):
    """Rows node and node + 1 of table mixed by w, at fractional columns pos.

    Columns past the last are extrapolated with the last cell's slope.
    """
    col = np.minimum(pos.astype(np.intp), table.shape[1] - 2)
    u = pos - col
    lo = table[node, col] + u * (table[node, col + 1] - table[node, col])
    hi = table[node + 1, col] + u * (table[node + 1, col + 1] - table[node + 1, col])
    return lo + w * (hi - lo)


class _LawAt(NamedTuple):
    """The tabulated law at given endpoints: node rows, weights and scales."""

    law: _Law
    node: np.ndarray
    w: np.ndarray
    sigma: np.ndarray

    def row(self, i):
        """The law at endpoint i alone."""
        return self._replace(node=self.node[i], w=self.w[i], sigma=self.sigma[i])

    def density(self, z):
        """Standardized density at z/sigma (0 past the tabulated 20 sigma)."""
        pos = np.abs(z / self.sigma) * (_M_GRID * _DV / (2.0 * math.pi))
        inside = pos <= self.law.density.shape[1] - 1
        f = _bilinear(self.law.density, self.node, self.w, np.where(inside, pos, 0.0))
        return np.where(inside, np.maximum(f, 0.0), 0.0)

    def quantile(self, g):
        """sigma T_s(g): the vertical whose CDF level is Phi(g).

        Past |g| = _G_MAX the map continues linearly with its slope over the
        last grid cell, so it stays odd, continuous and increasing.  That
        thins the exponential tails of the law beyond a level a standard
        normal exceeds with probability 2.6e-12.
        """
        t_abs = _bilinear(self.law.score, self.node, self.w, np.abs(g) * (_G_CELLS / _G_MAX))
        return self.sigma * np.copysign(t_abs, g)


def _law_at(h_can, t):
    """`_LawAt` for the canonical endpoints h_can (m, 2n) at horizon t."""
    n = h_can.shape[1] // 2
    q = (h_can**2).sum(axis=1)
    nt = n * t
    k = (q / (nt + q)) * _LAW_CELLS
    node = np.minimum(k.astype(np.intp), _LAW_CELLS - 1)
    sigma = np.sqrt((t / 12.0) * (nt + q))
    return _LawAt(_law_table(n), node, k - node, sigma)


def _sqrt_shift_assignment(x, shift):
    """Exact sqrt|dx| assignment: x_i goes to x_{cols[i]} + shift at cost matched[i].

    Returns (matched, cols).  Sorted matching is not optimal for this concave
    cost; the level solver gives the permutation of a dense solve.
    """
    y = x + shift
    _, cols = linear_sum_assignment(x, y, np.sqrt)
    return np.sqrt(np.abs(x - y[cols])), cols


def _couple_vertical_density(z, shift, at, rng, m_bridge):
    """Concave-cost optimal plan between Law(Z|b) and its translate.

    Keeps z with probability min(1, f(z-s)/f(z)), else reflects about s/2:
    for an even unimodal f the residuals sit on opposite sides of s/2 and
    the reflection is their anti-monotone (concavity-optimal) matching.  f is
    read from the tabulated law.
    """
    u_stay = rng.uniform(size=z.shape[0])
    f_here = at.density(z)
    f_shift = at.density(z - shift)
    with np.errstate(divide="ignore", invalid="ignore"):
        stay_p = np.where(f_here > 0.0, np.minimum(1.0, f_shift / f_here), 1.0)
    z_tilde = np.where(u_stay < stay_p, z, shift - z)
    return z_tilde, z_tilde - z


def _couple_vertical_assignment(z, shift, at, rng, m_bridge):
    """Empirical plan: exact assignment between m_bridge atoms and their shift.

    For each sample, draws m_bridge conditional verticals from the tabulated
    law (one normal each, sample by sample, so working memory is
    O(m_bridge)), solves the exact sqrt-cost assignment against the same
    atoms shifted, and routes the drawn vertical through its nearest atom.
    """
    m = z.shape[0]
    z_tilde = np.empty(m)
    for i in range(m):
        zi = at.row(i).quantile(rng.standard_normal(m_bridge))
        _, cols = _sqrt_shift_assignment(zi, shift[i])
        nearest = int(np.argmin(np.abs(zi - z[i])))
        z_tilde[i] = zi[cols[nearest]] + shift[i]
    return z_tilde, z_tilde - z


def _translate_vertical(z, shift, at, rng, m_bridge):
    """Reference plan: every vertical moves by the full shift."""
    return z + shift, shift


_PLANS = {"density": _couple_vertical_density, "assignment": _couple_vertical_assignment,
          "translation": _translate_vertical}


def _reduce_offset(a, aprime):
    """Split a^{-1} a' into rotation frame, axis offset, and central part."""
    a, ap = _check_starts(a, aprime)
    delta = grp.mul(grp.inverse(a), ap)
    dh = grp.horizontal(delta)
    dz = float(grp.vertical(delta))
    rho = float(np.linalg.norm(dh))
    n = dh.size // 2
    if rho == 0.0:
        q_rot = np.eye(2 * n)
    else:
        q_rot = _frame_from_unit(dh / rho)
    return delta, q_rot, rho, dz, n


def _assemble(a, h_can, z_left, z_right, q_rot, delta_h):
    """Undo the canonical reduction, keeping the horizontal offset one add.

    Left horizontals are rotated out of the canonical frame and translated;
    right horizontals are formed as left + delta_h so the recorded offset is
    reproduced up to a single rounding per coordinate.
    """
    a_h, a_z = grp.horizontal(a), grp.vertical(a)
    h_left = h_can @ q_rot.T
    hl = a_h + h_left
    hr = hl + delta_h
    vl = a_z + z_left + 0.5 * grp.symplectic(np.broadcast_to(a_h, hl.shape), h_left)
    vr = a_z + z_right + 0.5 * grp.symplectic(
        np.broadcast_to(a_h, hr.shape), h_left + delta_h
    )
    left = np.concatenate([hl, vl[:, None]], axis=1)
    right = np.concatenate([hr, vr[:, None]], axis=1)
    return left, right


def _pinned_couple(a, aprime, t, n_samples, seed, m_steps, plan, m_bridge=None):
    """The pipeline behind every coupling here, for the plan named `plan`.

    The left verticals z are drawn exactly from the tabulated law `at` at the
    canonical endpoints, one normal each through sigma T_s.  m_steps is
    validated and otherwise unused (meta records None).  `_PLANS[plan](z,
    shift, at, rng, m_bridge)` gets their shifts rho * Y_1 and the stream
    after the left leg's draws, and returns the coupled verticals and the
    move from z.  It is not called at rho = 0, where the two laws coincide.
    """
    _check_horizon(t)
    _check_count("m_steps", m_steps)
    _check_count("n_samples", n_samples)
    if plan == "assignment":
        _check_count("m_bridge", m_bridge)
    delta, q_rot, rho, dz, n = _reduce_offset(a, aprime)
    rng = philox_stream(seed, 0)
    h_can = math.sqrt(t) * rng.standard_normal((n_samples, 2 * n))
    at = _law_at(h_can, t)
    z = at.quantile(rng.standard_normal(n_samples))
    shift = rho * h_can[:, n]  # offset times conjugate coordinate Y_1
    if rho == 0.0:
        z_tilde, move = z, np.zeros_like(z)
    else:
        z_tilde, move = _PLANS[plan](z, shift, at, rng, m_bridge)
    # right leg in canonical frame: Campbell correction of the horizontal
    # offset, then its central part
    z_right = z_tilde - 0.5 * shift + dz
    cost = np.sqrt(rho * rho + np.abs(move + dz))
    left, right = _assemble(a, h_can, z, z_right, q_rot, grp.horizontal(delta))
    meta = {
        "plan": plan,
        "t": t,
        "rho": rho,
        "delta_z": dz,
        "seed": seed,
        "m_steps": None,
        "m_bridge": m_bridge if plan == "assignment" else None,
        "n": n,
    }
    return StaticJointSample(left=left, right=right, cost=cost, meta=meta)


def static_couple(a, aprime, t=1.0, n_samples=1000, m_bridge=256, seed=0, plan="density",
                  m_steps=1024):
    """Couple the time-t laws started at a and a' with pinned horizontals.

    The horizontal parts differ by the constant hor(a^{-1} a') on every
    sample; only the vertical coordinate is transported, via the conditional
    plan selected by `plan` (see the module docstring).  Any central part of
    the offset rides along unchanged on the right leg.

    Args:
        a, aprime: finite group points (2n+1,).
        t: horizon, positive and finite.
        n_samples: joint samples to draw, an integer >= 1.
        m_bridge: atoms per sample for plan="assignment", an integer >= 1;
            the density plan draws no atoms and ignores it.
        seed: stream seed, an integer in [0, 2**64).
        plan: "density" or "assignment".
        m_steps: an integer >= 1, validated and otherwise unused: every
            plan draws from the exact tabulated law and runs no bridge
            (meta records None).

    Returns:
        StaticJointSample.
    """
    if plan not in ("density", "assignment"):
        raise ValueError('plan must be "density" or "assignment"')
    return _pinned_couple(a, aprime, t, n_samples, seed, m_steps, plan, m_bridge)


def baseline_translation_couple(a, aprime, t=1.0, n_samples=1000, seed=0, m_steps=1024):
    """Reference coupling that translates the conditional vertical law.

    Same reduction, marginals and arguments as static_couple with the
    translation plan; its cost concentrates at sqrt(rho^2 + |rho Y_1 + dz|).
    Its verticals come from the exact tabulated law and no bridge is run, so
    m_steps is validated and otherwise unused.
    """
    return _pinned_couple(a, aprime, t, n_samples, seed, m_steps, "translation")
