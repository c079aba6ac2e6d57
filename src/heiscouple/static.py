"""Fixed-time couplings of two Heisenberg Brownian motions.

Couples the time-t laws of two group Brownian motions started at a and a',
pinning the horizontal difference to hor(a^{-1} a') on every joint sample and
moving only the vertical coordinate.  Every coupling here runs one pipeline,
`_pinned_couple`: reduce to canonical position (a = identity, offset rho along
the first horizontal axis) by a left translation and a horizontal rotation,
draw the left leg, couple its vertical with the translate by rho * Y_1 through
a conditional plan given the horizontal endpoint, add the Campbell correction
and undo the reduction.  The plans are:

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

The two heavy steps, the bridge sampler and the density plan's conditional
densities, stream through sample chunks sized for a core's L2 cache, so their
working memory is O(chunk) beyond the O(n_samples) result arrays.  Draws are
sample-major, so the chunk sizes never change a sample's bits.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from heiscouple import group as grp
from heiscouple.coupling import _frame_from_unit
from heiscouple.simulate import _check_starts, philox_stream

# Standardized Fourier grid for conditional vertical densities: frequencies
# j * _DV for j < _M_GRID cover the slowest characteristic-function decay
# (endpoint near the origin) to below 1e-60; the reciprocal z-grid then has
# spacing 2*pi/(_M_GRID*_DV) ~ sigma/50 and reach pi/_DV ~ 20 sigma.
_M_GRID = 2048
_DV = 0.15625

# Chunk sizes (see the module docstring): bridge steps per chunk of the area
# sampler, and samples per chunk of the density plan.
_BRIDGE_CELLS = 2**14
_DENSITY_CHUNK = 16


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

    def to_csv(self, path, header_note=""):
        m, dim = self.left.shape
        n = (dim - 1) // 2
        cols = (
            ["sample_id"]
            + [f"L{c}{i+1}" for c in ("x", "y") for i in range(n)]
            + ["Lz"]
            + [f"R{c}{i+1}" for c in ("x", "y") for i in range(n)]
            + ["Rz", "cost"]
        )
        body = np.column_stack([np.arange(m), self.left, self.right, self.cost])
        with open(path, "w") as fh:
            if header_note:
                fh.write(f"# {header_note}\n")
            fh.write(",".join(cols) + "\n")
            np.savetxt(fh, body, delimiter=",", fmt="%.17g")


def _check_bridge_args(t, m_steps):
    if not 0.0 < t < math.inf:
        raise ValueError(f"t must be positive and finite, got {t!r}")
    if m_steps < 1:
        raise ValueError(f"m_steps must be at least 1, got {m_steps!r}")


def sample_levy_area_given_endpoint(b, t=1.0, m_steps=1024, rng=None, seed=0):
    """Vertical coordinate of a horizontal Brownian bridge 0 -> b on [0, t].

    Builds the bridge from scaled increments and accumulates the left-endpoint
    area sum (1/2) sum omega(B_{j-1}, dB_j), which is the vertical coordinate
    of the group path at time t given its horizontal endpoint b.  Bridges are
    built in place, a chunk of about _BRIDGE_CELLS steps (at least one bridge)
    at a time, so working memory is O(chunk), not O(len(b) * m_steps).
    Normals are drawn sample by sample, so an endpoint's area depends neither
    on the chunking nor on the endpoints after it.

    Args:
        b: (..., 2n) horizontal endpoints; one area per leading index.
        t: horizon, positive and finite.
        m_steps: bridge discretization, >= 1.
        rng: optional Generator (a fresh Philox stream from `seed` otherwise).

    Returns:
        Array of areas with shape b.shape[:-1].
    """
    b = np.asarray(b, dtype=float)
    if b.ndim < 1 or b.shape[-1] < 2 or b.shape[-1] % 2:
        raise ValueError("endpoints must have even horizontal dimension 2n")
    _check_bridge_args(t, m_steps)
    if rng is None:
        rng = philox_stream(seed, 0)
    lead = b.shape[:-1]
    flat = b.reshape(-1, b.shape[-1])
    m, d = flat.shape
    out = np.empty(m)
    chunk = max(1, min(m, _BRIDGE_CELLS // m_steps))
    sqdt = math.sqrt(t / m_steps)
    frac = np.arange(1, m_steps + 1) / m_steps
    # Normals arrive in draw order (sample, step, coordinate).  The path (led
    # by B_0 = 0) and its increments are stored step-contiguous per
    # coordinate, so the cumulative sums, the bridge correction and the
    # symplectic products run along contiguous memory.  Each area is the sum
    # of one contiguous row of m_steps products, whatever the chunk.
    normals = np.empty((chunk, m_steps, d))
    path = np.zeros((chunk, d, m_steps + 1))
    db = np.empty((chunk, d, m_steps))
    for lo in range(0, m, chunk):
        k = min(chunk, m - lo)
        nk, pk, dbk = normals[:k], path[:k], db[:k]
        w = pk[:, :, 1:]
        rng.standard_normal(out=nk)
        np.multiply(nk.transpose(0, 2, 1), sqdt, out=dbk)
        np.cumsum(dbk, axis=2, out=w)
        # bridge: B_j = W_j - (j/m)(W_m - b)
        w -= frac * (w[:, :, -1:] - flat[lo:lo + k, :, None])
        np.subtract(w, pk[:, :, :-1], out=dbk)
        area = grp.symplectic(pk[:, :, :-1].transpose(0, 2, 1), dbk.transpose(0, 2, 1))
        out[lo:lo + k] = 0.5 * area.sum(axis=1)
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


def _density_rows(q, t, n):
    """Standardized conditional vertical densities by FFT inversion.

    Args:
        q: (k,) squared endpoint norms.
        t: horizon.
        n: horizontal pairs.

    Returns:
        (z_grid, rows, sigma): z_grid (2*_M_GRID//2+1,) symmetric standardized
        grid, rows (k, len(z_grid)) densities of Z/sigma, sigma (k,).
    """
    q = np.asarray(q, dtype=float)
    sigma = np.sqrt((t / 12.0) * (n * t + q))
    v = np.arange(_M_GRID) * _DV  # standardized frequencies
    x = (v[None, :] / sigma[:, None]) * (t / 2.0)
    phi = np.exp(_log_phi(x, (q / (2.0 * t))[:, None], n))
    spec = np.fft.rfft(phi, n=_M_GRID).real - 0.5  # half-weight at j=0
    half = (_DV / math.pi) * spec  # density at z_k = 2 pi k/(M dv), k<=M/2
    rows = np.concatenate([half[:, -1:0:-1], half], axis=1)
    dz = 2.0 * math.pi / (_M_GRID * _DV)
    m_half = _M_GRID // 2
    z_grid = np.arange(-m_half, m_half + 1) * dz
    return z_grid, rows, sigma


def conditional_vertical_density(z, b, t=1.0):
    """Density of the vertical coordinate given horizontal endpoint b.

    Fourier inversion of the conditional characteristic function
    (x/sinh x)^n exp[(|b|^2/2t)(1 - x coth x)], x = ut/2, evaluated on a
    standardized grid and interpolated at z.  Even and unimodal in z.

    Args:
        z: evaluation points, any shape.
        b: single horizontal endpoint (2n,).
        t: horizon.

    Returns:
        Densities with the shape of z.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim != 1 or b.size % 2:
        raise ValueError("b must be a single horizontal endpoint (2n,)")
    z = np.asarray(z, dtype=float)
    grid, rows, sigma = _density_rows(np.array([b @ b]), t, b.size // 2)
    out = np.interp(z / sigma[0], grid, rows[0], left=0.0, right=0.0) / sigma[0]
    return out if out.ndim else float(out)


def _interp_rows(z_grid, rows, at):
    """Per-row linear interpolation on the shared uniform grid (0 outside)."""
    dz = z_grid[1] - z_grid[0]
    pos = (at - z_grid[0]) / dz
    idx = np.clip(np.floor(pos).astype(int), 0, len(z_grid) - 2)
    frac = pos - idx
    take = np.take_along_axis
    v0 = take(rows, idx[:, None], axis=1)[:, 0]
    v1 = take(rows, (idx + 1)[:, None], axis=1)[:, 0]
    vals = v0 * (1.0 - frac) + v1 * frac
    inside = (at >= z_grid[0]) & (at <= z_grid[-1])
    return np.where(inside, np.maximum(vals, 0.0), 0.0)


def _sqrt_shift_assignment(x, shift):
    """Exact sqrt|dx| assignment: x_i goes to x_{cols[i]} + shift at cost matched[i].

    Returns (matched, cols).  Sorted matching is not optimal for this concave cost.
    """
    cost = np.sqrt(np.abs(x[:, None] - (x[None, :] + shift)))
    rows, cols = linear_sum_assignment(cost)  # rows == arange: the cost is square
    return cost[rows, cols], cols


def _couple_vertical_density(z, shift, h_can, t, m_steps, rng):
    """Concave-cost optimal plan between Law(Z|b) and its translate.

    Keeps z with probability min(1, f(z-s)/f(z)), else reflects about s/2:
    for an even unimodal f the residuals sit on opposite sides of s/2 and
    the reflection is their anti-monotone (concavity-optimal) matching.  The
    densities are built _DENSITY_CHUNK samples at a time.
    """
    u_stay = rng.uniform(size=z.shape[0])
    q = (h_can**2).sum(axis=1)
    n = h_can.shape[1] // 2
    stay_p = np.empty_like(z)
    for lo in range(0, z.shape[0], _DENSITY_CHUNK):
        part = slice(lo, lo + _DENSITY_CHUNK)
        z_grid, rows, sigma = _density_rows(q[part], t, n)
        zs = z[part] / sigma
        f_here = _interp_rows(z_grid, rows, zs)
        f_shift = _interp_rows(z_grid, rows, zs - shift[part] / sigma)
        with np.errstate(divide="ignore", invalid="ignore"):
            stay_p[part] = np.where(f_here > 0.0, np.minimum(1.0, f_shift / f_here), 1.0)
    z_tilde = np.where(u_stay < stay_p, z, shift - z)
    return z_tilde, z_tilde - z


def _couple_vertical_assignment(z, shift, h_can, t, m_steps, rng, m_bridge):
    """Empirical plan: exact assignment between m_bridge atoms and their shift.

    For each sample, draws m_bridge conditional verticals, solves the exact
    sqrt-cost assignment against the same atoms shifted, and routes the drawn
    vertical through its nearest atom.
    """
    m = z.shape[0]
    reps = np.repeat(h_can, m_bridge, axis=0)
    atoms = sample_levy_area_given_endpoint(
        reps, t=t, m_steps=m_steps, rng=rng
    ).reshape(m, m_bridge)
    z_tilde = np.empty(m)
    for i in range(m):
        zi = atoms[i]
        _, cols = _sqrt_shift_assignment(zi, shift[i])
        nearest = int(np.argmin(np.abs(zi - z[i])))
        z_tilde[i] = zi[cols[nearest]] + shift[i]
    return z_tilde, z_tilde - z


def _translate_vertical(z, shift, h_can, t, m_steps, rng):
    """Reference plan: every vertical moves by the full shift."""
    return z + shift, shift


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


def _pinned_couple(a, aprime, t, n_samples, seed, m_steps, plan, vertical, m_bridge=None):
    """The pipeline behind every coupling here, for the plan `vertical`.

    `vertical(z, shift, h_can, t, m_steps, rng)` gets the left verticals, their
    shifts rho * Y_1, the canonical endpoints and the stream after the left
    leg's draws, and returns the coupled verticals and the move from z.  It is
    not called at rho = 0, where the two conditional laws coincide.
    """
    _check_bridge_args(t, m_steps)
    for name, count in (("n_samples", n_samples), ("m_bridge", m_bridge)):
        if count is not None and count < 1:
            raise ValueError(f"{name} must be at least 1, got {count!r}")
    delta, q_rot, rho, dz, n = _reduce_offset(a, aprime)
    rng = philox_stream(seed, 0)
    h_can = math.sqrt(t) * rng.standard_normal((n_samples, 2 * n))
    z = sample_levy_area_given_endpoint(h_can, t=t, m_steps=m_steps, rng=rng)
    shift = rho * h_can[:, n]  # offset times conjugate coordinate Y_1
    if rho == 0.0:
        z_tilde, move = z, np.zeros_like(z)
    else:
        z_tilde, move = vertical(z, shift, h_can, t, m_steps, rng)
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
        "m_steps": m_steps,
        "m_bridge": m_bridge,
        "n": n,
    }
    return StaticJointSample(left=left, right=right, cost=cost, meta=meta)


def static_couple(
    a,
    aprime,
    t=1.0,
    n_samples=1000,
    m_bridge=256,
    seed=0,
    plan="density",
    m_steps=1024,
):
    """Couple the time-t laws started at a and a' with pinned horizontals.

    The horizontal parts differ by the constant hor(a^{-1} a') on every
    sample; only the vertical coordinate is transported, via the conditional
    plan selected by `plan` (see the module docstring).  Any central part of
    the offset rides along unchanged on the right leg.

    Args:
        a, aprime: finite group points (2n+1,).
        t: horizon, positive and finite.
        n_samples: joint samples to draw, >= 1.
        m_bridge: atoms per sample for plan="assignment", >= 1.
        seed: stream seed.
        plan: "density" or "assignment".
        m_steps: bridge discretization for vertical draws, >= 1.

    Returns:
        StaticJointSample.
    """
    if plan == "density":
        vertical, m_bridge = _couple_vertical_density, None
    elif plan == "assignment":
        vertical = functools.partial(_couple_vertical_assignment, m_bridge=m_bridge)
    else:
        raise ValueError('plan must be "density" or "assignment"')
    return _pinned_couple(a, aprime, t, n_samples, seed, m_steps, plan, vertical, m_bridge)


def baseline_translation_couple(a, aprime, t=1.0, n_samples=1000, seed=0, m_steps=1024):
    """Reference coupling that translates the conditional vertical law.

    Same reduction, marginals and arguments as static_couple with the
    translation plan; its cost concentrates at sqrt(rho^2 + |rho Y_1 + dz|).
    """
    return _pinned_couple(a, aprime, t, n_samples, seed, m_steps, "translation",
                          _translate_vertical)


def transport_cost_sqrt_1d(samples, shift, max_n=512):
    """Exact sqrt-cost transport between an empirical measure and its shift.

    Solves the assignment between {x_i} and {x_i + shift} for the concave
    cost sqrt|dx| (sorted matching is not optimal for concave costs) and
    returns the mean matched cost.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    if x.size > max_n:
        raise ValueError(f"exact assignment limited to {max_n} samples")
    if x.size == 0:
        raise ValueError("empty sample")
    matched, _ = _sqrt_shift_assignment(x, shift)
    return float(matched.mean())
