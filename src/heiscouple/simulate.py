"""Euler schemes for coupled horizontal Brownian motions on H^n.

Two schemes over the same driving noise model:

* full scheme -- evolves the left quotient of the two legs, D = B - B' and
  Z = A - A' + (1/2) omega(B, B'); the first leg consumes dW and the second
  J dW + Jhat dWtilde.  Each step is the two-leg Euler map with
  left-endpoint vertical increments dA = (1/2) omega(B, dB), written in
  (D, Z):  D += dW - dB',  Z += (1/2) (omega(D, dW + dB') + omega(dW, dB')).

* reduced scheme -- evolves only the dilation-reduced pair (R^2, Z):

      dR^2 = 2 R sqrt(2 (1 - K11)) dC + 2 tr(I - K) dt
      dZ   = (R/2) sqrt(2 (1 + K22)) dCt + (1/2) sum_i (K[yi,xi]-K[xi,yi]) dt
      d<C, Ct> = rho dt,  rho = (K21 - K12) / sqrt(4 (1-K11)(1+K22))

  with K the coupling matrix in the moving frame (e1, e2 = M e1).

Each regime's K is the policy's `matrix_for_regime`; both engines read its
reduced coefficients from one table per policy (`_coefficient_tables`).  A
coefficient shared by every regime the policy can reach is a scalar; only
the others are gathered per path by regime code.

The reduced engine gives each built-in regime its exact radial update
(reflection: R/2 is a Brownian motion; perverse: R^2 += 4 dt; synchronous:
R frozen) and steps only custom K by Euler; routing the var_r = 0 regimes
through the Euler formula gives the same bits but measured 31-43 % slower.
It draws only what a reachable regime reads: the radial normal g1 iff the
reflection or custom regime is reachable, the vertical normal g2 iff some
regime has var_z > 0.  The full engine steps the perverse regime by the same
exact law (R^2 += 4 dt, Z fixed) and draws nothing for it either.  As both
engines step synchronous and perverse by closed-form (R^2, Z) laws,
scheme-consistency compares the engines only under reflection and kendall.

Boundary behaviour at R = 0 is policy-dependent and identical in both
schemes:

* reflection policy: R/2 is a standard Brownian motion; a step from R_k to
  R_{k+1} is declared to have hit 0 with the exact Brownian-bridge crossing
  probability exp(-R_k R_{k+1} / (2 dt)); after absorption the pair is merged
  horizontally and Z stays frozen (the policy latches to synchronous).

* kendall policy, reflection regime: no absorbed latch exists, so the radial
  part uses the reflected exact update R_{k+1} = |R_k + 2 sqrt(dt) g|; if the
  hysteresis later re-enters the synchronous region the regime switch does
  the freezing.

The exact reflection runner (`simulate_reflection_exact`) has no Euler step:
R/2 is a Brownian motion absorbed at 0, stepped exactly on a geometric grid,
one normal per path and cell.  Only a path whose crossing exponent
r rn / (2 dt) is below CROSSING_CUT = 53 ln 2 draws a uniform for the bridge
crossing; past it the crossing probability is below 2**-53, under a 53-bit
uniform's resolution.  Z is Gaussian given the R path, so it is drawn once
per checkpoint from the summed trapezoid variance.

Paths are carved into RNG blocks of RNG_BLOCK paths, block j drawing from the
counter-based stream keyed (seed, j) in a fixed per-step order.  A runner
splits the blocks into contiguous groups, one per thread but none narrower
than POOL_MIN_BLOCKS blocks (a narrower group costs more than its thread
saves), and steps each group as one array: every draw fills each block's
rows from that block's own stream, and every engine operation acts path by
path, so results are bitwise reproducible for a given (seed, n_paths)
regardless of thread count or group width.

The full engine holds D as one (2n, m) array, one contiguous row of m paths
per coordinate, and Z as one (m,) array, and sums 2n-term products row by
row.  Each such sum (|D|^2, frame components, symplectic forms) goes through
`_sum_terms` in the order numpy's last-axis `sum` adds the same terms for a
path-major (m, 2n) array, so the engine's bits are those of the path-major
form for n <= 3 (numpy sums 8 or more terms pairwise).  The custom regime
applies the frame of `coupling.frame` as its complex Householder reflector in
real arithmetic (`_frame_apply`), O(n) per path, without building the
matrix.  Every operation acts on each path's own entries, so a path gets the
same bits in a group of one path as in a wide one.  The increments are still
drawn path-major, in (m, 2n) buffers, and read through one scaled,
transposed copy per step.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from heiscouple import coupling as cpl
from heiscouple import group as grp
from heiscouple.constants import (
    CLAMP_TOL,
    CROSSING_CUT,
    DEFAULT_DT,
    KENDALL_DT_CAP,
    KENDALL_MAX_ITERS,
    KENDALL_SUCCESS_DH,
    POOL_MIN_BLOCKS,
    RNG_BLOCK,
)
from heiscouple.group import _sum_terms


def philox_stream(seed, block):
    """Counter-based stream keyed by (seed, block index).

    The seed must be an integer in [0, 2**64): a Python or numpy integer, not
    a bool or a float, so that no seed is silently rounded onto another's
    stream.  Every public entry point that takes a seed reaches this check.
    """
    if not (_is_integer(seed) and 0 <= seed < 2**64):
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    key = np.array([np.uint64(seed), np.uint64(block)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _blocks(n_paths, block=RNG_BLOCK):
    for b in range(0, (n_paths + block - 1) // block):
        lo = b * block
        yield b, lo, min(lo + block, n_paths)


def relative_coordinates(b, bprime, vert, vert_p):
    """(R^2, Z) of the left quotient: Z = A - A' + (1/2) omega(B, B')."""
    b = np.asarray(b, dtype=float)
    bprime = np.asarray(bprime, dtype=float)
    d = b - bprime
    r2 = (d**2).sum(axis=-1)
    z = (
        np.asarray(vert, dtype=float)
        - np.asarray(vert_p, dtype=float)
        + 0.5 * grp.symplectic(b, bprime)
    )
    return r2, z


@dataclass
class CouplingState:
    """Instantaneous state of one coupled pair in group coordinates."""

    b: np.ndarray        # horizontal part of the first leg, shape (2n,)
    bprime: np.ndarray   # horizontal part of the second leg
    vert: float          # vertical coordinate of the first leg
    vert_p: float        # vertical coordinate of the second leg
    t: float = 0.0

    @classmethod
    def from_points(cls, a, aprime, t=0.0):
        a = np.asarray(a, dtype=float)
        aprime = np.asarray(aprime, dtype=float)
        return cls(
            b=a[:-1].copy(),
            bprime=aprime[:-1].copy(),
            vert=float(a[-1]),
            vert_p=float(aprime[-1]),
            t=float(t),
        )

    @property
    def r2(self):
        return float(((self.b - self.bprime) ** 2).sum())

    @property
    def z(self):
        return float(relative_coordinates(self.b, self.bprime, self.vert, self.vert_p)[1])


def step_full(state, J, dt, dw, dwt=None, jhat=None):
    """One Euler step of the full scheme for a single pair.

    Args:
        state: CouplingState.
        J: canonical-basis coupling matrix (2n, 2n).
        dt: step size.
        dw: increment of the driving BM, shape (2n,), variance dt per axis.
        dwt: independent increment for the defect noise (needed iff jhat is).
        jhat: optional precomputed sqrt(I - J J^T).

    Returns:
        A new CouplingState advanced by dt.  No boundary logic here -- this
        is the bare scheme step; engines add absorption on top.
    """
    J = np.asarray(J, dtype=float)
    dw = np.asarray(dw, dtype=float)
    db = dw
    dbp = J @ dw
    if jhat is not None:
        dbp = dbp + np.asarray(jhat, dtype=float) @ np.asarray(dwt, dtype=float)
    vert = state.vert + 0.5 * grp.symplectic(state.b, db)
    vert_p = state.vert_p + 0.5 * grp.symplectic(state.bprime, dbp)
    return CouplingState(
        b=state.b + db,
        bprime=state.bprime + dbp,
        vert=float(vert),
        vert_p=float(vert_p),
        t=state.t + dt,
    )


def step_reduced(r2, z, K, dt, g1, g2):
    """One Euler step of the reduced scheme for a single pair.

    g1, g2 are independent standard normals; the correlation rho between the
    two driving BMs is realised as dCt = rho g1 + sqrt(1-rho^2) g2.  Negative
    R^2 proposals are clamped to zero.  Returns (r2', z').
    """
    co = cpl.reduced_coefficients(np.asarray(K, dtype=float))
    r = math.sqrt(max(float(r2), 0.0))
    sdt = math.sqrt(dt)
    dc = sdt * g1
    rho = float(co["rho"])
    dct = sdt * (rho * g1 + math.sqrt(max(1.0 - rho**2, 0.0)) * g2)
    sd_r = math.sqrt(max(float(co["var_r"]), 0.0))
    sd_z = math.sqrt(max(float(co["var_z"]), 0.0))
    r2n = float(r2) + 2.0 * r * sd_r * dc + float(co["drift_r"]) * dt
    zn = float(z) + 0.5 * r * sd_z * dct + float(co["drift_z"]) * dt
    return max(r2n, 0.0), zn


@dataclass
class PathEnsemble:
    """Checkpointed ensemble produced by the simulation engines.

    Arrays are shaped (n_checkpoints, n_paths); `absorbed_at` is per-path
    (NaN when the path never merged).  `v` is the accumulated drift
    variation (1/2) int |sum_i (K[yi,xi]-K[xi,yi])| ds and `qv` the vertical
    quadratic variation int R^2 (1 + K22) / 2 ds.
    """

    times: np.ndarray
    r2: np.ndarray
    z: np.ndarray
    v: np.ndarray
    qv: np.ndarray
    drift_int: np.ndarray
    absorbed_at: np.ndarray
    meta: dict = field(default_factory=dict)

    def d_h(self):
        """Quasidistance sqrt(R^2 + |Z|) at every checkpoint."""
        return np.sqrt(self.r2 + np.abs(self.z))

    @property
    def n_paths(self):
        return self.r2.shape[1]

    def to_csv(self, path, header_note="", max_paths=None):
        """Write the long-format ensemble table.

        First line is a `#` comment (timestamp/notes -- excluded from
        reproducibility comparisons); the body is deterministic.  With
        `max_paths` set (None or an integer >= 0), only the first that many
        paths are written (keeps large-ensemble artifacts bounded without
        changing what is written for any path that does appear).

        Byte contract: below the column header, one row per checkpoint and
        path, checkpoint-major, every float as `%.17g`, which round-trips
        every float64 through `float()`; path_id is the bare integer.  Rows are written in blocks of one checkpoint's paths, at
        most _CSV_ROWS at a time (`_write_csv_block`), so neither the file's
        text nor its whole table is ever held.  A column that is bitwise
        constant over a write block (a merged or frozen quantity, a drift
        that never moves) has its cell formatted once for the block.
        """
        _check_count("max_paths", max_paths, 0, optional=True)
        nt, m = self.r2.shape
        if max_paths is not None:
            m = min(m, int(max_paths))
        ids = list(map(str, range(m)))
        with open(path, "w") as fh:
            fh.write(f"# {header_note}\n")
            fh.write("checkpoint_time,path_id,R2,Z,V,QV\n")
            for k, t in enumerate(self.times.tolist()):
                block = np.stack([self.r2[k, :m], self.z[k, :m], self.v[k, :m],
                                  self.qv[k, :m]], axis=1)
                _write_csv_block(fh, ids, block, lead="%.17g," % t)


# rows per write of _write_csv_block: bounds the text held, not the file's size
_CSV_ROWS = 8192


def _write_csv_block(fh, ids, values, lead):
    """Write the rows `lead + ids[i] + ",%.17g" % v + ... + "\\n"`, v over values[i].

    `values` is (len(ids), k); neither `lead` nor any id may hold a `%`.
    Rows go out in chunks of at most _CSV_ROWS, each as one `%` over one
    chunk template.  A column whose float64 bits are equal in every row of
    the chunk is formatted once, straight into the template; only the other
    columns keep a `%.17g` field.  Bits, not values, decide, so 0.0 never
    stands in for -0.0 and NaNs fold only with the same payload.  Every
    cell is `"%.17g" % value` of the Python float either way, so the bytes
    are those of formatting the table cell by cell, without the per-cell
    cost.  With ids `str(i)`, they are also those of `%.17g` over the
    (row number, values) table, since that is the integer text `%.17g`
    gives an integer-valued float below 2**53.
    """
    values = np.asarray(values, dtype=float)
    for lo in range(0, len(ids), _CSV_ROWS):
        hi = lo + _CSV_ROWS
        chunk = values[lo:hi]
        bits = chunk.view(np.uint64)
        const = (bits == bits[0]).all(axis=0)
        cells = "".join("," + ("%.17g" % v if c else "%.17g")
                        for v, c in zip(chunk[0].tolist(), const.tolist())) + "\n"
        text = lead + (cells + lead).join(ids[lo:hi]) + cells
        fh.write(text % tuple(chunk[:, ~const].ravel().tolist()))


def default_checkpoints(T, dt):
    """Dyadic grid {T 2^-k} down to the step scale, plus {0, T}."""
    ts = [0.0, float(T)]
    t = float(T) / 2.0
    while t >= max(dt, T * 2.0**-12):
        ts.append(t)
        t /= 2.0
    return sorted(set(ts))


def _checkpoint_steps(checkpoints, dt, n_steps):
    idx = sorted({int(round(min(t / dt, n_steps))) for t in checkpoints})
    return np.array(idx, dtype=np.int64)


# ---------------------------------------------------------------------------
# shared engine pieces


def _check_run_args(n_paths, checkpoints):
    _check_count("n_paths", n_paths)
    if checkpoints is not None:
        cks = np.asarray(checkpoints, dtype=float)
        if not np.all(np.isfinite(cks)) or np.any(cks < 0.0):
            raise ValueError(f"checkpoints must be finite and >= 0, got {checkpoints!r}")


def _check(ok, name, val, what):
    """Raise ValueError "<name> must be <what>" unless ok."""
    if not ok:
        raise ValueError(f"{name} must be {what}, got {val!r}")


def _check_finite(name, x):
    """Raise ValueError naming `name` unless every entry of the array x is finite."""
    bad = x.size - np.count_nonzero(np.isfinite(x))
    if bad:
        raise ValueError(f"{name} must be finite, got {bad} non-finite of {x.size} values")


def _whole_steps(T, dt):
    """round(T / dt), or None unless that many steps of dt make T to a relative
    1e-9 (so a positive T takes at least one step) and the count fits an int64."""
    q = T / dt
    if not q < 2.0**63:  # refuses inf and NaN too
        return None
    n_steps = int(round(q))
    return n_steps if abs(n_steps * dt - T) <= 1e-9 * T else None


def _is_integer(x):
    """A Python or numpy integer, not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_count(name, val, least=1, optional=False):
    """Raise ValueError "<name> must be an integer >= <least>" unless val is one.

    With `optional`, None is accepted too and the message says so."""
    ok = (optional and val is None) or (_is_integer(val) and val >= least)
    _check(ok, name, val, ("None or " if optional else "") + f"an integer >= {least}")


def _check_starts(a, aprime):
    """The start points as float arrays: finite group points of one shape."""
    a = np.asarray(a, dtype=float)
    ap = np.asarray(aprime, dtype=float)
    if a.ndim != 1:
        raise ValueError(f"a must be one group point (2n+1,), got shape {a.shape}")
    if ap.shape != a.shape:
        raise ValueError(f"aprime must be a group point of equal shape to a {a.shape}, "
                         f"got {ap.shape}")
    for name, point in (("a", a), ("aprime", ap)):
        if not np.all(np.isfinite(point)):
            raise ValueError(f"{name} must be finite, got {point!r}")
    return a, ap


def _coefficient_tables(policy, n):
    """Reduced coefficients of every regime the policy can reach.

    Each regime's frame-basis K gives, through cpl.reduced_coefficients,

        sd_r = sqrt(var_r), sd_z = sqrt(var_z), rho, rho_c = sqrt(1 - rho^2),
        drift_r, drift_z, and qv = (1 + K22) / 2 (vertical QV rate over R^2).

    A coefficient equal in every reachable regime is a float; otherwise it is
    an array indexed by regime code and gathered per path (`_at`), which costs
    several times a multiply.
    """
    rows = {}
    for code in policy.regimes:
        co = cpl.reduced_coefficients(policy.matrix_for_regime(code, n))
        co = {key: float(val) for key, val in co.items()}
        rows[code] = {
            "sd_r": math.sqrt(max(co["var_r"], 0.0)),
            "sd_z": math.sqrt(max(co["var_z"], 0.0)),
            "rho": co["rho"],
            "rho_c": math.sqrt(max(1.0 - co["rho"] ** 2, 0.0)),
            "drift_r": co["drift_r"],
            "drift_z": co["drift_z"],
            "qv": co["var_z"] / 4.0,
        }
    first = rows[policy.regimes[0]]
    return {
        name: val if all(row[name] == val for row in rows.values())
        else np.array([rows.get(code, first)[name] for code in range(cpl.REGIME_CUSTOM + 1)])
        for name, val in first.items()
    }


def _at(coef, regime):
    """A coefficient for each path: shared float, or gathered by regime."""
    return coef if isinstance(coef, float) else coef[regime]


def _nonzero(coef):
    """False only for a shared coefficient of 0, whose term can be skipped."""
    return isinstance(coef, np.ndarray) or coef != 0.0


def _bridge_hit(r, rn, dt, u):
    """Whether R/2, a Brownian motion stepping from r/2 to rn/2 over dt, hit 0.

    Certain when rn <= 0; otherwise with the Brownian-bridge crossing
    probability exp(-r rn / (2 dt)), decided by the uniform u.
    """
    with np.errstate(over="ignore"):
        pcross = np.exp(-np.clip(r * rn / (2.0 * dt), 0.0, 700.0))
    return (rn <= 0.0) | (u < pcross)


class _Recorder:
    """One block's output: checkpoint rows, hitting times, running integrals.

    v, qv and drift_int accumulate the PathEnsemble integrals of the same
    names; a call at a checkpoint step copies them and (r2, z) into its row.
    """

    def __init__(self, ck_steps, m):
        self.row = {s: i for i, s in enumerate(ck_steps)}
        self.out = {
            key: np.empty((len(ck_steps), m))
            for key in ("r2", "z", "v", "qv", "drift_int")
        }
        self.v, self.qv, self.drift_int = np.zeros(m), np.zeros(m), np.zeros(m)
        self.absorbed_at = np.full(m, np.nan)

    def accumulate(self, coef, regime, r2, dt):
        """One left-endpoint step of the integrals under the regimes' K."""
        if _nonzero(coef["drift_z"]):
            self.v += abs(_at(coef["drift_z"], regime)) * dt
        if _nonzero(coef["qv"]):
            self.qv += r2 * _at(coef["qv"], regime) * dt
        if _nonzero(coef["drift_r"]):
            self.drift_int += _at(coef["drift_r"], regime) * dt

    def __call__(self, step, r2, z):
        i = self.row.get(step)
        if i is not None:
            for key, val in (("r2", r2), ("z", z), ("v", self.v), ("qv", self.qv),
                             ("drift_int", self.drift_int)):
                self.out[key][i] = val

    def result(self, clamps=0, **counts):
        return dict(self.out, absorbed_at=self.absorbed_at, clamps=clamps, **counts)


class _Streams:
    """The Philox streams of a contiguous group of RNG blocks, drawn side by side.

    A draw fills a group-wide buffer whose rows [lo, hi) belong to block j and
    come from philox_stream(seed, j), exactly as if the block were stepped
    alone.  Given the ascending row indices `idx`, it fills only those rows,
    packed into out[:len(idx)]: each block draws for its own rows, in row
    order; a lone block draws for all of `idx` with no search.  `size` goes
    along with `out`, so a generator wrapper that counts variates by `size`
    counts these draws too.
    """

    def __init__(self, seed, spans):
        base = spans[0][1]
        self.gens = [philox_stream(seed, block) for block, _, _ in spans]
        self.m = spans[-1][2] - base
        self.bounds = [lo - base for _, lo, _ in spans] + [self.m]

    def normal(self, out, idx=None):
        self._fill("standard_normal", out, idx)

    def uniform(self, out, idx=None):
        self._fill("random", out, idx)

    def _fill(self, method, out, idx):
        cuts = (self.bounds if idx is None else [0, len(idx)] if len(self.gens) == 1
                else np.searchsorted(idx, self.bounds))
        for gen, a, b in zip(self.gens, cuts[:-1], cuts[1:]):
            if b > a:
                getattr(gen, method)(out[a:b].shape, out=out[a:b])


def _run_groups(run, n_paths, threads):
    """Run `run(spans)` once per group of RNG blocks and join the groups' outputs.

    With threads == 1 the blocks of `_blocks(n_paths)` run as one group on
    the caller's thread.  Otherwise they split into k = max(1, min(threads,
    n_blocks // POOL_MIN_BLOCKS)) contiguous groups of whole blocks, as even
    as whole blocks allow, each stepped as one array on its own pool worker:
    a group narrower than POOL_MIN_BLOCKS costs more in per-step overhead
    than its thread saves (see constants.py), and a run too narrow to split
    still runs its one group on a worker.  The engines act path by path, so
    a path's bits do not depend on its group's width.  `run` returns
    per-path arrays (path axis last) and int counts ("clamps" and any
    others).  The arrays are joined in block order and each count summed, so
    the result does not depend on `threads`.  Returns (arrays, counts), and
    counts["groups"] is k.
    """
    spans = list(_blocks(n_paths))
    if threads == 1:
        results = [run(spans)]
    else:
        k = max(1, min(threads, len(spans) // POOL_MIN_BLOCKS))
        groups = [spans[i * len(spans) // k:(i + 1) * len(spans) // k] for i in range(k)]
        with ThreadPoolExecutor(max_workers=k) as ex:
            results = list(ex.map(run, groups))
    counts = {key: sum(res.pop(key) for res in results)
              for key, val in list(results[0].items()) if isinstance(val, int)}
    counts["groups"] = len(results)
    if len(results) == 1:
        return results[0], counts
    arrays = {key: np.concatenate([res[key] for res in results], axis=-1)
              for key in results[0]}
    return arrays, counts


# ---------------------------------------------------------------------------
# vectorised engines, each stepping one group of RNG blocks (`spans`)


def _run_reduced_block(policy, coef, absorbing, a, aprime, n_steps, dt, ck_steps, seed, spans):
    """Reduced-scheme engine: Euler Z, per-regime radial update of R^2."""
    rng = _Streams(seed, spans)
    m = rng.m
    r2_0, z_0 = relative_coordinates(a[:-1], aprime[:-1], a[-1], aprime[-1])
    r2 = np.full(m, float(r2_0))
    z = np.full(m, float(z_0))
    regime = policy.initial_regime(r2, z)
    regimes = policy.regimes
    clamps = 0
    clamp_floor = -CLAMP_TOL * max(float(r2_0), 1.0)
    sd_r, sd_z, rho, rho_c = coef["sd_r"], coef["sd_z"], coef["rho"], coef["rho_c"]
    drift_r, drift_z = coef["drift_r"], coef["drift_z"]
    sdt = math.sqrt(dt)
    rec = _Recorder(ck_steps, m)
    g1, g2, u = np.empty(m), np.empty(m), np.empty(m)
    # draw only what a reachable regime reads: g1 drives the reflected and
    # custom radial steps (and custom's correlated Z), g2 the vertical step
    draw_g1 = cpl.REGIME_REFLECT in regimes or cpl.REGIME_CUSTOM in regimes
    draw_g2 = _nonzero(sd_z)

    rec(0, r2, z)
    for k in range(1, n_steps + 1):
        regime = policy.next_regime(r2, z, regime)
        if draw_g1:
            rng.normal(g1)
        if draw_g2:
            rng.normal(g2)
        if absorbing:
            rng.uniform(u)

        r = np.sqrt(r2)
        # vertical update first (left-endpoint R), shared by every regime
        if _nonzero(sd_z):
            dct = _at(rho, regime) * g1 + _at(rho_c, regime) * g2 if _nonzero(rho) else g2
            z = z + 0.5 * r * _at(sd_z, regime) * sdt * dct
        if _nonzero(drift_z):
            z += _at(drift_z, regime) * dt
        rec.accumulate(coef, regime, r2, dt)

        for code in regimes:
            if code == cpl.REGIME_SYNC:
                continue  # R frozen
            mask = None if len(regimes) == 1 else regime == code
            if mask is not None and not mask.any():
                continue
            if code == cpl.REGIME_REFLECT:
                # R/2 is a standard BM: kendall reflects it at 0 (|rn|^2 =
                # rn^2), the reflection policy absorbs it there
                rn = r + 2.0 * sdt * g1
                new = rn**2
                if absorbing:
                    hit = _bridge_hit(r, rn, dt, u)
                    if mask is not None:
                        hit &= mask
                    new[hit] = 0.0
                    rec.absorbed_at[hit & np.isnan(rec.absorbed_at)] = (k - 0.5) * dt
            elif code == cpl.REGIME_PERVERSE:
                new = r2 + 4.0 * dt
            else:
                new = r2 + 2.0 * r * _at(sd_r, regime) * sdt * g1 + _at(drift_r, regime) * dt
                low = new < clamp_floor
                clamps += int((low if mask is None else low & mask).sum())
                new = np.clip(new, 0.0, None)
            r2 = new if mask is None else np.where(mask, new, r2)
        rec(k, r2, z)

    return rec.result(clamps)


def _matvec(a_t, x):
    """A x for (k, m) columns x, from a_t = A.T[..., None]: sum_j A[:, j] x_j."""
    return _sum_terms(a_t * x[:, None])


def _frame_axis(e1):
    """The reflector of `coupling.frame` at the unit (2n, m) columns e1.

    That frame is the real form of the unitary U = P D on C^n, where w is e1
    as a complex vector, alpha = w_0 / |w_0| (1 where w_0 = 0), P the
    Householder reflector of the axis u = w + alpha e_0, and D multiplies
    coordinate 0 by -alpha.  Returns what `_frame_apply` needs:
    (u, M u, f u, f M u, -Re alpha, Im alpha) with f = 2 / |u|^2.
    """
    n = len(e1) // 2
    a0 = np.sqrt(e1[0] * e1[0] + e1[n] * e1[n])
    pos = a0 > 0.0
    a0 = np.where(pos, a0, 1.0)
    ar = np.where(pos, e1[0] / a0, 1.0)
    ai = e1[n] / a0  # +-0 where w_0 = 0
    u = e1.copy()
    u[0] += ar
    u[n] += ai
    mu = np.concatenate([-u[n:], u[:n]])
    f = 2.0 / _sum_terms(u * u)
    return u, mu, f * u, f * mu, -ar, ai


def _turn(x, cr, ci):
    """Multiply the pair (x_0, x_n) of x, read as x_0 + i x_n, by cr + i ci, in place."""
    n = len(x) // 2
    x0 = cr * x[0] - ci * x[n]
    x[n] *= cr
    x[n] += ci * x[0]
    x[0] = x0


def _frame_apply(axis, x, transpose=False):
    """Q x, or Q^T x with transpose, for the frame Q of `_frame_axis` and (2n, m) x.

    On C^n, u^H x = u . x + i omega(u, x) with omega(u, x) = (M u) . x, so in
    real arithmetic the reflector is P x = x - f ((u . x) u + ((M u) . x) M u).
    Q x = P (D x) and Q^T x = D^H (P x), where D multiplies the pair (x_0, x_n)
    by -alpha and D^H by -conj(alpha).  Every operation acts on each path's
    own entries, so a path gets the same bits in a call of any width.
    """
    u, mu, fu, fmu, nar, ai = axis
    if not transpose:
        x = x.copy()
        _turn(x, nar, -ai)
    y = x - _sum_terms(u * x) * fu
    y -= _sum_terms(mu * x) * fmu
    if transpose:
        _turn(y, nar, ai)
    return y


def _mask(x):
    """A path mask as True when every path is set, False when none is, else x.

    np.where(x, new, old) is `new` bit for bit when x is all true, so the
    full engine skips the pass (and `new` itself when x is all false)."""
    return True if x.all() else (x if x.any() else False)


def _pick(mask, new, old):
    """np.where(mask, new, old) for a `_mask` that is not False."""
    return new if mask is True else np.where(mask, new, old)


def _run_full_block(policy, coef, absorbing, a, aprime, n_steps, dt, ck_steps, seed, spans):
    """Full-scheme engine: Euler on the left quotient (D, Z), D = B - B'.

    Each step drives B by dW and B' by dB' = J dW (+ Jhat dWtilde for a
    custom K), with J read from the frame of D, and applies the Euler map of
    the two legs with left-endpoint areas in quotient form:

        D += dW - dB',    Z += (1/2) (omega(D, dW + dB') + omega(dW, dB')).

    Under the synchronous regime dB' = dW, so D stays bitwise constant, and Z
    too once D = 0: an absorbed pair (D and R^2 set to 0) stays frozen.  The
    perverse regime takes its exact law, R^2 += 4 dt with Z fixed, as in the
    reduced engine; no policy leaves it, so D is not stepped and no noise is
    drawn there.  R^2 is |D|^2 otherwise.  The array layout is the module
    docstring's.
    """
    rng = _Streams(seed, spans)
    m = rng.m
    n = grp.npairs(a)
    r2_0, z_0 = relative_coordinates(a[:-1], aprime[:-1], a[-1], aprime[-1])
    d = np.repeat((a[:-1] - aprime[:-1])[:, None], m, axis=1)
    r2 = np.full(m, float(r2_0))
    z = np.full(m, float(z_0))
    regime = policy.initial_regime(r2, z)
    regimes = policy.regimes
    perverse = cpl.REGIME_PERVERSE in regimes  # the perverse policy's only regime
    custom = cpl.REGIME_CUSTOM in regimes
    if custom:
        K = policy.matrix_for_regime(cpl.REGIME_CUSTOM, n)
        Khat = cpl.complete_jhat(K)
        need_defect = float(np.abs(Khat).max()) > 0.0
        K_t, Khat_t = K.T[..., None], Khat.T[..., None]
    sdt = math.sqrt(dt)
    rec = _Recorder(ck_steps, m)
    dw, dwt, u = np.empty((m, 2 * n)), np.empty((m, 2 * n)), np.empty(m)
    dw_c, dwt_c = np.empty((2 * n, m)), np.empty((2 * n, m))

    rec(0, r2, z)
    for k in range(1, n_steps + 1):
        regime = policy.next_regime(r2, z, regime)
        rec.accumulate(coef, regime, r2, dt)
        if perverse:
            r2 = r2 + 4.0 * dt
            rec(k, r2, z)
            continue
        rng.normal(dw)
        np.multiply(dw.T, sdt, out=dw_c)
        if custom:
            rng.normal(dwt)
            np.multiply(dwt.T, sdt, out=dwt_c)
        if absorbing:
            rng.uniform(u)

        # dB' = dW (synchronous, and wherever R = 0) unless a regime turns it
        r = np.sqrt(r2)
        refl, cust = (_mask((regime == code) & (r > 0.0)) if code in regimes else False
                      for code in (cpl.REGIME_REFLECT, cpl.REGIME_CUSTOM))
        if refl is not False or cust is not False:
            e1 = d / np.where(r > 0.0, r, 1.0)
        dbp = dw_c
        if refl is not False:
            comp = _sum_terms(e1 * dw_c)
            dbp = _pick(refl, dw_c - 2.0 * comp * e1, dbp)
        if cust is not False:
            # dbp = Q (K Q^T dw + Khat Q^T dwt)
            axis = _frame_axis(e1)
            y = _matvec(K_t, _frame_apply(axis, dw_c, transpose=True))
            if need_defect:
                y += _matvec(Khat_t, _frame_apply(axis, dwt_c, transpose=True))
            dbp = _pick(cust, _frame_apply(axis, y), dbp)

        z = z + 0.5 * (grp.symplectic(d.T, (dw_c + dbp).T) + grp.symplectic(dw_c.T, dbp.T))
        d += dw_c - dbp
        if absorbing and refl is not False:
            # radial walk is exactly linear under reflection; apply the
            # bridge-crossing absorption so R/2 is a true absorbed BM
            hit = _bridge_hit(r, r + 2.0 * comp, dt, u)
            if refl is not True:
                hit &= refl
            if np.any(hit):
                d = np.where(hit, 0.0, d)
                rec.absorbed_at[hit & np.isnan(rec.absorbed_at)] = (k - 0.5) * dt
        r2 = _sum_terms(d * d)
        rec(k, r2, z)

    return rec.result()


def simulate_ensemble(
    policy,
    a,
    aprime,
    T,
    n_paths,
    dt=DEFAULT_DT,
    seed=0,
    scheme="full",
    checkpoints=None,
    threads=1,
):
    """Simulate a coupled ensemble and record it at checkpoint times.

    Args:
        policy: CouplingPolicy; a custom K must be 2n x 2n.
        a, aprime: finite starting group points, arrays of length 2n + 1.
        T: horizon, finite and >= 0.
        n_paths: ensemble size, an integer >= 1.
        dt: Euler step, positive and finite; T must be a whole number of
            steps, at least one when T > 0.
        seed: base seed, an integer in [0, 2**64); path block j uses the
            stream keyed (seed, j).
        scheme: "full" (Euler on the left quotient (D, Z) of the two legs) or
            "reduced" ((R^2, Z) only).
        checkpoints: recording times, finite and >= 0 (snapped to the step
            grid, and to T past it); default is the dyadic grid of
            `default_checkpoints`.
        threads: integer >= 1; at most this many pool workers each step one
            contiguous group of at least POOL_MIN_BLOCKS RNG blocks as one
            array (`_run_groups`).  Does not affect output.

    Returns:
        PathEnsemble.  Its meta counts the clamps and path-steps, and
        "groups" the number of groups the run was split into.
    """
    if scheme not in ("full", "reduced"):
        raise ValueError(f"unknown scheme {scheme!r}")
    _check_count("threads", threads)
    _check_run_args(n_paths, checkpoints)
    a, aprime = _check_starts(a, aprime)
    n = grp.npairs(a)
    _check(0.0 <= T < math.inf, "T", T, "finite and >= 0")
    _check(0.0 < dt < math.inf, "dt", dt, "positive and finite")
    n_steps = _whole_steps(T, dt)
    if n_steps is None:
        raise ValueError("T must be an integer multiple of dt")
    if checkpoints is None:
        checkpoints = default_checkpoints(T, dt)
    ck_steps = _checkpoint_steps(checkpoints, dt, n_steps)

    engine = _run_reduced_block if scheme == "reduced" else _run_full_block
    absorbing = policy.kind == "reflection"  # absorbed at R = 0, then latched
    run = partial(engine, policy, _coefficient_tables(policy, n), absorbing,
                  a, aprime, n_steps, dt, ck_steps, seed)
    arrays, counts = _run_groups(run, n_paths, threads)
    clamps = counts["clamps"]
    steps = n_steps * n_paths
    return PathEnsemble(
        times=ck_steps * dt,
        **arrays,
        meta={
            "policy": policy.kind,
            "scheme": scheme,
            "dt": dt,
            "seed": seed,
            "n": n,
            "n_paths": n_paths,
            "groups": counts["groups"],
            "clamps": clamps,
            "steps": steps,
            "clamp_fraction": clamps / steps if steps else 0.0,
        },
    )


def simulate_reflection_exact(
    r0,
    T,
    n_paths,
    z0=0.0,
    seed=0,
    delta=1.0 / 64.0,
    t_first=1e-4,
    checkpoints=None,
    threads=1,
):
    """Reflection coupling without Euler bias in the radial part.

    Under reflection, R/2 is a standard BM absorbed at 0 and dZ = R dCt with
    Ct a BM independent of R.  The reflection matrix has the same reduced
    coefficients on every H^n (var_r = var_z = drift_r = 4, the others 0),
    so the (R^2, Z) law sampled here is the reflection coupling's on every
    H^n.  R is sampled exactly on a geometrically refined grid (first cell
    `t_first`, then relative spacing `delta`, every checkpoint a grid point).
    Each RNG block draws from its own stream, for its own rows, per cell:

    * radial: one normal g per path, absorbed paths included, and
      rn = r + 2 sqrt(dt) g; absorbed paths stay at 0;
    * crossing: an alive path with rn <= 0 hits 0.  One with rn > 0 crossed
      with the Brownian-bridge probability exp(-x), x = r rn / (2 dt): it
      draws one uniform u, in path order, and hits iff u < exp(-x), but only
      while r rn < 2 dt CROSSING_CUT.  Past that cut exp(-x) < 2**-53, which
      a 53-bit uniform undercuts only at u == 0.0, so the path misses
      without a draw.  A hit is recorded mid-cell;
    * vertical: given the R path the cell increments of Z are independent
      centred normals of variance (r^2 + rn^2)/2 dt (the trapezoid rule for
      int R^2 ds).  Their sum over a checkpoint interval is drawn at the
      checkpoint as one normal per path, scaled by the root of the summed
      variance, and qv gains that sum.

    `drift_int` is int 2 tr(I - K) ds = 4 t while R lives.  As in the Euler
    engines, a path stops adding at the end of the cell in which it is
    absorbed, so each checkpoint records 4 min(t, end of the absorbing cell).

    Checkpoints must be finite and >= 0; those past T are recorded at T.
    `n_paths` must be an integer >= 1, `r0` and `T` finite and >= 0, `z0`
    finite, `delta` and `t_first` finite and > 0.  `threads` must be an
    integer >= 1; at most this many pool workers each step one contiguous
    group of at least POOL_MIN_BLOCKS RNG blocks as one array
    (`_run_groups`), and the output does not depend on their number.

    Returns a PathEnsemble whose absorbed_at carries the hitting times (NaN
    when R survives past T).  Its meta counts the path-cells stepped
    ("cells"), the uniforms drawn ("crossing_draws"), the absorbed paths
    ("absorbed") and the groups the run was split into ("groups").
    """
    _check_count("threads", threads)
    _check_run_args(n_paths, checkpoints)
    _check(0.0 <= r0 < math.inf, "r0", r0, "finite and >= 0")
    _check(0.0 <= T < math.inf, "T", T, "finite and >= 0")
    _check(math.isfinite(z0), "z0", z0, "finite")
    _check(0.0 < delta < math.inf, "delta", delta, "positive and finite")
    _check(0.0 < t_first < math.inf, "t_first", t_first, "positive and finite")
    if checkpoints is None:
        checkpoints = default_checkpoints(T, max(t_first, T * 2.0**-12))
    checkpoints = sorted({min(float(c), T) for c in checkpoints})
    grid = [0.0, t_first]
    while grid[-1] < T:
        grid.append(min(grid[-1] * (1.0 + delta), T))
    grid = np.array(sorted(set(grid) | set(checkpoints)))
    grid = grid[grid <= T]
    ck_idx = np.searchsorted(grid, np.asarray(checkpoints, dtype=float))
    draw_z = set(ck_idx.tolist()) - {0}
    dts = np.diff(grid)

    def run(spans):
        rng = _Streams(seed, spans)
        m = rng.m
        r, rn = np.full(m, float(r0)), np.empty(m)
        r2, rn2 = r * r, np.empty(m)
        z = np.full(m, float(z0))
        rec = _Recorder(ck_idx, m)
        alive = np.ones(m, dtype=bool)  # R has not hit 0
        end = np.full(m, math.inf)  # end of the absorbing cell
        g, u, x, near = np.empty(m), np.empty(m), np.empty(m), np.empty(m, dtype=bool)
        var = np.zeros(m)  # variance of Z's increment since the last checkpoint
        draws = 0
        rec(0, r2, z)
        for j, dtj in enumerate(dts):
            rng.normal(g)
            np.multiply(g, 2.0 * math.sqrt(dtj), out=rn)
            rn *= alive
            rn += r
            np.multiply(r, rn, out=x)
            np.less(x, 2.0 * dtj * CROSSING_CUT, out=near)
            near &= alive
            idx = np.flatnonzero(near)
            if idx.size:
                up = rn[idx] > 0.0
                hit, drawn = idx[~up], idx[up]
                if drawn.size:
                    c = drawn.size
                    rng.uniform(u, drawn)
                    draws += c
                    crossed = _bridge_hit(r[drawn], rn[drawn], dtj, u[:c])
                    hit = np.concatenate([hit, drawn[crossed]])
                rn[hit] = 0.0
                alive[hit] = False
                rec.absorbed_at[hit] = grid[j] + dtj / 2.0
                end[hit] = grid[j + 1]
            np.multiply(rn, rn, out=rn2)
            np.add(r2, rn2, out=x)
            x *= dtj / 2.0
            var += x
            r, rn, r2, rn2 = rn, r, rn2, r2
            if j + 1 in draw_z:
                rng.normal(g)
                np.sqrt(var, out=x)
                x *= g
                z += x
                rec.qv += var
                var[:] = 0.0
                rec.drift_int = 4.0 * np.minimum(end, grid[j + 1])
            rec(j + 1, r2, z)
        return rec.result(crossing_draws=draws)

    arrays, counts = _run_groups(run, n_paths, threads)
    return PathEnsemble(
        times=grid[ck_idx],
        **arrays,
        meta={
            "policy": "reflection",
            "scheme": "exact-radial",
            "seed": seed,
            "n_paths": n_paths,
            "delta": delta,
            "cells": n_paths * len(dts),
            "crossing_draws": counts["crossing_draws"],
            "absorbed": int(np.isfinite(arrays["absorbed_at"]).sum()),
            "groups": counts["groups"],
            "clamps": counts["clamps"],
            "clamp_fraction": 0.0,
        },
    )


def kendall_success_times(
    policy,
    r2_0,
    z_0,
    t_max,
    n_paths,
    alpha=0.015,
    success_dh=KENDALL_SUCCESS_DH,
    seed=0,
):
    """First times the kendall-coupled pair contracts below a quasidistance.

    Exploits the phase structure of the hysteresis coupling.  In the
    synchronous regime R is frozen and Z is a driftless Brownian motion with
    variance rate R^2, so the whole phase is fast-forwarded by one exact
    first-passage draw (Levy: tau = d^2 / (R^2 g^2) for a standard normal g)
    to whichever level comes first -- the re-entry band |Z| = (kappa-eps)R^2/v8
    or the success set R^2 + |Z| = success_dh^2.  The reflection regime has no
    closed form and is stepped with dilation-adapted increments
    dt = min(alpha (R^2+|Z|), KENDALL_DT_CAP), reflecting radial boundary.

    Success (R^2 + |Z| < success_dh^2) is absorbing at experiment level; the
    policy memory itself only tracks its regime.  Each RNG block draws from its
    own stream, for its own active paths in path order, so a path's time
    depends only on its block and a longer run keeps a shorter one's times.

    `r2_0` and `t_max` must be finite and >= 0, `z_0` finite, `n_paths` an
    integer >= 1, and `alpha` and `success_dh` positive and finite.  A run
    that takes more than KENDALL_MAX_ITERS phase updates raises RuntimeError.

    Returns an array of success times (NaN for paths still apart at t_max).
    """
    if policy.kind != "kendall":
        raise ValueError("adaptive contraction runner requires a kendall policy")
    _check_run_args(n_paths, None)
    _check(0.0 <= r2_0 < math.inf, "r2_0", r2_0, "finite and >= 0")
    _check(0.0 <= t_max < math.inf, "t_max", t_max, "finite and >= 0")
    _check(math.isfinite(z_0), "z_0", z_0, "finite")
    for name, val in (("alpha", alpha), ("success_dh", success_dh)):
        _check(0.0 < val < math.inf, name, val, "positive and finite")
    tol2 = float(success_dh) ** 2
    band_in = (policy.kappa - policy.epsilon) / math.sqrt(8.0)
    substeps = 4  # reflection substeps per dt refresh

    def run(spans):
        rng = _Streams(seed, spans)
        m = rng.m
        r2 = np.full(m, float(r2_0))
        z = np.full(m, float(z_0))
        t = np.zeros(m)
        regime = policy.initial_regime(r2, z)
        success = np.full(m, np.nan)
        won0 = r2 + np.abs(z) < tol2
        success[won0] = 0.0
        active = ~won0
        g_sync, g_refl = np.empty(m), np.empty((m, substeps, 2))
        iters = 0
        while np.any(active):
            iters += 1
            if iters > KENDALL_MAX_ITERS:
                raise RuntimeError("adaptive contraction run exceeded KENDALL_MAX_ITERS")
            sy = np.flatnonzero(active & (regime == cpl.REGIME_SYNC))
            rf = np.flatnonzero(active & (regime == cpl.REGIME_REFLECT))

            if sy.size:
                r2s, zs = r2[sy], z[sy]
                level = np.maximum(band_in * r2s, tol2 - r2s)
                dist = np.maximum(np.abs(zs) - level, 0.0)
                rng.normal(g_sync, sy)
                g = g_sync[:sy.size]
                tau = dist**2 / np.maximum(r2s * g**2, 1e-300)
                t_new = t[sy] + tau
                out = t_new > t_max
                z[sy] = np.where(out, zs, np.sign(zs) * level)
                t[sy] = np.minimum(t_new, t_max)
                wins = ~out & (tol2 - r2s >= band_in * r2s)
                success[sy[wins]] = t_new[wins]
                active[sy[out | wins]] = False
                cont = ~out & ~wins
                regime[sy[cont]] = cpl.REGIME_REFLECT

            if rf.size:
                r2r, zr, tr = r2[rf], z[rf], t[rf]
                remaining = np.maximum(t_max - tr, 0.0)
                dt = np.minimum(alpha * (r2r + np.abs(zr)), KENDALL_DT_CAP)
                dt = np.minimum(dt, remaining / substeps)
                sdt = np.sqrt(dt)
                rng.normal(g_refl, rf)
                g = g_refl[:rf.size]
                r = np.sqrt(r2r)
                for k in range(substeps):
                    zr = zr + r * sdt * g[:, k, 0]  # K22 = 1 in both regimes
                    r = np.abs(r + 2.0 * sdt * g[:, k, 1])
                r2r = r * r
                tr = tr + substeps * dt
                r2[rf], z[rf], t[rf] = r2r, zr, tr
                won = r2r + np.abs(zr) < tol2
                success[rf[won]] = tr[won]
                regime[rf] = policy.next_regime(r2r, zr, regime[rf])
                # the 1e-9 guard stops denormal final steps from spinning forever
                active[rf] = ~won & (tr < t_max - 1e-9)
        return {"success": success}

    return _run_groups(run, n_paths, 1)[0]["success"]
