"""Coupling matrices, moving frames, and coupling policies.

Two horizontal Brownian motions are coupled through a matrix-valued control
J(t): the first marginal is driven by dW, the second by

    dB' = J dW + Jhat dWtilde,        Jhat = sqrt(I - J J^T),

with Wtilde independent, so the second marginal stays a standard BM whenever
the spectral norm of J is <= 1.  Policies choose J adaptively from the
dilation-invariant pair (R^2, Z): R = |B - B'| and Z the vertical coordinate
of the group quotient.

Frame convention.  The moving frame has

    e1 = (B - B') / R,        e2 = M e1,

where M is the complex structure (x, y) -> (-y, x) (multiplication by i on
C^n).  A frame matrix Q completes (e1, e2) to an orthonormal basis with
Q M = M Q, so frame coefficients of the vertical drift agree with canonical
ones.  Columns are ordered (f_1..f_n, M f_1..M f_n): the distinguished pair
(e1, e2) sits at column indices (0, n), and a frame-basis matrix K indexes the
same way: K11 = K[0, 0], K22 = K[n, n], K12 = K[0, n], K21 = K[n, 0].

Built-in policies (all orthogonal, so Jhat = 0):

    synchronous   K = I                   (identical noise)
    reflection    K = I - 2 e1 e1^T       (mirror the radial component)
    perverse      K = I - 2 e2 e2^T       (mirror the vertical-driving one)
    kendall       hysteresis between synchronous and reflection driven by
                  the dilation-invariant ratio 8 Z^2 / R^4
"""

from dataclasses import dataclass, field

import numpy as np

from heiscouple.constants import (
    KENDALL_EPSILON,
    KENDALL_KAPPA,
    MATRIX_TOL,
    PSD_CLIP,
)

# regime codes shared by policies and the simulation engines
REGIME_REFLECT = 0
REGIME_SYNC = 1
REGIME_PERVERSE = 2
REGIME_CUSTOM = 3

# regimes a path can occupy under each policy kind; every path of a
# non-kendall policy starts in the first
_REGIMES = {
    "synchronous": (REGIME_SYNC,),
    "reflection": (REGIME_REFLECT, REGIME_SYNC),
    "perverse": (REGIME_PERVERSE,),
    "kendall": (REGIME_REFLECT, REGIME_SYNC),
    "custom": (REGIME_CUSTOM,),
}


def synchronous_matrix(n=1):
    """K = I: both marginals consume the same increments."""
    return np.eye(2 * n)


def reflection_matrix(n=1):
    """K = I - 2 e1 e1^T in the frame basis (e1 is column 0)."""
    K = np.eye(2 * n)
    K[0, 0] = -1.0
    return K


def perverse_matrix(n=1):
    """K = I - 2 e2 e2^T in the frame basis (e2 = M e1 is column n)."""
    K = np.eye(2 * n)
    K[n, n] = -1.0
    return K


def validate_coupling_matrix(J):
    """True iff J is a square, even-dimensional, finite matrix with
    spectral norm <= 1 + MATRIX_TOL."""
    J = np.asarray(J, dtype=float)
    if J.ndim != 2 or J.shape[0] != J.shape[1] or J.shape[0] % 2 != 0:
        return False
    if not np.all(np.isfinite(J)):
        return False
    smax = np.linalg.svd(J, compute_uv=False)[0]
    return bool(smax <= 1.0 + MATRIX_TOL)


def complete_jhat(J):
    """Principal PSD square root of I - J J^T (batched over leading axes).

    Eigenvalues of I - J J^T in [-PSD_CLIP, 0) are clipped to zero (roundoff
    from orthogonal J); anything more negative raises, because then J is not
    a valid coupling matrix at all.
    """
    J = np.asarray(J, dtype=float)
    Jt = np.swapaxes(J, -1, -2)
    S = np.eye(J.shape[-1]) - J @ Jt
    S = 0.5 * (S + np.swapaxes(S, -1, -2))
    w, V = np.linalg.eigh(S)
    if w.min() < -PSD_CLIP:
        raise ValueError(
            f"I - J J^T has eigenvalue {w.min():.3e} < -{PSD_CLIP:g}; "
            "coupling matrix exceeds unit spectral norm"
        )
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)[..., None, :]) @ np.swapaxes(V, -1, -2)


def frame(b, bprime):
    """Orthonormal frame adapted to the difference B - B'.

    Args:
        b, bprime: horizontal vectors, shape (..., 2n), with b != bprime.

    Returns:
        Q of shape (..., 2n, 2n), orthogonal with det +1, commuting with the
        complex structure M, whose columns 0 and n are e1 = (b - b')/R and
        e2 = M e1.
    """
    d = np.asarray(b, dtype=float) - np.asarray(bprime, dtype=float)
    r = np.sqrt((d**2).sum(axis=-1))
    if np.any(r == 0.0):
        raise ValueError("frame undefined at R = 0 (coincident horizontals)")
    return _frame_from_unit(d / r[..., None])


def _frame_from_unit(e1):
    # Complex Householder: w = e1 as a unit vector of C^n; build U in U(n)
    # with first column w, then embed U = A + iB as [[A, -B], [B, A]].  The
    # real embedding of a unitary always has determinant |det_C U|^2 = 1.
    n = e1.shape[-1] // 2
    w = e1[..., :n] + 1j * e1[..., n:]
    w0 = w[..., 0]
    a0 = np.abs(w0)
    alpha = np.where(a0 > 0.0, w0 / np.where(a0 > 0.0, a0, 1.0), 1.0 + 0.0j)
    u = w.copy()
    u[..., 0] += alpha  # reflection axis; |u|^2 = 2 (1 + |w0|), never tiny
    uu = (u.real**2 + u.imag**2).sum(axis=-1)
    P = np.zeros(w.shape[:-1] + (n, n), dtype=complex)
    P[...] = np.eye(n)
    P -= 2.0 * (u[..., :, None] * u[..., None, :].conj()) / uu[..., None, None]
    # P maps w -> -alpha e1; scale column 0 by -conj(alpha)... rather: U = P
    # right-multiplied by diag(-alpha, 1, .., 1) sends e1 -> w exactly.
    U = P.copy()
    U[..., :, 0] *= -alpha[..., None]
    A, B = U.real, U.imag
    top = np.concatenate([A, -B], axis=-1)
    bot = np.concatenate([B, A], axis=-1)
    return np.concatenate([top, bot], axis=-2)


def change_basis(J, Q):
    """Express a canonical-basis matrix J in the frame basis: K = Q^T J Q."""
    J = np.asarray(J, dtype=float)
    Q = np.asarray(Q, dtype=float)
    return np.swapaxes(Q, -1, -2) @ J @ Q


def vertical_drift_trace(K):
    """sum_i (K[yi, xi] - K[xi, yi]); the vertical drift is half of this.

    Frame and canonical bases give the same value whenever Q M = M Q.
    """
    K = np.asarray(K, dtype=float)
    n = K.shape[-1] // 2
    idx = np.arange(n)
    return K[..., n + idx, idx].sum(axis=-1) - K[..., idx, n + idx].sum(axis=-1)


def reduced_coefficients(K):
    """Coefficients consumed by the reduced (R^2, Z) scheme.

    Returns a dict with

        var_r   : 2 (1 - K11)             (dR^2 martingale: 2 R sqrt(var_r) dC)
        var_z   : 2 (1 + K22)             (dZ martingale: (R/2) sqrt(var_z) dCt)
        rho     : corr(dC, dCt) = (K21 - K12) / sqrt(var_r * var_z), 0 when
                  either variance vanishes
        drift_r : 2 tr(I - K)             (dR^2 drift rate)
        drift_z : (1/2) sum_i (K[yi,xi] - K[xi,yi])   (dZ drift rate)
    """
    K = np.asarray(K, dtype=float)
    n = K.shape[-1] // 2
    k11 = K[..., 0, 0]
    k22 = K[..., n, n]
    k12 = K[..., 0, n]
    k21 = K[..., n, 0]
    var_r = 2.0 * (1.0 - k11)
    var_z = 2.0 * (1.0 + k22)
    denom = np.sqrt(np.maximum(var_r * var_z, 0.0))  # K11 may pass 1 within PSD_CLIP
    rho = np.where(denom > 0.0, (k21 - k12) / np.where(denom > 0, denom, 1.0), 0.0)
    rho = np.clip(rho, -1.0, 1.0)
    tr = np.trace(K, axis1=-2, axis2=-1)
    return {
        "var_r": var_r,
        "var_z": var_z,
        "rho": rho,
        "drift_r": 2.0 * (2 * n - tr),
        "drift_z": 0.5 * vertical_drift_trace(K),
    }


@dataclass
class CouplingPolicy:
    """A rule (R^2, Z, memory) -> coupling matrix, plus its memory protocol.

    kind is one of "synchronous", "reflection", "perverse", "kendall",
    "custom".  Memory is a per-path int8 regime code (REGIME_*); only
    reflection (absorbed latch) and kendall (hysteresis) ever change it.

    Kendall hysteresis (kappa > epsilon > 0): switch to synchronous when
    8 Z^2 >= kappa^2 R^4, back to reflection when 8 Z^2 <= (kappa-eps)^2 R^4,
    keep the previous regime strictly inside the band.  A path starting
    inside the band starts in reflection.  Both thresholds are
    dilation-invariant: (R, Z) -> (c R, c^2 Z) fixes 8 Z^2 / R^4.

    Reflection: once a path's radial part is absorbed at R = 0 (the engine
    sets R^2 = 0 on a detected crossing), the policy latches to synchronous
    so the pair stays merged horizontally and Z stays frozen.
    """

    kind: str = "synchronous"
    kappa: float = KENDALL_KAPPA
    epsilon: float = KENDALL_EPSILON
    matrix: np.ndarray | None = None  # frame-basis K for kind="custom"

    def __post_init__(self):
        if self.kind not in _REGIMES:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.kind == "kendall":
            if not (0.0 < self.epsilon < self.kappa):
                raise ValueError("kendall policy needs 0 < epsilon < kappa")
        if self.kind == "custom":
            if self.matrix is None:
                raise ValueError("custom policy needs a frame-basis matrix")
            self.matrix = np.asarray(self.matrix, dtype=float)
            if not validate_coupling_matrix(self.matrix):
                raise ValueError("custom coupling matrix is not valid")
            complete_jhat(self.matrix)  # raises where the full engine would

    @property
    def regimes(self):
        """Regime codes a path under this policy can occupy."""
        return _REGIMES[self.kind]

    def initial_regime(self, r2, z):
        """Vectorized initial memory for paths starting at (r2, z)."""
        r2 = np.asarray(r2, dtype=float)
        z = np.asarray(z, dtype=float)
        shape = np.broadcast_shapes(r2.shape, z.shape)
        if self.kind != "kendall":
            return np.full(shape, self.regimes[0], dtype=np.int8)
        # kendall: synchronous region wins ties so a merged pair stays merged
        prev = np.full(shape, REGIME_REFLECT, dtype=np.int8)
        return self.next_regime(r2, z, prev)

    def next_regime(self, r2, z, prev):
        """Vectorized regime update; pure function of (r2, z, prev)."""
        if self.kind != "kendall":
            if self.kind == "reflection":
                # latch to synchronous once absorbed (engine sets r2 = 0)
                return np.where(
                    np.asarray(r2) <= 0.0, np.int8(REGIME_SYNC), prev
                ).astype(np.int8)
            return np.asarray(prev, dtype=np.int8)
        r2 = np.asarray(r2, dtype=float)
        z = np.asarray(z, dtype=float)
        lhs = 8.0 * z**2
        outer = lhs >= (self.kappa * r2) ** 2
        inner = lhs <= ((self.kappa - self.epsilon) * r2) ** 2
        out = np.where(outer, np.int8(REGIME_SYNC),
                       np.where(inner, np.int8(REGIME_REFLECT), prev))
        return out.astype(np.int8)

    def matrix_for_regime(self, regime, n=1):
        """Frame-basis K for a scalar regime code the policy can reach, on H^n."""
        if regime not in self.regimes:
            raise ValueError(f"regime {regime} not reachable for kind {self.kind!r}")
        if regime == REGIME_CUSTOM:
            if self.matrix.shape != (2 * n, 2 * n):
                raise ValueError(f"policy matrix must be {2 * n}x{2 * n} for points in H^{n}, "
                                 f"got shape {self.matrix.shape}")
            return self.matrix
        if regime == REGIME_SYNC:
            return synchronous_matrix(n)
        if regime == REGIME_REFLECT:
            return reflection_matrix(n)
        return perverse_matrix(n)


def synchronous_policy():
    return CouplingPolicy(kind="synchronous")


def reflection_policy():
    return CouplingPolicy(kind="reflection")


def perverse_policy():
    return CouplingPolicy(kind="perverse")


def kendall_policy(kappa=KENDALL_KAPPA, epsilon=KENDALL_EPSILON):
    return CouplingPolicy(kind="kendall", kappa=kappa, epsilon=epsilon)


def custom_policy(K):
    return CouplingPolicy(kind="custom", matrix=K)
