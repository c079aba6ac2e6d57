"""Operations on the Heisenberg group H^n.

A point is an array ``[x_1..x_n, y_1..y_n, z]`` of length ``2n + 1``: the
horizontal part lives in R^{2n} (x-block then y-block) and ``z`` is the
vertical coordinate.  The product is

    (x, y, z) * (x', y', z')
        = (x + x', y + y', z + z' + (1/2) sum_i (x_i y'_i - y_i x'_i)),

so the identity is 0 and the inverse is plain negation.  All functions
broadcast over leading axes; a batch of points is simply an array whose last
axis has length 2n + 1.
"""

import numpy as np


def npairs(a):
    """Number of horizontal pairs n for a point array (last axis 2n + 1)."""
    d = np.shape(a)[-1]
    if d < 3 or d % 2 == 0:
        raise ValueError(f"point arrays need last axis 2n + 1 >= 3, got {d}")
    return (d - 1) // 2


def identity(n):
    """The group identity of H^n as a zero array of length 2n + 1."""
    return np.zeros(2 * n + 1)


def point(x, y, z):
    """Assemble points from x-block, y-block and vertical parts."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    z = np.asarray(z, dtype=float)
    n = x.shape[-1]
    lead = np.broadcast_shapes(x.shape[:-1], y.shape[:-1], z.shape)
    out = np.empty(lead + (2 * n + 1,))
    out[..., :n] = x
    out[..., n : 2 * n] = y
    out[..., -1] = z
    return out


def horizontal(a):
    """Horizontal part, shape (..., 2n)."""
    return np.asarray(a, dtype=float)[..., :-1]


def vertical(a):
    """Vertical coordinate z, shape (...)."""
    return np.asarray(a, dtype=float)[..., -1]


def _sum_terms(terms):
    """t_0 + t_1 + ... over the first axis of `terms`, in numpy's order.

    Starting from +0.0, each term is added in turn.  For fewer than 8 terms
    this is, bit for bit (signed zeros included), the order of numpy's
    last-axis `sum`; from 8 terms on numpy sums pairwise and the last bit may
    differ.
    """
    acc = terms[0] + 0.0
    for t in terms[1:]:
        acc += t
    return acc


def symplectic(u, v):
    """Standard symplectic form sum_i (u_x_i v_y_i - u_y_i v_x_i) on R^{2n}.

    Each sum adds its n column products u[..., i] * v[..., n + i] by
    `_sum_terms`: for n < 8 the bits of numpy's last-axis sum, without
    reducing over a short last axis, which costs several times more.  Both
    last axes must have the same even length 2n >= 2.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    d = u.shape[-1] if u.ndim else 0
    if d < 2 or d % 2 or v.shape[-1:] != (d,):
        raise ValueError(f"symplectic needs last axes of one even length 2n >= 2, "
                         f"got {u.shape} and {v.shape}")
    n = d // 2
    return (_sum_terms([u[..., i] * v[..., n + i] for i in range(n)])
            - _sum_terms([u[..., n + i] * v[..., i] for i in range(n)]))


def mul(a, b):
    """Group product a * b.

    Args:
        a, b: point arrays (..., 2n+1), broadcastable against each other.

    Returns:
        The product, with vertical part
        ``z + z' + 0.5 * symplectic(hor(a), hor(b))``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    hor = a[..., :-1] + b[..., :-1]
    z = a[..., -1] + b[..., -1] + 0.5 * symplectic(a[..., :-1], b[..., :-1])
    return np.concatenate([hor, z[..., None]], axis=-1)


def inverse(a):
    """Group inverse (negation in exponential coordinates)."""
    return -np.asarray(a, dtype=float)


def dilate(a, lam):
    """Anisotropic dilation: horizontal scales by lam, vertical by lam**2."""
    a = np.asarray(a, dtype=float)
    lam = np.asarray(lam, dtype=float)
    out = np.empty(np.broadcast_shapes(a.shape, lam.shape + (1,)), dtype=float)
    out[..., :-1] = a[..., :-1] * lam[..., None]
    out[..., -1] = a[..., -1] * lam**2
    return out


def rotate(a, theta):
    """Rotate every horizontal pair (x_i, y_i) by angle theta; z is fixed.

    This is the isometric U(1) action (x_i + i y_i) -> e^{i theta}(x_i + i y_i).
    """
    a = np.asarray(a, dtype=float)
    n = npairs(a)
    c, s = np.cos(theta), np.sin(theta)
    out = a.copy()
    x, y = a[..., :n], a[..., n : 2 * n]
    out[..., :n] = c * x - s * y
    out[..., n : 2 * n] = s * x + c * y
    return out


def quasinorm(a):
    """Homogeneous quasinorm H(a) = sqrt(|hor|^2 + |z|).

    2-homogeneous under dilations in the squared form:
    H(dilate(a, lam)) = |lam| * H(a).  Symmetric, H(a) = H(inverse(a)).
    """
    a = np.asarray(a, dtype=float)
    return np.sqrt((a[..., :-1] ** 2).sum(axis=-1) + np.abs(a[..., -1]))


def quasidistance(a, b):
    """Left-invariant quasidistance d_H(a, b) = H(a^{-1} * b).

    Works one coordinate column at a time in four arrays of the broadcast
    shape, so an (m, 1, d) x (1, m, d) call allocates no (m, m, d)
    temporary.  Each sum starts from +0.0 and adds its terms in order, as
    numpy's last-axis sum does for fewer than 8 terms, so the result is
    bit-identical to quasinorm(mul(inverse(a), b)) for n <= 3.  For n >= 4
    numpy sums the 2n squares pairwise and the last bit may differ.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = npairs(a)
    if b.shape[-1] != a.shape[-1]:
        raise ValueError(f"point arrays differ in last axis: {a.shape} vs {b.shape}")
    ia = inverse(a)  # at the size of a, not of the broadcast
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    hor2, sym_x, sym_y, col = np.zeros(shape), np.zeros(shape), np.zeros(shape), np.empty(shape)
    for k in range(2 * n):
        np.add(ia[..., k], b[..., k], out=col)
        col *= col
        hor2 += col
    for k in range(n):
        np.multiply(ia[..., k], b[..., n + k], out=col)
        sym_x += col
        np.multiply(ia[..., n + k], b[..., k], out=col)
        sym_y += col
    sym_x -= sym_y
    sym_x *= 0.5
    np.add(ia[..., -1], b[..., -1], out=col)
    col += sym_x
    hor2 += np.abs(col, out=col)
    return np.sqrt(hor2, out=hor2)[()]
