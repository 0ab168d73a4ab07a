"""Independent curvature verification from Cauchy-integral jets of the kernel.

This module never touches the power-series machinery: it works from exact
closed-form evaluations of the kernel K(z, w) only, applying the Wirtinger
operators

    d     = (d/dx - i d/dy) / 2,      dbar = (d/dx + i d/dy) / 2

to the metric h(z) = K(z, z)^t through the matrix fields G = h^{-1} dh, then

    curvature      = dbar G
    (0,1) deriv    = dbar curvature
    (1,1) deriv    = dbar( d curvature + [G, curvature] )

All outputs are in the raw holomorphic frame of the kernel; use
:func:`to_orthonormal_frame` with h(point) to compare against the series
path, which works in the frame orthonormal at the point.

Jets.  K(z, w) is holomorphic in z and anti-holomorphic in w, so the
polarized kernel H(z, zeta) = K(z, conj zeta)^t is holomorphic in both
variables and h(z) = H(z, conj z).  Every Wirtinger derivative of h at z0
is a Taylor coefficient of H:

    d^a dbar^b h(z0) = a! b! c[a,b],   H(z0 + u, conj z0 + v) = sum c[a,b] u^a v^b

The trapezoidal rule on the torus |u| = |v| = r (Lyness and Moler, SIAM J.
Numer. Anal. 4, 1967) gives the c[a,b] from one ``evaluate`` call, on the
n-point column z0 + r q^j against the n-point row z0 + conj(r q^k),
q = exp(2 pi i / n), which broadcast to the n x n point pairs off the
diagonal of K, and one product of those n^2 values with the Kronecker weights
dft[a, j] dft[b, k] of the first rows of the DFT matrix.
The formulas above then act on truncated jets, polynomials in u and v with
d -> d/du, dbar -> d/dv and products truncated, read at u = v = 0: h G = dh is
one linear system in the cells of G, whose matrix is gathered from the cells
of the jet of h, and the invariants are cells of G.  The
curvature reads a 2 x 2 jet (n = 6, 36 pairs), the derivatives a 3 x 3 jet
(n = 12, 144 pairs), each on its own radius (below).
The triple at 0 appends the centre u = v = 0 to the column and the row of
its call, so the same call gives h(0) = K(0, 0)^t for the orthonormal frame;
the DFT reads the n x n torus block only, and the jet keeps its bytes.

Error model (Bornemann, Found. Comput. Math. 11, 2011).  Aliasing: the rule
returns c[a,b] plus the coefficients c[a + sn, b + tn] r^(sn + tn), s, t
not both 0, so the error grows with the growth of the coefficients (like
k^(alpha + beta) for the jet kernels, which no spec check bounds) and falls
geometrically as n grows.  Roundoff: the values carry a relative error of
about eps, which the division by r^(a+b) amplifies to about eps / r^(a+b).
The coefficients of H at z0 grow like (1 - |z0|)^-(a+b), so a radius
r = f (1 - |z0|) keeps both terms, relative to the coefficients, the same
everywhere in the disc.  Round-off bounds the 3 x 3 jet, which divides by
r^4: the derivatives and the triple at 0 take f = 0.05.  Aliasing bounds the
2 x 2 jet of the curvature, which divides by r^2 only: it takes f = 0.01,
where 6 points per circle reach the round-off floor of eps / r^2.  Worst
deviations from the series path at 0, curvature / (0,1) / (1,1):
8.2e-14 / 2.3e-13 / 9.3e-11 on the 12-kernel fixture set, 1.1e-13 / 2.7e-13 /
7.5e-11 on the 32-spec held-out corpus and 9.0e-13 / 2.5e-12 / 1.1e-9 on a
36-spec wide sample with exponents up to 60.  Off 0, the curvature
eigenvalues follow the (1 - |z|^2)^-2 transport of those at 0 to 3.0e-10
relative on the held-out corpus and 1.3e-5 on the wide sample
(jet(40, 40, 2)), at |z| up to 0.52 (all in the test suite).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DiscDomainError, MetricDegeneracyError
from .kernels import KernelSpec

# largest accepted deviation of the oracle from the series path at 0
ORACLE_CROSS_CHECK_TOL = 1e-5
# Torus radius, as a fraction of the distance 1 - |z| to the boundary, and points per circle,
# per route (error model above).  The curvature's 2 x 2 jet divides by r^2 at most, so at
# r = 0.01 round-off stays near eps / r^2 = 2e-12, and aliasing, which falls like r^n, is
# below that from n = 6.  The derivatives' 3 x 3 jet divides by r^4, which at r = 0.01 would
# cost eps / r^4 = 2e-8, so it keeps r = 0.05 and the n = 12 that aliasing needs there.
_RADIUS_CURVATURE = 0.01
_N_CURVATURE = 6
_RADIUS_DERIVATIVES = 0.05
_N_DERIVATIVES = 12


def _product_index() -> np.ndarray:
    """Block ((p, q), (i, j)) of the jet product c[:2] G, cells numbered 3 p + q: the
    cell 3 (p - i) + (q - j) of c[:2] when i <= p and j <= q, else 6, a zero block."""
    p, q = np.divmod(np.arange(6), 3)
    dp, dq = p[:, None] - p, q[:, None] - q
    index = np.where((dp >= 0) & (dq >= 0), 3 * dp + dq, 6)
    index.flags.writeable = False
    return index


_PRODUCT = _product_index()


@lru_cache(maxsize=None)
def _torus(depth: int, n: int, centre: bool = False) -> tuple:
    """The torus of radius 1 as u, an (n, 1) column, and conj v, a (1, n) row, which
    broadcast to its n x n point pairs; the (depth^2, n^2) Kronecker weights
    dft[a, j] dft[b, k] of the first `depth` rows of the n-point DFT matrix divided by n,
    rows (a, b) and columns (j, k) in C order; and the exponents a + b as a column.
    With `centre`, u = v = 0 closes column and row as an (n + 1)-th point, so the pairs
    also hold the centre."""
    circle = np.exp(2j * np.pi * np.arange(n) / n)
    dft = np.conj(circle[: depth, None] ** np.arange(n)) / n
    weights = np.kron(dft, dft)
    power = np.arange(depth)
    exponents = np.add.outer(power, power).reshape(-1, 1)
    points = np.append(circle, 0.0) if centre else circle
    return points[:, None], np.conj(points)[None, :], weights, exponents


def _jets(spec: KernelSpec, z: complex, depth: int, n: int, radius: float,
          centre: bool = False):
    """c[a, b] for a, b < depth: the Taylor coefficients of H(z + u, conj z + v).

    Shape (depth, depth, rank, rank).  One ``evaluate`` call on the n x n
    torus |u| = |v| = r = radius (1 - |z|), then one product of the Kronecker weights
    with the n x n block of values, one row per point pair, and one division by
    r^(a+b); swapping the last two axes transposes K into h.  With `centre`, the same
    call also covers the pair (z, z), and the pair (c, h(z)) is returned.
    Raises OverflowError when the jet is not finite, as when the kernel
    overflows on the torus.
    """
    if abs(z) >= 1.0:
        raise DiscDomainError(f"|z| must be < 1, got {abs(z)}")
    r = radius * (1.0 - abs(z))
    u, w, weights, power = _torus(depth, n, centre)
    K = spec.evaluate(z + r * u, z + r * w)  # indexed [j, k, x, y]
    m = K.shape[-1]
    c = (weights @ K[:n, :n].reshape(n * n, m * m) / r ** power).reshape(depth, depth, m, m)
    c = c.swapaxes(-1, -2)
    finite = np.isfinite(c)
    if not finite.all():
        raise OverflowError(f"kernel value near z = {z} is not finite "
                            f"(jet coefficient {c[~finite][0]})")
    return (c, K[n, n].T) if centre else c


def _invariants(c: np.ndarray) -> np.ndarray:
    """Raw-frame curvature, (0,1) and (1,1) derivatives at the centre of a 3 x 3 jet c of h.

    Shape (3, rank, rank).  The jet of G = h^{-1} dh solves h G = dh over the
    truncated jets, dh = d/du c: cell (p, q), p < 2, q < 3, of the product is the
    sum of c[p - i, q - j] G[i, j] over i <= p, j <= q, so the six cells of G come
    from one solve against the block matrix gathered through _PRODUCT, with
    right-hand side (p + 1) c[p + 1, q].  With K = dbar G and F = dK + [G, K],
    read at u = v = 0: the curvature is K[0,0] = G[0,1], its dbar derivative
    K[0,1] = 2 G[0,2] and dbar F = 2 G[1,2] + [G[0,0], K[0,1]] (the term
    [G[0,1], K[0,0]] vanishes).
    """
    m = c.shape[-1]
    blocks = np.concatenate((c[:2].reshape(6, m, m), np.zeros((1, m, m), c.dtype)))
    product = blocks[_PRODUCT].swapaxes(1, 2).reshape(6 * m, 6 * m)
    dh = np.concatenate((c[1], 2.0 * c[2])).reshape(6 * m, m)
    (g00, g01, g02), (_, _, g12) = np.linalg.solve(product, dh).reshape(2, 3, m, m)
    return np.array((g01, 2.0 * g02, 2.0 * (g12 + g00 @ g02 - g02 @ g00)))


def curvature_fd(spec: KernelSpec, z: complex) -> np.ndarray:
    """Raw-frame curvature h^{-1} (c11 - c01 h^{-1} c10) at z: G[0,1] of a 2 x 2 jet.

    With A = h(z)^{-1} c from one solve against h(z) alone, factored once for the
    m x 4m block [c00 c01 c10 c11], that is A[1,1] - A[0,1] A[1,0], the cell G[0,1]
    of the block system of :func:`_invariants` without building it.
    """
    c = _jets(spec, z, 2, _N_CURVATURE, _RADIUS_CURVATURE)
    m = c.shape[-1]
    a = np.linalg.solve(c[0, 0], c.transpose(2, 0, 1, 3).reshape(m, 4 * m))
    return a[:, 3 * m:] - a[:, m:2 * m] @ a[:, 2 * m:3 * m]


def covd_zbar_fd(spec: KernelSpec, z: complex) -> np.ndarray:
    """Raw-frame (0,1) covariant derivative: dbar of the curvature field."""
    return _invariants(_jets(spec, z, 3, _N_DERIVATIVES, _RADIUS_DERIVATIVES))[1]


def covd_zzbar_fd(spec: KernelSpec, z: complex) -> np.ndarray:
    """Raw-frame (1,1) covariant derivative dbar( d K + [G, K] ) at z."""
    return _invariants(_jets(spec, z, 3, _N_DERIVATIVES, _RADIUS_DERIVATIVES))[2]


def to_orthonormal_frame(M: np.ndarray, h0: np.ndarray) -> np.ndarray:
    """Conjugate raw-frame invariants (one or a stack) into the frame orthonormal at the point.

    The holomorphic frame change g with g(point) = h0^{-1/2} makes the metric
    the identity there, and curvature-type tensors transform as g^{-1} M g,
    so the orthonormal value is h0^{1/2} M h0^{-1/2}.  The side of the square
    root (left +1/2, right -1/2) is pinned by the requirement that the
    oracle's output at 0 matches the series path; the matching test lives in
    the test suite.

    Raises ValueError when h0 is not finite or not Hermitian within 1e-12,
    and MetricDegeneracyError when an eigenvalue of h0 is below 1e-10.
    """
    h0 = np.asarray(h0, dtype=complex)
    if not np.isfinite(h0).all():
        raise ValueError("metric contains non-finite entries")
    defect = np.abs(h0.conj().T - h0).max(initial=0.0)
    if defect > 1e-12:
        raise ValueError(f"metric is not Hermitian within 1e-12 (defect {defect:.3e})")
    vals, vecs = np.linalg.eigh(h0)
    if vals.min() < 1e-10:
        raise MetricDegeneracyError(f"metric not positive definite (min eigenvalue {vals.min():.3e})")
    root = np.sqrt(vals)
    vecs_h = vecs.conj().T
    half = (vecs * root) @ vecs_h
    inv_half = (vecs / root) @ vecs_h  # from the same eigh, not a second factorization
    return half @ M @ inv_half


def oracle_invariants_at_zero(spec: KernelSpec) -> dict:
    """Orthonormal-frame oracle triple at 0, from one 3 x 3 jet and one ``evaluate`` call.

    Returns plain matrices under keys 'curvature', 'd_zbar', 'd_zzbar';
    unlike the series path they carry quadrature error, so no
    Hermitian-validation gate is applied here.  h(0) = K(0, 0)^t is read
    from the centre pair of the jet's own torus call and checked by
    :func:`to_orthonormal_frame`.
    """
    c, h0 = _jets(spec, 0.0, 3, _N_DERIVATIVES, _RADIUS_DERIVATIVES, centre=True)
    orthonormal = to_orthonormal_frame(_invariants(c), h0)
    return dict(zip(("curvature", "d_zbar", "d_zzbar"), orthonormal))


def curvature_eigenvalues_fd(spec: KernelSpec, z: complex) -> np.ndarray:
    """Ascending real curvature eigenvalues at z (frame independent)."""
    vals = np.linalg.eigvals(curvature_fd(spec, z)).real
    vals.sort()
    return vals
