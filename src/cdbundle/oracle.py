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
diagonal of K, and a partial DFT that reads only the rows needed.
The formulas above then act on truncated jets, polynomials in u and v with
d -> d/du, dbar -> d/dv and products truncated, and are read at u = v = 0;
nothing is nested.  The curvature reads a 2 x 2 jet (n = 8), the covariant
derivatives a 3 x 3 jet (n = 12).

Error model (Bornemann, Found. Comput. Math. 11, 2011).  Aliasing: the rule
returns c[a,b] plus the coefficients c[a + sn, b + tn] r^(sn + tn), s, t
not both 0, so the error grows with the growth of the coefficients (like
k^(alpha + beta) for the jet kernels, which no spec check bounds) and falls
geometrically as n grows.  Roundoff: the values carry a relative error of
about eps, which the division by r^(a+b) amplifies to about eps / r^(a+b).
The coefficients of H at z0 grow like (1 - |z0|)^-(a+b), so the radius
r = 0.05 (1 - |z0|) keeps both terms, relative to the coefficients, the
same everywhere in the disc.  Worst deviations from the series path at 0,
curvature / (0,1) / (1,1): 9.1e-14 / 2.2e-13 / 8.6e-11 on the 12-kernel
fixture set, 1.4e-13 / 3.0e-13 / 7.7e-11 on the 32-spec held-out corpus and
9.4e-13 / 1.4e-12 / 1.1e-9 on a 36-spec wide sample with exponents up to 60
(all in the test suite).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DiscDomainError, MetricDegeneracyError
from .kernels import KernelSpec

# largest accepted deviation of the oracle from the series path at 0
ORACLE_CROSS_CHECK_TOL = 1e-5
# torus radius, as a fraction of the distance 1 - |z| to the boundary
_RADIUS = 0.05
# torus points per circle for the curvature (2 x 2 jet) and the derivatives (3 x 3 jet)
_N_CURVATURE = 8
_N_DERIVATIVES = 12


@lru_cache(maxsize=None)
def _torus(depth: int, n: int) -> tuple:
    """The torus of radius 1 as u, an (n, 1) column, and conj v, a (1, n) row, which
    broadcast to its n x n point pairs; the first `depth` rows of the n-point DFT
    matrix divided by n; and the exponents a + b."""
    circle = np.exp(2j * np.pi * np.arange(n) / n)
    dft = np.conj(circle[: depth, None] ** np.arange(n)) / n
    power = np.arange(depth)
    exponents = np.add.outer(power, power)[..., None, None]
    return circle[:, None], np.conj(circle)[None, :], dft, exponents


def _jets(spec: KernelSpec, z: complex, depth: int, n: int) -> np.ndarray:
    """c[a, b] for a, b < depth: the Taylor coefficients of H(z + u, conj z + v).

    Shape (depth, depth, rank, rank).  One ``evaluate`` call on the n x n
    torus |u| = |v| = r; the einsum output order ``yx`` transposes K into h.
    Raises OverflowError when the jet is not finite, as when the kernel
    overflows on the torus.
    """
    if abs(z) >= 1.0:
        raise DiscDomainError(f"|z| must be < 1, got {abs(z)}")
    r = _RADIUS * (1.0 - abs(z))
    u, w, dft, power = _torus(depth, n)
    c = np.einsum("aj,jkxy,bk->abyx", dft, spec.evaluate(z + r * u, z + r * w), dft)
    c = c / r ** power
    finite = np.isfinite(c)
    if not finite.all():
        raise OverflowError(f"kernel value near z = {z} is not finite "
                            f"(jet coefficient {c[~finite][0]})")
    return c


@lru_cache(maxsize=None)
def _shift(d: int) -> np.ndarray:
    """The (d, d, d) boolean table of i + k == p, indexed [p, i, k]; read-only."""
    shift = np.add.outer(np.arange(d), np.arange(d)) == np.arange(d)[:, None, None]
    shift.setflags(write=False)
    return shift


def _times(a: np.ndarray) -> np.ndarray:
    """Left multiplication by the jet a, as one matrix acting on jets of a's shape.

    A jet b of shape (d1, d2, n, m) is the (d1 d2 n, m) matrix b.reshape(-1, m);
    cell (p, q) of the truncated product is the sum of a[i, j] b[p - i, q - j].
    """
    d1, d2, n = a.shape[0], a.shape[1], a.shape[-1]
    return np.einsum("pik,qjl,ijxy->pqxkly", _shift(d1), _shift(d2), a).reshape(d1 * d2 * n, -1)


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The truncated jet product a b."""
    return (_times(a) @ b.reshape(-1, b.shape[-1])).reshape(b.shape)


def _invariants(c: np.ndarray) -> tuple:
    """Raw-frame curvature, (0,1) and (1,1) derivatives at the centre of a 3 x 3 jet c of h.

    G = h^{-1} dh solves h G = dh on 2 x 3 jets, dh = d/du c; the curvature
    K = dbar G is then a 2 x 2 jet and F = dK + [G, K] a 1 x 2 jet.
    """
    weights = np.array([1.0, 2.0])[:, None, None]  # d/du u^a v^b = a u^(a-1) v^b, likewise d/dv
    dh = c[1:] * weights[:, None]
    G = np.linalg.solve(_times(c[:2]), dh.reshape(-1, dh.shape[-1])).reshape(dh.shape)
    K = G[:, 1:] * weights
    g, k = G[:1, :2], K[:1]
    F = K[1:] + _product(g, k) - _product(k, g)
    return K[0, 0], K[0, 1], F[0, 1]


def curvature_fd(spec: KernelSpec, z: complex) -> np.ndarray:
    """Raw-frame curvature dbar(h^{-1} dh) = h^{-1} (c11 - c01 h^{-1} c10) at z (2 x 2 jet)."""
    c = _jets(spec, z, 2, _N_CURVATURE)
    h_inv = np.linalg.inv(c[0, 0])
    return h_inv @ (c[1, 1] - c[0, 1] @ h_inv @ c[1, 0])


def covd_zbar_fd(spec: KernelSpec, z: complex) -> np.ndarray:
    """Raw-frame (0,1) covariant derivative: dbar of the curvature field."""
    return _invariants(_jets(spec, z, 3, _N_DERIVATIVES))[1]


def covd_zzbar_fd(spec: KernelSpec, z: complex) -> np.ndarray:
    """Raw-frame (1,1) covariant derivative dbar( d K + [G, K] ) at z."""
    return _invariants(_jets(spec, z, 3, _N_DERIVATIVES))[2]


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
    half = (vecs * root) @ vecs.conj().T
    inv_half = (vecs / root) @ vecs.conj().T  # from the same eigh, not a second factorization
    return half @ M @ inv_half


def oracle_invariants_at_zero(spec: KernelSpec) -> dict:
    """Orthonormal-frame oracle triple at 0, from one 3 x 3 jet.

    Returns plain matrices under keys 'curvature', 'd_zbar', 'd_zzbar';
    unlike the series path they carry quadrature error, so no
    Hermitian-validation gate is applied here.  h(0) is checked by
    :func:`to_orthonormal_frame`.
    """
    h0 = spec.metric_at(0.0)
    raw = np.stack(_invariants(_jets(spec, 0.0, 3, _N_DERIVATIVES)))
    return dict(zip(("curvature", "d_zbar", "d_zzbar"), to_orthonormal_frame(raw, h0)))


def curvature_eigenvalues_fd(spec: KernelSpec, z: complex) -> np.ndarray:
    """Ascending real curvature eigenvalues at z (frame independent)."""
    vals = np.linalg.eigvals(curvature_fd(spec, z))
    return np.sort(vals.real)
