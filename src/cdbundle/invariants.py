"""Normalization of kernels and curvature invariants at the origin.

The normalized kernel of K is
K~(z, w) = K(0,0)^{1/2} K(z,0)^{-1} K(z,w) K(0,w)^{-1} K(0,0)^{1/2};
it satisfies K~(z, 0) = I, so its coefficient lattice reads off the
curvature data at 0 in an orthonormal frame:

    curvature(0)      = a~[1,1]^t
    d/d(conj z) (0)   = 2 a~[1,2]^t          (order-(0,1) derivative)
    d2/dz d(conj z)(0)= 2 (2 a~[2,2] - a~[1,1]^2)^t
    n-th conj-z deriv = (n+1)! a~[1,n+1]^t

The trailing transpose comes from the metric convention h(z) = K(z,z)^t
and is applied uniformly; equivalence decisions downstream are insensitive
to a global transpose because tests always compare like with like.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import DiscDomainError, TruncationOrderError
from .kernels import Homogeneous, shift_matrix
from .series import MatrixPowerSeries2, _check_condition, assert_hermitian, positive_sqrt

CURVATURE_HERM_TOL = 1e-10
# The highest lattice index the invariants at 0 read: a~[1,1], a~[1,2], a~[2,2].
INVARIANT_ORDER = 2


@dataclass(frozen=True)
class PointInvariants:
    """Curvature and covariant derivatives at 0, orthonormal frame.

    d_zzbar is optional because the closed-form route for the homogeneous
    family produces only the curvature and the (0,1) derivative.
    """

    curvature: np.ndarray
    d_zbar: np.ndarray
    d_zzbar: Optional[np.ndarray]

    def __post_init__(self):
        for name in ("curvature", "d_zbar", "d_zzbar"):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.asarray(arr, dtype=complex).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        assert_hermitian(self.curvature, CURVATURE_HERM_TOL, "curvature at the point")

    @property
    def rank(self) -> int:
        return self.curvature.shape[0]

    def curvature_eigenvalues(self) -> np.ndarray:
        """Ascending real eigenvalues of the (Hermitian) curvature."""
        return np.linalg.eigvalsh(0.5 * (self.curvature + self.curvature.conj().T))


@lru_cache(maxsize=None)
def _toeplitz_index(size: int) -> np.ndarray:
    """Block (k, p) of an upper block-triangular Toeplitz matrix: coefficient p - k for
    k <= p, else `size`, a zero block after the coefficients.  Its transpose: the lower one."""
    k = np.arange(size)
    index = np.where(k[:, None] <= k, k - k[:, None], size)
    index.flags.writeable = False
    return index


def _normalized_lattice(K: MatrixPowerSeries2) -> np.ndarray:
    """The whole normalized lattice of K, read-only, computed once and kept on K.

    K~ = a00^{1/2} L K R a00^{1/2}, L = K(z,0)^{-1} and R = K(0,w)^{-1}.  With
    the lattice as one n x n matrix A, n = (N+1) m, L K R = T_L^{-1} A T_R^{-1}
    for the block-triangular Toeplitz matrices T_L of the column a[k,0] and T_R
    of the row a[0,l]: two solves, and L, R and a00^{-1} are never formed.  In
    reversed block order both are block upper triangular, so LU's pivoting stays
    inside the a00 blocks; in the natural order it crosses them where a[k,0]
    outweighs a00, and the worst error against the tests' exact normal form grew
    from 5.9e-15 to 2.3e-14, past the 9.2e-15 of the coefficient recursions.
    a00's gates come first: Hermitian, eigenvalues >= 1e-10 and cond <= 1e14.
    Threads racing on a fresh lattice compute equal lattices; either is kept.
    """
    kept = K._normal
    if kept is not None:
        return kept
    a = K.coeffs
    a00 = assert_hermitian(a[0, 0], what="constant kernel coefficient")
    vals, vecs = np.linalg.eigh(a00)  # the one factorization of a00
    half = positive_sqrt(vals, vecs)
    _check_condition(vals)
    size, m = len(a), K.rank
    n, index, zero = size * m, _toeplitz_index(size), np.zeros_like(a[:1, 0])

    def flat(blocks):  # block (k, l) of a (size, size, m, m) stack at rows k m.., columns l m..
        return blocks.swapaxes(1, 2).reshape(n, n)

    # in reversed block order, left [k, p] = a[p-k, 0] and right [q, l] = a[0, q-l]
    left = flat(np.concatenate((a[:, 0], zero))[index])
    right = flat(np.concatenate((a[0], zero))[index.T])
    lkr = np.linalg.solve(right.T, np.linalg.solve(left, flat(a[::-1, ::-1])).T).T
    # the a00^{1/2} sandwich of every cell: half times each block row, then each block column
    out = (half @ lkr.reshape(size, m, n)).reshape(n, size, m) @ half
    out = out.reshape(size, m, size, m).swapaxes(1, 2)[::-1, ::-1]
    out.setflags(write=False)
    object.__setattr__(K, "_normal", out)
    return out


def normalize(K: MatrixPowerSeries2) -> MatrixPowerSeries2:
    """Normalized kernel series: a~[0,0] = I, a~[k,0] = a~[0,l] = 0.

    Every cell of the normalized lattice that K keeps for all its queries.
    Raises MetricDegeneracyError when the constant term is not positive
    definite and SingularLeadingTermError when it is numerically singular.
    """
    return MatrixPowerSeries2(_normalized_lattice(K))


def invariants_at_zero(K: MatrixPowerSeries2) -> PointInvariants:
    """Series-path invariants at 0: curvature, (0,1) and (1,1) derivatives.

    Reads a~[1,1], a~[1,2] and a~[2,2] from the normalized lattice that K
    keeps, bit-identical to the same cells of ``normalize``.
    """
    if K.order < INVARIANT_ORDER:
        raise TruncationOrderError(f"invariants at 0 need series order >= {INVARIANT_ORDER}")
    norm = _normalized_lattice(K)
    a11, a12, a22 = norm[1, 1], norm[1, 2], norm[2, 2]
    return PointInvariants(
        curvature=a11.T,
        d_zbar=2.0 * a12.T,
        d_zzbar=(2.0 * (2.0 * a22 - a11 @ a11)).T,
    )


def covd_zbar_n_at_zero(K: MatrixPowerSeries2, n: int) -> np.ndarray:
    """(n+1)! a~[1, n+1]^t — the order-(0,n) covariant derivative at 0, n an int >= 1.

    Reads a~[1, n+1] from the normalized lattice that K keeps, bit-identical
    to the same cell of ``normalize``.  Any other n, a bool too, is a ValueError.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    t = n + 1
    if K.order < t:
        raise TruncationOrderError(f"series order {K.order} is below the required {t}")
    return math.factorial(t) * _normalized_lattice(K)[1, t].T


# -- closed forms for the homogeneous family -------------------------------


def homogeneous_invariants_closed(lam: float, mu, m: int) -> PointInvariants:
    """Curvature and (0,1) derivative at 0 for K^(lambda, mu), closed form.

    a~[1,1] = [B^{-1} S B, S^*] + (2 lambda + m) I - 2 D_m
    a~[1,2] = B^{1/2} ( (B^{-1} S^2 B S^* B^{-1} + S^* B^{-1} S^2)/2
                        + B^{-1} [D_m, S] - B^{-1} S B S^* B^{-1} S ) B^{1/2}

    The (1,1) derivative has no closed form here; callers needing it go
    through the series path.  Cross-validated against that path at 1e-10.
    The parameters are validated as ``Homogeneous(lam, mu, m)`` validates
    them, and an invalid triple raises its ``ValueError``.
    """
    B = np.diag(Homogeneous(lam, mu, m).diagonal.astype(complex))
    Binv = np.linalg.inv(B)
    Bhalf = np.sqrt(B.real).astype(complex)
    S = shift_matrix(m)
    Sh = S.conj().T
    Dm = np.diag(np.arange(m, -1, -1).astype(complex))

    X = Binv @ S @ B
    a11 = X @ Sh - Sh @ X + (2.0 * lam + m) * np.eye(m + 1) - 2.0 * Dm

    S2 = S @ S
    inner = (
        0.5 * (Binv @ S2 @ B @ Sh @ Binv + Sh @ Binv @ S2)
        + Binv @ (Dm @ S - S @ Dm)
        - Binv @ S @ B @ Sh @ Binv @ S
    )
    a12 = Bhalf @ inner @ Bhalf
    return PointInvariants(curvature=a11.T, d_zbar=2.0 * a12.T, d_zzbar=None)


def transport_eigenvalues(inv0: PointInvariants, z: complex) -> np.ndarray:
    """Predicted curvature eigenvalues at z for a homogeneous bundle.

    Transport by a disc automorphism moving 0 to z scales the curvature by
    |c|^{-2} = (1 - |z|^2)^{-2} up to a unitary, so the eigenvalue multiset
    at z is the multiset at 0 times that factor.  Returned ascending.
    """
    if abs(z) >= 1.0:
        raise DiscDomainError(f"|z| must be < 1, got {abs(z)}")
    return inv0.curvature_eigenvalues() / (1.0 - abs(z) ** 2) ** 2
