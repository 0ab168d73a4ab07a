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
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DiscDomainError, TruncationOrderError
from .kernels import TriangularData, shift_matrix
from .series import (
    MatrixPowerSeries2,
    _cauchy_term,
    assert_hermitian,
    leading_inverse,
    positive_sqrt,
)

CURVATURE_HERM_TOL = 1e-10
# The highest lattice index the invariants at 0 read: a~[1,1], a~[1,2], a~[2,2].
INVARIANT_ORDER = 2


@dataclass(frozen=True)
class PointInvariants:
    """Curvature and covariant derivatives at one point, orthonormal frame.

    d_zzbar is optional because the closed-form route for the homogeneous
    family produces only the curvature and the (0,1) derivative.
    """

    point: complex
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


class _Normalization:
    """The factors of one lattice's normalization, grown only as far as a query reads.

    K~ = a00^{1/2} L K R a00^{1/2} with L = K(z,0)^{-1}, a series in z
    alone, and R = K(0,w)^{-1}, a series in conj(w) alone.  Built on first
    use, it holds the one eigh of a00 with a00^{1/2} and a00^{-1}; L as a
    column and R as a row, each found coefficient by coefficient from the
    one-variable recursion and extended only to the highest row and column
    a query reads; and the rows of L K formed so far, each one sum over p
    of L[p, 0] a[k-p, l] for every column l at once.  Coefficients, once
    found, never change, so the cells a query reads do not depend on what
    earlier queries grew.  Growth and reads hold the lock.
    """

    def __init__(self, a: np.ndarray):
        a00 = assert_hermitian(a[0, 0], what="constant kernel coefficient")
        vals, vecs = np.linalg.eigh(a00)  # the one factorization of a00
        self.half = positive_sqrt(vals, vecs)
        self.a00_inv = leading_inverse(vals, vecs)
        self.a = a
        # L and R as full lattices, zero off their column and row: _cauchy_term slices them
        # like a, and its sum includes the coefficient being found, which must still be 0
        self.left, self.right, self.lk = (np.zeros_like(a) for _ in range(3))
        self.left[0, 0] = self.right[0, 0] = self.a00_inv
        self.left_top = self.right_top = 0  # highest coefficient of L and of R found
        self.rows = set()  # rows k of L K formed, each to the last column of the lattice
        self.lock = threading.Lock()

    def cells(self, cells) -> np.ndarray:
        rows, cols = np.array(cells).T
        top = int(cols.max())
        a, a00_inv = self.a, self.a00_inv
        with self.lock:
            left, right, lk = self.left, self.right, self.lk
            for k in range(self.left_top + 1, int(rows.max()) + 1):
                left[k, 0] = -_cauchy_term(left, a, k, 0) @ a00_inv
                self.left_top = k
            for l in range(self.right_top + 1, top + 1):
                right[0, l] = -_cauchy_term(right, a, 0, l) @ a00_inv
                self.right_top = l
            for k in set(rows.tolist()) - self.rows:
                lk[k] = np.einsum("pij,pljm->lim", left[: k + 1, 0], a[k::-1])
                self.rows.add(k)
            # entry (c, q) is R[0, l_c - q], and the zero block at index -1 when q > l_c
            padded = np.concatenate((right[0, : top + 1], np.zeros_like(right[0, :1])))
            tail = padded[np.maximum(cols[:, None] - np.arange(top + 1), -1)]
            out = np.einsum("cqij,cqjm->cim", lk[rows, : top + 1], tail)
        return np.einsum("ij,cjm,mn->cin", self.half, out, self.half)


def _normalized_cells(K: MatrixPowerSeries2, cells) -> np.ndarray:
    """The cells (k, l) of the normalized lattice of K, stacked in order.

    Every query reads through the one :class:`_Normalization` of K, built
    on first use and kept on K for its lifetime; threads racing on a fresh
    lattice may each build one, with equal values, and either is kept.  Cell
    (k, l) is the sum over q of (L K)[k, q] R[0, l-q]; every requested cell
    is computed in one sum against R reversed and padded with zero blocks,
    and the a00^{1/2} sandwich acts on the requested cells only.  The full
    composition adds the same nonzero terms in the same order, next to
    products with zero blocks; a sum started at +0 is unchanged by the ±0
    those contribute, so every cell is bit-identical to the full lattice's,
    whatever was asked of K before.
    """
    norm = K._normal
    if norm is None:
        norm = _Normalization(K.coeffs)
        object.__setattr__(K, "_normal", norm)
    return norm.cells(cells)


def normalize(K: MatrixPowerSeries2) -> MatrixPowerSeries2:
    """Normalized kernel series: a~[0,0] = I, a~[k,0] = a~[0,l] = 0.

    Computed by series composition: invert the z-only slice K(z, 0) and the
    w-only slice K(0, w), multiply through, and sandwich with the principal
    square root of the constant term; every cell of the lattice is computed.
    Raises MetricDegeneracyError when the constant term is not positive
    definite and SingularLeadingTermError when it is numerically singular.
    """
    N, n = K.order, K.rank
    cells = _normalized_cells(K, list(np.ndindex(N + 1, N + 1)))
    return MatrixPowerSeries2(cells.reshape(N + 1, N + 1, n, n))


def invariants_at_zero(K: MatrixPowerSeries2) -> PointInvariants:
    """Series-path invariants at 0: curvature, (0,1) and (1,1) derivatives.

    Computes only the cells a~[1,1], a~[1,2] and a~[2,2] of the normalized
    lattice of K, bit-identical to the same cells of ``normalize``.
    """
    if K.order < INVARIANT_ORDER:
        raise TruncationOrderError(f"invariants at 0 need series order >= {INVARIANT_ORDER}")
    a11, a12, a22 = _normalized_cells(K, ((1, 1), (1, 2), (2, 2)))
    return PointInvariants(
        point=0.0,
        curvature=a11.T,
        d_zbar=2.0 * a12.T,
        d_zzbar=(2.0 * (2.0 * a22 - a11 @ a11)).T,
    )


def covd_zbar_n_at_zero(K: MatrixPowerSeries2, n: int) -> np.ndarray:
    """(n+1)! a~[1, n+1]^t — the order-(0,n) covariant derivative at 0.

    Computes only the cell a~[1, n+1] of the normalized lattice of K,
    bit-identical to the same cell of ``normalize``.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    t = n + 1
    if K.order < t:
        raise TruncationOrderError(f"series order {K.order} is below the required {t}")
    (cell,) = _normalized_cells(K, ((1, t),))
    return math.factorial(t) * cell.T


# -- closed forms for the homogeneous family -------------------------------


def homogeneous_invariants_closed(lam: float, mu, m: int) -> PointInvariants:
    """Curvature and (0,1) derivative at 0 for K^(lambda, mu), closed form.

    a~[1,1] = [B^{-1} S B, S^*] + (2 lambda + m) I - 2 D_m
    a~[1,2] = B^{1/2} ( (B^{-1} S^2 B S^* B^{-1} + S^* B^{-1} S^2)/2
                        + B^{-1} [D_m, S] - B^{-1} S B S^* B^{-1} S ) B^{1/2}

    The (1,1) derivative has no closed form here; callers needing it go
    through the series path.  Cross-validated against that path at 1e-10.
    """
    td = TriangularData.build(lam, mu, m)
    B = td.B
    Binv = np.linalg.inv(B)
    Bhalf = np.sqrt(B.real).astype(complex)
    S = shift_matrix(m)
    Sh = S.conj().T
    Dm = td.D_m

    X = Binv @ S @ B
    a11 = X @ Sh - Sh @ X + (2.0 * lam + m) * np.eye(m + 1) - 2.0 * Dm

    S2 = S @ S
    inner = (
        0.5 * (Binv @ S2 @ B @ Sh @ Binv + Sh @ Binv @ S2)
        + Binv @ (Dm @ S - S @ Dm)
        - Binv @ S @ B @ Sh @ Binv @ S
    )
    a12 = Bhalf @ inner @ Bhalf
    return PointInvariants(point=0.0, curvature=a11.T, d_zbar=2.0 * a12.T, d_zzbar=None)


def transport_eigenvalues(inv0: PointInvariants, z: complex) -> np.ndarray:
    """Predicted curvature eigenvalues at z for a homogeneous bundle.

    Transport by a disc automorphism moving 0 to z scales the curvature by
    |c|^{-2} = (1 - |z|^2)^{-2} up to a unitary, so the eigenvalue multiset
    at z is the multiset at 0 times that factor.  Returned ascending.
    """
    if abs(z) >= 1.0:
        raise DiscDomainError(f"|z| must be < 1, got {abs(z)}")
    if inv0.point != 0:
        raise ValueError("transport starts from invariants at the origin")
    return inv0.curvature_eigenvalues() / (1.0 - abs(z) ** 2) ** 2
