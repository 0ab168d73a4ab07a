"""Truncated bivariate power series with square complex-matrix coefficients.

A series here is  sum_{k,l=0..N} a[k,l] z^k conj(w)^l  with each a[k,l] an
n-by-n complex matrix.  This is the carrier for reproducing kernels, their
inverses and their normalized forms; every coefficient-level invariant
formula in the package operates on this representation.  A series is read
through its coefficient array ``coeffs`` with ``rank`` and ``order``, and
composed by ``multiply`` and ``invert``; ``assert_hermitian``,
``_check_condition`` and ``positive_sqrt`` are the checked matrix steps the
normalization shares.

Conventions
-----------
* Both exponents are truncated at the same order N; products discard any
  contribution beyond (N, N) in either variable.
* A "kernel-grade" series satisfies a[k,l]^* = a[l,k] with a[0,0] Hermitian
  positive definite.  A "normalized-grade" series additionally has
  a[0,0] = I and a[k,0] = a[0,l] = 0 for k,l >= 1.  These grades are
  not encoded in the type.
* Storage is dense over [0,N]^2: ranks stay <= 4 and orders <= 12 in all
  supported workloads, so sparsity would buy nothing.

All values are immutable after construction (the coefficient array is set
read-only) and every operation is a pure function, so instances are safe
to use concurrently.  The one mutable part of an instance is its slot for
its normalized lattice (cdbundle.invariants): empty until the first query
of the normalized lattice (``normalize`` or an invariant at 0), then
holding the whole lattice as a read-only array that no later query
replaces or changes.  The lattice lives and dies with the instance and is
never shared between instances.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, MetricDegeneracyError, SingularLeadingTermError

DEFAULT_ORDER = 6
TOL_HERM = 1e-12
_SQRT_FLOOR = 1e-10  # least eigenvalue positive_sqrt accepts


def require_finite(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    arr = np.asarray(a, dtype=complex)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} contains non-finite entries")
    return arr


def assert_hermitian(a: np.ndarray, tol: float = TOL_HERM, what: str = "matrix") -> np.ndarray:
    a = require_finite(a, what)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"{what} must be square, got shape {a.shape}")
    d = float(np.abs(a.conj().T - a).max(initial=0.0))
    if d > tol:
        raise ValueError(f"{what} is not Hermitian within {tol:g} (defect {d:.3e})")
    return a


def _check_condition(vals: np.ndarray) -> None:
    """Raise SingularLeadingTermError when the constant coefficient a00 of a series to be
    inverted or normalized is singular or its condition number max|vals| / min|vals| exceeds
    1e14.  vals are the eigenvalues of the Hermitian a00 from the one np.linalg.eigh that also
    gives its inverse or its square root (:func:`positive_sqrt`)."""
    mags = np.abs(vals)
    if not mags.min() > 0:
        raise SingularLeadingTermError("constant coefficient is singular")
    cond = float(mags.max()) / float(mags.min())
    if cond > 1e14:
        raise SingularLeadingTermError(
            f"constant coefficient numerically singular (cond {cond:.3e})"
        )


def positive_sqrt(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Principal square root V diag(sqrt(vals)) V^* from (vals, vecs) = np.linalg.eigh(a).

    Eigenvalues below _SQRT_FLOOR are rejected rather than clipped: a
    degenerate metric invalidates every downstream invariant formula.
    """
    if vals.min() < _SQRT_FLOOR:
        raise MetricDegeneracyError(
            f"matrix not positive definite (min eigenvalue {vals.min():.3e} < {_SQRT_FLOOR:g})"
        )
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


class MatrixPowerSeries2:
    """Immutable truncated series sum a[k,l] z^k conj(w)^l, 0 <= k,l <= N."""

    __slots__ = ("coeffs", "rank", "order", "_normal")

    def __init__(self, coeffs: np.ndarray):
        arr = require_finite(coeffs, "series coefficients")
        if arr.ndim != 4 or arr.shape[0] != arr.shape[1] or arr.shape[2] != arr.shape[3]:
            raise DimensionMismatchError(
                f"coefficient array must have shape (N+1, N+1, n, n), got {arr.shape}"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "rank", arr.shape[2])
        object.__setattr__(self, "order", arr.shape[0] - 1)
        object.__setattr__(self, "_normal", None)  # the normalized lattice, once computed

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("MatrixPowerSeries2 is immutable")

    def _check_compatible(self, other: "MatrixPowerSeries2") -> None:
        if self.rank != other.rank:
            raise DimensionMismatchError(f"rank mismatch: {self.rank} vs {other.rank}")
        if self.order != other.order:
            raise DimensionMismatchError(f"order mismatch: {self.order} vs {other.order}")

    # -- algebra -------------------------------------------------------

    def multiply(self, other: "MatrixPowerSeries2") -> "MatrixPowerSeries2":
        """Cauchy product over both indices, truncated at the common order."""
        self._check_compatible(other)
        N = self.order
        a, b = self.coeffs, other.coeffs
        out = np.zeros_like(a)
        for k in range(N + 1):
            for l in range(N + 1):
                out[k, l] = _cauchy_term(a, b, k, l)
        return MatrixPowerSeries2(out)

    def invert(self) -> "MatrixPowerSeries2":
        """Series inverse B with B A = A B = identity up to order N.

        b[0,0] = a[0,0]^{-1} and, for (k,l) != (0,0), the coefficient follows
        from requiring every mixed coefficient of B*A to vanish:
        b[k,l] = -( sum_{(p,q) < (k,l)} b[p,q] a[k-p,l-q] ) a[0,0]^{-1}.
        Specializing to l = 0 this is the one-row recursion
        sum_{s<=k} b[s,0] a[k-s,0] = 0 used by the coefficient identities.
        a[0,0] must be Hermitian (ValueError otherwise): it is inverted
        from its eigendecomposition, as in normalization.
        """
        N = self.order
        a = self.coeffs
        a00 = assert_hermitian(a[0, 0], what="constant coefficient")
        vals, vecs = np.linalg.eigh(a00)
        _check_condition(vals)
        b = np.zeros_like(a)
        b[0, 0] = a00_inv = (vecs / vals) @ vecs.conj().T
        # row-major order: every b[p,q] with p <= k, q <= l is known, and
        # b[k,l] itself is still zero while its own term is summed
        for k in range(N + 1):
            for l in range(N + 1):
                if k or l:
                    b[k, l] = -_cauchy_term(b, a, k, l) @ a00_inv
        return MatrixPowerSeries2(b)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MatrixPowerSeries2(rank={self.rank}, order={self.order})"



def _cauchy_term(a: np.ndarray, b: np.ndarray, k: int, l: int) -> np.ndarray:
    """sum_{p<=k, q<=l} a[p,q] b[k-p,l-q]: coefficient (k,l) of the product."""
    return np.einsum("pqij,pqjk->ik", a[: k + 1, : l + 1], b[k::-1, l::-1])
