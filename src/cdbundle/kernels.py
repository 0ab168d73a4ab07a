"""Closed-form reproducing kernels on the unit disc and their Taylor lattices.

Every kernel variant supports two independent views:

* ``evaluate(z, w)`` — the exact closed-form matrix value K(z, w), no
  truncation anywhere (nilpotent exponentials are finite sums, powers use
  the principal branch, which is safe because Re(1 - z conj(w)) > 0 on the
  bidisc).  z and w are scalars or arrays that broadcast together to a
  shape S, and the result has shape S + (n, n), so a whole torus of point
  pairs is one call: an (n, 1) column of z against a (1, n) row of w gives
  n x n pairs, with every factor of z alone or of w alone computed on n
  values.  Real (float) points are evaluated in real arithmetic.  It checks
  the disc once per call, then calls ``_values``, which a direct sum or a
  permutation calls on its parts in turn;
* ``taylor(order)`` — extraction of the coefficient lattice a[k,l] of
  K(z,w) = sum a[k,l] z^k conj(w)^l as a :class:`MatrixPowerSeries2`.

The metric convention used downstream is h(z) = K(z, z)^t (plain
transpose); the invariant formulas apply the trailing transpose where the
closed forms do, so kernels themselves are stored untransposed.

Specs are immutable and validated on construction; everything here is a
pure function of its arguments and safe to share across threads.  The
point-independent tables of ``evaluate`` are built on first use and kept on
the spec (``functools.cached_property``).  A jet's entries and the
homogeneous family's are sums over t of coefficients times powers of z,
conj(w) and 1 - z conj(w), evaluated by :func:`_power_sum` from stacked
(t, i, j) coefficient tables and the distinct exponents of each base with
the maps that gather their powers into each term; a permutation's table is
its index sigma - 1.  They hold constants of the spec only, never points or
results.  Two threads racing on a fresh spec may both build a table, with
equal values, and either copy is kept.  ``Homogeneous.taylor`` reads
S^r/r! from a read-only table per m.  Every output is bit-identical to the
per-term powers summed in order of t and to P K P^* written out; the
homogeneous values match the dense products exp(conj(w) S) B exp(z S^*) to
round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import DiscDomainError
from .series import MatrixPowerSeries2

__all__ = [
    "KernelSpec",
    "BergmanPower",
    "Jet",
    "DirectSum",
    "Homogeneous",
    "Permuted",
    "shift_matrix",
    "weighted_shift",
    "kernel_taylor",
    "permutation_matrix",
    "spec_from_dict",
    "spec_to_dict",
]


def rising(x: float, r: int) -> float:
    """Rising factorial x(x+1)...(x+r-1) by direct product (exact for r=0)."""
    out = 1.0
    for i in range(r):
        out *= x + i
    return out


def falling(n: int, r: int) -> float:
    """n(n-1)...(n-r+1) = n!/(n-r)!."""
    out = 1.0
    for i in range(r):
        out *= n - i
    return out


def weighted_shift(m: int, weights: Sequence[complex]) -> np.ndarray:
    """S_m(c_1..c_m): entry (l, p) = c_l * delta_{p+1,l}; nilpotent of index <= m+1."""
    if m < 1 or len(weights) != m:
        raise ValueError(f"need exactly m={m} weights, got {len(weights)}")
    s = np.zeros((m + 1, m + 1), dtype=complex)
    for l in range(1, m + 1):
        s[l, l - 1] = weights[l - 1]
    return s


def shift_matrix(m: int) -> np.ndarray:
    """The standard weighted shift with weights 1..m."""
    return weighted_shift(m, list(range(1, m + 1)))


def permutation_matrix(sigma: Sequence[int]) -> np.ndarray:
    """(P)_{ij} = 1 iff j = sigma(i), for 1-indexed sigma."""
    n = len(sigma)
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError(f"sigma must be a permutation of 1..{n}, got {list(sigma)}")
    p = np.zeros((n, n), dtype=complex)
    for i, j in enumerate(sigma):
        p[i, j - 1] = 1.0
    return p


def _check_disc(z, w) -> None:
    """Raise unless every point pair of the (broadcast) arrays lies in the disc."""
    if np.abs(z).max(initial=0.0) < 1.0 and np.abs(w).max(initial=0.0) < 1.0:
        return  # NaN fails the comparison and falls through to the search below
    outside = ~((np.abs(z) < 1.0) & (np.abs(w) < 1.0))
    if outside.any():
        first = np.flatnonzero(outside)[0]
        zb, wb = (np.broadcast_to(v, outside.shape).flat[first] for v in (z, w))
        raise DiscDomainError(f"point ({zb}, {wb}) outside the open unit disc")


def _power_tables(front, coeff, rise, exponents) -> tuple:
    """The tables of :func:`_power_sum`, with each (t, i, j) exponent table of z, conj(w) and
    1 - z conj(w) as its distinct values and the map of each entry into them."""
    powers = []
    for table in exponents:
        distinct, at = np.unique(table, return_inverse=True)
        powers.append((distinct, at.reshape(table.shape)))
    return front, coeff, rise, tuple(powers)


def _power_sum(z, w, base_exponent: float, tables: tuple) -> np.ndarray:
    """(1-x)^base_exponent front_j sum_t coeff z^a rise conj(w)^b (1-x)^e, x = z conj(w).

    The (n, n) matrix at each point pair: each base is raised once per distinct exponent,
    the powers are gathered into the (t, i, j) terms, and the terms are summed from 0.0 in
    order of t.
    """
    front, coeff, rise, ((z_exps, z_at), (w_exps, w_at), (x_exps, x_at)) = tables
    z, wbar = z[..., None], np.conj(w)[..., None]
    one_x = 1 - z * wbar
    base = (one_x ** base_exponent)[..., None]
    zpow, wpow, xpow = z ** z_exps, wbar ** w_exps, one_x ** x_exps
    terms = coeff * zpow[..., z_at] * rise * wpow[..., w_at] * xpow[..., x_at]
    total = np.add.reduce(terms, axis=-3, initial=0.0)
    return np.asarray(base * (front * total), dtype=complex)


class KernelSpec:
    """Base class of the kernel zoo; concrete variants are frozen dataclasses."""

    @property
    def rank(self) -> int:
        raise NotImplementedError

    def evaluate(self, z, w) -> np.ndarray:
        """K(z, w), complex, for scalars or arrays z and w that broadcast together.

        The result has the broadcast shape of z and w followed by (n, n).
        For arrays, each value is bit-identical to the one computed at
        ``np.broadcast_arrays(z, w)``.
        """
        _check_disc(z, w)
        # scalars as arrays too: a scalar power or product can differ from numpy's in the last bit
        return self._values(np.asarray(z), np.asarray(w))

    def _values(self, z: np.ndarray, w: np.ndarray) -> np.ndarray:
        """K(z, w) at arrays z and w that ``evaluate`` has checked to lie in the disc."""
        raise NotImplementedError

    def taylor(self, order: int) -> MatrixPowerSeries2:
        raise NotImplementedError

    def metric_at(self, z: complex) -> np.ndarray:
        """h(z) = K(z, z)^t at one point (stacks go through ``evaluate``)."""
        return self.evaluate(z, z).T.copy()


@dataclass(frozen=True)
class BergmanPower(KernelSpec):
    """(1 - z conj(w))^{-lambda}, lambda > 0; rank 1."""

    lam: float

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError(f"lambda must be positive, got {self.lam}")

    @property
    def rank(self) -> int:
        return 1

    def _values(self, z, w) -> np.ndarray:
        z, w = z[..., None, None], w[..., None, None]
        return np.asarray((1 - z * np.conj(w)) ** (-self.lam), dtype=complex)

    def taylor(self, order: int) -> MatrixPowerSeries2:
        c = np.zeros((order + 1, order + 1, 1, 1), dtype=complex)
        for k in range(order + 1):
            c[k, k, 0, 0] = rising(self.lam, k) / math.factorial(k)
        return MatrixPowerSeries2(c)


@dataclass(frozen=True)
class Jet(KernelSpec):
    """Rank-(k+1) jet kernel built from two scalar power kernels.

    Entry (i, j) is d^i_{z_2} d^j_{conj(w_2)} applied to
    (1-z_1 conj(w_1))^{-alpha} (1-z_2 conj(w_2))^{-beta}, restricted to
    z_1 = z_2 = z and w_1 = w_2 = w.
    """

    alpha: float
    beta: float
    k: int

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError("alpha and beta must be positive")
        if self.k not in (1, 2):
            raise ValueError(f"jet order k must be 1 or 2, got {self.k}")

    @property
    def rank(self) -> int:
        return self.k + 1

    @cached_property
    def _tables(self) -> tuple:
        """The point-independent factors of d^i_z d^j_wbar (1 - z wbar)^{-beta}, 0 <= i, j <= k.

        d^j_wbar gives (beta)_j z^j (1-x)^{-beta-j} with x = z wbar; the z
        derivatives then follow from the Leibniz rule on z^j * (1-x)^{-beta-j}:
        a sum over t <= min(i, j) of C(i, t) j!/(j-t)! z^{j-t} (beta+j)_{i-t}
        wbar^{i-t} (1-x)^{-beta-j-(i-t)}.  Returns the row (beta)_j; the
        stacked (t, i, j) tables of C(i, t) j!/(j-t)! and (beta+j)_{i-t}; and
        for each base z, wbar and 1 - x, the distinct values of its (t, i, j)
        exponent table with the map of each table entry into them, so that
        evaluate raises each base once per distinct exponent (the tables of
        :func:`_power_sum`).  The terms with t > min(i, j) carry coefficient 0.
        """
        n, beta = self.k + 1, self.beta
        i, j = np.indices((n, n))
        coeff = np.array([[[math.comb(a, t) * falling(b, t) for b in range(n)] for a in range(n)]
                          for t in range(n)])
        rise = np.array([[[rising(beta + b, a - t) for b in range(n)] for a in range(n)]
                         for t in range(n)])
        exponents = (
            np.array([np.maximum(j - t, 0) for t in range(n)]),
            np.array([np.maximum(i - t, 0) for t in range(n)]),
            np.array([-beta - j - (i - t) for t in range(n)]),
        )
        return _power_tables(np.array([rising(beta, b) for b in range(n)]), coeff, rise, exponents)

    def _values(self, z, w) -> np.ndarray:
        return _power_sum(z, w, -self.alpha, self._tables)

    def taylor(self, order: int) -> MatrixPowerSeries2:
        """The lattice from the generic derivative rule.

        With A_r = (alpha)_r / r! and B_r = (beta)_r / r!, entry (i, j) of
        the kernel is sum over k1, k2 of
        A_{k1} B_{k2} (k2!/(k2-i)!) (k2!/(k2-j)!) z^{k1+k2-i} conj(w)^{k1+k2-j},
        so a[p, q][i, j] collects the terms with k1 + k2 = p + i = q + j.
        """
        n = self.k + 1
        N = order
        # scalar factor coefficients up to the largest needed total degree
        top = N + self.k + 1
        A = [rising(self.alpha, r) / math.factorial(r) for r in range(top + 1)]
        B = [rising(self.beta, r) / math.factorial(r) for r in range(top + 1)]
        fall = [[falling(k2, i) for i in range(n)] for k2 in range(top + 1)]
        c = np.zeros((N + 1, N + 1, n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                for p in range(N + 1):
                    q = p + i - j
                    if q < 0 or q > N:
                        continue
                    K = p + i
                    acc = 0.0
                    for k2 in range(max(i, j), K + 1):
                        acc += A[K - k2] * B[k2] * fall[k2][i] * fall[k2][j]
                    c[p, q, i, j] = acc
        return MatrixPowerSeries2(c)


@dataclass(frozen=True)
class DirectSum(KernelSpec):
    """Block-diagonal sum of kernels; rank is the sum of part ranks."""

    parts: tuple

    def __init__(self, parts: Sequence[KernelSpec]):
        parts = tuple(parts)
        if not parts:
            raise ValueError("direct sum needs at least one part")
        for p in parts:
            if not isinstance(p, KernelSpec):
                raise TypeError(f"direct sum parts must be kernel specs, got {type(p)}")
        object.__setattr__(self, "parts", parts)

    @property
    def rank(self) -> int:
        return sum(p.rank for p in self.parts)

    def _values(self, z, w) -> np.ndarray:
        return _block_diagonal([p._values(z, w) for p in self.parts])

    def taylor(self, order: int) -> MatrixPowerSeries2:
        return MatrixPowerSeries2(_block_diagonal([p.taylor(order).coeffs for p in self.parts]))


def _block_diagonal(blocks: list) -> np.ndarray:
    """The blocks, alike in their leading axes, on the diagonal of a zero array along the last two."""
    n = sum(blk.shape[-1] for blk in blocks)
    out = np.zeros(blocks[0].shape[:-2] + (n, n), dtype=complex)
    at = 0
    for blk in blocks:
        r = blk.shape[-1]
        out[..., at : at + r, at : at + r] = blk
        at += r
    return out


@dataclass(frozen=True)
class Homogeneous(KernelSpec):
    """The rank-(m+1) homogeneous family K^(lambda, mu).

    K(z, w) = (1-x)^{-2 lambda - m} D(x) exp(conj(w) S) B exp(z S^*) D(x)
    with x = z conj(w), S the weighted shift with weights 1..m,
    D(x) = diag((1-x)^{m-l}) and B = diag(d), d = L(lambda) mu'.
    The exponentials are exact finite sums (S is nilpotent), so evaluation
    has no truncation error by construction; evaluate sums them entry by
    entry, as for the jets (see ``_tables``).
    """

    lam: float
    mu: tuple
    m: int

    def __init__(self, lam: float, mu: Sequence[float], m: int):
        mu = tuple(float(x) for x in mu)
        if m < 1 or int(m) != m:
            raise ValueError(f"m must be a positive integer, got {m}")
        if len(mu) != m + 1:
            raise ValueError(f"mu must have m+1 = {m + 1} entries, got {len(mu)}")
        if mu[0] != 1.0:
            raise ValueError(f"mu_0 must equal 1, got {mu[0]}")
        if any(x <= 0 for x in mu):
            raise ValueError("all mu entries must be positive")
        if not 2 * lam - m > 0:
            raise ValueError(f"need 2*lambda - m > 0, got lambda={lam}, m={m}")
        object.__setattr__(self, "lam", float(lam))
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "m", int(m))

    @property
    def rank(self) -> int:
        return self.m + 1

    @cached_property
    def diagonal(self) -> np.ndarray:
        """d = L mu', the diagonal of B, where mu' = (mu_0^2, ..., mu_m^2) and L is unit lower
        triangular with L[l, j] = C(l, j)^2 (l-j)! / (2 lambda - m + 2j)_(l-j) for j <= l."""
        m = self.m
        L = np.zeros((m + 1, m + 1))
        for l in range(m + 1):
            for j in range(l + 1):
                L[l, j] = (math.comb(l, j) ** 2 * math.factorial(l - j)
                           / rising(2.0 * self.lam - m + 2 * j, l - j))
        try:
            mu_sq = np.array([x ** 2 for x in self.mu])
            with np.errstate(over="raise"):
                d = L @ mu_sq
        except (OverflowError, FloatingPointError):
            raise ValueError(f"mu {self.mu} is too large: mu_i^2 or the metric diagonal "
                             "d = L mu' is not finite") from None
        if d.min() <= 0:
            raise ValueError(f"diagonal metric data must be positive, got {d}")
        return d

    @cached_property
    def _tables(self) -> tuple:
        """The tables of :func:`_power_sum` for K (1-x)^{2 lambda + m}.

        Entry (i, j) of exp(conj(w) S) B exp(z S^*) is the sum over
        t <= min(i, j) of C(i, t) C(j, t) d_t wbar^{i-t} z^{j-t}, and D(x) on
        both sides multiplies it by (1-x)^{2m-i-j}.  C(i, t) C(j, t) is 0 for
        t > min(i, j); the front row is 1.
        """
        m, d = self.m, self.diagonal
        n = m + 1
        i, j = np.indices((n, n))
        coeff = np.array([[[float(math.comb(a, t) * math.comb(b, t)) for b in range(n)]
                           for a in range(n)] for t in range(n)])
        rise = np.broadcast_to(d[:, None, None], (n, n, n))
        exponents = (
            np.array([np.maximum(j - t, 0) for t in range(n)]),
            np.array([np.maximum(i - t, 0) for t in range(n)]),
            np.broadcast_to(2 * m - i - j, (n, n, n)),
        )
        return _power_tables(np.ones(n), coeff, rise, exponents)

    def _values(self, z, w) -> np.ndarray:
        return _power_sum(z, w, -2 * self.lam - self.m, self._tables)

    def taylor(self, order: int) -> MatrixPowerSeries2:
        """The lattice in closed form.

        Entry (i, j) of K is (1-x)^{-(2 lambda - m + i + j)} times entry
        (i, j) of exp(conj(w) S) B exp(z S^*), whose z^k conj(w)^l
        coefficient is F[k,l] = (S^l/l!) B ((S^*)^k/k!).  With
        c_t(a) = (a)_t / t!, the x^t coefficient of (1-x)^{-a},

            a[k,l]_ij = sum_{t <= min(k,l)} c_t(2 lambda - m + i + j) F[k-t, l-t]_ij.
        """
        m, N = self.m, order
        P = np.zeros((N + 1, m + 1, m + 1), dtype=complex)  # S^r / r!, which is 0 from r = m + 1
        P[: m + 1] = _shift_powers(m)[: N + 1]
        F = np.einsum("lab,b,kdb->klad", P, self.diagonal, P.conj())
        a = 2 * self.lam - m + np.add.outer(np.arange(m + 1), np.arange(m + 1))
        with np.errstate(over="ignore"):
            c = [rising(a, t) / math.factorial(t) for t in range(N + 1)]
        if not all(np.isfinite(ct).all() for ct in c):
            raise ValueError(f"lambda {self.lam!r} is too large: the coefficients "
                             "(a)_t / t! of (1-x)^-a, a = 2 lambda - m + i + j, are not finite")
        out = np.zeros_like(F)
        for t in range(N + 1):
            out[t:, t:] += c[t] * F[: N + 1 - t, : N + 1 - t]
        return MatrixPowerSeries2(out)


@lru_cache(maxsize=None)
def _shift_powers(m: int) -> np.ndarray:
    """S^r / r! for r = 0 .. m, S the shift with weights 1..m (S^(m+1) = 0); read-only."""
    S = shift_matrix(m)
    term = np.eye(m + 1, dtype=complex)
    terms = [term]
    for r in range(1, m + 1):
        term = term @ S / r
        terms.append(term)
    powers = np.array(terms)
    powers.flags.writeable = False
    return powers


@dataclass(frozen=True)
class Permuted(KernelSpec):
    """P_sigma K P_sigma^* for a 1-indexed permutation sigma of the frame."""

    inner: KernelSpec
    sigma: tuple

    def __init__(self, inner: KernelSpec, sigma: Sequence[int]):
        sigma = tuple(int(s) for s in sigma)
        if sorted(sigma) != list(range(1, inner.rank + 1)):
            raise ValueError(
                f"sigma must be a permutation of 1..{inner.rank}, got {list(sigma)}"
            )
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "sigma", sigma)

    @property
    def rank(self) -> int:
        return self.inner.rank

    @cached_property
    def _index(self) -> np.ndarray:
        """sigma - 1: entry (i, j) of P K P^* is entry (sigma(i), sigma(j)) of K."""
        return np.array(self.sigma) - 1

    def _gather(self, k: np.ndarray) -> np.ndarray:
        """P k P^* over the trailing two axes of k: rows, then columns, gathered into a
        C-contiguous array; adding 0.0 turns -0.0 into +0.0, which makes the result
        bit-identical to the dense product."""
        idx = self._index
        return np.take(np.take(k, idx, axis=-2), idx, axis=-1) + 0.0

    def _values(self, z, w) -> np.ndarray:
        return self._gather(self.inner._values(z, w))

    def taylor(self, order: int) -> MatrixPowerSeries2:
        return MatrixPowerSeries2(self._gather(self.inner.taylor(order).coeffs))


# -- operation-level functions ------------------------------------------


def kernel_taylor(spec: KernelSpec, order: int) -> MatrixPowerSeries2:
    if order < 0:
        raise ValueError(f"order must be non-negative, got {order}")
    return spec.taylor(order)


# -- JSON wire format ------------------------------------------------------

def _number(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"'{key}' must be a number, got {value!r:.40}")
    if not math.isfinite(value):
        raise ValueError(f"'{key}' must be finite, got {value!r}")
    return float(value)


def _integer(value, key: str) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"'{key}' must be an integer, got {value!r:.40}")
    return value


def _list(value, key: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"'{key}' must be a list, got {value!r:.40}")
    return value


# deepest direct_sum/permuted nesting spec_from_dict accepts
MAX_SPEC_DEPTH = 64


def spec_from_dict(obj: dict) -> KernelSpec:
    """Parse the normative JSON form; unknown fields and mistyped values are rejected,
    and so is nesting deeper than MAX_SPEC_DEPTH."""
    return _spec_from_dict(obj, MAX_SPEC_DEPTH)


def _spec_from_dict(obj: dict, depth: int) -> KernelSpec:
    if depth < 1:
        raise ValueError(f"kernel spec nested deeper than {MAX_SPEC_DEPTH} levels")
    if not isinstance(obj, dict):
        raise ValueError(f"kernel spec must be an object, got {type(obj).__name__}")
    if "type" not in obj:
        raise ValueError("kernel spec missing 'type'")
    kind = obj["type"]
    fields = {k for k in obj if k != "type"}

    def expect(allowed: set) -> None:
        extra = fields - allowed
        missing = allowed - fields
        if extra:
            raise ValueError(f"unknown fields for '{kind}': {sorted(extra)}")
        if missing:
            raise ValueError(f"missing fields for '{kind}': {sorted(missing)}")

    if kind == "bergman":
        expect({"lambda"})
        return BergmanPower(lam=_number(obj["lambda"], "lambda"))
    if kind == "jet":
        expect({"alpha", "beta", "k"})
        return Jet(alpha=_number(obj["alpha"], "alpha"), beta=_number(obj["beta"], "beta"),
                   k=_integer(obj["k"], "k"))
    if kind == "direct_sum":
        expect({"parts"})
        return DirectSum([_spec_from_dict(p, depth - 1) for p in _list(obj["parts"], "parts")])
    if kind == "homogeneous":
        expect({"lambda", "mu", "m"})
        return Homogeneous(lam=_number(obj["lambda"], "lambda"),
                           mu=[_number(x, "mu") for x in _list(obj["mu"], "mu")],
                           m=_integer(obj["m"], "m"))
    if kind == "permuted":
        expect({"sigma", "inner"})
        return Permuted(inner=_spec_from_dict(obj["inner"], depth - 1),
                        sigma=[_integer(s, "sigma") for s in _list(obj["sigma"], "sigma")])
    raise ValueError(f"unknown kernel type '{kind}'")


def spec_to_dict(spec: KernelSpec) -> dict:
    if isinstance(spec, BergmanPower):
        return {"type": "bergman", "lambda": spec.lam}
    if isinstance(spec, Jet):
        return {"type": "jet", "alpha": spec.alpha, "beta": spec.beta, "k": spec.k}
    if isinstance(spec, DirectSum):
        return {"type": "direct_sum", "parts": [spec_to_dict(p) for p in spec.parts]}
    if isinstance(spec, Homogeneous):
        return {"type": "homogeneous", "lambda": spec.lam, "mu": list(spec.mu), "m": spec.m}
    if isinstance(spec, Permuted):
        return {"type": "permuted", "sigma": list(spec.sigma), "inner": spec_to_dict(spec.inner)}
    raise TypeError(f"not a kernel spec: {type(spec).__name__}")
