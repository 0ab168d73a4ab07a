"""Inverse problem: which curvature diagonals the homogeneous family realizes.

For m = 2 the ordered diagonal (delta_1, delta_2, delta_3) of the curvature
at 0 relates to (a, b, c) = (2 lambda, 1/d_1, 4 d_1/d_2) through

    a - b - 2 = delta_1,   a + b - c = delta_2,   a + c + 2 = delta_3,

i.e. A (a,b,c)^t = (delta_1 + 2, delta_2, delta_3 - 2)^t with
A = [[1,-1,0],[1,1,-1],[1,0,1]], whose unique solution is

    (a, b, c) = ( (d1+d2+d3)/3, (d2+d3-2 d1-6)/3, (2 d3-d1-d2-6)/3 ).

Feasibility of the ordered triple is equivalent to lambda > 1, b > 0,
c > 0, mu_1^2 > 0 and mu_2^2 > 0, with

    mu_1^2 = d_1 - 1/(2 (lambda-1)) = delta_1 / (b (a-2)),
    mu_2^2 = d_2 - 2 d_1/lambda + 1/(lambda (2 lambda-1))
           = (2 (a-c)(a-1) + b c) / (b c lambda (a-1)),

    2 (a-c)(a-1) + b c = ( (2 delta_1 + delta_2)(delta_1 + delta_2) + 6 delta_1
                           + (delta_2 - delta_1) delta_3 ) / 3.

The code uses the cancellation-free forms: mu_1^2 and mu_2^2 from the
right-hand sides, divided step by step, and the numerator of mu_2^2 in the
deltas, with its delta_3^2 terms cancelled by hand.  Written in (a, b, c),
those terms cancel only up to rounding, and the numerator reads 0 at
(1, 2, 1e18), where its exact value is 3.3e17.  All inequalities are strict
(margin 0); boundary triples report infeasible.

:func:`solve_triple` is the one place a triple is decided, and its result
builds the realizing kernel, ``Homogeneous(lambda, (1, mu_1, mu_2), m=2)``,
through :meth:`FeasibilityResult.kernel`.  Triples are ordered tuples
throughout — the diagonal order is frame data — and multiset questions are
answered only by :func:`permutation_analysis`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateInputError
from .invariants import INVARIANT_ORDER, invariants_at_zero
from .kernels import Homogeneous, kernel_taylor

IDENTITY = (1, 2, 3)
RHO = (2, 1, 3)  # swaps the first two diagonal slots
TAU = (1, 3, 2)  # swaps the last two diagonal slots


@dataclass(frozen=True)
class FeasibilityResult:
    delta: tuple
    abc: tuple
    params: Optional[tuple]  # (lambda, mu_1^2, mu_2^2)
    checks: dict
    feasible: bool

    def kernel(self) -> Homogeneous:
        """The m = 2 homogeneous kernel whose curvature diagonal at 0 is this triple."""
        if self.params is None:
            raise DegenerateInputError(f"triple {self.delta} is not feasible")
        lam, mu1_sq, mu2_sq = self.params
        return Homogeneous(lam=lam, mu=(1.0, float(np.sqrt(mu1_sq)), float(np.sqrt(mu2_sq))), m=2)


@dataclass(frozen=True)
class PermutationAnalysis:
    delta: tuple
    results: dict  # sigma (1-indexed tuple) -> FeasibilityResult
    feasible_sigmas: tuple

    def respects_exclusions(self) -> bool:
        """No sigma outside {identity, rho, tau} may be feasible."""
        return all(s in (IDENTITY, RHO, TAU) for s in self.feasible_sigmas)


def _require_finite(derived: dict) -> None:
    """Raise DegenerateInputError naming the first non-finite derived quantity."""
    for name, value in derived.items():
        if not math.isfinite(value):
            raise DegenerateInputError(f"derived quantity {name} = {value} is not finite")


def solve_triple(delta) -> FeasibilityResult:
    """Full feasibility ledger for an ordered triple; the one place a triple is decided."""
    delta = tuple(float(x) for x in delta)
    d1, d2, d3 = delta
    a = (d1 + d2 + d3) / 3.0
    b = (d2 + d3 - 2.0 * d1 - 6.0) / 3.0
    c = (2.0 * d3 - d1 - d2 - 6.0) / 3.0
    # the numerator of mu_2^2, 2 (a - c)(a - 1) + b c, with its d3^2 terms cancelled by hand
    mu2_num = ((2.0 * d1 + d2) * (d1 + d2) + 6.0 * d1 + (d2 - d1) * d3) / 3.0
    checks = {
        name: {"lhs": lhs, "ok": lhs > bound}
        for name, lhs, bound in (
            ("sum_gt_6", d1 + d2 + d3, 6.0),
            ("mix1_gt_6", d2 + d3 - 2.0 * d1, 6.0),
            ("mix2_gt_6", 2.0 * d3 - d1 - d2, 6.0),
            # once a > 2 and b > 0, mu_1^2 = 1/b - 1/(a-2) > 0 exactly when delta_1 > 0
            ("mu1_pos", d1, 0.0),
            ("mu2_pos", mu2_num, 0.0),
        )
    }
    params = None
    lam = a / 2.0
    if lam > 1.0 and b > 0.0 and c > 0.0:
        mu1_sq = d1 / b / (a - 2.0)
        mu2_sq = mu2_num / b / c / lam / (a - 1.0)
        if not (mu1_sq <= 0.0 or mu2_sq <= 0.0):  # a NaN passes, for the finiteness check
            params = (lam, mu1_sq, mu2_sq)
    derived = {"a": a, "b": b, "c": c, **{f"{k} lhs": v["lhs"] for k, v in checks.items()}}
    derived.update(zip(("lambda", "mu1_sq", "mu2_sq"), params or ()))
    _require_finite(derived)
    feasible = all(entry["ok"] for entry in checks.values()) and params is not None
    # mu_1^2 and mu_2^2 can underflow to 0 for a triple the ledger accepts, which is then
    # infeasible; only a feasible triple has parameters
    return FeasibilityResult(delta=delta, abc=(a, b, c), params=params if feasible else None,
                             checks=checks, feasible=feasible)


def check_region(delta, region: str):
    """(verdict, per-clause ledger) for the perm1 / perm2 regions."""
    d1, d2, d3 = (float(x) for x in delta)
    if region == "perm1":
        hi = max(2.0 * d1 - d2, 2.0 * d2 - d1)
        ledger = {
            "distinct_12": {"lhs": d1 - d2, "ok": d1 != d2},
            "upper": {"lhs": 2.0 * (d1 + d2) - (d3 - 6.0), "ok": 2.0 * (d1 + d2) > d3 - 6.0},
            "lower": {"lhs": (d3 - 6.0) - hi, "ok": d3 - 6.0 > hi},
        }
        return all(v["ok"] for v in ledger.values()), ledger
    if region == "perm2":
        lo = min(2.0 * d3 - d2, 2.0 * d2 - d3) - 6.0
        ledger = {
            "order_32": {"lhs": d3 - d2, "ok": d3 > d2},
            "mid": {"lhs": d2 - (3.0 + d3 / 2.0), "ok": d2 > 3.0 + d3 / 2.0},
            "first_small": {"lhs": lo - d1, "ok": d1 < lo},
        }
        return all(v["ok"] for v in ledger.values()), ledger
    raise ValueError(f"region must be perm1/perm2, got {region!r}")


def permutation_analysis(delta) -> PermutationAnalysis:
    """Feasibility of every ordering of the triple, keyed by 1-indexed sigma."""
    delta = tuple(float(x) for x in delta)
    results = {}
    for sigma in itertools.permutations((1, 2, 3)):
        permuted = tuple(delta[s - 1] for s in sigma)
        results[sigma] = solve_triple(permuted)
    feasible = tuple(s for s in results if results[s].feasible)
    return PermutationAnalysis(delta=delta, results=results, feasible_sigmas=feasible)


def rank2_feasibility(delta1: float, delta2: float) -> Optional[tuple]:
    """m = 1 case: feasible iff both positive and delta2 - delta1 > 2.

    Then lambda = (delta1+delta2)/4, b = (delta2-delta1-2)/2 and
    mu_1^2 = d_1 - 1/(2 lambda - 1) with d_1 = 1/b.  The swapped pair is
    never feasible (it would force delta1 - delta2 > 2 as well).
    """
    delta1, delta2 = float(delta1), float(delta2)
    if not (delta1 > 0.0 and delta2 > 0.0 and delta2 - delta1 > 2.0):
        return None
    lam = (delta1 + delta2) / 4.0
    b = (delta2 - delta1 - 2.0) / 2.0
    d1 = 1.0 / b
    mu1_sq = d1 - 1.0 / (2.0 * lam - 1.0)
    _require_finite({"lambda": lam, "b": b, "mu1_sq": mu1_sq})
    if mu1_sq <= 0.0:
        return None
    return (lam, mu1_sq)


def roundtrip_check(delta) -> float:
    """Residual of [prescribe diagonal -> solve -> rebuild kernel -> read diagonal]."""
    inv = invariants_at_zero(kernel_taylor(solve_triple(delta).kernel(), INVARIANT_ORDER))
    diag = np.real(np.diag(inv.curvature))
    return float(np.abs(diag - np.asarray(delta, dtype=float)).max())
