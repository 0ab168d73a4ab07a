#!/usr/bin/env python3
"""Inverse problem: realizing prescribed curvature eigenvalues at 0.

Given an ordered positive triple, solve for the homogeneous-family
parameters (lambda, mu), check the strict inequality ledger, analyse which
orderings of the same multiset are realizable, and round-trip the answer
through the kernel machinery.
"""

import numpy as np

from cdbundle import (
    full_report,
    invariants_at_zero,
    kernel_taylor,
    permutation_analysis,
    rank2_feasibility,
    roundtrip_check,
    solve_triple,
)

print("=" * 70)
print("1. Feasibility ledger for the ordered triple (1, 2, 10.5)")
print("=" * 70)
res = solve_triple((1.0, 2.0, 10.5))
print("(a, b, c) =", tuple(round(v, 6) for v in res.abc))
for name, entry in res.checks.items():
    print(f"  {name:10s}: lhs = {entry['lhs']:+.4f}  ->  {'ok' if entry['ok'] else 'fail'}")
print("feasible:", res.feasible, "| (lambda, mu1^2, mu2^2) =",
      tuple(round(v, 6) for v in res.params))
print("roundtrip residual:", f"{roundtrip_check((1.0, 2.0, 10.5)):.2e}")

print()
print("=" * 70)
print("2. Which orderings of the multiset are realizable?")
print("=" * 70)
for delta in ((1.0, 2.0, 10.5), (0.5, 7.5, 8.0)):
    pa = permutation_analysis(delta)
    feasible = ["".join(map(str, s)) for s in pa.feasible_sigmas]
    print(f"  triple {delta}: feasible orderings {feasible} "
          f"(exclusions respected: {pa.respects_exclusions()})")

print()
print("=" * 70)
print("3. Permuted partners are inequivalent despite equal spectra")
print("=" * 70)
delta = (1.0, 2.0, 10.5)
partner = (2.0, 1.0, 10.5)
r, rp = solve_triple(delta), solve_triple(partner)
print("parameters for", delta, "->", tuple(round(v, 6) for v in r.params))
print("parameters for", partner, "->", tuple(round(v, 6) for v in rp.params))
k1, k2 = r.kernel(), rp.kernel()  # Homogeneous(lambda, (1, mu_1, mu_2), m=2) of each result
inv1 = invariants_at_zero(kernel_taylor(k1, 3))
inv2 = invariants_at_zero(kernel_taylor(k2, 3))
print("curvature diagonals:", np.diag(inv1.curvature).real, np.diag(inv2.curvature).real)
rep = full_report(k1, k2)
print("verdict:", rep.verdict.value, "| certificate level:", rep.certificate["level"])
print("  ", rep.certificate["reason"])

print()
print("=" * 70)
print("4. The rank-2 family: feasible exactly when the gap exceeds 2")
print("=" * 70)
for pair in ((1.0, 5.0), (1.0, 3.0), (5.0, 1.0)):
    sol = rank2_feasibility(*pair)
    if sol is None:
        print(f"  {pair}: infeasible")
    else:
        print(f"  {pair}: lambda = {sol[0]}, mu1^2 = {sol[1]}")
