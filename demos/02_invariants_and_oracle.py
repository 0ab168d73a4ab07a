#!/usr/bin/env python3
"""Curvature invariants at 0: series path, closed forms, and the oracle.

The series path reads the invariants off the normalized kernel's
coefficients; the oracle recomputes them by Wirtinger calculus on Taylor
jets that a Cauchy integral reads off exact kernel evaluations, never
touching the series. Their agreement is the package's core correctness
argument.
"""

import numpy as np

from cdbundle import (
    DirectSum,
    BergmanPower,
    Homogeneous,
    Jet,
    curvature_eigenvalues_fd,
    homogeneous_invariants_closed,
    invariants_at_zero,
    kernel_taylor,
    oracle_invariants_at_zero,
    transport_eigenvalues,
)

np.set_printoptions(precision=8, suppress=True, linewidth=110)

print("=" * 70)
print("1. Invariants at 0 for the rank-3 jet bundle (alpha=1, beta=2)")
print("=" * 70)

spec = Jet(alpha=1.0, beta=2.0, k=2)
inv = invariants_at_zero(kernel_taylor(spec, 4))
print("curvature(0) diagonal:", np.diag(inv.curvature).real)
print("(0,1) derivative entry (2,3):", inv.d_zbar[1, 2])
print("(1,1) derivative diagonal:", np.diag(inv.d_zzbar).real)

print("\nOracle cross-check (Cauchy-integral jets on a 12 x 12 torus):")
orc = oracle_invariants_at_zero(spec)
for key in ("curvature", "d_zbar", "d_zzbar"):
    dev = np.abs(orc[key] - getattr(inv, key)).max()
    print(f"  max |oracle - series| for {key:10s}: {dev:.2e}")

print()
print("=" * 70)
print("2. Homogeneous family: closed forms against the series path")
print("=" * 70)

lam, mu = 2.0, (1.0, 1.0, 1.0)
closed = homogeneous_invariants_closed(lam, mu, 2)
series = invariants_at_zero(kernel_taylor(Homogeneous(lam=lam, mu=mu, m=2), 3))
print("closed-form curvature diagonal:", np.diag(closed.curvature).real)
print("series curvature diagonal:    ", np.diag(series.curvature).real)
print("closed-form (0,1) derivative (never the zero matrix):")
print(np.array2string(closed.d_zbar.real, prefix="  "))

print()
print("=" * 70)
print("3. Mobius transport: eigenvalues scale by (1 - |z|^2)^{-2}")
print("=" * 70)

spec = DirectSum([BergmanPower(1.0), Jet(alpha=1.0, beta=5.0, k=1)])
inv0 = invariants_at_zero(kernel_taylor(spec, 4))
for z in (0.0, 0.3, 0.5 + 0.3j):
    predicted = transport_eigenvalues(inv0, z)
    measured = curvature_eigenvalues_fd(spec, z)
    print(f"  z = {z}: predicted {predicted}")
    print(f"           oracle    {measured}")
