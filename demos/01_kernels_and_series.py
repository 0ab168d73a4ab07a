#!/usr/bin/env python3
"""Tour of the kernel zoo and the truncated-series algebra.

Builds each kernel variant, compares exact pointwise evaluation against
Taylor extraction, and shows series inversion and normalization at work.
"""

import numpy as np

from cdbundle import (
    BergmanPower,
    DirectSum,
    Homogeneous,
    Jet,
    Permuted,
    kernel_taylor,
    normalize,
)

np.set_printoptions(precision=6, suppress=True, linewidth=110)

print("=" * 70)
print("1. The kernel zoo")
print("=" * 70)

specs = {
    "weighted power kernel, lambda = 2": BergmanPower(2.0),
    "rank-2 jet kernel (alpha=1, beta=2)": Jet(alpha=1.0, beta=2.0, k=1),
    "rank-3 jet kernel (alpha=1, beta=2)": Jet(alpha=1.0, beta=2.0, k=2),
    "direct sum of two line bundles": DirectSum([BergmanPower(1.0), BergmanPower(5.0)]),
    "homogeneous family (lambda=2, mu=(1,1,1), m=2)": Homogeneous(lam=2.0, mu=(1, 1, 1), m=2),
    "frame-permuted copy of the homogeneous kernel": Permuted(
        inner=Homogeneous(lam=2.0, mu=(1, 1, 1), m=2), sigma=(2, 1, 3)
    ),
}

z, w = 0.30, 0.20 + 0.10j
for name, spec in specs.items():
    val = spec.evaluate(z, w)
    print(f"\n{name}  [rank {spec.rank}]")
    print(f"  K({z}, {w}) =")
    print(np.array2string(val, prefix="  "))

print()
print("=" * 70)
print("2. Taylor extraction agrees with the exact closed form")
print("=" * 70)

spec = Homogeneous(lam=2.0, mu=(1, 1, 1), m=2)
for order in (4, 6, 8):
    powers = z ** np.arange(order + 1)  # the truncated series summed at (z, z)
    partial = np.einsum("k,l,klij->ij", powers, np.conj(powers), kernel_taylor(spec, order).coeffs)
    dev = np.abs(partial - spec.evaluate(z, z)).max()
    print(f"  order {order}: truncation deviation at |z| = {abs(z):.2f} is {dev:.3e}")

print()
print("=" * 70)
print("3. Series inversion and the normalized kernel")
print("=" * 70)

ser = kernel_taylor(spec, 4)
inv = ser.invert()
identity = np.zeros_like(ser.coeffs)
identity[0, 0] = np.eye(3)
resid = np.abs(ser.multiply(inv).coeffs - identity).max()
print(f"  K * K^-1 deviates from the constant identity lattice by {resid:.2e}")
defect = np.abs(ser.coeffs.conj().transpose(1, 0, 3, 2) - ser.coeffs).max()  # a[k,l]^* vs a[l,k]
print(f"  Hermitian symmetry defect of the lattice: {defect:.2e}")

norm = normalize(ser)
print("  normalized kernel: constant term and pure-z / pure-conj(w) rows vanish:")
print(f"    |a~[0,0] - I| = {np.abs(norm.coeffs[0, 0] - np.eye(3)).max():.2e}")
print(f"    max |a~[k,0]|, k >= 1: {np.abs(norm.coeffs[1:, 0]).max():.2e}")
print("  a~[1,1] (this transposed is the curvature at 0):")
print(np.array2string(norm.coeffs[1, 1], prefix="  "))
