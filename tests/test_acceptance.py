"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` (or -rP) to see the lines.
Every tolerance below is part of the package contract, not a tunable.
"""

import numpy as np
import pytest

from cdbundle import (
    BergmanPower,
    Homogeneous,
    Verdict,
    covd_zbar_fd,
    curvature_eigenvalues_fd,
    curvature_fd,
    full_report,
    invariants_at_zero,
    kernel_taylor,
    oracle_invariants_at_zero,
    permutation_analysis,
    rank2_feasibility,
    roundtrip_check,
    simultaneous_pair_equiv,
    solve_triple,
    to_orthonormal_frame,
    zzbar_distinguishes,
)
from cdbundle.feasibility import IDENTITY, RHO, TAU, check_region
from cdbundle.invariants import homogeneous_invariants_closed
from cdbundle.reproduce import ds_jet_closed_forms, example1_pair, example2_pair
from conftest import jet_curvature_errors, zoo_fixtures


def report(num, ok, desc, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def grid_points(count_side, box):
    return [
        complex(x, y)
        for x in np.linspace(-box, box, count_side)
        for y in np.linspace(-box, box, count_side)
    ]


def sample_feasible(rng, count, lo_gap=0.05):
    out = []
    while len(out) < count:
        b = 0.1 + 2.4 * rng.random()
        c = 0.1 + 2.4 * rng.random()
        a = b + 2.2 + 5.8 * rng.random()
        delta = (a - b - 2.0, a + b - c, a + c + 2.0)
        if min(delta) <= 0.0:
            continue
        gaps = (abs(delta[0] - delta[1]), abs(delta[1] - delta[2]), abs(delta[0] - delta[2]))
        if min(gaps) < lo_gap:
            continue
        if solve_triple(delta).feasible:
            out.append(delta)
    return out


def sample_region(rng, region, count):
    out = []
    while len(out) < count:
        if region == "perm1":
            d1 = 0.5 + 1.5 * rng.random()
            d2 = d1 + 0.3 + 1.2 * rng.random()
            lo = max(2 * d1 - d2, 2 * d2 - d1) + 6.0
            hi = 2 * (d1 + d2) + 6.0
            if hi - lo < 0.2:
                continue
            d3 = lo + (0.05 + 0.9 * rng.random()) * (hi - lo)
        else:
            d3 = 6.5 + 2.5 * rng.random()
            lo2, hi2 = 3.0 + d3 / 2.0, d3
            if hi2 - lo2 < 0.2:
                continue
            d2 = lo2 + (0.05 + 0.9 * rng.random()) * (hi2 - lo2)
            cap = min(2 * d3 - d2, 2 * d2 - d3) - 6.0
            if cap < 0.1:
                continue
            d1 = (0.05 + 0.9 * rng.random()) * cap
        delta = (d1, d2, d3)
        ok, _ = check_region(delta, region)
        if ok and solve_triple(delta).feasible:
            out.append(delta)
    return out


def test_criterion_01_bergman_curvature_field():
    worst = 0.0
    pts = grid_points(10, 0.49)  # 100 points, all with |z| <= 0.7
    for lam in (1.0, 2.5):
        spec = BergmanPower(lam)
        for z in pts:
            got = curvature_fd(spec, z)[0, 0].real
            ref = lam / (1.0 - abs(z) ** 2) ** 2
            worst = max(worst, abs(got - ref) / ref)
    report(1, worst <= 1e-5, "oracle Bergman curvature matches the closed field",
           f"worst rel dev {worst:.2e} over 200 evaluations")


def test_criterion_02_rank2_counterexample():
    s1, s2 = example1_pair(lam=1.0, mu=5.0)
    pts = grid_points(5, 0.45)  # 25 points
    worst = 0.0
    for z in pts:
        e1 = curvature_eigenvalues_fd(s1, z)
        e2 = curvature_eigenvalues_fd(s2, z)
        worst = max(worst, float(np.abs(e1 - e2).max() / np.abs(e2).max()))
    inv1 = invariants_at_zero(kernel_taylor(s1, 4))
    inv2 = invariants_at_zero(kernel_taylor(s2, 4))
    verdict = full_report(s1, s2).verdict
    ok = (
        worst <= 1e-5
        and np.abs(inv1.d_zbar).max() <= 1e-11
        and np.abs(inv2.d_zbar).max() > 1.0
        and verdict is Verdict.EIGENVALUES_MATCH_ONLY
    )
    report(2, ok, "rank-2 pair: equal curvature spectra, (0,1) derivative differs",
           f"field dev {worst:.2e}, verdict {verdict.value}")


def test_criterion_03_rank3_closed_forms_and_oracle():
    worst_closed = 0.0
    worst_oracle = 0.0
    ledger = []
    for alpha in (1.0, 2.0):
        for beta in (1.0, 2.0):
            s1, s2 = example2_pair(alpha, beta)
            inv1 = invariants_at_zero(kernel_taylor(s1, 4))
            inv2 = invariants_at_zero(kernel_taylor(s2, 4))
            (K1, T1, Z1v), (K2, T2, Z2) = ds_jet_closed_forms(alpha, beta)
            worst_closed = max(
                worst_closed,
                float(np.abs(inv1.curvature - K1).max()),
                float(np.abs(inv1.d_zbar - T1).max()),
                float(np.abs(inv2.curvature - K2).max()),
                float(np.abs(inv2.d_zbar - T2).max()),
            )
            for spec, inv in ((s1, inv1), (s2, inv2)):
                orc = oracle_invariants_at_zero(spec)
                worst_oracle = max(
                    worst_oracle, float(np.abs(orc["d_zzbar"] - inv.d_zzbar).max())
                )
            ledger.append(
                f"  (alpha={alpha:g}, beta={beta:g}): zzbar variant 'with +2' dev "
                f"{np.abs(inv1.d_zzbar - Z1v['with_plus2']).max():.2e}, "
                f"'without +2' dev {np.abs(inv1.d_zzbar - Z1v['without_plus2']).max():.2e}; "
                f"jet side (leading factor 2 kept) dev {np.abs(inv2.d_zzbar - Z2).max():.2e}"
            )
    print("closed-form constant ledger:")
    for line in ledger:
        print(line)
    ok = worst_closed <= 1e-10 and worst_oracle <= 1e-5
    report(3, ok, "rank-3 closed forms at 0 and oracle agreement for the (1,1) level",
           f"closed dev {worst_closed:.2e}, oracle dev {worst_oracle:.2e}")


def test_criterion_04_ratio_equivalence_and_11_distinguisher():
    s1, s2 = example2_pair(1.0, 2.0)  # beta' = 5
    inv1 = invariants_at_zero(kernel_taylor(s1, 4))
    inv2 = invariants_at_zero(kernel_taylor(s2, 4))
    pair = simultaneous_pair_equiv(inv1, inv2)
    eta1, eta2 = inv1.d_zbar[1, 2], inv2.d_zbar[1, 2]
    expected = np.sqrt(5.0 / 6.0)
    ratio_ok = (
        abs(abs(eta1 / eta2) - expected) <= 1e-10
        and abs(abs(eta2 / eta1) - 1.0 / expected) <= 1e-10
    )
    distinguishes = zzbar_distinguishes(inv1, inv2, maps=pair.surviving_maps)
    ok = pair.verdict is Verdict.EQUIVALENT and ratio_ok and distinguishes
    report(4, ok, "rank-3 pair equivalent at (0,1) via the ratio, split at (1,1)",
           f"ratio {abs(eta1 / eta2):.10f} vs sqrt(5/6)")


def test_criterion_05_homogeneous_closed_forms(rng):
    worst_series = 0.0
    worst_oracle = 0.0
    min_dzbar = np.inf
    for _ in range(20):
        lam = 1.3 + 2.2 * rng.random()
        mu = (1.0, 0.55 + 1.45 * rng.random(), 0.55 + 1.45 * rng.random())
        spec = Homogeneous(lam=lam, mu=mu, m=2)
        closed = homogeneous_invariants_closed(lam, mu, 2)
        series = invariants_at_zero(kernel_taylor(spec, 3))
        worst_series = max(
            worst_series,
            float(np.abs(closed.curvature - series.curvature).max()),
            float(np.abs(closed.d_zbar - series.d_zbar).max()),
        )
        h0 = spec.metric_at(0.0)
        worst_oracle = max(
            worst_oracle,
            float(np.abs(to_orthonormal_frame(curvature_fd(spec, 0.0), h0)
                         - closed.curvature).max()),
            float(np.abs(to_orthonormal_frame(covd_zbar_fd(spec, 0.0), h0)
                         - closed.d_zbar).max()),
        )
        min_dzbar = min(min_dzbar, float(np.abs(closed.d_zbar).max()))
    ok = worst_series <= 1e-10 and worst_oracle <= 1e-5 and min_dzbar > 1e-8
    report(5, ok, "homogeneous closed forms vs series and oracle; (0,1) never zero",
           f"series {worst_series:.2e}, oracle {worst_oracle:.2e}, min |T| {min_dzbar:.2e}")


def test_criterion_06_feasibility_regions(rng):
    ok = True
    details = []
    for d3 in (9.5, 10.5, 11.5):
        delta = (1.0, 2.0, d3)
        in_region, _ = check_region(delta, "perm1")
        pa = permutation_analysis(delta)
        good = in_region and set(pa.feasible_sigmas) == {IDENTITY, RHO}
        ok = ok and good
        details.append(f"perm1 {delta}: {'ok' if good else 'bad'}")
    for d1 in (0.25, 0.5, 0.75):
        delta = (d1, 7.5, 8.0)
        in_region, _ = check_region(delta, "perm2")
        pa = permutation_analysis(delta)
        good = in_region and set(pa.feasible_sigmas) == {IDENTITY, TAU}
        ok = ok and good
        details.append(f"perm2 {delta}: {'ok' if good else 'bad'}")
    violations = 0
    for delta in sample_feasible(rng, 100):
        if not permutation_analysis(delta).respects_exclusions():
            violations += 1
    ok = ok and violations == 0
    report(6, ok, "feasibility regions and permutation exclusions",
           f"{'; '.join(details)}; exclusion violations {violations}/100")


def test_criterion_07_roundtrip_uniqueness(rng):
    worst = 0.0
    for delta in sample_feasible(rng, 100):
        worst = max(worst, roundtrip_check(delta))
    partner_ok = True
    for region, sigma in (("perm1", RHO), ("perm2", TAU)):
        for delta in sample_region(rng, region, 8):
            partner = tuple(delta[s - 1] for s in sigma)
            r, rp = solve_triple(delta), solve_triple(partner)
            if rp.params is None:
                partner_ok = False
                continue
            gap = max(abs(x - y) for x, y in zip(r.params, rp.params))
            rep = full_report(r.kernel(), rp.kernel())
            partner_ok = partner_ok and gap > 1e-7 and (
                rep.verdict is Verdict.EIGENVALUES_MATCH_ONLY
                and rep.certificate["level"] == "(0,1)"
            )
    ok = worst < 1e-9 and partner_ok
    report(7, ok, "roundtrip within 1e-9; permuted partners split at the (0,1) level",
           f"worst roundtrip residual {worst:.2e}")


def test_criterion_08_rank2_iff_boundary():
    ok = True
    for base in (0.5, 1.0, 2.5):
        for gap in (1.9, 2.0, 2.1):
            sol = rank2_feasibility(base, base + gap)
            ok = ok and ((sol is not None) == (gap > 2.0))
            ok = ok and rank2_feasibility(base + gap, base) is None
    report(8, ok, "rank-2 feasibility holds exactly on gap > 2; swaps never feasible")


def test_criterion_09_homogeneity_scaling():
    specs = [
        Homogeneous(lam=1.0, mu=(1.0, 1.0), m=1),
        Homogeneous(lam=1.6, mu=(1.0, 0.8), m=1),
        Homogeneous(lam=2.0, mu=(1.0, 1.0, 1.0), m=2),
        Homogeneous(lam=1.6, mu=(1.0, 1.4, 0.6), m=2),
        Homogeneous(lam=2.8, mu=(1.0, 0.7, 1.9), m=2),
    ]
    pts = [r * np.exp(1j * ang) for r in (0.15, 0.35, 0.55, 0.7) for ang in
           (0.0, 1.1, 2.2, 3.9, 5.2)]  # 20 points
    worst = 0.0
    for spec in specs:
        base = invariants_at_zero(kernel_taylor(spec, 3)).curvature_eigenvalues()
        for z in pts:
            got = curvature_eigenvalues_fd(spec, z)
            ref = base / (1.0 - abs(z) ** 2) ** 2
            worst = max(worst, float(np.abs(got - ref).max() / ref.max()))
    report(9, worst <= 1e-5, "curvature eigenvalues scale by (1-|z|^2)^{-2}",
           f"worst rel dev {worst:.2e} over 100 evaluations")


def test_criterion_10_oracle_vs_series_and_convergence(monkeypatch):
    worst = 0.0
    worst_name = ""
    for name, spec in zoo_fixtures():
        inv = invariants_at_zero(kernel_taylor(spec, 4))
        orc = oracle_invariants_at_zero(spec)
        for key in ("curvature", "d_zbar", "d_zzbar"):
            dev = float(np.abs(orc[key] - getattr(inv, key)).max())
            if dev > worst:
                worst, worst_name = dev, f"{name}/{key}"
    # the torus rule's error falls geometrically as n grows by 1: 2 -> 3 -> 4 -> 5
    errs = jet_curvature_errors(monkeypatch, (2, 3, 4, 5))
    ratios = [e0 / e1 for e0, e1 in zip(errs, errs[1:])]
    ok = worst <= 1e-5 and all(100.0 <= ratio <= 220.0 for ratio in ratios)
    report(10, ok, "oracle matches series on the fixture set; jet error ratio per torus "
           "point in [100, 220]",
           f"worst dev {worst:.2e} at {worst_name}; ratios "
           + ", ".join(f"{ratio:.0f}" for ratio in ratios))
