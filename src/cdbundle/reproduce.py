"""Named end-to-end scenarios with machine-checkable PASS/FAIL assertions.

Each scenario returns a list of (name, ok, detail) records plus free-form
notes; the CLI prints them and exits nonzero when anything fails.  These
are the same checks the acceptance test suite runs, packaged for direct
inspection from the command line.
"""

from __future__ import annotations

import numpy as np

from .equivalence import Verdict, full_report, simultaneous_pair_equiv, zzbar_distinguishes
from .feasibility import (
    IDENTITY,
    RHO,
    TAU,
    check_region,
    permutation_analysis,
    rank2_feasibility,
    roundtrip_check,
)
from .invariants import INVARIANT_ORDER, invariants_at_zero
from .kernels import BergmanPower, DirectSum, Jet, kernel_taylor, weighted_shift
from .oracle import curvature_eigenvalues_fd


def _rec(records, name, ok, detail=""):
    records.append((name, bool(ok), detail))


def example1_pair(lam: float = 1.0, mu: float = 5.0):
    """Rank-2 pair: direct sum of two line bundles vs the rank-2 jet kernel."""
    alpha = lam
    beta = 0.5 * (mu - lam - 2.0)
    return DirectSum([BergmanPower(lam), BergmanPower(mu)]), Jet(alpha=alpha, beta=beta, k=1)


def example2_pair(alpha: float = 1.0, beta: float = 2.0):
    """Rank-3 pair: line bundle + rank-2 jet vs the rank-3 jet, beta' = 3/2 beta + 2."""
    beta_p = 1.5 * beta + 2.0
    e1 = DirectSum([BergmanPower(alpha), Jet(alpha=alpha, beta=beta_p, k=1)])
    e2 = Jet(alpha=alpha, beta=beta, k=2)
    return e1, e2


def ds_jet_closed_forms(alpha: float, beta: float):
    """Printed closed forms for the rank-3 pair at 0 (orthonormal frame).

    Returns (K1, T1, Z1_variants), (K2, T2, Z2) where Z1 comes in the two
    circulating printed variants for its third entry ('with +2' / 'without').
    """
    bp = 1.5 * beta + 2.0
    K1 = np.diag([alpha, alpha, alpha + 2.0 * bp + 2.0]).astype(complex)
    T1 = 2.0 * weighted_shift(2, [0.0, -np.sqrt(bp) * (bp + 1.0)]).T
    Z1_plus2 = 2.0 * np.diag([alpha, alpha + bp * (bp + 1.0), alpha + bp * (1.0 - bp) + 2.0])
    Z1_flat = 2.0 * np.diag([alpha, alpha + bp * (bp + 1.0), alpha + bp * (1.0 - bp)])
    K2 = np.diag([alpha, alpha, alpha + 3.0 * beta + 6.0]).astype(complex)
    T2 = weighted_shift(2, [0.0, -3.0 * np.sqrt(2.0 * (beta + 1.0)) * (beta + 2.0)]).T
    Z2 = 2.0 * np.diag(
        [alpha, alpha + 3.0 * (beta + 1.0) * (beta + 2.0), alpha - 3.0 * beta * (beta + 2.0)]
    )
    return (K1, T1, {"with_plus2": Z1_plus2, "without_plus2": Z1_flat}), (K2, T2, Z2)


def run_example1():
    records, notes = [], []
    s1, s2 = example1_pair()
    inv1 = invariants_at_zero(kernel_taylor(s1, INVARIANT_ORDER))
    inv2 = invariants_at_zero(kernel_taylor(s2, INVARIANT_ORDER))

    pts = [complex(x, y) for x in np.linspace(-0.45, 0.45, 5) for y in np.linspace(-0.45, 0.45, 5)]
    worst = 0.0
    for z in pts:
        e1 = curvature_eigenvalues_fd(s1, z)
        e2 = curvature_eigenvalues_fd(s2, z)
        worst = max(worst, float(np.abs(e1 - e2).max() / np.abs(e1).max()))
    _rec(records, "curvature eigenvalue fields agree on 25 points (rel 1e-5)",
         worst <= 1e-5, f"worst rel dev {worst:.2e}")

    z1 = float(np.abs(inv1.d_zbar).max())
    z2 = float(np.abs(inv2.d_zbar).max())
    _rec(records, "(0,1) derivative vanishes for the direct sum only",
         z1 <= 1e-11 and z2 > 1.0, f"|T1| {z1:.1e}, |T2| {z2:.3f}")

    report = full_report(s1, s2)
    _rec(records, "verdict eigenvalues_match_only",
         report.verdict is Verdict.EIGENVALUES_MATCH_ONLY, report.certificate["reason"])
    return records, notes


def run_example2():
    records, notes = [], []
    for alpha in (1.0, 2.0):
        for beta in (1.0, 2.0):
            s1, s2 = example2_pair(alpha, beta)
            inv1 = invariants_at_zero(kernel_taylor(s1, INVARIANT_ORDER))
            inv2 = invariants_at_zero(kernel_taylor(s2, INVARIANT_ORDER))
            (K1, T1, Z1v), (K2, T2, Z2) = ds_jet_closed_forms(alpha, beta)
            dev = max(
                float(np.abs(inv1.curvature - K1).max()),
                float(np.abs(inv1.d_zbar - T1).max()),
                float(np.abs(inv2.curvature - K2).max()),
                float(np.abs(inv2.d_zbar - T2).max()),
            )
            _rec(records, f"closed forms at 0 reproduced (a={alpha:g}, b={beta:g})",
                 dev <= 1e-10, f"max dev {dev:.2e}")
            with_p2 = float(np.abs(inv1.d_zzbar - Z1v["with_plus2"]).max())
            without = float(np.abs(inv1.d_zzbar - Z1v["without_plus2"]).max())
            dev2 = float(np.abs(inv2.d_zzbar - Z2).max())
            notes.append(
                f"(1,1) closed-form variants (a={alpha:g}, b={beta:g}): "
                f"'with +2' dev {with_p2:.2e}, 'without +2' dev {without:.2e}, "
                f"jet side (with overall factor 2) dev {dev2:.2e}"
            )
            _rec(records, f"(1,1) matches the 'with +2' variant (a={alpha:g}, b={beta:g})",
                 with_p2 <= 1e-10 and dev2 <= 1e-10 and without > 1.0,
                 f"with {with_p2:.1e}, without {without:.1f}")

    s1, s2 = example2_pair(1.0, 2.0)
    inv1 = invariants_at_zero(kernel_taylor(s1, INVARIANT_ORDER))
    inv2 = invariants_at_zero(kernel_taylor(s2, INVARIANT_ORDER))
    pair = simultaneous_pair_equiv(inv1, inv2)
    _rec(records, "pair equivalent at the (curvature, (0,1)) level",
         pair.verdict is Verdict.EQUIVALENT, pair.certificate["reason"])
    sol = pair.certificate["solutions"][0]
    eta1 = inv1.d_zbar[1, 2]
    eta2 = inv2.d_zbar[1, 2]
    expected = np.sqrt(5.0 / 6.0)
    ratio_fwd = abs(eta1 / eta2)
    ratio_bwd = abs(eta2 / eta1)
    _rec(records, "intertwiner ratio equals sqrt(5/6) both ways",
         abs(ratio_fwd - expected) <= 1e-10 and abs(ratio_bwd - 1.0 / expected) <= 1e-10,
         f"ratio {ratio_fwd:.12f}, map {sol['map']}")
    _rec(records, "(1,1) level distinguishes the pair",
         zzbar_distinguishes(inv1, inv2, maps=pair.surviving_maps),
         "diagonals differ under every surviving intertwiner")
    report = full_report(s1, s2)
    _rec(records, "full report: eigenvalues_match_only at the (1,1) level",
         report.verdict is Verdict.EIGENVALUES_MATCH_ONLY
         and report.certificate["level"] == "(1,1)", report.certificate["reason"])
    return records, notes


def _perm_scenario(records, delta, region, partner_sigma):
    ok, ledger = check_region(delta, region)
    _rec(records, f"{region} region holds for {delta}", ok,
         ", ".join(f"{k}:{'ok' if v['ok'] else 'fail'}" for k, v in ledger.items()))
    analysis = permutation_analysis(delta)
    expected = {IDENTITY, partner_sigma}
    got = set(analysis.feasible_sigmas)
    _rec(records, f"feasible orderings are exactly identity and {partner_sigma}",
         got == expected, f"got {sorted(got)}")
    _rec(records, "orderings beyond the two allowed swaps are infeasible",
         analysis.respects_exclusions(), "")
    r, rp = analysis.results[IDENTITY], analysis.results[partner_sigma]
    for label, res in (("", r), ("partner ", rp)):
        resid = roundtrip_check(res.delta)
        _rec(records, f"roundtrip residual < 1e-9 for {label}{res.delta}", resid < 1e-9,
             f"{resid:.2e}")
    dist = max(abs(x - y) for x, y in zip(r.params, rp.params))
    _rec(records, "partner parameters are distinct", dist > 1e-6, f"max param gap {dist:.3f}")

    report = full_report(r.kernel(), rp.kernel())
    _rec(records, "pair verdict eigenvalues_match_only with a (0,1) certificate",
         report.verdict is Verdict.EIGENVALUES_MATCH_ONLY
         and report.certificate["level"] == "(0,1)", report.certificate["reason"])


def run_perm1():
    records = []
    for d3 in (9.5, 10.5, 11.5):
        _perm_scenario(records, (1.0, 2.0, d3), "perm1", RHO)
    return records, []


def run_perm2():
    records = []
    for d1 in (0.25, 0.5, 0.75):
        _perm_scenario(records, (d1, 7.5, 8.0), "perm2", TAU)
    return records, []


def run_rank2():
    records, notes = [], []
    for base in (1.0, 2.5):
        for gap in (1.9, 2.0, 2.1):
            sol = rank2_feasibility(base, base + gap)
            _rec(records, f"pair ({base:g}, {base + gap:g}) feasible iff gap > 2",
                 (sol is not None) == (gap > 2.0),
                 "feasible" if sol else "infeasible")
    sol = rank2_feasibility(1.0, 5.0)
    ok = sol is not None and abs(sol[0] - 1.5) < 1e-12 and abs(sol[1] - 0.5) < 1e-12
    _rec(records, "pair (1, 5) solves to lambda = 1.5, mu_1^2 = 0.5", ok, f"{sol}")
    _rec(records, "swapped pair (5, 1) infeasible", rank2_feasibility(5.0, 1.0) is None, "")
    return records, notes


SCENARIOS = {
    "example1": run_example1,
    "example2": run_example2,
    "perm1": run_perm1,
    "perm2": run_perm2,
    "rank2": run_rank2,
}
