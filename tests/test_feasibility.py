from fractions import Fraction

import numpy as np
import pytest

from cdbundle import (
    DegenerateInputError,
    Homogeneous,
    check_region,
    invariants_at_zero,
    kernel_taylor,
    permutation_analysis,
    rank2_feasibility,
    roundtrip_check,
    solve_triple,
)
from cdbundle.feasibility import IDENTITY, RHO, TAU

A = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, -1.0], [1.0, 0.0, 1.0]])


def mu2_sq_closed(a: float, b: float, c: float) -> float:
    """mu_2^2 in the closed rational form; equals the direct evaluation."""
    return (2.0 * (a - c) * (a - 1.0) + b * c) / (b * c * (a / 2.0) * (a - 1.0))


def sample_feasible_triples(rng, count, distinct=True):
    out = []
    while len(out) < count:
        b = 0.1 + 2.4 * rng.random()
        c = 0.1 + 2.4 * rng.random()
        a = b + 2.2 + 5.8 * rng.random()
        delta = (a - b - 2.0, a + b - c, a + c + 2.0)
        if min(delta) <= 0.0:
            continue
        if distinct and min(abs(delta[0] - delta[1]), abs(delta[1] - delta[2]),
                            abs(delta[0] - delta[2])) < 0.05:
            continue
        if solve_triple(delta).feasible:
            out.append(delta)
    return out


def test_solve_triple_abc_reference():
    abc = solve_triple((1.0, 2.0, 10.0)).abc
    assert abc == pytest.approx((13 / 3, 4 / 3, 11 / 3))
    # independent check: solve the linear system directly
    ref = np.linalg.solve(A, np.array([1.0 + 2.0, 2.0, 10.0 - 2.0]))
    assert np.allclose(abc, ref, atol=1e-14)


def test_solve_triple_abc_symmetric_and_permuted():
    s = 0.6
    a, b, c = solve_triple((2.0, 2.0, 2.0 + s)).abc
    assert a == pytest.approx((6.0 + s) / 3.0)
    assert b == pytest.approx((s - 6.0) / 3.0)
    _, b_perm, _ = solve_triple((2.0, 1.0, 10.0)).abc
    assert b_perm == pytest.approx(1.0 / 3.0)


def test_linear_system_invariant(rng):
    for _ in range(50):
        delta = 12.0 * rng.random(3)
        x = np.array(solve_triple(delta).abc)
        rhs = np.array([delta[0] + 2.0, delta[1], delta[2] - 2.0])
        assert np.abs(A @ x - rhs).max() < 1e-12


def test_solve_triple_params_reference():
    res = solve_triple((1.0, 2.0, 10.0))
    assert res.feasible and res.params is not None
    lam, mu1_sq, mu2_sq = res.params
    assert lam == pytest.approx(13 / 6)
    assert mu1_sq == pytest.approx(9 / 28)
    assert mu2_sq > 0
    assert mu2_sq == pytest.approx(mu2_sq_closed(13 / 3, 4 / 3, 11 / 3), abs=1e-12)


@pytest.mark.parametrize("delta, abc", [
    ((-1.0, 2.0, 5.0), (2.0, 1.0, 1.0)),  # lambda = 1 not > 1
    ((3.5, 3.5, 8.0), (5.0, -0.5, 1.0)),  # b < 0
    ((1.0, 2.0, 6.0), (3.0, 0.0, 1.0)),  # b = 0 exactly: d_1 = 1/b is undefined
], ids=["lambda_1", "b_negative", "b_zero"])
def test_solve_triple_rejections(delta, abc):
    res = solve_triple(delta)
    assert res.abc == pytest.approx(abc)
    assert not res.feasible and res.params is None
    with pytest.raises(DegenerateInputError):
        res.kernel()


def exact_ledger(delta):
    """(lhs of mu2_pos, mu_1^2, mu_2^2) of the float triple, in exact rational arithmetic
    from the unsimplified forms 2 (a - c)(a - 1) + b c, 1/b - 1/(a - 2) and the ratio of
    that lhs to b c lambda (a - 1)."""
    d1, d2, d3 = (Fraction(x) for x in delta)
    a = (d1 + d2 + d3) / 3
    b = (d2 + d3 - 2 * d1 - 6) / 3
    c = (2 * d3 - d1 - d2 - 6) / 3
    lhs = 2 * (a - c) * (a - 1) + b * c
    return lhs, 1 / b - 1 / (a - 2), lhs / (b * c * (a / 2) * (a - 1))


def relative_error(value, exact):
    return float(abs(Fraction(value) - exact) / abs(exact))


def test_ledger_and_parameters_against_exact_arithmetic():
    # the mu2_pos lhs as written in (a, b, c) loses its d3^2 terms to cancellation: on these
    # triples, with d3 up to 1e18, it read a worst relative error of 21 (and 0 in place of
    # 3.3e17 at (1, 2, 1e18)); the form in the deltas reads 1.2e-14.  mu_1^2 and mu_2^2, from
    # the identities divided step by step, read 4.0e-15 and 3.3e-15 on the feasible triples
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(2000):
        d1, d2 = rng.uniform(-5.0, 20.0, 2)
        delta = (float(d1), float(d2), float(10.0 ** rng.uniform(0.0, 18.0)))
        lhs = solve_triple(delta).checks["mu2_pos"]["lhs"]
        worst = max(worst, relative_error(lhs, exact_ledger(delta)[0]))
    assert worst <= 1e-12, worst
    worst1 = worst2 = 0.0
    for delta in sample_feasible_triples(rng, 500, distinct=False):
        _, mu1_sq, mu2_sq = solve_triple(delta).params
        _, exact1, exact2 = exact_ledger(delta)
        worst1 = max(worst1, relative_error(mu1_sq, exact1))
        worst2 = max(worst2, relative_error(mu2_sq, exact2))
    assert worst1 <= 1e-13 and worst2 <= 1e-13, (worst1, worst2)
    assert solve_triple((0.25, 7.5, 8.0)).params[1] == 1 / 39


def test_huge_third_entry_keeps_its_ledger():
    # at (1, 2, 1e18) the mu2_pos lhs is (12 + 6 + 1e18) / 3; written in (a, b, c) it read 0,
    # and the triple was infeasible
    delta = (1.0, 2.0, 1e18)
    res = solve_triple(delta)
    assert res.feasible
    got = (res.checks["mu2_pos"]["lhs"],) + res.params[1:]
    for value, exact in zip(got, exact_ledger(delta)):
        assert relative_error(value, exact) <= 1e-15, (value, exact)


def test_mu2_closed_form_agreement(rng):
    for _ in range(50):
        a = 2.5 + 5.0 * rng.random()
        b = 0.1 + 2.0 * rng.random()
        c = 0.1 + 2.0 * rng.random()
        lam = a / 2.0
        d1 = 1.0 / b
        d2 = 4.0 * d1 / c
        direct = d2 - 2.0 * d1 / lam + 1.0 / (lam * (2.0 * lam - 1.0))
        assert direct == pytest.approx(mu2_sq_closed(a, b, c), rel=1e-11)


def test_check_region_reference_triples():
    ok, _ = check_region((1.0, 2.0, 10.5), "perm1")
    assert ok
    ok, ledger = check_region((1.0, 2.0, 10.5), "perm2")
    assert not ok and not ledger["mid"]["ok"]
    ok, _ = check_region((0.5, 7.5, 8.0), "perm2")
    assert ok
    for region in ("base", "perm3"):
        with pytest.raises(ValueError):
            check_region((1.0, 2.0, 3.0), region)


def test_check_region_perm1_upper_clause_is_strict():
    # (1, 2, 12) lies on the boundary 2 (d1 + d2) = d3 - 6 of perm1
    ok, ledger = check_region((1.0, 2.0, 12.0), "perm1")
    assert not ok
    assert ledger["upper"] == {"lhs": 0.0, "ok": False}


def test_permutation_analysis_perm1_and_perm2():
    pa = permutation_analysis((1.0, 2.0, 10.5))
    assert set(pa.feasible_sigmas) == {IDENTITY, RHO}
    assert pa.respects_exclusions()
    pa2 = permutation_analysis((0.5, 7.5, 8.0))
    assert set(pa2.feasible_sigmas) == {IDENTITY, TAU}
    assert pa2.respects_exclusions()


def test_permutation_analysis_symmetric_tie():
    # delta_1 = delta_2: the first-swap ordering coincides with the identity
    pa = permutation_analysis((1.0, 1.0, 10.0))
    assert set(pa.feasible_sigmas) == {IDENTITY, RHO}
    assert pa.results[IDENTITY].delta == pa.results[RHO].delta


def test_exclusions_on_random_feasible_triples(rng):
    for delta in sample_feasible_triples(rng, 30):
        pa = permutation_analysis(delta)
        assert pa.respects_exclusions(), delta
        assert IDENTITY in pa.feasible_sigmas


def test_roundtrip_reference_triples():
    assert roundtrip_check((1.0, 2.0, 10.5)) < 1e-9
    assert roundtrip_check((0.5, 7.5, 8.0)) < 1e-9
    assert roundtrip_check((2.0, 1.0, 10.5)) < 1e-9
    r = solve_triple((1.0, 2.0, 10.5))
    rp = solve_triple((2.0, 1.0, 10.5))
    assert max(abs(x - y) for x, y in zip(r.params, rp.params)) > 1e-3


def test_roundtrip_random(rng):
    for delta in sample_feasible_triples(rng, 20):
        assert roundtrip_check(delta) < 1e-9, delta


def test_roundtrip_rejects_infeasible():
    with pytest.raises(DegenerateInputError):
        roundtrip_check((5.0, 1.0, 2.0))


def test_recovered_parameters_unique_under_perturbation(rng):
    # any parameter pair reproducing the diagonal within 1e-9 sits within
    # 1e-7 of the solver output: perturbed solutions move the diagonal visibly
    for delta in sample_feasible_triples(rng, 5):
        res = solve_triple(delta)
        lam, mu1_sq, mu2_sq = res.params
        for eps in (1e-6, 1e-4):
            for dlam, dmu in ((eps, 0.0), (0.0, eps), (eps, -eps)):
                lam_p = lam + dlam
                mu = (1.0, np.sqrt(mu1_sq + dmu), np.sqrt(mu2_sq))
                inv = invariants_at_zero(kernel_taylor(Homogeneous(lam=lam_p, mu=mu, m=2), 3))
                resid = np.abs(np.diag(inv.curvature).real - np.array(delta)).max()
                assert resid > 1e-9


def test_rank2_reference_and_boundary():
    assert rank2_feasibility(1.0, 5.0) == pytest.approx((1.5, 0.5))
    assert rank2_feasibility(5.0, 1.0) is None
    assert rank2_feasibility(1.0, 3.0) is None  # boundary gap = 2 is strict
    assert rank2_feasibility(-1.0, 5.0) is None


def test_rank2_matches_closed_m1_curvature(rng):
    for _ in range(20):
        d1 = 0.2 + 2.0 * rng.random()
        d2 = d1 + 2.0 + 3.0 * rng.random()
        sol = rank2_feasibility(d1, d2)
        assert sol is not None
        lam, mu1_sq = sol
        spec = Homogeneous(lam=lam, mu=(1.0, float(np.sqrt(mu1_sq))), m=1)
        inv = invariants_at_zero(kernel_taylor(spec, 3))
        assert np.allclose(np.diag(inv.curvature).real, [d1, d2], atol=1e-10)


def test_feasibility_ledger_equivalence(rng):
    # feasible <=> all five ledger checks <=> positivity chain, delta_1 <= 0 included
    others_ok = 0
    for i in range(120):
        delta = tuple(12.0 * rng.random(3) + 0.05)
        if i >= 40:  # delta_1 = 0 exactly, then delta_1 < 0
            delta = (0.0 if i < 80 else -3.0 * rng.random(),) + delta[1:]
        res = solve_triple(delta)
        ledger_ok = all(v["ok"] for v in res.checks.values())
        assert res.feasible == (ledger_ok and res.params is not None)
        assert (res.params is not None) == res.feasible
        if ledger_ok:
            assert res.params is not None
        if delta[0] <= 0.0:
            assert not res.checks["mu1_pos"]["ok"] and not res.feasible, delta
            others_ok += all(v["ok"] for k, v in res.checks.items() if k != "mu1_pos")
    assert others_ok > 0  # some samples fail on mu1_pos alone


def test_boundary_triples_are_infeasible():
    # delta_1 = 0 makes mu_1^2 = 0 exactly; rounding can leave it about 1e-16 above
    halves = np.arange(0.0, 20.5, 0.5)
    for d2 in halves:
        for d3 in halves:
            res = solve_triple((0.0, d2, d3))
            assert not res.feasible and not res.checks["mu1_pos"]["ok"], (d2, d3)


def test_infeasible_triple_carries_no_params():
    # rounded, mu_1^2 = 1/b - 1/(2 (lambda - 1)) reads 1.1e-16 > 0 here, but delta_1 = 0 fails
    # the ledger
    res = solve_triple((0.0, 3.0, 7.0))
    a, b, c = res.abc
    assert a / 2.0 > 1.0 and b > 0.0 and c > 0.0
    assert 0.0 < 1.0 / b - 1.0 / (2.0 * (a / 2.0 - 1.0)) < 1e-15
    assert not res.feasible and res.params is None
    with pytest.raises(DegenerateInputError):
        res.kernel()
