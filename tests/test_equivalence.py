import itertools

import numpy as np
import pytest

from cdbundle import (
    BergmanPower,
    DirectSum,
    Homogeneous,
    Jet,
    Permuted,
    PointInvariants,
    UnsupportedShapeError,
    Verdict,
    WitnessVerificationError,
    full_report,
    invariants_at_zero,
    kernel_taylor,
    simultaneous_pair_equiv,
    solve_triple,
    zzbar_distinguishes,
)
from cdbundle.equivalence import _ratio_solution, _verify_witness
from cdbundle.feasibility import RHO
from conftest import zoo_fixtures


def make_inv(diag, zbar=None, zzbar=None):
    n = len(diag)
    return PointInvariants(
        curvature=np.diag(np.asarray(diag, dtype=complex)),
        d_zbar=np.zeros((n, n), complex) if zbar is None else np.asarray(zbar, complex),
        d_zzbar=None if zzbar is None else np.diag(np.asarray(zzbar, dtype=complex)),
    )


def shift_upper(n, entries):
    t = np.zeros((n, n), dtype=complex)
    for (i, j), v in entries.items():
        t[i, j] = v
    return t


def brute_force_unitary_pair(d1, T1, d2, T2, tol=1e-7):
    """Small-instance oracle: permutations with unimodular diagonal scalings.

    Phases enter only through modulus matching, so the search over the
    continuous phase torus reduces to exact modulus conditions per entry.
    """
    n = len(d1)
    for perm in itertools.permutations(range(n)):
        # C = D P with P[i, perm[i]] = 1; curvature needs d2[i] == d1[perm[i]]
        if any(abs(d1[perm[i]] - d2[i]) > tol for i in range(n)):
            continue
        X = np.array([[T1[perm[a], perm[b]] for b in range(n)] for a in range(n)])
        if not np.array_equal(np.abs(X) > tol, np.abs(T2) > tol):
            continue
        mask = np.abs(T2) > tol
        if np.all(np.abs(np.abs(X[mask]) - np.abs(T2[mask])) <= tol * np.abs(T2[mask])):
            # chains admit a consistent phase assignment; supports here are
            # forests (weighted-shift shapes), so modulus matching suffices
            return True
    return False


def test_identical_invariants_equivalent_with_identity_witness():
    spec = Homogeneous(lam=2.0, mu=(1.0, 1.0, 1.0), m=2)
    inv = invariants_at_zero(kernel_taylor(spec, 4))
    rep = simultaneous_pair_equiv(inv, inv)
    assert rep.verdict is Verdict.EQUIVALENT
    assert rep.witness_claims == ("curvature", "d_zbar")
    assert np.abs(rep.witness - np.eye(3)).max() < 1e-12


def test_distinct_spectra():
    rep = simultaneous_pair_equiv(make_inv([1.0, 2.0]), make_inv([1.0, 2.5]))
    assert rep.verdict is Verdict.DISTINCT
    assert rep.certificate["level"] == "spectrum"


def test_zero_vs_nonzero_derivative():
    s1 = DirectSum([BergmanPower(1.0), BergmanPower(5.0)])
    s2 = Jet(alpha=1.0, beta=1.0, k=1)  # beta = (mu - lam - 2)/2
    inv1 = invariants_at_zero(kernel_taylor(s1, 4))
    inv2 = invariants_at_zero(kernel_taylor(s2, 4))
    rep = simultaneous_pair_equiv(inv1, inv2)
    assert rep.verdict is Verdict.EIGENVALUES_MATCH_ONLY
    assert rep.certificate["level"] == "(0,1)"
    assert "vanishes" in rep.certificate["reason"]
    full = full_report(s1, s2)
    assert full.verdict is Verdict.EIGENVALUES_MATCH_ONLY
    assert any("homogeneous" in note for note in full.annotations)


def test_jet_pair_ratio_equivalence_and_zzbar():
    s1 = DirectSum([BergmanPower(1.0), Jet(alpha=1.0, beta=5.0, k=1)])
    s2 = Jet(alpha=1.0, beta=2.0, k=2)
    inv1 = invariants_at_zero(kernel_taylor(s1, 4))
    inv2 = invariants_at_zero(kernel_taylor(s2, 4))
    rep = simultaneous_pair_equiv(inv1, inv2)
    assert rep.verdict is Verdict.EQUIVALENT
    assert rep.witness_claims == ("curvature",)
    sol = rep.certificate["solutions"][0]
    ratio = abs(sol["ratios"]["1,2"])
    assert ratio == pytest.approx(np.sqrt(6.0 / 5.0), abs=1e-10)
    assert zzbar_distinguishes(inv1, inv2, maps=rep.surviving_maps)
    full = full_report(s1, s2)
    assert full.verdict is Verdict.EIGENVALUES_MATCH_ONLY
    assert full.certificate["level"] == "(1,1)"


def test_permuted_clone_fully_equivalent():
    inner = Homogeneous(lam=1.8, mu=(1.0, 1.2, 0.7), m=2)
    for sigma in ((2, 1, 3), (1, 3, 2), (3, 1, 2)):
        clone = Permuted(inner=inner, sigma=sigma)
        rep = full_report(inner, clone)
        assert rep.verdict is Verdict.EQUIVALENT, sigma
        assert rep.witness_claims == ("curvature", "d_zbar")


def test_inverse_problem_partners_fail_at_01_level():
    delta = (1.0, 2.0, 10.5)
    r = solve_triple(delta)
    rp = solve_triple(tuple(delta[s - 1] for s in RHO))
    rep = full_report(r.kernel(), rp.kernel())
    assert rep.verdict is Verdict.EIGENVALUES_MATCH_ONLY
    assert rep.certificate["level"] == "(0,1)"
    assert "support" in rep.certificate["reason"]


def test_witness_is_verified_unitary_intertwiner():
    inner = Homogeneous(lam=2.0, mu=(1.0, 1.0, 1.0), m=2)
    clone = Permuted(inner=inner, sigma=(3, 1, 2))
    inv1 = invariants_at_zero(kernel_taylor(inner, 4))
    inv2 = invariants_at_zero(kernel_taylor(clone, 4))
    rep = simultaneous_pair_equiv(inv1, inv2)
    U = rep.witness
    assert np.abs(U.conj().T @ U - np.eye(3)).max() < 1e-10
    assert np.abs(U @ inv1.curvature - inv2.curvature @ U).max() < 1e-8
    assert np.abs(U @ inv1.d_zbar - inv2.d_zbar @ U).max() < 1e-8


def test_non_unitary_witness_is_rejected():
    # a typed error, not an assert, so the check also runs under python -O
    K = np.diag([1.0, 2.0]).astype(complex)
    T = np.zeros((2, 2), dtype=complex)
    with pytest.raises(WitnessVerificationError, match="unitarity"):
        _verify_witness(np.diag([2.0, 1.0]).astype(complex), K, K, T, T, ("curvature",))


def test_witness_failing_only_its_d_zbar_claim_is_rejected():
    # U = I intertwines the curvatures but not the derivatives, so only the d_zbar claim fails
    K = np.diag([1.0, 2.0, 9.0]).astype(complex)
    T1 = shift_upper(3, {(0, 1): 1.5, (1, 2): 2.0})
    T2 = shift_upper(3, {(0, 1): 1.5, (1, 2): 2.5})
    _verify_witness(np.eye(3, dtype=complex), K, K, T1, T2, ("curvature",))
    with pytest.raises(WitnessVerificationError, match="d_zbar"):
        _verify_witness(np.eye(3, dtype=complex), K, K, T1, T2, ("curvature", "d_zbar"))


def test_derivative_moduli_1e_4_apart_split_a_simple_spectrum():
    # the ratios 1 + 1e-4 are not unimodular within 1e-7, and a simple spectrum admits no
    # metric-weighted intertwiner, so the pair splits at (0,1)
    T1 = shift_upper(3, {(0, 1): 1.5, (1, 2): 2.0})
    rep = simultaneous_pair_equiv(make_inv([1.0, 2.0, 9.0], T1),
                                  make_inv([1.0, 2.0, 9.0], (1 + 1e-4) * T1))
    assert rep.verdict is Verdict.EIGENVALUES_MATCH_ONLY
    assert rep.certificate["level"] == "(0,1)"
    assert "non-unimodular" in rep.certificate["reason"]


def test_ratio_solution_rejects_a_cycle_product_1e_6_from_one_through_the_library_only():
    # the CLI's derivatives are weighted shifts, whose support is a forest, so a cycle whose
    # ratios fail to close is reachable through the library only
    ones = {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0}
    assert _ratio_solution(ones, dict(ones), 3) is not None
    assert _ratio_solution(ones, {**ones, (0, 2): 1.0 + 1e-6}, 3) is None


def test_symmetry_of_decision():
    s1 = DirectSum([BergmanPower(1.0), Jet(alpha=1.0, beta=5.0, k=1)])
    s2 = Jet(alpha=1.0, beta=2.0, k=2)
    inv1 = invariants_at_zero(kernel_taylor(s1, 4))
    inv2 = invariants_at_zero(kernel_taylor(s2, 4))
    fwd = simultaneous_pair_equiv(inv1, inv2)
    bwd = simultaneous_pair_equiv(inv2, inv1)
    assert fwd.verdict == bwd.verdict
    assert fwd.witness_claims == bwd.witness_claims
    # the adjoint of a forward witness serves as a backward witness
    U = fwd.witness.conj().T
    assert np.abs(U @ inv2.curvature - inv1.curvature @ U).max() < 1e-8


def test_scaling_consistency_unimodular():
    # multiplying both derivatives by one unimodular scalar leaves every
    # verdict unchanged (equivalent pair and one-level-failing pair alike)
    pairs = [
        (
            DirectSum([BergmanPower(1.0), Jet(alpha=1.0, beta=5.0, k=1)]),
            Jet(alpha=1.0, beta=2.0, k=2),
        ),
        (
            Homogeneous(lam=1.8, mu=(1.0, 1.2, 0.7), m=2),
            Permuted(inner=Homogeneous(lam=1.8, mu=(1.0, 1.2, 0.7), m=2), sigma=(2, 1, 3)),
        ),
    ]
    phase = np.exp(0.7j)
    for s1, s2 in pairs:
        inv1 = invariants_at_zero(kernel_taylor(s1, 4))
        inv2 = invariants_at_zero(kernel_taylor(s2, 4))
        base = simultaneous_pair_equiv(inv1, inv2)
        scaled = simultaneous_pair_equiv(
            make_inv(np.diag(inv1.curvature), phase * inv1.d_zbar),
            make_inv(np.diag(inv2.curvature), phase * inv2.d_zbar),
        )
        assert base.verdict == scaled.verdict


def test_brute_force_agreement_distinct_eigenvalues(rng):
    for trial in range(40):
        diag1 = np.sort(1.0 + 3.0 * rng.random(3)) + np.array([0.0, 0.5, 1.0])
        perm = list(rng.permutation(3))
        diag2 = diag1[perm]
        w1 = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) * (rng.random(2) > 0.2)
        T1 = shift_upper(3, {(0, 1): w1[0], (1, 2): w1[1]})
        mode = trial % 3
        inv_perm = [perm.index(i) for i in range(3)]
        X = np.array([[T1[perm[a], perm[b]] for b in range(3)] for a in range(3)])
        if mode == 0:
            T2 = X * np.exp(0.3j)  # unimodular rescale: equivalent
        elif mode == 1:
            T2 = X * 1.7  # modulus mismatch
        else:
            T2 = shift_upper(3, {(0, 1): rng.standard_normal() + 2.0})
        inv1 = make_inv(diag1, T1)
        inv2 = make_inv(diag2, T2)
        try:
            rep = simultaneous_pair_equiv(inv1, inv2)
        except UnsupportedShapeError:
            continue
        expected = brute_force_unitary_pair(diag1, T1, diag2, T2)
        assert (rep.verdict is Verdict.EQUIVALENT) == expected, (trial, mode)


def test_unsupported_shapes_raise():
    bad_curv = PointInvariants(
        curvature=np.array([[1.0, 0.5], [0.5, 2.0]], dtype=complex),
        d_zbar=np.zeros((2, 2), complex),
        d_zzbar=None,
    )
    ok = make_inv([1.0, 2.0])
    with pytest.raises(UnsupportedShapeError):
        simultaneous_pair_equiv(bad_curv, ok)
    # derivative entry coupling a repeated eigenvalue
    bad_deriv = make_inv([1.0, 1.0, 3.0], shift_upper(3, {(0, 1): 2.0}))
    with pytest.raises(UnsupportedShapeError):
        simultaneous_pair_equiv(bad_deriv, make_inv([1.0, 1.0, 3.0]))
    big = make_inv([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(UnsupportedShapeError):
        simultaneous_pair_equiv(big, big)


def test_zzbar_candidate_unitary_path():
    inv1 = make_inv([1.0, 2.0, 9.0], zzbar=[2.0, 5.0, 7.0])
    inv2 = make_inv([1.0, 2.0, 9.0], zzbar=[2.0, 5.0, 7.0])
    assert not zzbar_distinguishes(inv1, inv2, maps=[(0, 1, 2)])
    inv3 = make_inv([1.0, 2.0, 9.0], zzbar=[2.0, 5.0, 8.0])
    assert zzbar_distinguishes(inv1, inv3, maps=[(0, 1, 2)])


def test_zzbar_tells_diagonals_1e_5_apart():
    inv1 = make_inv([1.0, 2.0, 9.0], zzbar=[2.0, 5.0, 7.0])
    inv2 = make_inv([1.0, 2.0, 9.0], zzbar=[2.0, 5.0, 7.0 * (1 + 1e-5)])
    assert zzbar_distinguishes(inv1, inv2, maps=[(0, 1, 2)])
    assert zzbar_distinguishes(inv2, inv1, maps=[(0, 1, 2)])


def test_equivalent_reports_carry_surviving_maps():
    # zzbar_distinguishes rules out every map of an empty list, so the (1,1)
    # stage of full_report relies on each EQUIVALENT report naming at least one
    zoo = [invariants_at_zero(kernel_taylor(spec, 2)) for _, spec in zoo_fixtures()]
    pairs = [(a, b) for a, b in itertools.product(zoo, repeat=2) if a.rank == b.rank]
    pairs += [
        (make_inv([1.0, 2.0]), make_inv([2.0, 1.0])),
        (
            make_inv([1.0, 2.0, 9.0], shift_upper(3, {(0, 1): 1.5j})),
            make_inv([1.0, 2.0, 9.0], shift_upper(3, {(0, 1): -1.5})),
        ),
        (
            make_inv([1.0, 1.0, 3.0], shift_upper(3, {(0, 2): 2.0})),
            make_inv([1.0, 1.0, 3.0], shift_upper(3, {(1, 2): 3.0})),
        ),
    ]
    regimes = set()
    for inv1, inv2 in pairs:
        rep = simultaneous_pair_equiv(inv1, inv2)
        if rep.verdict is Verdict.EQUIVALENT:
            assert rep.surviving_maps, rep.certificate
            regimes.add(rep.certificate["reason"].split(" (")[0])
    assert regimes == {
        "both derivatives vanish",
        "unitary intertwiner found",
        "invertible diagonal intertwiner",
    }


def test_full_report_rank_mismatch():
    rep = full_report(BergmanPower(1.0), Jet(alpha=1.0, beta=1.0, k=1))
    assert rep.verdict is Verdict.DISTINCT
    assert "rank" in rep.certificate["reason"]


def test_full_report_identical_specs():
    spec = Jet(alpha=1.0, beta=2.0, k=2)
    rep = full_report(spec, spec)
    assert rep.verdict is Verdict.EQUIVALENT


UNITARY = ("curvature", "d_zbar")
BRANCHES = [
    # (id, inputs, verdict, level, reason, certificate keys beyond level/reason,
    #  witness_claims, surviving_maps, vanishing_side)
    ("rank mismatch",
     lambda: full_report(BergmanPower(1.0), Jet(alpha=1.0, beta=1.0, k=1)),
     Verdict.DISTINCT, "spectrum", "bundle ranks differ (1 vs 2)", [], (), (), None),
    ("spectra differ",
     lambda: simultaneous_pair_equiv(make_inv([1.0, 2.0]), make_inv([1.0, 2.5])),
     Verdict.DISTINCT, "spectrum", "curvature eigenvalue multisets differ",
     ["spectrum_1", "spectrum_2"], (), (), None),
    ("both vanish",
     lambda: simultaneous_pair_equiv(make_inv([1.0, 2.0]), make_inv([2.0, 1.0])),
     Verdict.EQUIVALENT, "(0,1)", "both derivatives vanish", [], UNITARY, ((1, 0),), None),
    ("one side vanishes",
     lambda: simultaneous_pair_equiv(make_inv([1.0, 2.0, 9.0], shift_upper(3, {(0, 1): 1.5})),
                                     make_inv([1.0, 2.0, 9.0])),
     Verdict.EIGENVALUES_MATCH_ONLY, "(0,1)", "derivative vanishes on one side only",
     ["vanishing_side"], (), (), 2),
    ("unitary intertwiner",
     lambda: simultaneous_pair_equiv(make_inv([1.0, 2.0, 9.0], shift_upper(3, {(0, 1): 1.5j})),
                                     make_inv([1.0, 2.0, 9.0], shift_upper(3, {(0, 1): -1.5}))),
     Verdict.EQUIVALENT, "(0,1)", "unitary intertwiner found", ["solutions"], UNITARY,
     ((0, 1, 2),), None),
    ("unitary intertwiner, a non-unimodular map survives too",
     lambda: simultaneous_pair_equiv(
         make_inv([1.0, 1.0, 3.0], shift_upper(3, {(0, 2): 2.0, (1, 2): 3.0})),
         make_inv([1.0, 1.0, 3.0], shift_upper(3, {(0, 2): 2.0, (1, 2): 3.0}))),
     Verdict.EQUIVALENT, "(0,1)", "unitary intertwiner found", ["solutions"], UNITARY,
     ((0, 1, 2), (1, 0, 2)), None),
    ("metric-weighted",
     lambda: simultaneous_pair_equiv(make_inv([1.0, 1.0, 3.0], shift_upper(3, {(0, 2): 2.0})),
                                     make_inv([1.0, 1.0, 3.0], shift_upper(3, {(1, 2): 3.0}))),
     Verdict.EQUIVALENT, "(0,1)",
     "invertible diagonal intertwiner (ratio condition); "
     "repeated curvature eigenvalue permits a metric-weighted unitary",
     ["solutions"], ("curvature",), ((1, 0, 2),), None),
    ("modulus mismatch",
     lambda: simultaneous_pair_equiv(make_inv([1.0, 2.0, 9.0], shift_upper(3, {(0, 1): 1.5})),
                                     make_inv([1.0, 2.0, 9.0], shift_upper(3, {(0, 1): 3.0}))),
     Verdict.EIGENVALUES_MATCH_ONLY, "(0,1)",
     "derivative intertwiner requires non-unimodular scaling (modulus mismatch) "
     "and the curvature spectrum is simple",
     ["solutions"], (), (), None),
    ("no map carries the support",
     lambda: simultaneous_pair_equiv(make_inv([1.0, 2.0, 9.0], shift_upper(3, {(0, 1): 1.0})),
                                     make_inv([1.0, 2.0, 9.0], shift_upper(3, {(1, 2): 1.0}))),
     Verdict.EIGENVALUES_MATCH_ONLY, "(0,1)",
     "no eigenvalue-compatible index map carries one derivative support onto the other "
     "(ratio condition unsatisfiable)",
     [], (), (), None),
    ("(1,1)",
     lambda: full_report(DirectSum([BergmanPower(1.0), Jet(alpha=1.0, beta=5.0, k=1)]),
                         Jet(alpha=1.0, beta=2.0, k=2)),
     Verdict.EIGENVALUES_MATCH_ONLY, "(1,1)",
     "order-(1,1) derivative diagonals differ under every intertwiner surviving the (0,1) "
     "analysis",
     ["solutions", "zzbar_diag_1", "zzbar_diag_2"], ("curvature",), ((0, 1, 2),), None),
]


@pytest.mark.parametrize(
    "build, verdict, level, reason, keys, claims, maps, side",
    [case[1:] for case in BRANCHES], ids=[case[0] for case in BRANCHES])
def test_every_decider_branch(build, verdict, level, reason, keys, claims, maps, side):
    rep = build()
    cert = rep.certificate
    assert (rep.verdict, cert["level"], cert["reason"]) == (verdict, level, reason)
    assert sorted(cert) == sorted(["level", "reason", *keys])
    assert rep.witness_claims == claims
    assert rep.surviving_maps == maps
    assert cert.get("vanishing_side") == side
    # every witness names its claims; a (1,1) split keeps the (0,1) witness
    assert (rep.witness is not None) == bool(claims)
