import math
import re
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from cdbundle import (
    BergmanPower,
    DirectSum,
    Homogeneous,
    Jet,
    MetricDegeneracyError,
    PointInvariants,
    SingularLeadingTermError,
    TruncationOrderError,
    covd_zbar_n_at_zero,
    homogeneous_invariants_closed,
    invariants_at_zero,
    kernel_taylor,
    normalize,
    transport_eigenvalues,
)
from cdbundle.kernels import weighted_shift
from cdbundle.series import MatrixPowerSeries2, assert_hermitian, positive_sqrt
from conftest import held_out_corpus, random_kernel_series, zoo_fixtures

SQ5, SQ6 = np.sqrt(5.0), np.sqrt(6.0)


# The m = 2 homogeneous family in the (a, b, c) parametrization, closed forms
# checked against homogeneous_invariants_closed.


def homogeneous_abc(lam: float, mu) -> tuple:
    """(a, b, c) = (2 lambda, 1/d_1, 4 d_1 / d_2) for the m = 2 family."""
    d = Homogeneous(lam, mu, 2).diagonal
    return 2.0 * lam, 1.0 / d[1], 4.0 * d[1] / d[2]


def curvature_diag_from_abc(a: float, b: float, c: float) -> np.ndarray:
    """diag(a-b-2, a+b-c, a+c+2): the ordered curvature diagonal at 0, m = 2."""
    return np.array([a - b - 2.0, a + b - c, a + c + 2.0])


def dzbar_from_abc(b: float, c: float) -> np.ndarray:
    """2 S_2(-sqrt(b)(1+b-c/2), -sqrt(c)(1+c-b/2))^t, m = 2."""
    w1 = -np.sqrt(b) * (1.0 + b - c / 2.0)
    w2 = -np.sqrt(c) * (1.0 + c - b / 2.0)
    return 2.0 * weighted_shift(2, [w1, w2]).T


# Independent formulas for the normalized coefficients, cross-checks of `normalize`.

def tilde_a_closed(K: MatrixPowerSeries2, which: str) -> np.ndarray:
    """Closed-form normalized coefficients a~[1,1], a~[1,2], a~[2,2].

    Direct matrix algebra on the first few kernel coefficients; must agree
    with the corresponding coefficient of :func:`normalize` at 1e-11.
    """
    if K.order < 2:
        raise TruncationOrderError("closed coefficient formulas need order >= 2")
    a00 = K.coeffs[0, 0]
    a00_inv = np.linalg.inv(a00)
    root_inv = np.linalg.inv(positive_sqrt(*np.linalg.eigh(assert_hermitian(a00, what="a00"))))
    a10, a01 = K.coeffs[1, 0], K.coeffs[0, 1]
    a11, a12, a21 = K.coeffs[1, 1], K.coeffs[1, 2], K.coeffs[2, 1]
    a20, a02, a22 = K.coeffs[2, 0], K.coeffs[0, 2], K.coeffs[2, 2]

    schur = a11 - a10 @ a00_inv @ a01
    if which == "a11":
        inner = schur
    elif which == "a12":
        inner = a12 - schur @ a00_inv @ a01 - a10 @ a00_inv @ a02
    elif which == "a22":
        inner12 = a12 - schur @ a00_inv @ a01 - a10 @ a00_inv @ a02
        inner = (
            a22
            + (a20 @ a00_inv @ a01 - a21) @ a00_inv @ a01
            - a20 @ a00_inv @ a02
            - a10 @ a00_inv @ inner12
        )
    else:
        raise ValueError(f"which must be one of a11/a12/a22, got {which!r}")
    return root_inv @ inner @ root_inv


def tilde_a_general(K: MatrixPowerSeries2, k: int, l: int) -> np.ndarray:
    """General formula for a~[k+1, l+1] from the kernel and inverse lattices.

    a~[k+1,l+1] = a00^{1/2} ( sum_{s=1..k} sum_{t=1..l} b[s,0] a[k+1-s,l+1-t] b[0,t]
                            + sum_{s=1..k} b[s,0] a[k+1-s,l+1] b[0,0]
                            + sum_{t=1..l} b[0,0] a[k+1,l+1-t] b[0,t]
                            + b[0,0] a[k+1,l+1] b[0,0]
                            - b[k+1,0] a[0,0] b[0,l+1] ) a00^{1/2}
    """
    if K.order < max(k, l) + 1:
        raise TruncationOrderError("series order too small for requested coefficient")
    a = K.coeffs
    b = K.invert().coeffs
    half = positive_sqrt(*np.linalg.eigh(assert_hermitian(K.coeffs[0, 0], what="a00")))
    n = K.rank
    acc = np.zeros((n, n), dtype=complex)
    for s in range(1, k + 1):
        for t in range(1, l + 1):
            acc += b[s, 0] @ a[k + 1 - s, l + 1 - t] @ b[0, t]
    for s in range(1, k + 1):
        acc += b[s, 0] @ a[k + 1 - s, l + 1] @ b[0, 0]
    for t in range(1, l + 1):
        acc += b[0, 0] @ a[k + 1, l + 1 - t] @ b[0, t]
    acc += b[0, 0] @ a[k + 1, l + 1] @ b[0, 0]
    acc -= b[k + 1, 0] @ a[0, 0] @ b[0, l + 1]
    return half @ acc @ half



def test_normalize_bergman_is_identity_operation():
    k = kernel_taylor(BergmanPower(2.0), 4)
    norm = normalize(k)
    assert np.abs(norm.coeffs - k.coeffs).max() < 1e-14


def test_normalized_grade_for_all_fixtures():
    for name, spec in zoo_fixtures():
        c = normalize(kernel_taylor(spec, 4)).coeffs
        assert np.abs(c[0, 0] - np.eye(spec.rank)).max() < 1e-11, name
        assert np.abs(c[1:, 0]).max() < 1e-11, name
        assert np.abs(c[0, 1:]).max() < 1e-11, name


def test_double_normalization_is_exact_fixed_point(rng):
    k = random_kernel_series(rng, rank=3, order=4)
    once = normalize(k)
    twice = normalize(once)
    assert np.abs(once.coeffs - twice.coeffs).max() < 1e-12


def test_closed_coefficients_match_normalize(rng):
    targets = [kernel_taylor(spec, 4) for _, spec in zoo_fixtures()]
    targets += [random_kernel_series(rng, rank=r, order=4) for r in (1, 2, 3)]
    for k in targets:
        norm = normalize(k)
        for which, (i, j) in (("a11", (1, 1)), ("a12", (1, 2)), ("a22", (2, 2))):
            closed = tilde_a_closed(k, which)
            scale = max(1.0, np.abs(norm.coeffs[i, j]).max())
            assert np.abs(closed - norm.coeffs[i, j]).max() / scale < 1e-11


def test_general_coefficient_formula_matches_normalize(rng):
    targets = [kernel_taylor(spec, 4) for _, spec in zoo_fixtures()[:6]]
    targets.append(random_kernel_series(rng, rank=3, order=4))
    for kser in targets:
        norm = normalize(kser)
        for k, l in ((0, 0), (0, 1), (1, 0), (1, 1)):
            got = tilde_a_general(kser, k, l)
            want = norm.coeffs[k + 1, l + 1]
            scale = max(1.0, np.abs(want).max())
            assert np.abs(got - want).max() / scale < 1e-11


def test_bergman_scalar_closed_values():
    lam = 2.0
    k = kernel_taylor(BergmanPower(lam), 4)
    assert tilde_a_closed(k, "a11")[0, 0] == pytest.approx(lam, abs=1e-14)
    assert tilde_a_closed(k, "a12")[0, 0] == pytest.approx(0.0, abs=1e-14)
    assert tilde_a_closed(k, "a22")[0, 0] == pytest.approx(lam * (lam + 1) / 2, abs=1e-13)


def test_jet_rank2_tilde_a12():
    beta = 2.0
    k = kernel_taylor(Jet(alpha=1.0, beta=beta, k=1), 4)
    a12 = tilde_a_closed(k, "a12")
    expected = -np.sqrt(beta) * (beta + 1.0)
    assert a12[1, 0] == pytest.approx(expected, abs=1e-12)
    assert np.abs(a12).sum() == pytest.approx(abs(expected), abs=1e-12)


def test_jet_rank3_tilde_a12():
    for beta in (1.0, 2.0):
        k = kernel_taylor(Jet(alpha=1.0, beta=beta, k=2), 4)
        a12 = tilde_a_closed(k, "a12")
        expected = -(3.0 / np.sqrt(2.0)) * np.sqrt(beta + 1.0) * (beta + 2.0)
        assert a12[2, 1] == pytest.approx(expected, abs=1e-12)
        assert np.abs(a12).sum() == pytest.approx(abs(expected), abs=1e-12)


def test_invariants_bergman():
    inv = invariants_at_zero(kernel_taylor(BergmanPower(2.0), 4))
    assert inv.curvature[0, 0] == pytest.approx(2.0, abs=1e-13)
    assert inv.d_zbar[0, 0] == pytest.approx(0.0, abs=1e-13)
    assert inv.d_zzbar[0, 0] == pytest.approx(4.0, abs=1e-13)


def test_invariants_direct_sum_line_plus_jet():
    spec = DirectSum([BergmanPower(1.0), Jet(alpha=1.0, beta=5.0, k=1)])
    inv = invariants_at_zero(kernel_taylor(spec, 4))
    assert np.allclose(np.diag(inv.curvature).real, [1.0, 1.0, 13.0], atol=1e-12)
    assert inv.d_zbar[1, 2] == pytest.approx(-12.0 * SQ5, abs=1e-11)
    assert np.abs(inv.d_zbar).sum() == pytest.approx(12.0 * SQ5, abs=1e-11)


def test_invariants_jet_rank3():
    inv = invariants_at_zero(kernel_taylor(Jet(alpha=1.0, beta=2.0, k=2), 4))
    assert np.allclose(np.diag(inv.curvature).real, [1.0, 1.0, 13.0], atol=1e-12)
    assert inv.d_zbar[1, 2] == pytest.approx(-12.0 * SQ6, abs=1e-11)


def test_covd_zbar_n_consistency_and_vanishing():
    k = kernel_taylor(Jet(alpha=1.0, beta=2.0, k=1), 4)
    inv = invariants_at_zero(k)
    assert np.abs(covd_zbar_n_at_zero(k, 1) - inv.d_zbar).max() < 1e-13
    kb = kernel_taylor(BergmanPower(2.0), 4)
    assert np.abs(covd_zbar_n_at_zero(kb, 1)).max() < 1e-14
    assert np.abs(covd_zbar_n_at_zero(kb, 2)).max() < 1e-14
    with pytest.raises(TruncationOrderError):
        covd_zbar_n_at_zero(kb, 4)
    for n in (0, -1, 2.0, 1.5, True, "1"):  # 2.0 and True once passed as 2 and 1
        with pytest.raises(ValueError, match="n must be a positive integer, got"):
            covd_zbar_n_at_zero(k, n)


# Lattices of another order solve systems of another size, whose BLAS sums can round
# differently.  Measured: only hom_m2_permuted moves, by 4.4e-17 relative in d_zzbar; every
# other fixture keeps its bits.
ORDER_DEVIATION = {"hom_m2_permuted": 1e-16}


def _within(got, want, bound):
    return np.array_equal(got, want) or np.abs(got - want).max() <= bound * np.abs(want).max()


@pytest.mark.parametrize("name, spec", zoo_fixtures())
def test_invariants_independent_of_lattice_order(name, spec):
    bound = ORDER_DEVIATION.get(name, 0.0)
    want = invariants_at_zero(kernel_taylor(spec, 2))
    for order in (4, 6):
        got = invariants_at_zero(kernel_taylor(spec, order))
        for field in ("curvature", "d_zbar", "d_zzbar"):
            assert _within(getattr(got, field), getattr(want, field), bound), (order, field)
    lattice = kernel_taylor(spec, 6)
    for n in (1, 2, 3, 4):
        assert _within(covd_zbar_n_at_zero(kernel_taylor(spec, n + 1), n),
                       covd_zbar_n_at_zero(lattice, n), bound), n


def _lattices(rng):
    """(name, order, lattice) at orders 2-6: the zoo fixtures and three random kernel series."""
    full = [(name, kernel_taylor(spec, 6)) for name, spec in zoo_fixtures()]
    full += [(f"random_rank{r}", random_kernel_series(rng, rank=r, order=6)) for r in (1, 2, 3)]
    return [(name, order, MatrixPowerSeries2(K.coeffs[: order + 1, : order + 1]))
            for name, K in full for order in range(2, 7)]


def _same_bits(got, want):
    return np.array_equal(got, want) and all(
        np.array_equal(np.signbit(getattr(got, part)), np.signbit(getattr(want, part)))
        for part in ("real", "imag"))


def _composed_normalize(K):
    """The normalized lattice by full composition, from the public series algebra."""
    a = K.coeffs
    z_only, w_only = np.zeros_like(a), np.zeros_like(a)
    z_only[:, 0], w_only[0, :] = a[:, 0], a[0, :]
    left = MatrixPowerSeries2(z_only).invert()
    right = MatrixPowerSeries2(w_only).invert()
    half = positive_sqrt(*np.linalg.eigh(K.coeffs[0, 0]))
    return np.einsum("ij,kljm,mn->klin", half, left.multiply(K).multiply(right).coeffs, half)


def test_restricted_cells_match_full_normalize(rng):
    for name, order, K in _lattices(rng):
        norm = normalize(K)
        # the full multiply/invert composition sums in another order: measured 1.7e-15 of the
        # lattice's largest entry (random_rank1), 2.0e-16 on the fixtures
        composed = _composed_normalize(K)
        assert np.abs(norm.coeffs - composed).max() <= 4e-15 * np.abs(composed).max(), (name, order)
        a11, a12, a22 = norm.coeffs[1, 1], norm.coeffs[1, 2], norm.coeffs[2, 2]
        # K keeps its lattice after normalize; each fresh lattice computes its own
        for lattice in (K, MatrixPowerSeries2(K.coeffs)):
            inv = invariants_at_zero(lattice)
            assert _same_bits(inv.curvature, a11.T), (name, order)
            assert _same_bits(inv.d_zbar, 2.0 * a12.T), (name, order)
            assert _same_bits(inv.d_zzbar, (2.0 * (2.0 * a22 - a11 @ a11)).T), (name, order)
        covd = {}
        for n in range(1, order):
            want = math.factorial(n + 1) * norm.coeffs[1, n + 1].T
            assert _same_bits(covd_zbar_n_at_zero(K, n), want), (name, order, n)
            covd[n] = covd_zbar_n_at_zero(MatrixPowerSeries2(K.coeffs), n)
            assert _same_bits(covd[n], want), (name, order, n)
        # one fresh lattice asked in another order gives the fresh lattices' bits
        shared = MatrixPowerSeries2(K.coeffs)
        for n in range(order - 1, 0, -1):
            assert _same_bits(covd_zbar_n_at_zero(shared, n), covd[n]), (name, order, n)
        again = invariants_at_zero(shared)
        for part in ("curvature", "d_zbar", "d_zzbar"):
            assert _same_bits(getattr(again, part), getattr(inv, part)), (name, order, part)
        assert _same_bits(normalize(shared).coeffs, norm.coeffs), (name, order)


def test_one_lattice_under_threads(monkeypatch):
    # Two rounds per spec on a fresh lattice, four threads each, every thread asking for
    # the results in its own order.  In the first round the interleaving is left to the
    # interpreter.  In the second the first thread to start a Toeplitz solve waits inside
    # np.linalg.solve until a second thread starts one too, so at least two threads compute
    # the normalized lattice of the one fresh lattice at once and each keeps what it computed.
    queries = [invariants_at_zero, normalize] + [
        lambda K, n=n: covd_zbar_n_at_zero(K, n) for n in (1, 2, 3, 4, 5)]
    solve = np.linalg.solve

    def parts(result):
        if isinstance(result, PointInvariants):
            return [result.curvature, result.d_zbar, result.d_zzbar]
        return [result.coeffs if isinstance(result, MatrixPowerSeries2) else result]

    def race(lattice):
        barrier = threading.Barrier(4)
        results = [None] * 4

        def work(slot):
            turn = queries[slot:] + queries[:slot]
            barrier.wait(timeout=10)
            got = [parts(query(lattice)) for query in turn]
            results[slot] = got[len(queries) - slot:] + got[: len(queries) - slot]

        threads = [threading.Thread(target=work, args=(slot,)) for slot in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        return results

    def check(results, serial, name):
        for got in results:
            assert got is not None, name
            for want_parts, got_parts in zip(serial, got):
                for want, have in zip(want_parts, got_parts):
                    assert _same_bits(have, want), name

    switch = sys.getswitchinterval()
    for name, spec in zoo_fixtures():
        K = kernel_taylor(spec, 6)
        serial = [parts(query(MatrixPowerSeries2(K.coeffs))) for query in queries]

        sys.setswitchinterval(1e-6)
        try:
            check(race(MatrixPowerSeries2(K.coeffs)), serial, name)
        finally:
            sys.setswitchinterval(switch)

        lattice = MatrixPowerSeries2(K.coeffs)
        first = []  # the thread that starts the first solve
        second = threading.Event()  # set when another thread starts one
        guard = threading.Lock()

        def held(matrix, rhs, first=first, second=second):
            with guard:
                waits = not first
                if waits:
                    first.append(threading.get_ident())
                elif threading.get_ident() != first[0]:
                    second.set()
            if waits:
                second.wait(timeout=10)
            return solve(matrix, rhs)

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "solve", held)
            results = race(lattice)
        assert second.is_set(), name  # two threads computed the fresh lattice's normal form at once
        check(results, serial, name)
        kept = lattice._normal
        assert not kept.flags.writeable, name
        assert _same_bits(kept, serial[1][0]), name  # the serial normalize


def test_normal_form_work_counts(monkeypatch):
    # deterministic work counts of the series path: one eigh of a00 and two Toeplitz solves
    # per fresh lattice, whichever query comes first; none on a lattice already normalized
    calls = []
    for name in ("eigh", "solve"):
        def counted(*args, _name=name, _fn=getattr(np.linalg, name)):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(np.linalg, name, counted)

    def count(fn, *args):
        calls.clear()
        fn(*args)
        return calls.count("eigh"), calls.count("solve")

    hom = dict(zoo_fixtures())["hom_m2"]
    assert count(kernel_taylor, hom, 6) == (0, 0)  # closed form
    lattice = kernel_taylor(hom, 6)

    def fresh():
        return MatrixPowerSeries2(lattice.coeffs)

    assert count(invariants_at_zero, fresh()) == (1, 2)
    assert [count(covd_zbar_n_at_zero, fresh(), n) for n in (1, 2, 3, 4)] == [(1, 2)] * 4
    assert count(normalize, kernel_taylor(hom, 2)) == (1, 2)
    # on one lattice, every later query reads the lattice the first one kept
    shared = fresh()
    assert count(invariants_at_zero, shared) == (1, 2)
    assert [count(covd_zbar_n_at_zero, shared, n) for n in (1, 2, 3, 4)] == [(0, 0)] * 4
    assert count(normalize, shared) == count(invariants_at_zero, shared) == (0, 0)


def _exact_normal_cells(spec, order, cells):
    """Cells of L K R in exact rationals, from the float lattice spec.taylor(order) read as
    Fractions, then sandwiched in floats by diag(sqrt(a00)), one square root per entry."""
    a = spec.taylor(order).coeffs
    assert not a.imag.any()  # every spec of the grammar has a real lattice
    d = np.diag(a[0, 0].real)
    assert np.array_equal(a[0, 0].real, np.diag(d))  # and a diagonal a00
    q = np.vectorize(Fraction, otypes=[object])(a.real)
    inv = np.array([1 / Fraction(x) for x in d], dtype=object)  # a00^{-1}, one entry per column
    # L[k] and R[l] from sum_s L[s] a[k-s,0] = 0 and sum_s R[s] a[0,l-s] = 0
    left, right = [np.diag(inv)], [np.diag(inv)]
    for k in range(1, order + 1):
        left.append(-sum(left[s] @ q[k - s, 0] for s in range(k)) * inv)
        right.append(-sum(right[s] @ q[0, k - s] for s in range(k)) * inv)
    root = np.sqrt(d)
    return {(k, l): root[:, None] * root * sum(left[k - p] @ q[p, t] @ right[l - t]
                                                for p in range(k + 1)
                                                for t in range(l + 1)).astype(float)
            for k, l in cells}


def test_normal_form_against_the_exact_rational_one():
    # The worst relative error of a~[1,1], a~[1,2], a~[2,2] and a~[1,t] over the fixtures and
    # the held-out corpus at order 6, against L K R in exact rationals.  Measured: 5.9e-15
    # (hom_2 of the held-out corpus, a~[1,3]); the coefficient recursion the solves replaced
    # measured 9.2e-15 the same way (hom_1, a~[1,4]), so the bound sits below it.  A zero
    # reference cell must come out exactly zero.
    order = 6
    cells = [(1, 1), (1, 2), (2, 2)] + [(1, t) for t in range(3, order + 1)]
    for name, spec in zoo_fixtures() + held_out_corpus():
        exact = _exact_normal_cells(spec, order, cells)
        norm = normalize(kernel_taylor(spec, order)).coeffs
        for cell in cells:
            want = exact[cell]
            assert np.abs(norm[cell] - want).max() <= 8e-15 * np.abs(want).max(), (name, cell)


def test_homogeneous_closed_m2_reference_values():
    inv = homogeneous_invariants_closed(2.0, (1.0, 1.0, 1.0), 2)
    assert np.allclose(
        np.diag(inv.curvature).real, [4.0 / 3.0, 44.0 / 21.0, 60.0 / 7.0], atol=1e-13
    )
    a, b, c = homogeneous_abc(2.0, (1.0, 1.0, 1.0))
    assert (a, b, c) == pytest.approx((4.0, 2.0 / 3.0, 18.0 / 7.0), abs=1e-14)
    assert np.allclose(np.diag(inv.curvature).real, curvature_diag_from_abc(a, b, c), atol=1e-13)
    assert np.abs(inv.d_zbar - dzbar_from_abc(b, c)).max() < 1e-13


def test_homogeneous_closed_validates_like_the_spec():
    for mu in ((2.0, 1.0, 1.0), (1.0, -1.0, 1.0)):
        with pytest.raises(ValueError) as spec_error:
            Homogeneous(2.0, mu, 2)
        with pytest.raises(ValueError, match=re.escape(str(spec_error.value))):
            homogeneous_invariants_closed(2.0, mu, 2)


def test_homogeneous_closed_m1_reference_values():
    inv = homogeneous_invariants_closed(1.0, (1.0, 1.0), 1)
    assert np.allclose(np.diag(inv.curvature).real, [0.5, 3.5], atol=1e-14)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_homogeneous_closed_matches_series(m, rng):
    for _ in range(6):
        lam = m / 2.0 + 0.3 + 1.5 * rng.random()
        mu = (1.0,) + tuple(0.55 + 1.4 * rng.random(m))
        closed = homogeneous_invariants_closed(lam, mu, m)
        series = invariants_at_zero(kernel_taylor(Homogeneous(lam=lam, mu=mu, m=m), 3))
        assert np.abs(closed.curvature - series.curvature).max() < 1e-10
        assert np.abs(closed.d_zbar - series.d_zbar).max() < 1e-10


def test_homogeneous_dzbar_never_zero(rng):
    for _ in range(25):
        lam = 1.3 + 2.0 * rng.random()
        mu = (1.0, 0.55 + 1.4 * rng.random(), 0.55 + 1.4 * rng.random())
        inv = homogeneous_invariants_closed(lam, mu, 2)
        assert np.abs(inv.d_zbar).max() > 1e-8


def test_curvature_positive_and_hermitian_for_fixtures():
    for name, spec in zoo_fixtures():
        inv = invariants_at_zero(kernel_taylor(spec, 4))
        herm = np.abs(inv.curvature - inv.curvature.conj().T).max()
        assert herm < 1e-10, name
        assert inv.curvature_eigenvalues().min() > 0.0, name


def test_transport_eigenvalues():
    inv = invariants_at_zero(kernel_taylor(BergmanPower(2.0), 4))
    assert transport_eigenvalues(inv, 0.0)[0] == pytest.approx(2.0)
    assert transport_eigenvalues(inv, 0.5)[0] == pytest.approx(2.0 / 0.5625)
    invj = invariants_at_zero(kernel_taylor(Jet(alpha=1.0, beta=2.0, k=1), 4))
    z = 0.3 + 0.2j
    expected = np.array([1.0, 7.0]) / (1.0 - abs(z) ** 2) ** 2
    assert np.allclose(transport_eigenvalues(invj, z), expected, rtol=1e-12)


def test_normalize_rejects_degenerate_constant_term():
    c = np.zeros((3, 3, 2, 2), dtype=complex)
    c[0, 0] = np.diag([1.0, 0.0])
    with pytest.raises(MetricDegeneracyError):
        normalize(MatrixPowerSeries2(c))
    c[0, 0] = np.diag([1e6, 1e-9])  # positive definite, condition number 1e15
    shared = MatrixPowerSeries2(c)  # a query that fails leaves nothing for the next one
    for route in (normalize, invariants_at_zero, lambda K: covd_zbar_n_at_zero(K, 1)):
        for lattice in (MatrixPowerSeries2(c), shared):
            with pytest.raises(SingularLeadingTermError):
                route(lattice)


def test_point_invariants_validation():
    with pytest.raises(ValueError):
        PointInvariants(
            curvature=np.array([[1.0, 1.0], [0.0, 1.0]]),
            d_zbar=np.zeros((2, 2)),
            d_zzbar=None,
        )
    # the curvature's Hermitian gate is CURVATURE_HERM_TOL = 1e-10, looser than the 1e-12 default
    near = PointInvariants(curvature=np.array([[1.0, 1e-11], [0.0, 1.0]]), d_zbar=np.zeros((2, 2)),
                           d_zzbar=None)
    assert near.curvature[0, 1] == 1e-11
    with pytest.raises(ValueError, match="not Hermitian within 1e-10"):
        PointInvariants(curvature=np.array([[1.0, 1e-9], [0.0, 1.0]]), d_zbar=np.zeros((2, 2)),
                        d_zzbar=None)


def test_invariants_need_order_two():
    with pytest.raises(TruncationOrderError):
        invariants_at_zero(kernel_taylor(BergmanPower(1.0), 1))
