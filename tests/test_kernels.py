import itertools
import json
import math
import re
import sys
import threading

import numpy as np
import pytest

from cdbundle import (
    BergmanPower,
    DirectSum,
    DiscDomainError,
    Homogeneous,
    Jet,
    Permuted,
    kernel_taylor,
    spec_from_dict,
    spec_to_dict,
)
from cdbundle import kernels
from cdbundle.kernels import falling, permutation_matrix, rising, shift_matrix, weighted_shift
from cdbundle.oracle import (
    _N_CURVATURE,
    _N_DERIVATIVES,
    _RADIUS_CURVATURE,
    _RADIUS_DERIVATIVES,
    _torus,
)
from conftest import fourier_lattice, zoo_fixtures

SAMPLE_POINTS = [(0.3, 0.2), (0.1 + 0.25j, -0.3 + 0.1j), (-0.35j, 0.2 + 0.2j)]


def printed_jet1(alpha, beta, z, w):
    """The closed-form rank-2 jet matrix as printed, text fixture."""
    x = z * np.conj(w)
    pre = (1 - x) ** (-alpha - beta - 2)
    return pre * np.array(
        [
            [(1 - x) ** 2, beta * z * (1 - x)],
            [beta * np.conj(w) * (1 - x), beta * (1 + beta * x)],
        ]
    )


def printed_jet2(alpha, beta, z, w):
    """The closed-form rank-3 jet matrix as printed (incl. the intricate (3,3) entry)."""
    x = z * np.conj(w)
    wb = np.conj(w)
    b = beta
    pre = (1 - x) ** (-alpha - beta - 4)
    return pre * np.array(
        [
            [(1 - x) ** 4, b * (1 - x) ** 3 * z, b * (b + 1) * (1 - x) ** 2 * z ** 2],
            [
                b * (1 - x) ** 3 * wb,
                b * (1 + b * x) * (1 - x) ** 2,
                b * (b + 1) * (2 + b * x) * (1 - x) * z,
            ],
            [
                b * (b + 1) * (1 - x) ** 2 * wb ** 2,
                b * (b + 1) * (2 + b * x) * (1 - x) * wb,
                b * (b + 1) * (2 + (b + 1) * (4 + b * x) * x),
            ],
        ]
    )


def test_ranks():
    assert BergmanPower(2.0).rank == 1
    assert Jet(alpha=1.0, beta=2.0, k=2).rank == 3
    assert DirectSum([BergmanPower(1.0), Jet(alpha=1.0, beta=1.0, k=1)]).rank == 3
    assert Homogeneous(lam=2.0, mu=(1, 1, 1), m=2).rank == 3


def test_parameter_validation():
    with pytest.raises(ValueError):
        BergmanPower(0.0)
    with pytest.raises(ValueError):
        Jet(alpha=1.0, beta=2.0, k=3)
    with pytest.raises(ValueError):
        Jet(alpha=-1.0, beta=2.0, k=1)
    with pytest.raises(ValueError):
        Homogeneous(lam=1.0, mu=(1, 1, 1), m=2)  # 2 lam - m = 0
    with pytest.raises(ValueError):
        Homogeneous(lam=2.0, mu=(2, 1, 1), m=2)  # mu_0 != 1
    with pytest.raises(ValueError):
        Permuted(inner=BergmanPower(1.0), sigma=(2,))


def test_bergman_pointwise():
    val = BergmanPower(2.0).evaluate(0.5, 0.5)
    assert val[0, 0] == pytest.approx(16.0 / 9.0, rel=1e-15)


def test_bergman_taylor_matches_quadrature_oracle():
    # independent oracle: Fourier quadrature on the closed form
    lam = 2.5
    spec = BergmanPower(lam)
    ref = fourier_lattice(spec.evaluate, 4, 1)
    ser = kernel_taylor(spec, 4)
    assert np.abs(ser.coeffs - ref).max() < 1e-11
    for k in range(5):
        assert ser.coeffs[k, k, 0, 0] == pytest.approx(
            rising(lam, k) / math.factorial(k), rel=1e-14
        )
        for l in range(5):
            if l != k:
                assert abs(ser.coeffs[k, l, 0, 0]) < 1e-15


def test_jet_at_origin_and_a00():
    beta = 2.0
    val = Jet(alpha=1.0, beta=beta, k=1).evaluate(0.0, 0.0)
    assert np.allclose(val, np.diag([1.0, beta]), atol=1e-15)
    ser = kernel_taylor(Jet(alpha=1.0, beta=beta, k=1), 3)
    assert np.allclose(ser.coeffs[0, 0], np.diag([1.0, beta]), atol=1e-14)
    # single z-coefficient entry of size beta
    a10 = ser.coeffs[1, 0]
    assert a10[0, 1] == pytest.approx(beta, abs=1e-14)
    assert np.abs(a10).sum() == pytest.approx(beta, abs=1e-14)


@pytest.mark.parametrize("alpha,beta", [(1.0, 2.0), (2.0, 1.0), (0.7, 3.2)])
def test_jet_evaluate_matches_printed_matrices(alpha, beta):
    for z, w in SAMPLE_POINTS:
        got1 = Jet(alpha=alpha, beta=beta, k=1).evaluate(z, w)
        assert np.abs(got1 - printed_jet1(alpha, beta, z, w)).max() < 1e-12
        got2 = Jet(alpha=alpha, beta=beta, k=2).evaluate(z, w)
        ref2 = printed_jet2(alpha, beta, z, w)
        assert np.abs(got2 - ref2).max() / np.abs(ref2).max() < 1e-13


@pytest.mark.parametrize("k", [1, 2])
def test_jet_taylor_against_printed_matrix_coefficients(k):
    # Taylor lattice of the generic jet rule vs quadrature coefficients of
    # the printed closed-form matrix, entrywise at order 3
    alpha, beta = 1.3, 2.4
    ser = Jet(alpha=alpha, beta=beta, k=k).taylor(3)
    printed = printed_jet1 if k == 1 else printed_jet2
    ref = fourier_lattice(lambda z, w: printed(alpha, beta, z, w), 3, k + 1)
    assert np.abs(ser.coeffs - ref).max() < 1e-12 * max(1.0, np.abs(ref).max())


def test_jet_taylor_corner_entry_is_scalar_power_series():
    ser = Jet(alpha=1.5, beta=2.5, k=2).taylor(5)
    scalar = kernel_taylor(BergmanPower(4.0), 5)  # (1-x)^{-(alpha+beta)}
    assert np.abs(ser.coeffs[:, :, 0, 0] - scalar.coeffs[:, :, 0, 0]).max() < 1e-12


def test_shift_matrix_nilpotent():
    for m in (1, 2, 3):
        s = shift_matrix(m)
        assert np.abs(np.linalg.matrix_power(s, m + 1)).max() == 0.0
        w = weighted_shift(m, [1.0 + 1j] * m)
        assert np.abs(np.linalg.matrix_power(w, m + 1)).max() == 0.0


def test_homogeneous_triangular_data():
    assert np.allclose(Homogeneous(2.0, (1.0, 1.0, 1.0), 2).diagonal, [1.0, 1.5, 7.0 / 3.0],
                       atol=1e-14)
    lam = 2.0
    expected_inv = np.array(
        [
            [1.0, 0.0, 0.0],
            [-1.0 / (2.0 * (lam - 1.0)), 1.0, 0.0],
            [1.0 / (lam * (2.0 * lam - 1.0)), -2.0 / lam, 1.0],
        ]
    )
    for mu in ((1.0, 1.0, 1.0), (1.0, 0.7, 1.3)):
        # d = L mu', so L^-1 d gives back mu' = (mu_0^2, ..., mu_m^2)
        d = Homogeneous(lam, mu, 2).diagonal
        assert np.abs(expected_inv @ d - np.square(mu)).max() < 1e-12


def test_homogeneous_evaluate_nilpotent_exponent_m1():
    # m = 1: exp(conj(w) S) = I + conj(w) S exactly
    spec = Homogeneous(lam=1.0, mu=(1.0, 1.0), m=1)
    z, w = 0.3, 0.2 + 0.1j
    x = z * np.conj(w)
    S = shift_matrix(1)
    B = np.diag(spec.diagonal)
    D = np.diag([1 - x, 1.0])
    manual = (1 - x) ** (-3.0) * (
        D @ (np.eye(2) + np.conj(w) * S) @ B @ (np.eye(2) + z * S.T) @ D
    )
    assert np.abs(spec.evaluate(z, w) - manual).max() < 1e-14


def test_homogeneous_taylor_low_coefficients():
    spec = Homogeneous(lam=2.0, mu=(1.0, 1.0, 1.0), m=2)
    ser = kernel_taylor(spec, 3)
    B = np.diag(spec.diagonal)
    S = shift_matrix(2)
    assert np.abs(ser.coeffs[0, 0] - B).max() < 1e-14
    assert np.abs(ser.coeffs[1, 0] - B @ S.conj().T).max() < 1e-14
    assert np.abs(ser.coeffs[0, 1] - S @ B).max() < 1e-14
    Dm = np.diag([2.0, 1.0, 0.0])
    a11 = S @ B @ S.conj().T + (2 * 2.0 + 2) * B - 2 * Dm @ B
    assert np.abs(ser.coeffs[1, 1] - a11).max() < 1e-13


@pytest.mark.parametrize("spec", [
    Homogeneous(1.3, (1.0, 0.8), 1),
    Homogeneous(1.6, (1.0, 1.4, 0.6), 2),
    Homogeneous(2.3, (1.0, 0.7, 1.9, 0.4), 3),
    Permuted(inner=Homogeneous(2.3, (1.0, 0.7, 1.9, 0.4), 3), sigma=(3, 1, 4, 2)),
], ids=["m1", "m2", "m3", "m3_permuted"])
def test_homogeneous_taylor_matches_quadrature_oracle(spec):
    # the closed-form lattice against Fourier quadrature on the closed-form kernel
    ser = kernel_taylor(spec, 6)
    ref = fourier_lattice(spec.evaluate, 6, spec.rank)
    assert np.abs(ser.coeffs - ref).max() <= 1e-12 * np.abs(ref).max()


def test_kernel_hermitian_symmetry_all_variants():
    for name, spec in zoo_fixtures():
        for z, w in SAMPLE_POINTS:
            lhs = spec.evaluate(z, w).conj().T
            rhs = spec.evaluate(w, z)
            assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(rhs).max()), name
        # kernel grade: a[k,l]^* = a[l,k] for every cell of the lattice
        c = kernel_taylor(spec, 4).coeffs
        assert np.abs(c.conj().transpose(1, 0, 3, 2) - c).max() < 1e-12, name


def test_permuted_is_exact_conjugation():
    inner = Homogeneous(lam=2.0, mu=(1.0, 1.0, 1.0), m=2)
    sigma = (3, 1, 2)
    spec = Permuted(inner=inner, sigma=sigma)
    p = permutation_matrix(sigma)
    z, w = 0.2 + 0.1j, -0.3j
    direct = p @ inner.evaluate(z, w) @ p.conj().T
    assert np.abs(spec.evaluate(z, w) - direct).max() == 0.0
    # the lattice too, byte for byte against the dense coefficientwise P a[k,l] P^*
    inners = [inner, Jet(alpha=1.0, beta=2.0, k=2), Homogeneous(lam=1.3, mu=(1.0, 0.7), m=1),
              DirectSum([BergmanPower(1.0), Jet(alpha=1.0, beta=5.0, k=1)]),
              Homogeneous(lam=3.0, mu=(1.0, 0.5, 2.0, 1.5), m=3)]
    for inner in inners:
        for sigma in itertools.permutations(range(1, inner.rank + 1)):
            p = permutation_matrix(sigma)
            for N in (2, 4, 6):
                dense = np.einsum("ij,kljm,nm->klin", p, inner.taylor(N).coeffs, p.conj())
                got = Permuted(inner=inner, sigma=sigma).taylor(N).coeffs
                assert got.tobytes() == dense.tobytes(), (inner, sigma, N)


# empirical regression constants for the truncation-tail property
# dev(z, N) <= C * (|z|^2)^(N+1) / (1-|z|^2)^p at |z| <= 0.4, N in {4, 6, 8}
TAIL_PINS = {
    "bergman_1": (4.0, 1),
    "bergman_2.5": (95.0, 3),
    "jet1_1_2": (1.2e4, 5),
    "jet1_1_5": (7e5, 8),
    "jet2_1_2": (1.1e6, 7),
    "jet2_2_1": (2.5e5, 7),
    "ds_bergman_pair": (2.5e3, 5),
    "ds_line_jet": (7e5, 8),
    "hom_m1": (6e2, 3),
    "hom_m2": (4.5e4, 6),
    "hom_m2_skew": (3.5e4, 6),
    "hom_m2_permuted": (4.5e4, 6),
}


def test_taylor_truncation_tail_regression():
    for name, spec in zoo_fixtures():
        C, p = TAIL_PINS[name]
        for N in (4, 6, 8):
            coeffs = kernel_taylor(spec, N).coeffs
            for r in (0.2, 0.3, 0.4):
                for ang in (0.0, 1.1, 2.7):
                    z = r * np.exp(1j * ang)
                    zp = z ** np.arange(N + 1)  # the partial sum over the lattice at (z, z)
                    partial = np.einsum("k,l,klij->ij", zp, np.conj(zp), coeffs)
                    dev = np.abs(partial - spec.evaluate(z, z)).max()
                    x = abs(z) ** 2
                    assert dev <= C * x ** (N + 1) / (1 - x) ** p, (name, N, r)


def test_evaluate_rejects_boundary():
    with pytest.raises(DiscDomainError):
        BergmanPower(1.0).evaluate(1.0, 0.5)


def test_batched_evaluate_matches_pointwise_calls():
    rng = np.random.default_rng(7)
    z = 0.6 * (rng.uniform(-1, 1, 40) + 1j * rng.uniform(-1, 1, 40)) / np.sqrt(2)
    w = z[::-1].copy()
    x = rng.uniform(-0.6, 0.6, 40)
    for name, spec in zoo_fixtures():
        for a, b in ((z, w), (z, z), (x, x)):
            stack = spec.evaluate(a, b)
            assert stack.shape == a.shape + (spec.rank, spec.rank), name
            for k in range(a.size):
                one = spec.evaluate(a[k].item(), b[k].item())
                assert np.abs(stack[k] - one).max() <= 1e-14 * np.abs(one).max(), name
                # Python scalars take the array arithmetic, bit for bit
                assert one.tobytes() == stack[k].tobytes(), (name, a[k], b[k])


def test_homogeneous_scalar_evaluate_takes_the_array_product():
    # Python's complex product differs from numpy's in the last bit, so z conj(w) is formed
    # from arrays even for scalar points
    rng = np.random.default_rng(11)
    pairs = rng.uniform(-0.6, 0.6, (200, 4))
    for name, spec in zoo_fixtures():
        if not name.startswith("hom"):
            continue
        for zr, zi, wr, wi in pairs:
            z, w = complex(zr, zi), complex(wr, wi)
            one, stack = spec.evaluate(z, w), spec.evaluate(np.array([z]), np.array([w]))
            assert one.tobytes() == stack[0].tobytes(), (name, z, w)


def test_batched_evaluate_checks_every_point():
    z = np.array([0.1, 0.2 + 0.3j, 0.5, 1.01j, -0.4])
    for name, spec in zoo_fixtures():
        with pytest.raises(DiscDomainError):
            spec.evaluate(z, z)
        with pytest.raises(DiscDomainError):
            spec.evaluate(z.real, np.full(5, 1.5))


def test_disc_check_names_the_first_pair_outside():
    # every |z|, |w| < 1 returns at once; a NaN, or a point on the unit circle among points
    # inside it, still raises and names the first offending pair of the broadcast arrays
    col = (0.3 * np.exp(2j * np.pi * np.arange(4) / 4))[:, None]
    row = np.conj(col).T
    for bad in (np.nan, complex(np.nan, 0.1), 1.0, -1j):
        bad_col, bad_row = col.copy(), row.copy()
        bad_col[2, 0] = bad_row[0, 3] = bad
        # the first offending pairs: row 2 of z against column 0, row 0 against column 3 of w
        for z, w, (j, k) in ((bad_col, row, (2, 0)), (col, bad_row, (0, 3))):
            pair = re.escape(f"point ({z[j, 0]}, {w[0, k]}) outside")
            for name, spec in zoo_fixtures():
                with pytest.raises(DiscDomainError, match=pair):
                    spec.evaluate(z, w)
    for name, spec in zoo_fixtures():
        empty = spec.evaluate(np.empty((0, 1), dtype=complex), row)
        assert empty.shape == (0, 4, spec.rank, spec.rank), name


def test_nested_spec_checks_the_disc_once(monkeypatch):
    # a direct sum and a permutation evaluate their parts unchecked, so three leaves cost one check
    nested = dict(_byte_specs())["nested"]
    check, calls = kernels._check_disc, []

    def counted(z, w):
        calls.append(None)
        check(z, w)

    monkeypatch.setattr(kernels, "_check_disc", counted)
    z, w = np.array([[0.3], [0.2j]]), np.array([[0.1, -0.4]])
    assert nested.evaluate(z, w).shape == (2, 2, 8, 8)
    assert len(calls) == 1
    w[0, 1] = 1.2
    with pytest.raises(DiscDomainError, match=re.escape(f"point ({z[0, 0]}, {w[0, 1]}) outside")):
        nested.evaluate(z, w)
    assert len(calls) == 2


def _reference_evaluate(spec, z, w, dense=False):
    """K(z, w) by per-term formulas, for a byte-for-byte comparison with evaluate.

    Permutations as P K P^*; jets and the homogeneous family with every power
    taken once per term and table entry, summed over t by a plain loop; the
    direct sum and the Bergman power as in the library.  With `dense`, the
    homogeneous family is exp(conj(w) S) B exp(z S^*) as two matrix products,
    which equals evaluate up to round-off only.
    """
    if isinstance(spec, Permuted):
        p = permutation_matrix(spec.sigma)
        return p @ _reference_evaluate(spec.inner, z, w, dense) @ p.conj().T
    if isinstance(spec, DirectSum):
        blocks = [_reference_evaluate(part, z, w, dense) for part in spec.parts]
        out = np.zeros(blocks[0].shape[:-2] + (spec.rank, spec.rank), dtype=complex)
        at = 0
        for blk in blocks:
            r = blk.shape[-1]
            out[..., at : at + r, at : at + r] = blk
            at += r
        return out
    if isinstance(spec, Homogeneous) and dense:
        m, wbar = spec.m, np.conj(w)
        S = shift_matrix(m)
        x = np.asarray(z * wbar)[..., None, None]

        def exp(t, a):
            t = np.asarray(t)[..., None, None]
            term = out = np.eye(m + 1, dtype=complex)
            power = np.ones_like(t)
            for r in range(1, m + 1):
                term = term @ a / r
                power = power * t
                out = out + power * term
            return out

        D = (1 - x) ** (m - np.arange(m + 1))
        B = np.diag(spec.diagonal)
        dense_product = exp(wbar, S) @ B @ exp(z, S.conj().T)
        return (1 - x) ** (-2 * spec.lam - m) * (np.swapaxes(D, -1, -2) * dense_product * D)
    if isinstance(spec, Homogeneous):
        # entry (i, j): sum over t of C(i, t) C(j, t) d_t z^(j-t) conj(w)^(i-t) (1-x)^(2m-i-j)
        m, d = spec.m, spec.diagonal
        n = m + 1
        i, j = np.indices((n, n))
        z, wbar = np.asarray(z)[..., None, None], np.conj(np.asarray(w))[..., None, None]
        base = (1 - z * wbar) ** (-2 * spec.lam - m)
        x = z * wbar
        total = 0.0
        for t in range(n):
            coeff = np.array([[float(math.comb(a, t) * math.comb(b, t)) for b in range(n)]
                              for a in range(n)])
            total = total + (coeff * z ** np.maximum(j - t, 0) * d[t] * wbar ** np.maximum(i - t, 0)
                             * (1 - x) ** (2 * m - i - j))
        return np.asarray(base * (np.ones(n) * total), dtype=complex)
    if isinstance(spec, Jet):
        n, beta = spec.k + 1, spec.beta
        i, j = np.indices((n, n))
        z, wbar = np.asarray(z)[..., None, None], np.conj(np.asarray(w))[..., None, None]
        base = (1 - z * wbar) ** (-spec.alpha)
        x = z * wbar
        total = 0.0
        for t in range(n):
            coeff = np.array([[math.comb(a, t) * falling(b, t) for b in range(n)]
                              for a in range(n)])
            rise = np.array([[rising(beta + b, a - t) for b in range(n)] for a in range(n)])
            total = total + (coeff * z ** np.maximum(j - t, 0) * rise * wbar ** np.maximum(i - t, 0)
                             * (1 - x) ** (-beta - j - (i - t)))
        front = np.array([rising(beta, b) for b in range(n)])
        return np.asarray(base * (front * total), dtype=complex)
    return spec.evaluate(z, w)


def _byte_specs():
    """The zoo and four specs whose evaluate takes every table and gather path."""
    hom = Homogeneous(lam=1.6, mu=(1.0, 0.8, 1.3, 0.5), m=3)
    nested = Permuted(DirectSum([Jet(1.3, 2.7, 2), Permuted(hom, (4, 1, 3, 2)), BergmanPower(2.2)]),
                      (5, 2, 7, 1, 3, 8, 4, 6))
    # with beta = 0.61, (-beta - 2) - 2 and -beta - 4 differ in the last bit
    return zoo_fixtures() + [("jet_1.3_2.7_2", Jet(1.3, 2.7, 2)),
                             ("jet_1.3_0.61_2", Jet(1.3, 0.61, 2)),
                             ("hom_1.6_m3", hom), ("nested", nested)]


def _tori():
    """The oracle's tori, each route's n and radius, at three centres, as a column of z and a
    row of w."""
    for n, radius in ((_N_CURVATURE, _RADIUS_CURVATURE), (_N_DERIVATIVES, _RADIUS_DERIVATIVES)):
        u, v, _, _ = _torus(3, n)
        for z0 in (0.0, 0.3 - 0.2j, -0.9):
            r = radius * (1 - abs(z0))
            yield z0 + r * u, z0 + r * v


def _assert_same_bytes(got, want, label):
    assert got.shape == want.shape and got.dtype == want.dtype, label
    assert got.tobytes() == want.tobytes(), label
    for part in ("real", "imag"):
        signs = np.signbit(getattr(got, part)), np.signbit(getattr(want, part))
        assert np.array_equal(*signs), (label, part)


def _byte_points():
    rng = np.random.default_rng(18)
    line = 0.7 * np.sqrt(rng.random((2, 9))) * np.exp(2j * np.pi * rng.random((2, 9)))
    points = [(0.2 - 0.35j, 0.4 + 0.1j), (-0.6j, 0.55), (0j, 0j), (0.3, -0.45), (-0.7, 0.7),
              (0.0, 0.0), tuple(line), tuple(line.real)]
    return points + [tuple(np.broadcast_arrays(z, w)) for z, w in _tori()]  # n x n, one shape


def test_evaluate_bytes_match_the_per_term_formulas():
    for name, spec in _byte_specs():
        for z, w in _byte_points():
            _assert_same_bytes(spec.evaluate(z, w), _reference_evaluate(spec, z, w), (name, z, w))


def test_evaluate_matches_the_dense_homogeneous_product():
    # the power sum against exp(conj(w) S) B exp(z S^*) as two matrix products, per point
    for name, spec in _byte_specs():
        for z, w in _byte_points():
            got, want = spec.evaluate(z, w), _reference_evaluate(spec, z, w, dense=True)
            scale = np.abs(want).max(axis=(-2, -1))
            assert (np.abs(got - want).max(axis=(-2, -1)) <= 1e-15 * scale).all(), (name, z, w)


def test_evaluate_bytes_do_not_depend_on_the_torus_layout():
    # the oracle hands evaluate a column and a row; every value must equal the one computed
    # at the n x n broadcast arrays, and the per-term formulas at the column and the row
    for name, spec in _byte_specs():
        for z, w in _tori():
            got = spec.evaluate(z, w)
            _assert_same_bytes(got, spec.evaluate(*np.broadcast_arrays(z, w)), (name, z[0, 0]))
            _assert_same_bytes(got, _reference_evaluate(spec, z, w), (name, z[0, 0]))


def _reference_jet_taylor(spec, order):
    """Jet.taylor with falling() called in the innermost loop."""
    n, N, top = spec.k + 1, order, order + spec.k + 1
    A = [rising(spec.alpha, r) / math.factorial(r) for r in range(top + 1)]
    B = [rising(spec.beta, r) / math.factorial(r) for r in range(top + 1)]
    c = np.zeros((N + 1, N + 1, n, n), dtype=complex)
    for i, j, p in itertools.product(range(n), range(n), range(N + 1)):
        if 0 <= p + i - j <= N:
            acc = 0.0
            for k2 in range(max(i, j), p + i + 1):
                acc += A[p + i - k2] * B[k2] * falling(k2, i) * falling(k2, j)
            c[p, p + i - j, i, j] = acc
    return c


def _reference_homogeneous_taylor(spec, order):
    """Homogeneous.taylor with the shift powers from np.linalg.matrix_power."""
    m, N = spec.m, order
    S = shift_matrix(m)
    P = np.array([np.linalg.matrix_power(S, r) / math.factorial(r) for r in range(N + 1)])
    F = np.einsum("lab,b,kdb->klad", P, spec.diagonal, P.conj())
    a = 2 * spec.lam - m + np.add.outer(np.arange(m + 1), np.arange(m + 1))
    out = np.zeros_like(F)
    for t in range(N + 1):
        out[t:, t:] += rising(a, t) / math.factorial(t) * F[: N + 1 - t, : N + 1 - t]
    return out


def test_taylor_bytes_match_the_reference_loops():
    rng = np.random.default_rng(21)
    for order, _ in itertools.product(range(9), range(3)):
        for k in (1, 2):
            spec = Jet(*rng.uniform(0.1, 12.0, 2), k)
            _assert_same_bytes(spec.taylor(order).coeffs, _reference_jet_taylor(spec, order),
                               (spec, order))
        for m in (1, 2, 3):
            spec = Homogeneous(m / 2 + rng.uniform(0.05, 10.0), (1.0, *rng.uniform(0.2, 3.0, m)), m)
            _assert_same_bytes(spec.taylor(order).coeffs,
                               _reference_homogeneous_taylor(spec, order), (spec, order))


def _table_specs():
    """Freshly built specs whose evaluate keeps point-independent tables on the spec."""
    hom2 = Homogeneous(lam=2.0, mu=(1.0, 1.0, 1.0), m=2)
    return [
        Jet(alpha=1.0, beta=2.0, k=2),
        Jet(alpha=1.0, beta=5.0, k=2),
        Homogeneous(lam=1.0, mu=(1.0, 1.0), m=1),
        hom2,
        Permuted(inner=hom2, sigma=(2, 1, 3)),
    ]


def test_tables_are_kept_per_spec():
    rng = np.random.default_rng(11)
    z = 0.6 * (rng.uniform(-1, 1, 8) + 1j * rng.uniform(-1, 1, 8)) / np.sqrt(2)
    x = rng.uniform(-0.6, 0.6, 8)
    specs = _table_specs()
    before = [(hash(spec), spec_to_dict(spec)) for spec in specs]
    # every spec at one stack before any spec moves on to the next
    for a, b in ((z, z[::-1]), (x, x), (z, z), (x[0].item(), x[1].item())):
        for k, spec in enumerate(specs):
            fresh = _table_specs()[k]
            assert spec.evaluate(a, b).tobytes() == fresh.evaluate(a, b).tobytes(), spec
    for spec, fresh, (hashed, as_dict) in zip(specs, _table_specs(), before):
        assert spec == fresh
        assert hash(spec) == hashed
        assert spec_to_dict(spec) == as_dict
    assert specs[0] != specs[1]


def test_first_use_tables_under_threads():
    z = 0.5 * np.exp(1j * np.linspace(0.0, 6.0, 64))
    serial = [spec.evaluate(z, z) for spec in _table_specs()]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for expected, spec in zip(serial, _table_specs()):
            barrier = threading.Barrier(4)
            results = [None] * 4

            def work(slot, spec=spec, barrier=barrier, results=results):
                barrier.wait(timeout=10)
                results[slot] = spec.evaluate(z, z)

            threads = [threading.Thread(target=work, args=(slot,)) for slot in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            for got in results:
                assert got is not None and got.tobytes() == expected.tobytes(), spec
    finally:
        sys.setswitchinterval(switch)


def test_json_round_trip():
    specs = [spec for _, spec in zoo_fixtures()]
    for spec in specs:
        blob = json.dumps(spec_to_dict(spec))
        again = spec_from_dict(json.loads(blob))
        assert spec_to_dict(again) == spec_to_dict(spec)


def test_json_strictness():
    with pytest.raises(ValueError):
        spec_from_dict({"type": "bergman", "lambda": 2.0, "mu": [1.0]})
    with pytest.raises(ValueError):
        spec_from_dict({"type": "bergman"})
    with pytest.raises(ValueError):
        spec_from_dict({"type": "spectral"})
    with pytest.raises(ValueError):
        spec_from_dict({"type": "homogeneous", "lambda": 2.0, "mu": [1.0, 1.0], "m": 2})


def test_rising_factorial_matches_gamma_free_products():
    assert rising(3.0, 0) == 1.0
    assert rising(2.5, 3) == pytest.approx(2.5 * 3.5 * 4.5, rel=1e-15)
    assert rising(1.0, 5) == pytest.approx(math.factorial(5), rel=1e-15)
