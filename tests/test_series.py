import math

import numpy as np
import pytest

from cdbundle import DimensionMismatchError, MatrixPowerSeries2, SingularLeadingTermError
from conftest import random_kernel_series


def scalar_series(order, entries):
    c = np.zeros((order + 1, order + 1, 1, 1), dtype=complex)
    for (k, l), v in entries.items():
        c[k, l] = v
    return MatrixPowerSeries2(c)


def identity(rank, order):
    c = np.zeros((order + 1, order + 1, rank, rank), dtype=complex)
    c[0, 0] = np.eye(rank)
    return MatrixPowerSeries2(c)


def geometric(order):
    """(1 - z conj(w))^{-1}: a[k,k] = 1."""
    return scalar_series(order, {(k, k): 1.0 for k in range(order + 1)})


def test_multiply_identity_is_neutral(rng):
    b = random_kernel_series(rng, rank=3, order=4)
    ident = identity(3, 4)
    assert np.abs(ident.multiply(b).coeffs - b.coeffs).max() < 1e-15
    assert np.abs(b.multiply(ident).coeffs - b.coeffs).max() < 1e-15


def test_multiply_difference_of_squares():
    a = scalar_series(2, {(0, 0): 1.0, (1, 1): 1.0})
    b = scalar_series(2, {(0, 0): 1.0, (1, 1): -1.0})
    prod = a.multiply(b)
    expected = scalar_series(2, {(0, 0): 1.0, (2, 2): -1.0})
    assert np.abs(prod.coeffs - expected.coeffs).max() < 1e-15


def test_multiply_geometric_square_matches_binomial():
    # (1-x)^{-2} = sum (k+1) x^k with x = z conj(w); oracle via math.comb
    prod = geometric(3).multiply(geometric(3))
    for k in range(4):
        for l in range(4):
            expected = math.comb(k + 1, 1) if k == l else 0.0
            assert prod.coeffs[k, l, 0, 0] == pytest.approx(expected, abs=1e-14)


def test_multiply_skip_is_exact(rng):
    # sparse block supports: every coefficient, +0 or -0 included, is the dense Cauchy sum
    def lattice(support):
        c = rng.standard_normal((5, 5, 2, 2)) + 1j * rng.standard_normal((5, 5, 2, 2))
        return MatrixPowerSeries2(np.where(support[:, :, None, None], c, 0.0))

    row0, column0, constant, corner = (np.zeros((5, 5), dtype=bool) for _ in range(4))
    row0[0, :] = column0[:, 0] = constant[0, 0] = corner[3:, 3:] = True
    supports = [np.eye(5, dtype=bool), row0, column0, constant, corner, np.ones((5, 5), dtype=bool)]
    for left in supports:
        for right in supports:
            a, b = lattice(left), lattice(right)
            dense = np.zeros_like(a.coeffs)
            for k in range(5):
                for l in range(5):
                    dense[k, l] = np.einsum("pqij,pqjk->ik", a.coeffs[: k + 1, : l + 1],
                                            b.coeffs[k::-1, l::-1])
            got = a.multiply(b).coeffs
            assert np.array_equal(got, dense)
            for part in ("real", "imag"):
                assert np.array_equal(np.signbit(getattr(got, part)), np.signbit(getattr(dense, part)))


def test_multiply_shape_mismatch_raises(rng):
    a = random_kernel_series(rng, rank=2, order=3)
    b = random_kernel_series(rng, rank=3, order=3)
    with pytest.raises(DimensionMismatchError):
        a.multiply(b)
    with pytest.raises(DimensionMismatchError):
        a.multiply(random_kernel_series(rng, rank=2, order=4))


def test_invert_geometric_series():
    inv = geometric(4).invert()
    expected = scalar_series(4, {(0, 0): 1.0, (1, 1): -1.0})
    assert np.abs(inv.coeffs - expected.coeffs).max() < 1e-14


def test_invert_first_coefficient_identity(rng):
    # b10 = -a00^{-1} a10 a00^{-1}, one step of the inversion recursion
    k = random_kernel_series(rng, rank=3, order=3)
    b = k.invert()
    a00_inv = np.linalg.inv(k.coeffs[0, 0])
    expected = -a00_inv @ k.coeffs[1, 0] @ a00_inv
    assert np.abs(b.coeffs[1, 0] - expected).max() < 1e-12


def test_invert_two_sided(rng):
    for rank in (1, 2, 3):
        k = random_kernel_series(rng, rank=rank, order=5)
        b = k.invert()
        ident = identity(rank, 5)
        assert np.abs(k.multiply(b).coeffs - ident.coeffs).max() < 1e-12
        assert np.abs(b.multiply(k).coeffs - ident.coeffs).max() < 1e-12


def test_invert_preserves_hermitian_symmetry(rng):
    # kernel grade: b[k,l]^* = b[l,k] for every cell
    b = random_kernel_series(rng, rank=3, order=4).invert().coeffs
    assert np.abs(b.conj().transpose(1, 0, 3, 2) - b).max() < 1e-12


def test_invert_singular_leading_term():
    s = scalar_series(2, {(0, 0): 0.0, (1, 1): 1.0})
    with pytest.raises(SingularLeadingTermError):
        s.invert()


def test_invert_needs_hermitian_constant_term():
    # a00 is inverted from its eigendecomposition, as in normalization
    c = np.zeros((3, 3, 2, 2), dtype=complex)
    c[0, 0] = [[2.0, 1.0], [0.0, 2.0]]
    with pytest.raises(ValueError, match="not Hermitian"):
        MatrixPowerSeries2(c).invert()


def test_multiply_associative_property(rng):
    for _ in range(5):
        a = random_kernel_series(rng, rank=2, order=6)
        b = random_kernel_series(rng, rank=2, order=6)
        c = random_kernel_series(rng, rank=2, order=6)
        left = a.multiply(b).multiply(c)
        right = a.multiply(b.multiply(c))
        scale = max(1.0, np.abs(left.coeffs).max())
        assert np.abs(left.coeffs - right.coeffs).max() / scale < 1e-12


def test_immutability(rng):
    k = random_kernel_series(rng, rank=2, order=2)
    with pytest.raises(AttributeError):
        k.rank = 5
    with pytest.raises(ValueError):
        k.coeffs[0, 0, 0, 0] = 1.0


def test_non_finite_rejected():
    c = np.zeros((2, 2, 1, 1), dtype=complex)
    c[0, 0] = np.nan
    with pytest.raises(ValueError):
        MatrixPowerSeries2(c)
