import numpy as np
import pytest

from cdbundle import (
    BergmanPower,
    DirectSum,
    Homogeneous,
    Jet,
    MatrixPowerSeries2,
    Permuted,
)
from cdbundle import oracle


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def zoo_fixtures():
    """The kernel fixture set used by oracle/series cross-checks."""
    hom2 = Homogeneous(lam=2.0, mu=(1.0, 1.0, 1.0), m=2)
    return [
        ("bergman_1", BergmanPower(1.0)),
        ("bergman_2.5", BergmanPower(2.5)),
        ("jet1_1_2", Jet(alpha=1.0, beta=2.0, k=1)),
        ("jet1_1_5", Jet(alpha=1.0, beta=5.0, k=1)),
        ("jet2_1_2", Jet(alpha=1.0, beta=2.0, k=2)),
        ("jet2_2_1", Jet(alpha=2.0, beta=1.0, k=2)),
        ("ds_bergman_pair", DirectSum([BergmanPower(1.0), BergmanPower(5.0)])),
        ("ds_line_jet", DirectSum([BergmanPower(1.0), Jet(alpha=1.0, beta=5.0, k=1)])),
        ("hom_m1", Homogeneous(lam=1.0, mu=(1.0, 1.0), m=1)),
        ("hom_m2", hom2),
        ("hom_m2_skew", Homogeneous(lam=1.6, mu=(1.0, 1.4, 0.6), m=2)),
        ("hom_m2_permuted", Permuted(inner=hom2, sigma=(2, 1, 3))),
    ]


def held_out_corpus():
    """32 valid specs drawn from default_rng(123), disjoint from the fixture set.

    8 Bergman, 10 jet, 10 homogeneous with m <= 3 and 4 direct sums; the
    oracle's step ladders were not chosen on these.
    """
    rng = np.random.default_rng(123)
    corpus = []
    for i in range(8):
        corpus.append((f"bergman_{i}", BergmanPower(rng.uniform(0.5, 6.0))))
    for i in range(10):
        alpha, beta = rng.uniform(0.5, 5.0, 2)
        corpus.append((f"jet_{i}", Jet(alpha=alpha, beta=beta, k=int(rng.integers(1, 3)))))
    for i in range(10):
        m = int(rng.integers(1, 4))
        lam = m / 2 + rng.uniform(0.2, 3.0)
        corpus.append((f"hom_{i}", Homogeneous(lam=lam, mu=(1.0, *rng.uniform(0.3, 2.0, m)), m=m)))
    for i in range(4):
        alpha, beta = rng.uniform(0.5, 5.0, 2)
        parts = [BergmanPower(rng.uniform(0.5, 6.0)), Jet(alpha=alpha, beta=beta, k=1)]
        corpus.append((f"ds_{i}", DirectSum(parts)))
    return corpus


def wide_sample():
    """36 valid specs with wide exponents, for the oracle's worst residuals.

    20 jets with alpha, beta ~ U(0.5, 12) and k in {1, 2} and 10 homogeneous
    specs with m in {1, 2, 3}, lambda = m/2 + U(0.1, 6), mu_0 = 1 and the
    other mu_i ~ U(0.2, 3), drawn from default_rng(7); then two named jets
    and four specs with exponents up to 60.  The oracle's torus radius and
    sizes were not chosen on these.
    """
    rng = np.random.default_rng(7)
    sample = []
    for i in range(20):
        alpha, beta = rng.uniform(0.5, 12.0, 2)
        sample.append((f"jet_{i}", Jet(alpha=alpha, beta=beta, k=int(rng.integers(1, 3)))))
    for i in range(10):
        m = int(rng.integers(1, 4))
        lam = m / 2 + rng.uniform(0.1, 6.0)
        sample.append((f"hom_{i}", Homogeneous(lam=lam, mu=(1.0, *rng.uniform(0.2, 3.0, m)), m=m)))
    return sample + [
        ("jet_8_8_2", Jet(alpha=8.0, beta=8.0, k=2)),
        ("jet_1.5_5_2", Jet(alpha=1.5, beta=5.0, k=2)),
        ("jet_20_20_2", Jet(alpha=20.0, beta=20.0, k=2)),
        ("jet_40_40_2", Jet(alpha=40.0, beta=40.0, k=2)),
        ("bergman_60", BergmanPower(60.0)),
        ("hom_30_m3", Homogeneous(lam=30.0, mu=(1.0, 2.0, 0.5, 1.5), m=3)),
    ]


def field_grid_points(rng):
    """The jittered points of the benchmark's ``field_grid``: the 81 points of the 11 x 11
    grid on [-0.5, 0.5]^2 with |z| <= 0.5, each moved by up to 0.02 in x and in y."""
    axis = np.linspace(-0.5, 0.5, 11)
    grid = [complex(x, y) for y in axis for x in axis if np.hypot(x, y) <= 0.5 + 1e-12]
    shift = rng.uniform(-0.02, 0.02, size=(len(grid), 2))
    return [z + complex(dx, dy) for z, (dx, dy) in zip(grid, shift)]


def jet_curvature_errors(monkeypatch, sizes):
    """|curvature - 3 / (1 - 0.25)^2| of BergmanPower(3) at z = 0.5 for each torus size."""
    errs = []
    for n in sizes:
        monkeypatch.setattr(oracle, "_N_CURVATURE", n)
        errs.append(abs(oracle.curvature_fd(BergmanPower(3.0), 0.5)[0, 0] - 3.0 / (1 - 0.25) ** 2))
    return errs


def fourier_lattice(fn, order, rank, radius=0.35, npts=64):
    """Independent coefficient-extraction oracle by double Fourier quadrature.

    For K(z, w) = sum a[p,q] z^p conj(w)^q, sampling z = r e^{i th},
    w = r e^{i ph} on an npts x npts torus and projecting the modes
    recovers a[p,q] with spectral accuracy (aliasing ~ r^{2 npts}).
    """
    th = 2 * np.pi * np.arange(npts) / npts
    vals = np.empty((npts, npts, rank, rank), dtype=complex)
    for a, t in enumerate(th):
        for b, p in enumerate(th):
            vals[a, b] = fn(radius * np.exp(1j * t), radius * np.exp(1j * p))
    # a[p,q] mode: e^{i p th} e^{-i q ph}
    modes = np.fft.fft(vals, axis=0) / npts  # picks e^{+i p th} components
    modes = np.fft.ifft(modes, axis=1)  # picks e^{-i q ph} components
    out = np.empty((order + 1, order + 1, rank, rank), dtype=complex)
    for p in range(order + 1):
        for q in range(order + 1):
            out[p, q] = modes[p, q] / radius ** (p + q)
    return out


def random_kernel_series(rng, rank=2, order=4, scale=0.3):
    """Random kernel-grade lattice: Hermitian-symmetric with HPD constant term."""
    c = np.zeros((order + 1, order + 1, rank, rank), dtype=complex)
    for k in range(order + 1):
        for l in range(k, order + 1):
            blk = scale * (rng.standard_normal((rank, rank))
                           + 1j * rng.standard_normal((rank, rank)))
            if k == l:
                blk = 0.5 * (blk + blk.conj().T)
            c[k, l] = blk
            c[l, k] = blk.conj().T
    a = rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank))
    c[0, 0] = a @ a.conj().T + rank * np.eye(rank)
    return MatrixPowerSeries2(c)
