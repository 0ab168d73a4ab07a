import ast
import pathlib

import numpy as np
import pytest

from cdbundle import (
    BergmanPower,
    DirectSum,
    DiscDomainError,
    Homogeneous,
    Jet,
    KernelSpec,
    MetricDegeneracyError,
    covd_zbar_fd,
    covd_zzbar_fd,
    curvature_eigenvalues_fd,
    curvature_fd,
    invariants_at_zero,
    kernel_taylor,
    oracle_invariants_at_zero,
    to_orthonormal_frame,
    transport_eigenvalues,
)
from cdbundle import oracle
from cdbundle.oracle import ORACLE_CROSS_CHECK_TOL
from conftest import (
    field_grid_points,
    held_out_corpus,
    jet_curvature_errors,
    wide_sample,
    zoo_fixtures,
)


class ConstantMetric:
    """Test double with K(z, w) = const, on and off the diagonal; curvature must
    vanish identically."""

    def __init__(self, h):
        self._h = np.asarray(h, dtype=complex)
        self.rank = self._h.shape[0]

    def evaluate(self, z, w):
        shape = np.broadcast_shapes(np.shape(z), np.shape(w))
        return np.broadcast_to(self._h.T, shape + self._h.shape).copy()

    metric_at = KernelSpec.metric_at


class CountingMetric:
    """Test double that records every point pair (z, w) at which a zoo kernel is
    evaluated, after broadcasting z against w, and the number of pairs and the
    shapes of z and w of each call."""

    def __init__(self, spec):
        self._spec = spec
        self.rank = spec.rank
        self.pairs = []
        self.calls = []
        self.shapes = []

    def evaluate(self, z, w):
        self.shapes.append((np.shape(z), np.shape(w)))
        zs, ws = np.broadcast_arrays(z, w)
        self.pairs.extend(zip(zs.ravel().tolist(), ws.ravel().tolist()))
        self.calls.append(zs.size)
        return self._spec.evaluate(z, w)

    metric_at = KernelSpec.metric_at


def jet1_raw_curvature(alpha, beta, z):
    """Printed raw-frame curvature field of the rank-2 jet bundle."""
    r2 = abs(z) ** 2
    return (1 - r2) ** (-2) * np.array(
        [
            [alpha, -2 * beta * (beta + 1) * np.conj(z) / (1 - r2)],
            [0.0, alpha + 2 * beta + 2],
        ]
    )


def test_metric_values():
    assert np.allclose(Jet(alpha=1.0, beta=2.0, k=1).metric_at(0.0), np.diag([1.0, 2.0]))
    z = 0.3 + 0.2j
    got = BergmanPower(2.0).metric_at(z)
    assert got[0, 0] == pytest.approx((1 - abs(z) ** 2) ** (-2.0), rel=1e-14)
    hom = Homogeneous(lam=2.0, mu=(1.0, 1.0, 1.0), m=2)
    assert np.abs(hom.metric_at(0.0) - np.diag(hom.diagonal)).max() < 1e-14


def test_curvature_bergman_field():
    got = curvature_fd(BergmanPower(3.0), 0.5)
    expected = 3.0 / (1 - 0.25) ** 2
    assert abs(got[0, 0] - expected) / expected < 1e-6


def test_curvature_jet1_matches_printed_field():
    alpha, beta = 1.0, 2.0
    for z in (0.3, 0.2 + 0.25j):
        got = curvature_fd(Jet(alpha=alpha, beta=beta, k=1), z)
        ref = jet1_raw_curvature(alpha, beta, z)
        assert np.abs(got - ref).max() / np.abs(ref).max() < 1e-6


def test_curvature_constant_metric_vanishes():
    const = ConstantMetric(np.eye(2))
    assert np.abs(curvature_fd(const, 0.1 + 0.1j)).max() < 1e-10
    assert np.abs(covd_zzbar_fd(const, 0.0)).max() < 1e-8


def dense_jets(spec, z, depth, n, radius):
    """c[a, b] by the trapezoid double sum over the n x n torus, one point pair at a time:
    the sum of H(z + u, conj z + v) u^-a v^-b / n^2 over u = r q^j, v = r q^k,
    r = radius (1 - |z|)."""
    r = radius * (1 - abs(z))
    q = np.exp(2j * np.pi / n)
    c = np.zeros((depth, depth, spec.rank, spec.rank), dtype=complex)
    for j in range(n):
        for k in range(n):
            u, v = r * q ** j, r * q ** k
            # H(z + u, conj z + v) = K(z + u, z + conj v)^t
            h = spec.evaluate(z + u, z + np.conj(v)).T
            for a in range(depth):
                for b in range(depth):
                    c[a, b] += h / (u ** a * v ** b)
    return c / n ** 2


@pytest.mark.parametrize("z", [0.0, 0.3 - 0.2j])
def test_jets_match_the_dense_trapezoid_sum(z):
    # pins the order of the Kronecker weights, the exponent of each row and the transpose of
    # K into h; the jet kernels are not symmetric, so a K in place of h^t shows.  Both sides
    # are compared times r^(a+b): the division by it amplifies round-off by up to r^-2 = 1e4
    # on the curvature's torus and r^-4 = 1.6e5 on the derivatives'.  At 0 the call with the
    # centre, as the triple at 0 makes it, slices the n x n block out of the (n+1)^2 values
    for depth, n, radius in ((2, oracle._N_CURVATURE, oracle._RADIUS_CURVATURE),
                             (3, oracle._N_DERIVATIVES, oracle._RADIUS_DERIVATIVES)):
        r = radius * (1 - abs(z))
        scale = r ** np.add.outer(np.arange(depth), np.arange(depth))[..., None, None]
        for name, spec in zoo_fixtures():
            got = oracle._jets(spec, z, depth, n, radius) * scale
            want = dense_jets(spec, z, depth, n, radius) * scale
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (name, depth)
            if z == 0:
                jet, h0 = oracle._jets(spec, z, depth, n, radius, centre=True)
                assert np.abs(jet * scale - want).max() <= 1e-13 * np.abs(want).max(), name
                assert np.array_equal(h0, spec.evaluate(0.0, 0.0).T), name


def _shift(d):
    """The (d, d, d) boolean table of i + k == p, indexed [p, i, k]."""
    return np.add.outer(np.arange(d), np.arange(d)) == np.arange(d)[:, None, None]


def _times(a):
    """Left multiplication by the jet a, as one matrix acting on jets of a's shape.

    A jet b of shape (d1, d2, n, m) is the (d1 d2 n, m) matrix b.reshape(-1, m);
    cell (p, q) of the truncated product is the sum of a[i, j] b[p - i, q - j].
    """
    d1, d2, n = a.shape[0], a.shape[1], a.shape[-1]
    return np.einsum("pik,qjl,ijxy->pqxkly", _shift(d1), _shift(d2), a).reshape(d1 * d2 * n, -1)


def block_toeplitz_invariants(c):
    """The curvature, (0,1) and (1,1) derivatives of a 3 x 3 jet with every jet product
    as one block-Toeplitz matrix: h G = dh by one solve, then K = dbar G, F = dK + [G, K]."""
    weights = np.array([1.0, 2.0])[:, None, None]
    dh = c[1:] * weights[:, None]
    G = np.linalg.solve(_times(c[:2]), dh.reshape(-1, dh.shape[-1])).reshape(dh.shape)
    K = G[:, 1:] * weights
    g, k = G[:1, :2], K[:1]
    gk = (_times(g) @ k.reshape(-1, k.shape[-1])).reshape(k.shape)
    kg = (_times(k) @ g.reshape(-1, g.shape[-1])).reshape(g.shape)
    F = K[1:] + gk - kg
    return np.stack((K[0, 0], K[0, 1], F[0, 1]))


def forward_substitution_invariants(c):
    """The same triple with h G = dh solved cell by cell: with A = h^{-1} c, whose A[0, 0]
    is the identity, G[p, q] = (p + 1) A[p + 1, q] minus the sum of A[i, j] G[p - i, q - j]
    over 0 < i + j, i <= p, j <= q, written out in order of p and then q."""
    (_, a01, a02), (a10, a11, a12), (a20, a21, a22) = np.linalg.solve(c[0, 0], c)
    g00 = a10
    g01 = a11 - a01 @ g00
    g02 = a12 - a01 @ g01 - a02 @ g00
    g10 = 2.0 * a20 - a10 @ g00
    g11 = 2.0 * a21 - a01 @ g10 - a10 @ g01 - a11 @ g00
    g12 = 2.0 * a22 - a01 @ g11 - a02 @ g10 - a10 @ g02 - a11 @ g01 - a12 @ g00
    return np.stack((g01, 2.0 * g02, 2.0 * (g12 + g00 @ g02 - g02 @ g00)))


def connection_test_jets():
    """3 x 3 jets: the zoo at 0 and at 0.3 - 0.2j, and 20 seeded random jets of ranks 1 to 4
    whose c[0, 0] is Hermitian positive definite."""
    rng = np.random.default_rng(23)
    jets = [oracle._jets(spec, z, 3, oracle._N_DERIVATIVES, oracle._RADIUS_DERIVATIVES)
            for _, spec in zoo_fixtures() for z in (0.0, 0.3 - 0.2j)]
    for rank in (1, 2, 3, 4):
        for _ in range(5):
            shape = (3, 3, rank, rank)
            c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            a = rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank))
            c[0, 0] = a @ a.conj().T + rank * np.eye(rank)  # Hermitian positive definite
            jets.append(c)
    return jets


def test_gathered_matrix_is_the_block_toeplitz_product(monkeypatch):
    # the matrix that _invariants gathers through _PRODUCT and hands to its one solve is
    # the einsum-built left multiplication by c[:2], bit for bit
    solve = np.linalg.solve
    systems = []

    def recording(a, b):
        systems.append((a, b))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording)
    for c in connection_test_jets():
        systems.clear()
        oracle._invariants(c)
        assert len(systems) == 1
        matrix, rhs = systems[0]
        assert np.array_equal(matrix, _times(c[:2]))
        assert np.array_equal(rhs, (c[1:] * np.array([1.0, 2.0])[:, None, None, None])
                              .reshape(-1, c.shape[-1]))


def test_gathered_solve_matches_forward_substitution_and_block_toeplitz():
    for c in connection_test_jets():
        got = oracle._invariants(c)
        assert got.shape == (3,) + c.shape[2:]
        for reference in (forward_substitution_invariants, block_toeplitz_invariants):
            want = reference(c)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), reference
        # the curvature cell is h^-1 (c11 - c01 h^-1 c10), the formula of the curvature route
        h_inv = np.linalg.inv(c[0, 0])
        curvature = h_inv @ (c[1, 1] - c[0, 1] @ h_inv @ c[1, 0])
        assert np.abs(got[0] - curvature).max() <= 1e-12 * np.abs(curvature).max()


@pytest.mark.parametrize("z", [0.0, 0.1 + 0.2j])
def test_connection_reuse_is_bit_identical(monkeypatch, z):
    # equal points give equal jets, so reading G and all three invariants from one shared
    # 3 x 3 jet, as oracle_invariants_at_zero does, changes no bit; the centre pair that
    # oracle_invariants_at_zero adds to the torus call leaves the jet's bytes alone
    jets = oracle._jets
    calls = []

    def recording(*args, **kwargs):
        out = jets(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    monkeypatch.setattr(oracle, "_jets", recording)
    for name, spec in zoo_fixtures():
        calls.clear()
        covd_zbar_fd(spec, z)
        covd_zzbar_fd(spec, z)
        assert len(calls) == 2, name
        (args, kwargs, out), (args1, kwargs1, out1) = calls
        assert args == args1 and kwargs == kwargs1 == {} and np.array_equal(out, out1), name
        assert np.array_equal(jets(*args), out), name
        if z == 0:
            calls.clear()
            oracle_invariants_at_zero(spec)
            assert len(calls) == 1 and calls[0][:2] == (args, {"centre": True}), name
            assert calls[0][2][0].tobytes() == out.tobytes(), name


def test_oracle_at_zero_evaluates_once_and_reads_h0_from_the_centre(monkeypatch):
    # the 12 x 12 torus and its centre (0, 0) as one 13 x 13 call; the h(0) that the frame
    # step receives has the bytes of metric_at(0.0), the kernel's own call at one point
    n = oracle._N_DERIVATIVES
    for name, spec in zoo_fixtures():
        counting = CountingMetric(spec)
        oracle_invariants_at_zero(counting)
        assert counting.calls == [(n + 1) ** 2], name
        assert counting.shapes == [((n + 1, 1), (1, n + 1))], name
        assert counting.pairs[-1] == (0.0, 0.0), name
    frame = oracle.to_orthonormal_frame
    metrics = []

    def recording(M, h0):
        metrics.append(h0)
        return frame(M, h0)

    monkeypatch.setattr(oracle, "to_orthonormal_frame", recording)
    for name, spec in zoo_fixtures() + held_out_corpus() + wide_sample():
        metrics.clear()
        oracle_invariants_at_zero(spec)
        assert len(metrics) == 1, name
        assert metrics[0].tobytes() == spec.metric_at(0.0).tobytes(), name


def test_oracle_at_zero_solves_once(monkeypatch):
    # h G = dh is one linear system, and the frame step receives the (3, rank, rank) triple
    # that _invariants returns
    solve, frame = np.linalg.solve, oracle.to_orthonormal_frame
    solves, stacks = [], []

    def counting_solve(a, b):
        solves.append(np.shape(a))
        return solve(a, b)

    def recording_frame(M, h0):
        stacks.append(M)
        return frame(M, h0)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    monkeypatch.setattr(oracle, "to_orthonormal_frame", recording_frame)
    for name, spec in zoo_fixtures():
        solves.clear()
        stacks.clear()
        oracle_invariants_at_zero(spec)
        m = spec.rank
        assert solves == [(6 * m, 6 * m)], name
        assert len(stacks) == 1 and stacks[0].shape == (3, m, m), name


@pytest.mark.parametrize("route", [curvature_fd, covd_zbar_fd, covd_zzbar_fd])
def test_off_axis_routes_evaluate_once_per_block(route):
    # the block is the route's n x n torus: one call, every (z, w) pair distinct, and the
    # pairs lie off the diagonal w = z except where the two circles cross
    n = oracle._N_CURVATURE if route is curvature_fd else oracle._N_DERIVATIVES
    for name, spec in zoo_fixtures():
        counting = CountingMetric(spec)
        route(counting, 0.1 + 0.2j)
        assert counting.calls == [n * n], name
        assert len(set(counting.pairs)) == n * n, name
        assert sum(z != w for z, w in counting.pairs) >= n * n - n, name
        assert counting.shapes == [((n, 1), (1, n))], name  # a column of z against a row of w


def test_covd_zbar_at_zero():
    assert np.abs(covd_zbar_fd(BergmanPower(2.0), 0.0)).max() < 1e-8
    pair = DirectSum([BergmanPower(1.0), BergmanPower(4.0)])
    assert np.abs(covd_zbar_fd(pair, 0.0)).max() < 1e-8
    beta = 2.0
    got = covd_zbar_fd(Jet(alpha=1.0, beta=beta, k=1), 0.0)
    assert got[0, 1] == pytest.approx(-2 * beta * (beta + 1), abs=1e-6)
    got[0, 1] = 0.0
    assert np.abs(got).max() < 1e-6


def test_covd_zzbar_bergman_scalar():
    lam = 2.0
    got = covd_zzbar_fd(BergmanPower(lam), 0.0)
    assert got[0, 0] == pytest.approx(2 * lam, abs=1e-5)


def test_to_orthonormal_frame_basics():
    m = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert np.abs(to_orthonormal_frame(m, np.eye(2)) - m).max() < 1e-15
    h0 = np.diag([2.0, 5.0])
    d = np.diag([1.0 + 0j, 3.0])
    assert np.abs(to_orthonormal_frame(d, h0) - d).max() < 1e-14


def test_to_orthonormal_frame_is_conjugation_by_the_square_root():
    # h0^{1/2} M h0^{-1/2}, with h0^{-1/2} inverted as a matrix
    rng = np.random.default_rng(18)
    for n in (1, 2, 3, 4):
        for _ in range(10):
            M = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for h0, exact in ((np.diag(rng.uniform(0.05, 20.0, n)), True),
                              (a @ a.conj().T + n * np.eye(n), False)):
                h0 = 0.5 * (h0 + h0.conj().T)
                vals, vecs = np.linalg.eigh(h0)
                half = (vecs * np.sqrt(vals)) @ vecs.conj().T
                want = half @ M @ np.linalg.inv(half)
                got = to_orthonormal_frame(M, h0)
                if exact:  # h(0) is diagonal for every spec the library can express
                    assert got.tobytes() == want.tobytes()
                else:
                    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_to_orthonormal_frame_rejects_bad_metrics():
    m = np.eye(2, dtype=complex)
    for h0 in (np.array([[1.0, np.nan], [np.nan, 1.0]]), np.array([[1.0, 1e-9], [0.0, 1.0]])):
        with pytest.raises(ValueError):
            to_orthonormal_frame(m, h0)
    with pytest.raises(MetricDegeneracyError):
        to_orthonormal_frame(m, np.diag([1.0, 1e-11]))


def test_oracle_at_zero_checks_h0_in_the_frame_step():
    # h(0) is checked by to_orthonormal_frame, so a non-Hermitian h(0) raises its ValueError
    with pytest.raises(MetricDegeneracyError):
        oracle_invariants_at_zero(ConstantMetric(np.diag([1.0, -1.0])))
    with pytest.raises(ValueError, match="not Hermitian"):
        oracle_invariants_at_zero(ConstantMetric([[1.0, 0.5], [0.0, 1.0]]))


def test_oracle_imports_nothing_from_the_series_path():
    # the oracle is an independent check only while it shares no code with the series path
    source = pathlib.Path(__file__).parents[1] / "src" / "cdbundle" / "oracle.py"
    imported = set()
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            if node.level and not node.module:
                imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    for name in imported:
        assert name.split(".")[-1] not in ("series", "invariants"), name


def test_to_orthonormal_frame_matches_series_for_jet():
    spec = Jet(alpha=1.0, beta=2.0, k=1)
    inv = invariants_at_zero(kernel_taylor(spec, 4))
    h0 = spec.metric_at(0.0)
    raw = curvature_fd(spec, 0.0)
    assert np.abs(to_orthonormal_frame(raw, h0) - inv.curvature).max() < 1e-6
    raw_zb = covd_zbar_fd(spec, 0.0)
    assert np.abs(to_orthonormal_frame(raw_zb, h0) - inv.d_zbar).max() < 1e-6


def test_oracle_matches_series_on_fixture_set():
    for name, spec in zoo_fixtures():
        inv = invariants_at_zero(kernel_taylor(spec, 4))
        orc = oracle_invariants_at_zero(spec)
        for key in ("curvature", "d_zbar", "d_zzbar"):
            dev = np.abs(orc[key] - getattr(inv, key)).max()
            assert dev <= 1e-5, (name, key, dev)


def worst_residuals(corpus):
    """The largest |oracle - series| at 0 over the corpus, per invariant."""
    worst = dict.fromkeys(("curvature", "d_zbar", "d_zzbar"), 0.0)
    for name, spec in corpus:
        inv = invariants_at_zero(kernel_taylor(spec, 4))
        orc = oracle_invariants_at_zero(spec)
        for key in worst:
            worst[key] = max(worst[key], np.abs(orc[key] - getattr(inv, key)).max())
    return worst


def test_oracle_worst_residuals_on_held_out_corpus():
    # measured with the jets: curvature 1.1e-13, d_zbar 2.7e-13, d_zzbar 7.5e-11; the pins
    # date from the finite differences, which read 1.6e-7, 7.0e-9 and 3.8e-6 here
    pinned = {"curvature": 2.5e-7, "d_zbar": 1e-8, "d_zzbar": 5e-6}
    worst = worst_residuals(held_out_corpus())
    for key, bound in pinned.items():
        assert worst[key] <= bound <= ORACLE_CROSS_CHECK_TOL, (key, worst[key])


def test_oracle_worst_residuals_on_wide_sample():
    # measured: curvature 9.0e-13, d_zbar 2.5e-12 and d_zzbar 1.1e-9, all on jet(40, 40, 2);
    # the finite differences missed 1e-5 on 15 of these 36 specs
    pinned = {"curvature": 3e-12, "d_zbar": 5e-12, "d_zzbar": 3e-9}
    worst = worst_residuals(wide_sample())
    for key, bound in pinned.items():
        assert worst[key] <= bound, (key, worst[key])


def test_jet_convergence_is_geometric_in_n_bergman(monkeypatch):
    # aliasing falls geometrically in n: measured 9.5e-4, 7.9e-6, 5.3e-8 and 3.1e-10 at
    # n = 2, 3, 4 and 5 (ratios 120, 150 and 170), then a roundoff floor: 1.1e-12 at n = 6,
    # 1.2e-13 at n = 8 and 7.1e-13 at n = 10
    errs = jet_curvature_errors(monkeypatch, (2, 3, 4, 5, 10))
    for e0, e1 in zip(errs[:3], errs[1:4]):
        assert 100.0 <= e0 / e1 <= 220.0, errs
    assert errs[-1] <= 1e-12, errs


@pytest.mark.parametrize("corpus, bound", [(held_out_corpus, 1e-9), (wide_sample, 3e-5)])
def test_field_follows_the_transport_of_the_invariants_at_zero(corpus, bound):
    # the curvature route against (1 - |z|^2)^-2 times the series eigenvalues at 0, relative
    # to the largest eigenvalue, at the jittered points of the benchmark's field_grid (its
    # seed, one draw per spec); measured 3.0e-10 on the held-out corpus (jet_8) and 1.3e-5 on
    # the wide sample (jet(40, 40, 2), whose aliasing grows with the exponents).  An 8 x 8
    # torus at r = 0.05 (1 - |z|) read 1.3e-8 and 1.2e-2
    rng = np.random.default_rng(20240817)
    for name, spec in corpus():
        inv0 = invariants_at_zero(kernel_taylor(spec, 4))
        for z in field_grid_points(rng):
            want = transport_eigenvalues(inv0, z)
            dev = np.abs(curvature_eigenvalues_fd(spec, z) - want).max() / np.abs(want).max()
            assert dev <= bound, (name, z, dev)


def test_scalar_transformation_law():
    spec = BergmanPower(2.0)
    # the disc automorphism z -> (z + a) / (1 + conj(a) z) and its derivative
    for a in (0.2, 0.5j):
        for z in (0.1, 0.25 - 0.1j):
            pullback = (z + a) / (1 + np.conj(a) * z)
            derivative = (1 - abs(a) ** 2) / (1 + np.conj(a) * z) ** 2
            lhs = curvature_fd(spec, z)[0, 0]
            rhs = abs(derivative) ** 2 * curvature_fd(spec, pullback)[0, 0]
            assert abs(lhs - rhs) / abs(lhs) < 1e-5


def test_homogeneous_eigenvalue_scaling_grid():
    spec = Homogeneous(lam=2.0, mu=(1.0, 1.0, 1.0), m=2)
    inv0 = invariants_at_zero(kernel_taylor(spec, 4))
    base = inv0.curvature_eigenvalues()
    for r in (0.0, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999):
        for ang in (0.4, 2.0):
            z = r * np.exp(1j * ang)
            got = curvature_eigenvalues_fd(spec, z)
            ref = base / (1 - abs(z) ** 2) ** 2
            assert np.abs(got - ref).max() / ref.max() < 1e-5


def test_points_outside_the_disc_are_rejected():
    with pytest.raises(DiscDomainError):
        curvature_fd(BergmanPower(1.0), 1.0)
    with pytest.raises(DiscDomainError):
        BergmanPower(1.0).metric_at(1.2)
