"""Independent curvature verification by finite-difference Wirtinger calculus.

This module never touches the power-series machinery: it works from exact
closed-form evaluations of the metric h(z) = K(z, z)^t only, applying
Richardson-extrapolated central differences for the Wirtinger operators

    d     = (d/dx - i d/dy) / 2,      dbar = (d/dx + i d/dy) / 2

to the matrix fields G = h^{-1} dh, then

    curvature      = dbar G
    (0,1) deriv    = dbar curvature
    (1,1) deriv    = dbar( d curvature + [G, curvature] )

All outputs are in the raw holomorphic frame of the kernel; use
:func:`to_orthonormal_frame` with h(point) to compare against the series
path, which works in the frame orthonormal at the point.

Each route works in three steps.

1. Stencil.  The nested differences visit a fixed set of points, a
   function of z and the step ladder only.  The route lists
   them as arrays, level by level: u + t, u - t, u + it, u - it around
   every point u of the level above, with the same floating-point sums a
   nested scalar evaluation would form.
2. One batch.  The metric is evaluated once per distinct point (exact
   equality) through ``KernelSpec.evaluate`` on whole arrays, in blocks of
   _BLOCK points: one call per block for the points on the real axis and
   one for the others, and none for a kind the block lacks, so off the
   real axis each block is a single call.  The connection G of the (0,1)
   and (1,1) routes is likewise formed once per distinct G point and
   gathered back; equal points give equal stencils, so this changes no
   bit.  At 0 with the default configuration the curvature, (0,1) and (1,1)
   routes form G at 8, 53 and 145 points (of 8, 64 and 584 listed), read
   72, 477 and 1 305 metric values and evaluate only 33, 125 and 293
   distinct points.
3. Combine.  The values are differenced level by level on stacked
   (..., n, n) arrays with the scalar formulas unchanged:
   G = solve(h, dh) on the stack, then dK + G K - K G for the (1,1) route.

Real-axis rule.  Points with zero imaginary part are evaluated as float64,
all others as complex128.  The zoo's metrics are real on the real axis, but
complex power functions leave an imaginary residue of about 1e-17 there;
the (1,1) route divides by about s1 s2 s3 s4, which amplifies that residue
roughly 1e9-fold: evaluating every point as complex moves d_zzbar by up
to 5.2e-7 on the fixture set, a twentieth of the cross-check tolerance.

Step ladders.  Nesting differences amplifies roundoff: the noise of an inner
level divided by the outer step must stay below the target, so the deep
routes use larger steps than the curvature route, and their outer levels
use steps at least as large as the inner ones.  The ladders are commensurate:
every step of a route is an integer multiple of its smallest half-step
(s/2 = 2.5 step for (0,1), 20 step for (1,1)), so the nested stencils land
on one lattice and most of their points coincide (Fornberg, Math. Comp. 51,
1988, treats stencils on a shared grid).  Coincidence is exact equality of
the floating-point sums, which the lattice makes common but does not
guarantee; the counts above are measured.  With the default step 1e-4 the
worst deviations from the series path at z = 0 are 7.0e-8 (curvature),
7.1e-9 ((0,1)) and 1.6e-6 ((1,1)) on the 12-kernel fixture set, and 1.6e-7,
7.0e-9 and 3.8e-6 on a held-out corpus of 32 specs.  The (1,1) stencil
reaches 240 steps from its point, so at 0 a step of 1/240 or more leaves
the disc.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DiscDomainError, MetricDegeneracyError
from .kernels import KernelSpec

# largest accepted deviation of the oracle from the series path at 0
ORACLE_CROSS_CHECK_TOL = 1e-5
# metric evaluations per batch call, which bounds the transient stacks
_BLOCK = 512
# step multipliers per route, relative to FDConfig.step
_LADDERS = {"curv": (1, 1), "zbar": (5, 5, 10), "zzbar": (40, 40, 80, 80)}


@dataclass(frozen=True)
class FDConfig:
    """Finite-difference configuration: `step` is the base first-derivative step."""

    step: float = 1e-4

    def __post_init__(self):
        if not 1e-8 < self.step < 1e-2:
            raise ValueError(f"step must lie in (1e-8, 1e-2), got {self.step}")

    def ladder(self, route: str) -> tuple:
        return tuple(m * self.step for m in _LADDERS[route])

    def reach(self, route: str) -> float:
        """Largest total offset from the base point the stencil can visit."""
        return sum(self.ladder(route))


def metric_at(spec: KernelSpec, z: complex) -> np.ndarray:
    """h(z) = K(z, z)^t, checked Hermitian positive definite."""
    if abs(z) >= 1.0:
        raise DiscDomainError(f"|z| must be < 1, got {abs(z)}")
    h = spec.metric_at(z)
    hs = 0.5 * (h + h.conj().T)
    if np.abs(h - hs).max() > 1e-10 * max(1.0, np.abs(h).max()):
        raise MetricDegeneracyError("metric evaluation is not Hermitian")
    if np.linalg.eigvalsh(hs).min() < 1e-12:
        raise MetricDegeneracyError("metric not positive definite at the point")
    return h


def _check_reach(z: complex, cfg: FDConfig, route: str) -> None:
    if abs(z) + cfg.reach(route) >= 1.0:
        raise DiscDomainError(
            f"point {z} too close to the boundary for the {route} stencil "
            f"(reach {cfg.reach(route):.3g})"
        )


def _stencil(u, s: float) -> np.ndarray:
    """Points of one Wirtinger difference with step s around each point of u.

    Shape u.shape + (2, 4): steps (s/2, s); the last axis is u + t, u - t,
    u + it, u - it.
    """
    return np.asarray(u)[..., None, None] + np.array([[t, -t, 1j * t, -1j * t] for t in (s / 2, s)])


def _difference(f: np.ndarray, s: float, bar: bool) -> np.ndarray:
    """d (or dbar) from values f on a stencil, shape (..., 2, 4, n, n) -> (..., n, n).

    The central difference runs once over the steps axis; Richardson then
    combines its two steps (s/2, s) as (4 D(s/2) - D(s)) / 3, which cancels
    the O(s^2) error term, so halving s divides the error by about 16.
    """
    step = np.array([s / 2, s])[:, None, None]
    dx = (f[..., 0, :, :] - f[..., 1, :, :]) / (2 * step)
    dy = (f[..., 2, :, :] - f[..., 3, :, :]) / (2 * step)
    d = 0.5 * (dx + 1j * dy) if bar else 0.5 * (dx - 1j * dy)
    return (4.0 * d[..., 0, :, :] - d[..., 1, :, :]) / 3.0


def _metric_values(spec: KernelSpec, points: np.ndarray) -> tuple:
    """h = K^t at each distinct point of the array, and where each point's value is.

    Returns (values, where) with values[where[i]] = h(points.flat[i]).  The
    distinct points are evaluated in blocks of _BLOCK, those on the real
    axis as float64 and all others as complex128 (see the module docstring);
    a block with no point of one kind makes no call for that kind.
    """
    distinct, where = np.unique(points.ravel(), return_inverse=True)
    real = distinct.imag == 0
    values = np.empty(distinct.shape + (spec.rank, spec.rank), dtype=complex)
    for start in range(0, distinct.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        x, on_axis = distinct[block], real[block]
        if on_axis.any():
            values[block][on_axis] = spec.evaluate(x.real[on_axis], x.real[on_axis])
        if not on_axis.all():
            values[block][~on_axis] = spec.evaluate(x[~on_axis], x[~on_axis])
    return np.swapaxes(values, -1, -2), where


def _connection(spec: KernelSpec, u: np.ndarray, s: float) -> np.ndarray:
    """G = h^{-1} dh at every point of u, shape u.shape + (n, n).

    The metric is evaluated once for all points; G is then formed for
    _BLOCK // (stencil size) points of u at a time, so the stacks of metric
    values stay small.
    """
    around = _stencil(u, s).reshape(u.size, -1)
    points = np.concatenate([u.reshape(-1, 1), around], axis=1)
    values, where = _metric_values(spec, points)
    where = where.reshape(points.shape)
    n = values.shape[-1]
    G = np.empty((u.size, n, n), dtype=complex)
    step = max(1, _BLOCK // points.shape[1])
    for start in range(0, u.size, step):
        h = values[where[start : start + step]]
        dh = h[:, 1:].reshape((len(h), -1, 4, n, n))
        G[start : start + step] = np.linalg.solve(h[:, 0], _difference(dh, s, False))
    return G.reshape(u.shape + (n, n))


def _once_per_distinct(fn, u: np.ndarray) -> np.ndarray:
    """fn evaluated once per distinct point of u, gathered back to u.shape + fn's value shape.

    Equal points give equal stencils, so this is bit-identical to fn on all of u.
    """
    # ravel first: the inverse is then 1-D on numpy 1.x and 2.x alike
    distinct, where = np.unique(u.ravel(), return_inverse=True)
    values = fn(distinct)
    return values[where].reshape(u.shape + values.shape[1:])


def curvature_fd(spec: KernelSpec, z: complex, cfg: FDConfig = FDConfig()) -> np.ndarray:
    """Raw-frame curvature dbar(h^{-1} dh) at z by nested differences."""
    _check_reach(z, cfg, "curv")
    s1, s2 = cfg.ladder("curv")
    G = _connection(spec, _stencil(z, s2), s1)
    return _difference(G, s2, True)


def covd_zbar_fd(spec: KernelSpec, z: complex, cfg: FDConfig = FDConfig()) -> np.ndarray:
    """Raw-frame (0,1) covariant derivative: dbar of the curvature field."""
    _check_reach(z, cfg, "zbar")
    s1, s2, s3 = cfg.ladder("zbar")
    G = _once_per_distinct(lambda u: _connection(spec, u, s1), _stencil(_stencil(z, s3), s2))
    return _difference(_difference(G, s2, True), s3, True)


def covd_zzbar_fd(spec: KernelSpec, z: complex, cfg: FDConfig = FDConfig()) -> np.ndarray:
    """Raw-frame (1,1) covariant derivative dbar( d K + [G, K] ) at z.

    F = dK + [G, K] is needed on the s4 stencil of z; there K is needed at
    each point u and on its s3 stencil, and G at u and on the s2 stencils of
    all those K points.  One connection call covers every distinct G point.
    """
    _check_reach(z, cfg, "zzbar")
    s1, s2, s3, s4 = cfg.ladder("zzbar")
    outer = _stencil(z, s4)
    around = _stencil(outer, s3)
    k_points = np.concatenate([outer[..., None], around.reshape(outer.shape + (-1,))], axis=-1)
    g_points = _stencil(k_points, s2)
    G = _once_per_distinct(lambda u: _connection(spec, u, s1),
                           np.concatenate([outer.ravel(), g_points.ravel()]))
    n = G.shape[-1]
    g = G[: outer.size].reshape(outer.shape + (n, n))
    K = _difference(G[outer.size :].reshape(g_points.shape + (n, n)), s2, True)
    k = K[..., 0, :, :]
    dK = _difference(K[..., 1:, :, :].reshape(around.shape + (n, n)), s3, False)
    return _difference(dK + g @ k - k @ g, s4, True)


def to_orthonormal_frame(M: np.ndarray, h0: np.ndarray) -> np.ndarray:
    """Conjugate a raw-frame invariant into the frame orthonormal at the point.

    The holomorphic frame change g with g(point) = h0^{-1/2} makes the metric
    the identity there, and curvature-type tensors transform as g^{-1} M g,
    so the orthonormal value is h0^{1/2} M h0^{-1/2}.  The side of the square
    root (left +1/2, right -1/2) is pinned by the requirement that the
    oracle's output at 0 matches the series path; the matching test lives in
    the test suite.

    Raises ValueError when h0 is not finite or not Hermitian within 1e-12,
    and MetricDegeneracyError when an eigenvalue of h0 is below 1e-10.
    """
    h0 = np.asarray(h0, dtype=complex)
    if not np.isfinite(h0).all():
        raise ValueError("metric contains non-finite entries")
    defect = np.abs(h0.conj().T - h0).max(initial=0.0)
    if defect > 1e-12:
        raise ValueError(f"metric is not Hermitian within 1e-12 (defect {defect:.3e})")
    vals, vecs = np.linalg.eigh(h0)
    if vals.min() < 1e-10:
        raise MetricDegeneracyError(f"metric not positive definite (min eigenvalue {vals.min():.3e})")
    half = (vecs * np.sqrt(vals)) @ vecs.conj().T
    return half @ M @ np.linalg.inv(half)


def oracle_invariants_at_zero(spec: KernelSpec, cfg: FDConfig = FDConfig()) -> dict:
    """Orthonormal-frame oracle triple at 0.

    Returns plain matrices under keys 'curvature', 'd_zbar', 'd_zzbar';
    unlike the series path they carry finite-difference noise, so no
    Hermitian-validation gate is applied here.
    """
    h0 = metric_at(spec, 0.0)
    return {
        "curvature": to_orthonormal_frame(curvature_fd(spec, 0.0, cfg), h0),
        "d_zbar": to_orthonormal_frame(covd_zbar_fd(spec, 0.0, cfg), h0),
        "d_zzbar": to_orthonormal_frame(covd_zzbar_fd(spec, 0.0, cfg), h0),
    }


def curvature_eigenvalues_fd(spec: KernelSpec, z: complex, cfg: FDConfig = FDConfig()) -> np.ndarray:
    """Ascending real curvature eigenvalues at z (frame independent)."""
    vals = np.linalg.eigvals(curvature_fd(spec, z, cfg))
    return np.sort(vals.real)
