"""Deciders for (simultaneous) unitary equivalence of curvature data.

Scope: the structured matrix family the underlying theory actually covers —
diagonal curvature at the point, order-(0,1) derivatives supported on
entries that couple two *distinct* curvature eigenvalues (weighted-shift
shapes and their permuted copies), and diagonal order-(1,1) derivatives.
Anything else raises UnsupportedShapeError; a general rank-n decision
procedure is deliberately out of scope.

Intertwiner model.  Any C with C K1 = K2 C for diagonal K1, K2 is supported
on entries (i, j) with K2[i] = K1[j]; restricted to the shapes above, the
derivative constraint C T1 = T2 C then reduces, for each eigenvalue-
compatible index bijection, to a diagonal-scaling problem
d_i / d_j = T2[i,j] / (P T1 P^t)[i,j] over the support graph.  Unimodular
solutions give a genuine unitary witness.  When the curvature spectrum has
a repeated eigenvalue, a consistent *invertible* (not necessarily
unimodular) diagonal solution is accepted as Equivalent with the ratio
recorded in the certificate: for the rank-3 jet/direct-sum pair the
derivative moduli differ in orthonormal frames while a diagonal
intertwiner that is unitary for the *original* (unnormalized) fiber
metrics exists, and that metric-weighted notion is the one the verdict
tracks in this regime.
With all-distinct eigenvalues the moduli must match (the brute-force
unitary search over permutations with unimodular scalings agrees with the
decision there, which is also what rules the inverse-problem pairs out).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

import numpy as np

from .errors import UnsupportedShapeError, WitnessVerificationError
from .invariants import INVARIANT_ORDER, PointInvariants, invariants_at_zero
from .kernels import KernelSpec, kernel_taylor, permutation_matrix


class Verdict(str, Enum):
    EQUIVALENT = "equivalent"
    EIGENVALUES_MATCH_ONLY = "eigenvalues_match_only"
    DISTINCT = "distinct"


TOL_EIG = 1e-7
TOL_ZERO = 1e-9
TOL_INTERTWINE = 1e-8
TOL_UNITARY = 1e-10
TOLERANCES = {"eig": TOL_EIG, "zero": TOL_ZERO,
              "intertwine": TOL_INTERTWINE, "unitary": TOL_UNITARY}


@dataclass(frozen=True)
class EquivalenceReport:
    """A verdict, the certificate that records why, and the witness behind it.

    ``witness`` is set only when the pair decider finds the pair EQUIVALENT
    (``full_report`` keeps it when the (1,1) stage then splits the pair);
    ``witness_claims`` lists the checks it was verified against.
    ``surviving_maps`` are the index maps that passed the (0,1) analysis,
    which is what the (1,1) stage checks.
    """

    verdict: Verdict
    certificate: dict
    witness: Optional[np.ndarray] = None
    witness_claims: tuple = ()
    surviving_maps: tuple = ()
    annotations: tuple = ()


def _diagonal_part(m: np.ndarray, what: str) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    off = m - np.diag(np.diag(m))
    if np.abs(off).max(initial=0.0) > TOL_ZERO:
        raise UnsupportedShapeError(f"{what} must be diagonal within {TOL_ZERO:g}")
    d = np.diag(m)
    if np.abs(d.imag).max(initial=0.0) > 1e-7:
        raise UnsupportedShapeError(f"{what} must have a real diagonal")
    return d.real.copy()


def _derivative_support(T: np.ndarray, diag: np.ndarray) -> dict:
    """Nonzero entries of a (0,1) derivative, validated against the shapes in scope."""
    T = np.asarray(T, dtype=complex)
    support = {}
    n = T.shape[0]
    for i in range(n):
        for j in range(n):
            if abs(T[i, j]) <= TOL_ZERO:
                continue
            if i == j:
                raise UnsupportedShapeError(
                    "derivative with a diagonal entry is outside the decidable family"
                )
            if abs(diag[i] - diag[j]) <= TOL_EIG:
                raise UnsupportedShapeError(
                    "derivative entry couples a repeated curvature eigenvalue; "
                    "outside the decidable family"
                )
            support[(i, j)] = T[i, j]
    return support


def _allowed_bijections(d1: np.ndarray, d2: np.ndarray):
    """Index maps c with K1[c(i)] = K2[i]; the support pattern C[i, c(i)]."""
    n = len(d1)
    maps = []
    for perm in itertools.permutations(range(n)):
        if all(abs(d1[perm[i]] - d2[i]) <= TOL_EIG for i in range(n)):
            maps.append(perm)
    return maps


def _ratio_solution(X_support: dict, T2_support: dict, n: int):
    """Solve d_i X[i,j] / d_j = T2[i,j] on the common support.

    Returns None when no diagonal solves it, else (unimodular, d, ratios)
    where d is one concrete solution (components not touched by the
    support default to 1).
    """
    if set(X_support) != set(T2_support):
        return None
    ratios = {e: T2_support[e] / X_support[e] for e in X_support}
    # propagate d over the support graph, component by component
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = 1.0 + 0.0j
        changed = True
        while changed:
            changed = False
            for (i, j), r in ratios.items():
                if d[i] is not None and d[j] is None:
                    d[j] = d[i] / r
                    changed = True
                elif d[j] is not None and d[i] is None:
                    d[i] = d[j] * r
                    changed = True
    scale = max(1.0, max(abs(v) for v in T2_support.values()))
    if not all(  # a NaN residual fails too
        abs(d[i] * X_support[(i, j)] / d[j] - T2_support[(i, j)]) <= TOL_INTERTWINE * scale
        for (i, j) in X_support
    ):
        return None
    unimodular = all(abs(abs(r) - 1.0) <= 1e-7 for r in ratios.values())
    return unimodular, np.array(d, dtype=complex), ratios


def _solutions(hits) -> list:
    """Certificate records of (map, unimodular, d, ratios) hits."""
    return [
        {
            "map": list(c),
            "diagonal": [complex(v) for v in d],
            "ratios": {f"{i},{j}": complex(r) for (i, j), r in ratios.items()},
        }
        for c, _, d, ratios in hits
    ]


def _require(residual: float, tol: float, what: str) -> None:
    if not residual <= tol:  # a NaN residual fails too
        raise WitnessVerificationError(
            f"witness fails the {what} check ({residual:.3e} > {tol:.3e})")


def _verify_witness(U, K1, K2, T1, T2, claims):
    n = U.shape[0]
    _require(np.abs(U.conj().T @ U - np.eye(n)).max(), TOL_UNITARY, "unitarity")
    _require(np.abs(U @ K1 - K2 @ U).max(),
             TOL_INTERTWINE * max(1.0, np.abs(K1).max()), "curvature")
    if "d_zbar" in claims:
        _require(np.abs(U @ T1 - T2 @ U).max(),
                 TOL_INTERTWINE * max(1.0, np.abs(T1).max()), "d_zbar")


def simultaneous_pair_equiv(inv1: PointInvariants, inv2: PointInvariants) -> EquivalenceReport:
    """Decide simultaneous equivalence of (curvature, (0,1) derivative) at a point.

    Pipeline: (i) eigenvalue multisets with multiplicity (within TOL_EIG),
    else DISTINCT; (ii) eigenvalue-compatible index bijections (support
    constraint for any intertwiner of diagonal curvatures); (iii) diagonal-
    scaling solve of the derivative constraint per bijection, with the
    unimodular/invertible distinction described in the module docstring;
    (iv) a derivative that vanishes on exactly one side fails at the (0,1)
    level.  Entries within TOL_ZERO count as zero.

    An EQUIVALENT report always lists at least one index map in
    ``surviving_maps``: the maps that passed the (0,1) analysis, which is
    what :func:`zzbar_distinguishes` checks at order (1,1).
    """
    if inv1.rank > 3 or inv2.rank > 3:
        raise UnsupportedShapeError("pair decider covers rank <= 3 only")
    K1 = np.asarray(inv1.curvature, dtype=complex)
    K2 = np.asarray(inv2.curvature, dtype=complex)
    d1 = _diagonal_part(K1, "curvature 1")
    d2 = _diagonal_part(K2, "curvature 2")
    if len(d1) != len(d2) or np.abs(np.sort(d1) - np.sort(d2)).max() > TOL_EIG:
        return EquivalenceReport(Verdict.DISTINCT, {
            "level": "spectrum",
            "reason": "curvature eigenvalue multisets differ",
            "spectrum_1": sorted(d1.tolist()),
            "spectrum_2": sorted(d2.tolist()),
        })

    n = len(d1)
    T1 = np.asarray(inv1.d_zbar, dtype=complex)
    T2 = np.asarray(inv2.d_zbar, dtype=complex)
    sup1 = _derivative_support(T1, d1)
    sup2 = _derivative_support(T2, d2)
    maps = _allowed_bijections(d1, d2)

    def witnessed(U, claims, certificate, surviving):
        _verify_witness(U, K1, K2, T1, T2, claims)
        return EquivalenceReport(Verdict.EQUIVALENT, {"level": "(0,1)", **certificate},
                                 witness=U, witness_claims=claims, surviving_maps=surviving)

    if not sup1 and not sup2:
        return witnessed(permutation_matrix([j + 1 for j in maps[0]]), ("curvature", "d_zbar"),
                         {"reason": "both derivatives vanish"}, tuple(maps))
    if bool(sup1) != bool(sup2):
        return EquivalenceReport(Verdict.EIGENVALUES_MATCH_ONLY, {
            "level": "(0,1)",
            "reason": "derivative vanishes on one side only",
            "vanishing_side": 1 if not sup1 else 2,
        })

    hits = []  # (map, unimodular, d, ratios) for each map that solves the ratio condition
    for c in maps:
        # X[a,b] = T1[c(a), c(b)]
        solution = _ratio_solution({(c.index(i), c.index(j)): v for (i, j), v in sup1.items()},
                                   sup2, n)
        if solution is not None:
            hits.append((c, *solution))
    surviving = tuple(c for c, *_ in hits)
    unitary = [h for h in hits if h[1]]
    if unitary:
        c, _, d, _ = unitary[0]
        U = np.diag(d / np.abs(d)) @ permutation_matrix([j + 1 for j in c])
        return witnessed(U, ("curvature", "d_zbar"), {
            "reason": "unitary intertwiner found", "solutions": _solutions(unitary),
        }, surviving)

    repeated = any(
        abs(d1[i] - d1[j]) <= TOL_EIG for i in range(n) for j in range(i + 1, n)
    )
    if hits and repeated:
        # Repeated-eigenvalue regime: an invertible diagonal intertwiner with
        # consistent ratios counts as equivalent (metric-weighted unitary in
        # the raw frames); the witness covers the curvature level only and the
        # certificate carries the ratio data.
        return witnessed(permutation_matrix([j + 1 for j in hits[0][0]]), ("curvature",), {
            "reason": "invertible diagonal intertwiner (ratio condition); "
            "repeated curvature eigenvalue permits a metric-weighted unitary",
            "solutions": _solutions(hits),
        }, surviving)
    if hits:
        return EquivalenceReport(Verdict.EIGENVALUES_MATCH_ONLY, {
            "level": "(0,1)",
            "reason": "derivative intertwiner requires non-unimodular scaling "
            "(modulus mismatch) and the curvature spectrum is simple",
            "solutions": _solutions(hits),
        })
    return EquivalenceReport(Verdict.EIGENVALUES_MATCH_ONLY, {
        "level": "(0,1)",
        "reason": "no eigenvalue-compatible index map carries one derivative "
        "support onto the other (ratio condition unsatisfiable)",
    })


def zzbar_distinguishes(inv1: PointInvariants, inv2: PointInvariants, maps) -> bool:
    """True iff the order-(1,1) derivatives rule out every index map in ``maps``.

    ``maps`` are the 0-indexed maps c that survived the (0,1) analysis
    (``EquivalenceReport.surviving_maps``); with none given, nothing is left
    to rule out and the answer is True.  For diagonal (1,1) derivatives,
    conjugation by any diagonal-times-permutation intertwiner permutes the
    diagonal, so the check is an entrywise comparison z1[c(i)] = z2[i]
    within TOL_EIG (relative to the largest entry) under each map.
    """
    if inv1.d_zzbar is None or inv2.d_zzbar is None:
        raise ValueError("both inputs need an order-(1,1) derivative")
    z1 = _diagonal_part(inv1.d_zzbar, "d_zzbar 1")
    z2 = _diagonal_part(inv2.d_zzbar, "d_zzbar 2")
    scale = max(1.0, np.abs(z1).max(), np.abs(z2).max())
    for c in maps:
        if max(abs(z1[c[i]] - z2[i]) for i in range(len(z1))) <= TOL_EIG * scale:
            return False
    return True


def full_report(spec1: KernelSpec, spec2: KernelSpec) -> EquivalenceReport:
    """Taylor -> invariants at 0 -> pair decider -> (1,1) distinguisher."""
    if spec1.rank != spec2.rank:
        return EquivalenceReport(Verdict.DISTINCT, {
            "level": "spectrum",
            "reason": f"bundle ranks differ ({spec1.rank} vs {spec2.rank})",
        })
    inv1 = invariants_at_zero(kernel_taylor(spec1, INVARIANT_ORDER))
    inv2 = invariants_at_zero(kernel_taylor(spec2, INVARIANT_ORDER))
    report = simultaneous_pair_equiv(inv1, inv2)

    if (report.verdict is Verdict.EQUIVALENT
            and zzbar_distinguishes(inv1, inv2, report.surviving_maps)):
        report = replace(
            report,
            verdict=Verdict.EIGENVALUES_MATCH_ONLY,
            certificate={
                **report.certificate,
                "level": "(1,1)",
                "reason": "order-(1,1) derivative diagonals differ under every "
                "intertwiner surviving the (0,1) analysis",
                "zzbar_diag_1": np.real(np.diag(inv1.d_zzbar)).tolist(),
                "zzbar_diag_2": np.real(np.diag(inv2.d_zzbar)).tolist(),
            },
        )
    # every zoo kernel is Mobius-homogeneous (direct sums and permutations of
    # homogeneous kernels stay homogeneous), so the verdict at 0 carries over
    return replace(report, annotations=report.annotations + (
        "both kernels are Mobius-homogeneous: the verdict at 0 determines "
        "the simultaneous equivalence class at every point of the disc",
    ))
