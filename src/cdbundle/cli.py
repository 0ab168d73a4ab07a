"""Command-line front end.

Subcommands: invariants, equiv, feasible, field, reproduce.  ``feasible``
solves the rank-3 problem for ``--triple`` (optionally over its orderings,
``--permutations``) and the rank-2 problem for ``--pair``.  Reports are
emitted as canonical JSON (schema "cdbundle/1"): object keys sorted, floats
printed with 17 significant digits, complex entries as {"re": .., "im": ..}
— byte-identical output for identical inputs, and parse/re-serialize is a
fixed point.

Exit codes: 0 success (and verdict "equivalent" for equiv), 2 argument or
spec parse failure, 3 numeric degeneracy or a value that fails its check:
for invariants an oracle residual above its tolerance (the report is still
printed); for field a row off the transport of the eigenvalues at 0, and for
feasible printed parameters whose kernel does not give back the diagonal
(nothing is printed or written then); 10 eigenvalues_match_only,
11 distinct; reproduce exits 1 when any assertion fails.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .equivalence import TOLERANCES, Verdict, full_report
from .errors import DiscDomainError
from .feasibility import permutation_analysis, rank2_feasibility, realized_diagonal, solve_triple
from .invariants import INVARIANT_ORDER, invariants_at_zero, transport_eigenvalues
from .kernels import Homogeneous, kernel_taylor, spec_from_dict, spec_to_dict
from .oracle import (
    ORACLE_CROSS_CHECK_TOL,
    curvature_eigenvalues_fd,
    oracle_invariants_at_zero,
)
from .reproduce import SCENARIOS

SCHEMA = "cdbundle/1"

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_EIGS_ONLY = 10
EXIT_DISTINCT = 11

# the class hierarchy of errors.py decides exit 3: every ArithmeticError (the metric, leading-term
# and witness errors, OverflowError) and the two ValueErrors that are numeric
_NUMERIC_ERRORS = (ArithmeticError, DiscDomainError, np.linalg.LinAlgError)
# each field row against the transport of the series eigenvalues at 0, relative to the
# row's largest; and each printed diagonal against the kernel's, relative to its largest
FIELD_TRANSPORT_TOL = 1e-5
ROUNDTRIP_TOL = 1e-9


def _fmt_float(x: float) -> str:
    if not np.isfinite(x):
        raise ValueError("non-finite value in report")
    return format(float(x), ".17g")


def canonical_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats, arrays as nested lists."""
    pad = " " * indent
    if isinstance(obj, np.ndarray):
        return canonical_json(obj.tolist(), indent)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {canonical_json(obj[k], indent + 2).lstrip()}'
            for k in sorted(obj, key=str)
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{pad}  {canonical_json(v, indent + 2).lstrip()}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return canonical_json({"im": float(obj.imag), "re": float(obj.real)}, indent)
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _load_spec(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
    return spec_from_dict(doc)


def _emit(command: str, report: dict) -> None:
    sys.stdout.write(canonical_json({"schema": SCHEMA, "command": command, **report}) + "\n")


def cmd_invariants(args) -> int:
    spec = _load_spec(args.kernel)
    inv = invariants_at_zero(kernel_taylor(spec, INVARIANT_ORDER))
    # a kernel that overflows on the oracle's torus ends in its OverflowError, not in warnings
    with np.errstate(over="ignore", invalid="ignore"):
        oracle = oracle_invariants_at_zero(spec)
    residuals = {k: float(np.abs(getattr(inv, k) - v).max()) for k, v in oracle.items()}
    report = {
        "inputs": {"kernel": spec_to_dict(spec)},
        "outputs": {
            "curvature": inv.curvature,
            "d_zbar": inv.d_zbar,
            "d_zzbar": inv.d_zzbar,
            "curvature_eigenvalues": [float(v) for v in inv.curvature_eigenvalues()],
            "oracle_residuals": residuals,
        },
        "tolerances": {"oracle_cross_check": ORACLE_CROSS_CHECK_TOL},
        "notes": [],
    }
    if args.json:
        _emit("invariants", report)
    else:
        print(f"kernel: {json.dumps(spec_to_dict(spec))}")
        with np.printoptions(precision=12, suppress=False, linewidth=120):
            for name in ("curvature", "d_zbar", "d_zzbar"):
                matrix = np.array(getattr(inv, name))
                # round-off in a cell that is 0 would print, and set the format of every cell
                matrix[np.abs(matrix) <= 1e-12 * np.abs(matrix).max()] = 0.0
                print(f"{name}(0):")
                print(matrix)
        print("oracle residuals:", {k: f"{v:.3e}" for k, v in residuals.items()})
    over = {k: v for k, v in residuals.items() if not v <= ORACLE_CROSS_CHECK_TOL}
    if over:
        listed = ", ".join(f"{k} {v:.3e}" for k, v in over.items())
        print(f"numeric error: oracle residuals above {ORACLE_CROSS_CHECK_TOL:g}: {listed}",
              file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_equiv(args) -> int:
    left = _load_spec(args.left)
    right = _load_spec(args.right)
    report = full_report(left, right)
    doc = {
        "inputs": {"left": spec_to_dict(left), "right": spec_to_dict(right)},
        "verdict": report.verdict.value,
        "certificate": report.certificate,
        "witness": report.witness,
        "witness_claims": list(report.witness_claims),
        "annotations": list(report.annotations),
        "tolerances": TOLERANCES,
    }
    _emit("equiv", doc)
    if report.verdict is Verdict.EQUIVALENT:
        return EXIT_OK
    if report.verdict is Verdict.EIGENVALUES_MATCH_ONLY:
        return EXIT_EIGS_ONLY
    return EXIT_DISTINCT


def _parse_tuple(text: str, n: int) -> tuple:
    parts = text.split(",")
    if len(parts) != n:
        raise ValueError(f"expected {n} comma-separated values, got {text!r}")
    values = tuple(float(p) for p in parts)
    for part, value in zip(parts, values):
        if not np.isfinite(value):
            raise ValueError(f"non-finite value {part!r} in {text!r}")
    return values


def _params(params) -> dict | None:
    """(lambda, mu1^2[, mu2^2]) of a feasibility answer as a report object; None stays None."""
    if not params:
        return None
    return dict(zip(("lambda", "mu1_sq", "mu2_sq"), params))


def _check_realized(kernel: Homogeneous, delta: tuple) -> None:
    """Raise ArithmeticError unless the series path reads `delta` back as the curvature
    diagonal at 0 of `kernel`, within ROUNDTRIP_TOL relative to its largest entry."""
    try:
        diagonal = realized_diagonal(kernel)
    except (ArithmeticError, ValueError) as exc:  # a degenerate metric, a lambda too large
        raise ArithmeticError(f"cannot check the parameters for {delta}: {exc}") from None
    miss = np.abs(diagonal - delta).max() / np.abs(delta).max()
    if not miss <= ROUNDTRIP_TOL:
        raise ArithmeticError(f"the parameters for {delta} give the curvature diagonal "
                              f"{tuple(diagonal.tolist())}, {miss:.3e} relative from it "
                              f"(tolerance {ROUNDTRIP_TOL:g})")


def cmd_feasible(args) -> int:
    if args.pair is not None:
        if args.triple is not None:
            raise ValueError("'--pair' (rank 2) and '--triple' (rank 3) are two modes; give one")
        if args.permutations:
            raise ValueError("'--permutations' does not go with --pair")
        d1, d2 = _parse_tuple(args.pair, 2)
        sol = rank2_feasibility(d1, d2)
        if sol is not None:
            _check_realized(Homogeneous(sol[0], (1.0, float(np.sqrt(sol[1]))), m=1), (d1, d2))
        doc = {
            "inputs": {"pair": [d1, d2], "rank2": True},
            "feasible": sol is not None,
            "params": _params(sol),
        }
        _emit("feasible", doc)
        return EXIT_OK
    if args.triple is None:
        raise ValueError("provide --triple d1,d2,d3 or --pair d1,d2")
    delta = _parse_tuple(args.triple, 3)
    res = solve_triple(delta)
    results = [res]
    doc = {
        "inputs": {"triple": list(delta), "permutations": bool(args.permutations)},
        "abc": list(res.abc),
        "checks": res.checks,
        "feasible": res.feasible,
        "params": _params(res.params),
    }
    if args.permutations:
        analysis = permutation_analysis(delta)
        doc["permutations"] = {
            "".join(map(str, s)): {
                "ordered": list(r.delta),
                "feasible": r.feasible,
                "params": _params(r.params),
            }
            for s, r in analysis.results.items()
        }
        doc["feasible_sigmas"] = ["".join(map(str, s)) for s in analysis.feasible_sigmas]
        doc["respects_exclusions"] = analysis.respects_exclusions()
        results += analysis.results.values()
    for r in {r.delta: r for r in results if r.feasible}.values():  # each printed set once
        _check_realized(r.kernel(), r.delta)
    _emit("feasible", doc)
    return EXIT_OK


def _check_transport(spec, points: list, rows: list) -> None:
    """Raise ArithmeticError unless each field row is the transport of the series path's
    eigenvalues at 0 to its point (x, y).  Every spec type is homogeneous, so it must be."""
    inv0 = invariants_at_zero(kernel_taylor(spec, INVARIANT_ORDER))
    misses = []
    for (x, y), eigs in zip(points, rows):
        want = transport_eigenvalues(inv0, complex(x, y))
        misses.append(np.abs(eigs - want).max() / np.abs(want).max())
    worst = int(np.argmax(misses))
    if not misses[worst] <= FIELD_TRANSPORT_TOL:
        x, y = points[worst]
        raise ArithmeticError(
            f"curvature eigenvalues at x = {x:.17g}, y = {y:.17g} miss the transport of those "
            f"at 0 by {misses[worst]:.3e} relative (tolerance {FIELD_TRANSPORT_TOL:g})")


def cmd_field(args) -> int:
    if args.grid < 3:  # a 2x2 grid's points all lie outside the radius
        raise ValueError(f"field needs --grid >= 3, got {args.grid}")
    spec = _load_spec(args.kernel)
    if not 0.0 < args.radius < 1.0:
        raise ValueError(f"radius must lie in (0, 1), got {args.radius}")
    axis = np.linspace(-args.radius, args.radius, args.grid)
    points = [(x, y) for y in axis for x in axis if np.hypot(x, y) <= args.radius + 1e-12]
    # a kernel that overflows near the edge ends in the oracle's OverflowError, not in warnings
    with np.errstate(over="ignore", invalid="ignore"):
        rows = [curvature_eigenvalues_fd(spec, complex(x, y)) for x, y in points]
    _check_transport(spec, points, rows)
    lines = ["x,y," + ",".join(f"eig{i + 1}" for i in range(spec.rank))]
    for (x, y), eigs in zip(points, rows):
        lines.append(",".join([_fmt_float(x), _fmt_float(y)] + [_fmt_float(v) for v in eigs]))
    payload = "\n".join(lines) + "\n"
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(payload)
    print(f"wrote {len(lines) - 1} rows to {args.out}")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    items = list(SCENARIOS[args.case]())  # a scenario that raises prints nothing
    records = [item for item in items if not isinstance(item, str)]
    for name, ok, detail in records:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    for note in items:
        if isinstance(note, str):
            print(f"note: {note}")
    passed = sum(bool(ok) for _, ok, _ in records)
    print(f"{args.case}: {passed}/{len(records)} assertions passed")
    return EXIT_OK if passed == len(records) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdbundle",
        description="Curvature invariants of kernel bundles on the unit disc",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="curvature invariants at 0 with oracle cross-check")
    p.add_argument("--kernel", required=True, help="kernel spec JSON file")
    p.add_argument("--json", action="store_true", help="emit the canonical JSON report")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("equiv", help="decide equivalence of two kernels")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("feasible", help="inverse eigenvalue feasibility")
    p.add_argument("--triple", help="d1,d2,d3")
    p.add_argument("--pair", help="d1,d2 (the rank-2 problem)")
    p.add_argument("--permutations", action="store_true")
    p.set_defaults(func=cmd_feasible)

    p = sub.add_parser("field", help="curvature eigenvalue field as CSV")
    p.add_argument("--kernel", required=True)
    p.add_argument("--grid", type=int, default=11)
    p.add_argument("--radius", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("reproduce", help="run a named counterexample scenario")
    p.add_argument("--case", required=True, choices=sorted(SCENARIOS))
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _NUMERIC_ERRORS as exc:
        # checked before ValueError: DiscDomainError and LinAlgError subclass it
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
