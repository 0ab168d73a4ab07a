"""Compare the CLI of two source trees, byte for byte, over one fixed invocation list.

    python tests/cli_snapshot.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold a ``cdbundle`` package (a checkout's
``src``). Spec files are written once to a temporary directory. For each tree, one
child process with ``PYTHONPATH`` set to that tree and bytecode writing off runs every
invocation through ``cdbundle.cli.main`` and records stdout, stderr, the exit code
and the CSV that ``field`` writes, with the temporary directory replaced by ``<TMP>``.
The script prints one line per invocation, and for each mismatch the first differing
line; when any call differs, one tally line follows, counting the differing calls per
subcommand and per changed stream, named as in those lines (stdout, stderr, csv for the
file, exit for the exit code); it exits 1 on any mismatch. The two trees run on one
machine: the list is compared, never stored, because BLAS can sum in another order
elsewhere.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

sys.dont_write_bytecode = True

# runs in each child: argv lists on stdin, one [stdout, stderr, csv, exit] record per
# invocation as JSON on stdout
_CHILD = r"""
import contextlib, io, json, os, sys, warnings
from cdbundle.cli import main
warnings.simplefilter("always")
out = []
for argv in json.load(sys.stdin):
    csv = next((argv[i + 1] for i, a in enumerate(argv) if a == "--out"), None)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    written = None
    if csv and os.path.exists(csv):
        with open(csv, encoding="utf-8", newline="") as fh:
            written = fh.read()
        os.remove(csv)
    out.append([stdout.getvalue(), stderr.getvalue(), written, code])
sys.__stdout__.write(json.dumps(out))
"""

PAPER_TRIPLES = ["1,2,10.5", "0.5,7.5,8", "2,1,10.5", "1,2,9.5", "0.25,7.5,8"]
FEASIBLE_ARGV = (
    [["feasible", "--triple", t] for t in PAPER_TRIPLES]
    + [["feasible", "--triple", t, "--permutations"] for t in PAPER_TRIPLES]
    + [
        ["feasible", "--triple", "5,1,2"],  # infeasible
        ["feasible", "--triple", "5,1,2", "--permutations"],
        ["feasible", "--triple", "1,2,6"],  # b = 0 exactly
        ["feasible", "--triple", "0,3,7"],  # boundary: delta_1 = 0
        ["feasible", "--triple", "0,3,7", "--permutations"],
        ["feasible", "--triple", "1e308,1e308,1e308"],  # overflow in a
        ["feasible", "--triple", "1e200,1e200,3e200", "--permutations"],  # overflow in mu2_pos
        ["feasible", "--triple", "1,2,1e10"],  # mu2_pos lhs in the deltas, no cancellation
        ["feasible", "--triple", "1,2,1e18"],
        ["feasible", "--triple", "1,2,1e18", "--permutations"],
        ["feasible", "--triple", "1,2,5e5"],  # mu_1^2 below the metric's 1e-10 floor
        ["feasible", "--triple", "1,2,1e6"],
        ["feasible", "--triple", "1,2,1e6", "--permutations"],
        ["feasible", "--triple", "nan,2,10"],
        ["feasible", "--triple", "1,2"],
        ["feasible", "--pair", "1,5"],
        ["feasible", "--pair", "5,1"],
        ["feasible", "--pair", "1,3"],  # boundary gap = 2
        ["feasible", "--pair", "1e308,1.7e308"],
        ["feasible", "--pair", "1e400,5"],
        ["feasible", "--pair", "1e160,3e160"],  # feasible, but lambda too large for the lattice
        ["feasible", "--pair", "1,5", "--triple", "1,2,10"],  # mode conflicts
        ["feasible", "--pair", "1,5", "--permutations"],
        ["feasible", "--pair", "1,5", "--rank2"],
        ["feasible"],
    ]
)
MALFORMED = {
    "not_json.json": "{",
    "unknown_type.json": {"type": "szego"},
    "mistyped_k.json": {"type": "jet", "alpha": 1.0, "beta": 2.0, "k": 1.7},
    "null_mu.json": {"type": "homogeneous", "lambda": 2.0, "mu": None, "m": 2},
    "extra_field.json": {"type": "bergman", "lambda": 2.0, "weight": 1},
    "deep.json": '{"type": "direct_sum", "parts": [' * 1500 + '{"type": "bergman", "lambda": 2}'
                 + "]}" * 1500,
}
NUMERIC_EDGES = {
    "bergman_1000.json": {"type": "bergman", "lambda": 1000},
    "bergman_1e6.json": {"type": "bergman", "lambda": 1e6},
    "hom_mu_1e150.json": {"type": "homogeneous", "lambda": 2, "mu": [1, 1e150, 1], "m": 2},
    "hom_mu_1e200.json": {"type": "homogeneous", "lambda": 2, "mu": [1, 1e200, 1], "m": 2},
    "hom_lambda_1e200.json": {"type": "homogeneous", "lambda": 1e200, "mu": [1, 2], "m": 1},
}


def _put(tmp: Path, name: str, doc) -> str:
    path = tmp / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    return str(path)


def invocations(tmp: Path) -> list:
    """The fixed invocation list, over spec files written once to tmp."""
    from conftest import held_out_corpus, zoo_fixtures

    from cdbundle.feasibility import RHO, TAU, solve_triple
    from cdbundle.kernels import spec_to_dict
    from cdbundle.reproduce import example1_pair, example2_pair

    zoo = [_put(tmp, f"zoo_{n}.json", spec_to_dict(s)) for n, s in zoo_fixtures()]
    held_out = [_put(tmp, f"held_{n}.json", spec_to_dict(s)) for n, s in held_out_corpus()]
    pairs = [example1_pair()] + [example2_pair(a, b) for a in (1.0, 2.0) for b in (1.0, 2.0)]
    paper = [(_put(tmp, f"paper{i}_left.json", spec_to_dict(left)),
              _put(tmp, f"paper{i}_right.json", spec_to_dict(right)))
             for i, (left, right) in enumerate(pairs)]
    # the kernels of the perm1 and perm2 triples of reproduce and of their partner orderings
    perm = []
    for i, (delta, sigma) in enumerate([((1.0, 2.0, d3), RHO) for d3 in (9.5, 10.5, 11.5)]
                                       + [((d1, 7.5, 8.0), TAU) for d1 in (0.25, 0.5, 0.75)]):
        partner = tuple(delta[s - 1] for s in sigma)
        perm.append(tuple(_put(tmp, f"perm{i}_{side}.json", spec_to_dict(solve_triple(d).kernel()))
                          for side, d in (("left", delta), ("right", partner))))
    edges = [_put(tmp, name, doc) for name, doc in NUMERIC_EDGES.items()]
    bad = [_put(tmp, name, doc) for name, doc in MALFORMED.items()] + [str(tmp / "missing.json")]
    out = str(tmp / "field.csv")
    argv = []
    for path in zoo + held_out + edges + bad:
        argv += [["invariants", "--kernel", path, "--json"], ["invariants", "--kernel", path]]
    for path in zoo + edges + bad:
        argv.append(["field", "--kernel", path, "--grid", "5", "--out", out])
    argv += [
        ["field", "--kernel", edges[0], "--radius", "0.9", "--grid", "5", "--out", out],
        ["field", "--kernel", zoo[0], "--grid", "2", "--out", out],
        ["field", "--kernel", zoo[0], "--radius", "1.5", "--out", out],
    ]
    argv += [["equiv", "--left", a, "--right", b] for a in zoo for b in zoo]
    argv += [["equiv", "--left", a, "--right", b] for a, b in paper]
    argv += [["equiv", "--left", a, "--right", b] for pair in perm for a, b in (pair, pair[::-1])]
    argv += [["equiv", "--left", a, "--right", zoo[0]] for a in edges + bad]
    argv += FEASIBLE_ARGV
    argv += [["reproduce", "--case", c] for c in ("example1", "example2", "perm1", "perm2", "rank2")]
    return argv


def run_tree(src: str, tmp: Path, argv: list) -> list:
    """One record per invocation, with the temporary directory written as <TMP>."""
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve()), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-B", "-c", _CHILD], input=json.dumps(argv),
                          capture_output=True, text=True, env=env, cwd=tmp, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{src}: the child process failed (exit {proc.returncode}):\n{proc.stderr}")
    return [[f.replace(str(tmp), "<TMP>") if isinstance(f, str) else f for f in record]
            for record in json.loads(proc.stdout)]


STREAMS = ("stdout", "stderr", "csv", "exit")


def first_difference(old: list, new: list) -> str:
    for what, a, b in zip(STREAMS, old, new):
        if a == b:
            continue
        if not isinstance(a, str) or not isinstance(b, str):
            return f"{what}: {a!r} != {b!r}"
        la, lb = a.splitlines(), b.splitlines()
        k = next((i for i, (x, y) in enumerate(zip(la, lb)) if x != y), min(len(la), len(lb)))
        x = la[k] if k < len(la) else "<end>"
        y = lb[k] if k < len(lb) else "<end>"
        return f"{what} line {k + 1}: {x!r} != {y!r}"
    return ""


def main() -> int:
    args = sys.argv[1:]
    if len(args) != 2:
        print("usage: python tests/cli_snapshot.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    old_src, new_src = args
    sys.path[:0] = [str(Path(new_src).resolve()), str(Path(__file__).parent)]
    with tempfile.TemporaryDirectory() as tmp_name:
        tmp = Path(tmp_name)
        calls = invocations(tmp)
        old, new = run_tree(old_src, tmp, calls), run_tree(new_src, tmp, calls)
    same = 0
    tally = {}  # subcommand -> differing calls and, per stream, the calls it differs in
    for call, a, b in zip(calls, old, new):
        label = " ".join(call).replace(tmp_name, "<TMP>")
        diff = first_difference(a, b)
        same += not diff
        print(f"same  {label}" if not diff else f"DIFF  {label}\n      {diff}")
        if diff:
            counts = tally.setdefault(call[0], Counter())
            counts["calls"] += 1
            counts.update(what for what, x, y in zip(STREAMS, a, b) if x != y)
    if tally:
        print("differing: " + "; ".join(
            f"{command} {c['calls']} (" + ", ".join(f"{w} {c[w]}" for w in STREAMS if c[w]) + ")"
            for command, c in tally.items()))
    print(f"{same}/{len(calls)} identical")
    return 0 if same == len(calls) else 1


if __name__ == "__main__":
    sys.exit(main())
