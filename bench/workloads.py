"""The benchmark's seeded workloads: inputs, timed operations and output checks.

Each workload is a fixed multiset of operations (one "round"), generated from
the seed.  The benchmark runs rounds in a seeded order, so every round does
the same work and the per-round counters of a traced run repeat exactly.
An operation is a call into the library's public functions (or one CLI
process); its reference is computed before any timing and its check returns
the largest ratio of deviation to tolerance, raising ``CheckFailed`` on any
other miss.  The library only ever sees the generated specs, triples, points
and spec files.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from cdbundle import equivalence as eq
from cdbundle import feasibility as fe
from cdbundle import invariants as iv
from cdbundle import kernels as kn
from cdbundle import oracle as orc
from cdbundle import reproduce as rp
from cdbundle.kernels import BergmanPower, DirectSum, Homogeneous, Jet, Permuted
from cdbundle.series import DEFAULT_ORDER

import env

WHY = {
    "series_report": "series path only: Taylor lattice, normalize, invariants, deciders and "
                     "feasibility on the paper's pairs and triples; the oracle is never called",
    "oracle_point": "deep nested oracle stencils at 0 on every zoo kernel, where about half the "
                    "metric calls revisit a point; the series path is bypassed",
    "field_grid": "shallow oracle stencils at the 81 jittered points of a kernel's disc grid, which "
                  "never overlap, so batching across points helps and de-duplication does not",
    "cli_calls": "sequential CLI processes: interpreter start, import, argparse, spec files and "
                 "canonical JSON, the only end-to-end path from process start to last byte",
}
WORKLOADS = tuple(WHY)

CLOSED_FORM_TOL = 1e-10  # README: series invariants against printed closed forms
ORACLE_TOL = 1e-5  # README: oracle against the series path at 0
FIELD_REL_TOL = 1e-5  # curvature field against transport of the invariants at 0
ROUNDTRIP_TOL = 1e-9
SCHEMA = "cdbundle/1"
EIGS_ONLY = "eigenvalues_match_only"
EXIT_EIGS_ONLY = 10


class CheckFailed(Exception):
    pass


@dataclass
class Op:
    kind: str
    key: str  # names the input; equal keys mean equal inputs
    run: Callable[[], object]  # the timed call
    reference: Callable[[], object]  # computed before timing
    check: Callable[[object, object], float]  # -> max deviation / tolerance


def zoo():
    """The kernel fixture set of the test suite's oracle/series cross-checks."""
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


def paper_pairs():
    """(name, (left, right), expected certificate level); every verdict is eigenvalues-only."""
    pairs = [("example1", rp.example1_pair(), "(0,1)")]
    for alpha in (1.0, 2.0):
        for beta in (1.0, 2.0):
            pairs.append((f"example2_a{alpha:g}_b{beta:g}", rp.example2_pair(alpha, beta), "(1,1)"))
    return pairs


# (triple, partner ordering) from the perm1 and perm2 scenarios of ``reproduce``
PERM_TRIPLES = [((1.0, 2.0, d3), fe.RHO) for d3 in (9.5, 10.5, 11.5)] + [
    ((d1, 7.5, 8.0), fe.TAU) for d1 in (0.25, 0.5, 0.75)
]


def _block_diag(blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=complex)
    at = 0
    for b in blocks:
        out[at:at + b.shape[0], at:at + b.shape[0]] = b
        at += b.shape[0]
    return out


def closed_forms(spec):
    """(curvature, (0,1), (1,1)) at 0 from printed closed forms; (1,1) may be None.

    Built from ``reproduce.ds_jet_closed_forms`` (Bergman line, rank-2 and
    rank-3 jets) and ``invariants.homogeneous_invariants_closed``, none of
    which goes through the series path.
    """
    if isinstance(spec, BergmanPower):
        lam = spec.lam
        return np.array([[lam]], complex), np.zeros((1, 1), complex), np.array([[2 * lam]], complex)
    if isinstance(spec, Jet) and spec.k == 1:
        # the rank-2 jet block of the example-2 direct sum, whose beta' = 1.5 beta + 2
        (K1, T1, Z1), _ = rp.ds_jet_closed_forms(spec.alpha, (spec.beta - 2.0) / 1.5)
        return K1[1:, 1:], T1[1:, 1:], Z1["with_plus2"][1:, 1:]
    if isinstance(spec, Jet) and spec.k == 2:
        return rp.ds_jet_closed_forms(spec.alpha, spec.beta)[1]
    if isinstance(spec, DirectSum):
        parts = [closed_forms(p) for p in spec.parts]
        return tuple(None if any(p[i] is None for p in parts) else _block_diag([p[i] for p in parts])
                     for i in range(3))
    if isinstance(spec, Homogeneous):
        inv = iv.homogeneous_invariants_closed(spec.lam, spec.mu, spec.m)
        return inv.curvature, inv.d_zbar, None
    if isinstance(spec, Permuted):
        p = kn.permutation_matrix(spec.sigma)
        return tuple(None if m is None else p @ m @ p.T for m in closed_forms(spec.inner))
    raise TypeError(f"no closed form for {spec!r}")


def _ratio(got, want, tol: float) -> float:
    return float(np.abs(np.asarray(got) - np.asarray(want)).max()) / tol


def _need(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _closed_form_ratio(curvature, d_zbar, d_zzbar, closed) -> float:
    K, T, Z = closed
    worst = max(_ratio(curvature, K, CLOSED_FORM_TOL), _ratio(d_zbar, T, CLOSED_FORM_TOL))
    if Z is not None:
        worst = max(worst, _ratio(d_zzbar, Z, CLOSED_FORM_TOL))
    return worst


# -- series_report -----------------------------------------------------------


def _full_report_op(name, pair, level):
    def run():
        return eq.full_report(*pair)

    def check(report, _ref):
        _need(report.verdict.value == EIGS_ONLY, f"{name}: verdict {report.verdict.value}")
        _need(report.certificate["level"] == level,
              f"{name}: certificate level {report.certificate['level']}, expected {level}")
        return 0.0

    return Op("full_report", name, run, lambda: None, check)


def _invariants_op(name, spec):
    def run():
        lattice = kn.kernel_taylor(spec, DEFAULT_ORDER)
        inv = iv.invariants_at_zero(lattice)
        return inv, [iv.covd_zbar_n_at_zero(lattice, n) for n in (1, 2, 3, 4)]

    def check(out, closed):
        inv, covd = out
        worst = _closed_form_ratio(inv.curvature, inv.d_zbar, inv.d_zzbar, closed)
        worst = max(worst, _ratio(covd[0], closed[1], CLOSED_FORM_TOL))
        # the (0,n) derivatives are powers of a nilpotent weighted shift: zero from n = rank on
        for n, m in enumerate(covd, start=1):
            if n >= spec.rank:
                worst = max(worst, _ratio(m, 0.0, CLOSED_FORM_TOL))
        return worst

    return Op("invariants", name, run, lambda: closed_forms(spec), check)


def _perm_op(delta, partner):
    def run():
        return fe.permutation_analysis(delta), fe.roundtrip_check(delta)

    def check(out, _ref):
        analysis, residual = out
        got = set(analysis.feasible_sigmas)
        _need(got == {fe.IDENTITY, partner}, f"{delta}: feasible orderings {sorted(got)}")
        _need(analysis.respects_exclusions(), f"{delta}: an excluded ordering is feasible")
        return residual / ROUNDTRIP_TOL

    return Op("permutations", f"{delta}", run, lambda: None, check)


def _series_report(rng, workdir, cli):
    ops = [_full_report_op(*p) for p in paper_pairs()]
    ops += [_invariants_op(name, spec) for name, spec in zoo()]
    ops += [_perm_op(delta, partner) for delta, partner in PERM_TRIPLES]
    smoke = next(op for op in ops if op.key == "example2_a1_b2")
    return ops, smoke


# -- oracle_point ------------------------------------------------------------


def _oracle_op(name, spec):
    def run():
        return orc.oracle_invariants_at_zero(spec)

    def reference():
        return iv.invariants_at_zero(kn.kernel_taylor(spec, DEFAULT_ORDER))

    def check(out, ref):
        return max(_ratio(out[k], getattr(ref, k), ORACLE_TOL)
                   for k in ("curvature", "d_zbar", "d_zzbar"))

    return Op("oracle_invariants_at_zero", name, run, reference, check)


def _oracle_point(rng, workdir, cli):
    ops = [_oracle_op(name, spec) for name, spec in zoo()]
    return ops, ops[0]


# -- field_grid --------------------------------------------------------------

FIELD_GRID = 11  # the `cdbundle field` defaults
FIELD_RADIUS = 0.5
FIELD_JITTER = 0.02  # a fifth of the grid spacing, far beyond the stencil reach
FIELD_JITTER_SEED = 20240817


def field_points(rng):
    axis = np.linspace(-FIELD_RADIUS, FIELD_RADIUS, FIELD_GRID)
    grid = [complex(x, y) for y in axis for x in axis if np.hypot(x, y) <= FIELD_RADIUS + 1e-12]
    shift = rng.uniform(-FIELD_JITTER, FIELD_JITTER, size=(len(grid), 2))
    return [z + complex(dx, dy) for z, (dx, dy) in zip(grid, shift)]


def _field_op(name, spec, points):
    def run():
        return [orc.curvature_eigenvalues_fd(spec, z) for z in points]

    def reference():
        inv0 = iv.invariants_at_zero(kn.kernel_taylor(spec, DEFAULT_ORDER))
        return [iv.transport_eigenvalues(inv0, z) for z in points]

    def check(field, ref):
        return max(float(np.abs(e - r).max() / np.abs(r).max()) for e, r in zip(field, ref)
                   ) / FIELD_REL_TOL

    return Op("curvature_field", name, run, reference, check)


def _field_grid(rng, workdir, cli):
    # The jitter is fixed: the worst round-off over jittered points moves by a third of its
    # median from one jitter to the next, which would swamp err_to_tol_max.  The seed orders
    # each kernel's points.
    jitter = np.random.default_rng(FIELD_JITTER_SEED)
    ops = []
    for name, spec in zoo():
        points = field_points(jitter)
        ops.append(_field_op(name, spec, [points[i] for i in rng.permutation(len(points))]))
    return ops, ops[0]


# -- cli_calls ---------------------------------------------------------------


@dataclass
class CliResult:
    code: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int


class CliRunner:
    """Runs ``python -m cdbundle`` to completion, one process at a time.

    With ``tracer`` set and an operation open, the process runs under
    ``cli_shim.py`` instead, and its spans are merged into the tracer.
    """

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = env.child_env()
        self.tracer = None

    def __call__(self, args) -> CliResult:
        spans = self.workdir / "spans.json"
        traced = self.tracer is not None and self.tracer.op is not None
        if traced:
            spans.unlink(missing_ok=True)
            cmd = [sys.executable, str(Path(__file__).with_name("cli_shim.py")), str(spans), *args]
        else:
            cmd = [sys.executable, "-m", "cdbundle", *args]
        errpath = self.workdir / "stderr.txt"
        with open(errpath, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=self.env,
                                    cwd=env.ROOT)
            try:
                out = proc.stdout.read()
            finally:
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
        if traced:
            self.tracer.merge(spans)
        return CliResult(proc.returncode, out, errpath.read_bytes(), usage.ru_maxrss)


def _shuffled_json(obj, rng):
    """The same spec with seeded key order, so the parser sees varied files."""
    if isinstance(obj, dict):
        keys = list(obj)
        return {keys[i]: _shuffled_json(obj[keys[i]], rng) for i in rng.permutation(len(keys))}
    if isinstance(obj, list):
        return [_shuffled_json(v, rng) for v in obj]
    return obj


def _write_spec(spec, path, rng):
    indent = [None, 1, 2, 4][rng.integers(4)]
    path.write_text(json.dumps(_shuffled_json(kn.spec_to_dict(spec), rng), indent=indent) + "\n",
                    encoding="utf-8")
    return str(path)


def _matrix(rows):
    return np.array([[complex(v["re"], v["im"]) for v in row] for row in rows])


def _cli_op(kind, key, args, cli, check_doc, expect_code=0):
    seen = {}  # first output, against which repeats must be byte-identical

    def run():
        return cli(args)

    def check(res, _ref):
        _need(res.code == expect_code,
              f"{key}: exit {res.code}, expected {expect_code}: {res.stderr[-300:]!r}")
        first = seen.setdefault("stdout", res.stdout)
        _need(res.stdout == first, f"{key}: output differs from the first call")
        if kind == "reproduce":
            return check_doc(res.stdout.decode())
        doc = json.loads(res.stdout)
        _need(doc.get("schema") == SCHEMA, f"{key}: schema {doc.get('schema')!r}")
        return check_doc(doc)

    return Op(kind, key, run, lambda: None, check)


def _cli_invariants(name, spec, path, cli):
    closed = closed_forms(spec)

    def check_doc(doc):
        out = doc["outputs"]
        worst = _closed_form_ratio(_matrix(out["curvature"]), _matrix(out["d_zbar"]),
                                   _matrix(out["d_zzbar"]), closed)
        tol = doc["tolerances"]["oracle_cross_check"]
        _need(tol == ORACLE_TOL, f"{name}: oracle tolerance {tol}")
        return max(worst, max(out["oracle_residuals"].values()) / ORACLE_TOL)

    return _cli_op("invariants", f"invariants {name}",
                   ["invariants", "--kernel", path, "--json"], cli, check_doc)


def _cli_equiv(name, left, right, level, cli):
    def check_doc(doc):
        _need(doc["verdict"] == EIGS_ONLY, f"equiv {name}: verdict {doc['verdict']}")
        _need(doc["certificate"]["level"] == level,
              f"equiv {name}: level {doc['certificate']['level']}")
        return 0.0

    return _cli_op("equiv", f"equiv {name}", ["equiv", "--left", left, "--right", right], cli,
                   check_doc, expect_code=EXIT_EIGS_ONLY)


def _cli_feasible(delta, partner, cli):
    want = sorted("".join(map(str, s)) for s in (fe.IDENTITY, partner))

    def check_doc(doc):
        _need(doc["feasible"] is True, f"feasible {delta}: not feasible")
        _need(sorted(doc["feasible_sigmas"]) == want,
              f"feasible {delta}: orderings {doc['feasible_sigmas']}")
        _need(doc["respects_exclusions"] is True, f"feasible {delta}: exclusions violated")
        return 0.0

    triple = ",".join(repr(x) for x in delta)
    return _cli_op("feasible", f"feasible {triple}",
                   ["feasible", "--triple", triple, "--permutations"], cli, check_doc)


def _cli_reproduce(case, cli):
    def check_text(text):
        last = text.strip().splitlines()[-1]
        m = re.fullmatch(rf"{case}: (\d+)/(\d+) assertions passed", last)
        _need(m is not None and m.group(1) == m.group(2), f"reproduce {case}: {last!r}")
        return 0.0

    return _cli_op("reproduce", f"reproduce {case}", ["reproduce", "--case", case], cli, check_text)


CLI_INVARIANT_SPECS = ("bergman_2.5", "jet2_1_2", "hom_m2")  # rank 1, 2 and 3


def _cli_calls(rng, workdir, cli):
    specs = dict(zoo())
    ops = [_cli_invariants(name, specs[name], _write_spec(specs[name], workdir / f"{name}.json", rng),
                           cli) for name in CLI_INVARIANT_SPECS]
    pairs = paper_pairs()
    for name, (left, right), level in (pairs[0], pairs[1 + rng.integers(4)]):
        ops.append(_cli_equiv(name, _write_spec(left, workdir / f"{name}_left.json", rng),
                              _write_spec(right, workdir / f"{name}_right.json", rng), level, cli))
    ops.append(_cli_feasible(*PERM_TRIPLES[rng.integers(3)], cli))
    ops.append(_cli_feasible(*PERM_TRIPLES[3 + rng.integers(3)], cli))
    ops += [_cli_reproduce(case, cli) for case in ("example1", "perm1")]
    return ops, ops[0]


_OPS_OF = {
    "series_report": _series_report,
    "oracle_point": _oracle_point,
    "field_grid": _field_grid,
    "cli_calls": _cli_calls,
}


def build(name: str, seed: int, workdir: Path):
    """(ops, smoke op, CLI runner) of one workload; the runner is None in-process."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    cli = CliRunner(workdir) if name == "cli_calls" else None
    ops, smoke = _OPS_OF[name](rng, workdir, cli)
    return ops, smoke, cli
