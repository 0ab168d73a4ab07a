"""The cdbundle benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from anywhere inside a checkout; it measures the library under
``src/`` of that checkout.  Workloads (see ``workloads.WHY`` for why each
was chosen): series_report, oracle_point, field_grid, cli_calls.  Every
workload is a closed loop with one caller.

One run:
1. compiles the library's bytecode, then times set-up (import, inputs and
   one smoke operation) in fresh interpreters and takes the median;
2. builds the inputs from the seed and computes every reference, untimed;
3. makes one untimed pass over all operations (warm state);
4. runs whole rounds of operations, in a seeded order, for about S
   seconds, checking each output.

Every time it reports is scaled to a reference host speed, measured by a
calibration kernel run next to each timed call (see ``speed.py``).

With ``--trace 0`` it prints the end-to-end metrics.  With ``--trace 1`` it
runs S/2 seconds untraced, then S/2 seconds with spans around the library's
public functions, and prints the per-layer metrics and the tracing overhead;
the spans go to ``.bench_out/trace-<workload>.csv``.  ``--smoke`` runs one
round of a single operation per phase, for the benchmark's self-test.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit).  A
fuller report goes to ``.bench_out/report-<workload>-trace<T>.json``.  The
exit code is 0 when every output check passed, 1 when one failed and 2 when
there is no source tree to measure.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict

import env
import speed
import tracing

SETUP_PROBES = 5
CLI_PROBES = 5
PROBE_TIMEOUT_S = 120

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "err_to_tol_max": "ratio",
    "ok_ops_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
CLI_KINDS = ("invariants", "equiv", "feasible", "reproduce")


def per_layer_units() -> dict:
    units = {}
    for layer in tracing.LAYERS:
        units[f"{layer}.calls"] = "calls/op"
        units[f"{layer}.self_s"] = "s/op"
        if layer in tracing.ROUTES:
            units[f"{layer}.metric_evals"] = "evals/call"
            units[f"{layer}.distinct_points"] = "points/call"
    units["oracle.distinct_point_ratio"] = "ratio"
    units["cli.interpreter_s"] = "s"
    units["cli.import_s"] = "s"
    for kind in CLI_KINDS:
        units[f"cli.{kind}.wall_s"] = "s"
    units["trace.ops_per_s"] = "1/s"
    units["trace.overhead_ops_per_s"] = "1/s"
    return units


class Book:
    """Outcome of every operation: attempts, failures, worst error ratio."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.err_to_tol_max = 0.0
        self.child_rss_kb = 0
        self.misses = []

    def record(self, op, out, exc, ref) -> None:
        self.attempted += 1
        miss = exc
        if exc is None:
            self.child_rss_kb = max(self.child_rss_kb, getattr(out, "maxrss_kb", 0))
            try:
                ratio = op.check(out, ref)
            except Exception as bad:  # a miss, including malformed output, must not end the run
                miss = bad
            else:
                self.err_to_tol_max = max(self.err_to_tol_max, ratio)
                if not ratio <= 1.0:
                    miss = f"deviation {ratio:.3g} x tolerance"
        elif len(self.misses) < 3:
            traceback.print_exception(exc, limit=3, file=sys.stderr)
        if miss is not None:
            self.failed += 1
            if len(self.misses) < 20:
                self.misses.append(f"{op.kind} {op.key}: {miss!r}")


class Samples:
    """Latencies of one timed phase, one per operation run, in run order.

    ``latency`` is wall seconds; ``scaled`` the same in reference seconds
    (``speed.Meter``).
    """

    def __init__(self):
        self.index, self.kind, self.latency, self.scaled = [], [], [], []
        self.rounds = 0
        self.counters = []  # per round, traced phases only

    def typical(self) -> list:
        """Each input's median scaled latency."""
        by_input = defaultdict(list)
        for i, dt in zip(self.index, self.scaled):
            by_input[i].append(dt)
        return [statistics.median(v) for v in by_input.values()]

    def p50(self) -> float:
        """Median over the inputs of each input's median scaled latency."""
        return statistics.median(self.typical())

    def ops_per_s(self) -> float:
        """One round's operations over the sum of their median scaled latencies."""
        typical = self.typical()
        return len(typical) / sum(typical)

    def scale(self) -> float:
        """The phase's median factor from wall to reference seconds."""
        return statistics.median(s / w for s, w in zip(self.scaled, self.latency))


def timed_rounds(ops, refs, window, order, book, meter, tracer=None) -> Samples:
    """Whole rounds until the next would end after ``window`` seconds (at least one)."""
    samples = Samples()
    start = time.perf_counter()
    while not samples.rounds or (
            (time.perf_counter() - start) * (samples.rounds + 1) / samples.rounds <= window):
        first = len(tracer.spans) if tracer else 0
        index = list(range(len(ops)))
        order.shuffle(index)
        for i in index:
            if tracer:
                tracer.op = book.attempted
            out, exc, scaled, wall = meter.run(ops[i].run)
            if tracer:
                tracer.op = None
            book.record(ops[i], out, exc, refs[i])
            samples.index.append(i)
            samples.kind.append(ops[i].kind)
            samples.latency.append(wall)
            samples.scaled.append(scaled)
        samples.rounds += 1
        if tracer:
            samples.counters.append(tracer.counters(tracer.totals(first)))
    return samples


def tail(latency):
    """(value, percentile, samples beyond): highest percentile with >= 10 samples beyond it."""
    ordered = sorted(latency)
    n = len(ordered)
    k = n - 11 if n > 10 else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def _probe(meter, cmd) -> tuple:
    """(reference seconds, reference seconds per wall second, stdout) of one child process."""
    res, exc, scaled, wall = meter.run(lambda: subprocess.run(
        cmd, capture_output=True, text=True, env=env.child_env(), cwd=env.ROOT,
        timeout=PROBE_TIMEOUT_S))
    if exc is not None:
        raise exc
    if res.returncode != 0:
        raise RuntimeError(f"{cmd[1:]} exited {res.returncode}: {res.stderr[-500:]}")
    return scaled, scaled / wall, res.stdout


def setup_times(meter, name, seed, workdir, count) -> tuple:
    """(reference, wall) set-up seconds of ``count`` fresh interpreters."""
    script = str(env.ROOT / "bench" / "setup_probe.py")
    scaled, wall = [], []
    for i in range(count):
        probe_dir = workdir / f"probe{i}"
        probe_dir.mkdir()
        _scaled, factor, out = _probe(meter, [sys.executable, script, name, str(seed),
                                              str(probe_dir)])
        wall.append(float(out))
        scaled.append(wall[-1] * factor)
    return scaled, wall


def cli_start_times(meter, count) -> dict:
    interp = [_probe(meter, [sys.executable, "-c", "pass"])[0] for _ in range(count)]
    code = ("import time; t = time.perf_counter(); import cdbundle; "
            "print(repr(time.perf_counter() - t))")
    imports = []
    for _ in range(count):
        _scaled, factor, out = _probe(meter, [sys.executable, "-c", code])
        imports.append(float(out) * factor)
    return {"cli.interpreter_s": statistics.median(interp), "cli.import_s": statistics.median(imports)}


def end_to_end(samples, book, setup, in_process) -> tuple:
    value, pct, beyond = tail(samples.scaled)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if in_process else book.child_rss_kb
    metrics = {
        "ops_per_s": samples.ops_per_s(),
        "latency_p50_ms": 1e3 * samples.p50(),
        "latency_tail_ms": 1e3 * value,
        "err_to_tol_max": book.err_to_tol_max,
        "ok_ops_ratio": (book.attempted - book.failed) / book.attempted,
        "peak_rss_mb": rss_kb / 1024.0,
        "setup_s": statistics.median(setup),
    }
    return metrics, {"latency_tail_percentile": pct, "samples_beyond_tail": beyond,
                     "samples": len(samples.latency), "rounds": samples.rounds,
                     "median_scale": samples.scale(),
                     "unscaled_ops_per_s": len(samples.latency) / sum(samples.latency),
                     "unscaled_latency_p50_ms": 1e3 * statistics.median(samples.latency),
                     "unscaled_latency_tail_ms": 1e3 * tail(samples.latency)[0]}


def per_layer(untraced, traced, tracer, cli_starts, cli_workload) -> dict:
    totals = tracer.totals()
    n = len(traced.latency)
    factor = traced.scale()
    metrics = {}
    for layer in tracing.LAYERS:
        calls = totals["calls"][layer]
        metrics[f"{layer}.calls"] = calls / n
        metrics[f"{layer}.self_s"] = totals["self_s"][layer] * factor / n
        if layer in tracing.ROUTES:
            metrics[f"{layer}.metric_evals"] = totals["metric_evals"][layer] / calls if calls else 0.0
            metrics[f"{layer}.distinct_points"] = (
                totals["distinct_points"][layer] / calls if calls else 0.0)
    evals = sum(totals["metric_evals"][r] for r in tracing.ROUTES)
    distinct = sum(totals["distinct_points"][r] for r in tracing.ROUTES)
    metrics["oracle.distinct_point_ratio"] = distinct / evals if evals else 0.0
    metrics.update(cli_starts)
    by_kind = defaultdict(list)
    for dt, kind in zip(untraced.scaled, untraced.kind):
        if cli_workload:
            by_kind[kind].append(dt)
    for kind in CLI_KINDS:
        metrics[f"cli.{kind}.wall_s"] = statistics.median(by_kind[kind]) if by_kind[kind] else 0.0
    metrics["trace.ops_per_s"] = traced.ops_per_s()
    metrics["trace.overhead_ops_per_s"] = untraced.ops_per_s() - traced.ops_per_s()
    return metrics


def measure(args, workdir, meter, facts) -> int:
    import workloads  # imports the library, so only after the source tree is in place

    setup, setup_wall = setup_times(meter, args.workload, args.seed, workdir,
                                    1 if args.smoke else SETUP_PROBES)
    ops, smoke, cli = workloads.build(args.workload, args.seed, workdir)
    if args.smoke:
        ops = [smoke]
    refs = [op.reference() for op in ops]
    book = Book()
    for op, ref in zip(ops, refs):  # warm pass: caches, lazy set-up, first CLI outputs
        out, exc, _scaled, _wall = meter.run(op.run)
        book.record(op, out, exc, ref)
    order = random.Random(f"{args.workload}:{args.seed}")
    window = 0.0 if args.smoke else float(args.seconds)
    report = {"workload": args.workload, "why": workloads.WHY[args.workload], "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
              "machine": facts, "setup_samples_s": setup, "unscaled_setup_samples_s": setup_wall,
              "speed_reference_s": speed.REFERENCE_S, "ops_per_round": len(ops)}
    repeat = True
    if not args.trace:
        samples = timed_rounds(ops, refs, window, order, book, meter)
        metrics, extra = end_to_end(samples, book, setup, cli is None)
        units = END_TO_END
        report.update(extra)
    else:
        untraced = timed_rounds(ops, refs, window / 2, order, book, meter)
        tracer = tracing.Tracer()
        tracer.install()
        if cli is not None:
            cli.tracer = tracer
        try:
            traced = timed_rounds(ops, refs, window / 2, order, book, meter, tracer)
        finally:
            tracer.uninstall()
        counters = traced.counters
        repeat = all(c == counters[0] for c in counters)
        cli_starts = cli_start_times(meter, 1 if args.smoke else CLI_PROBES)
        metrics = per_layer(untraced, traced, tracer, cli_starts, cli is not None)
        units = per_layer_units()
        tracer.write_csv(env.OUT / f"trace-{args.workload}.csv")
        report.update(rounds_untraced=untraced.rounds, rounds_traced=traced.rounds,
                      counters_per_round=counters[0], counters_repeat=repeat,
                      spans=len(tracer.spans))
    correct = repeat and book.failed == 0
    report.update(attempted=book.attempted, failed=book.failed, misses=book.misses,
                  correct=correct, metrics=metrics)
    (env.OUT / f"report-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8")

    for miss in book.misses:
        print(f"MISS {miss}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {workloads.WHY[args.workload]}")
    print("machine " + " ".join(f"{k}={v}" for k, v in facts.items()))
    if not args.trace:
        print(f"latency tail is p{extra['latency_tail_percentile']:.2f} of {extra['samples']} "
              f"samples ({extra['samples_beyond_tail']} beyond)")
    else:
        print(f"counters repeat exactly across {traced.rounds} traced rounds: {repeat}")
    for name, unit in units.items():
        print(f"  {name:44s} {metrics[name]:.6g} {unit}")
    result = {"correct": correct, "attempted": book.attempted, "failed": book.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("series_report", "oracle_point", "field_grid", "cli_calls"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one round of one operation per phase (self-test)")
    args = parser.parse_args(argv)
    facts = env.machine_facts()  # before pinning, which would halve nproc
    facts["pinned_cpu"] = speed.pin_to_one_cpu()
    try:
        env.use_source_tree()
    except env.SourceTreeMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(env.SRC / "cdbundle"), quiet=1)
    env.OUT.mkdir(exist_ok=True)
    workdir = env.OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        with speed.Meter() as meter:
            return measure(args, workdir, meter, facts)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
