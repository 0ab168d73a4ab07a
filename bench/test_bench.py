"""Self-test of the benchmark, from its smoke mode.

    python -m pytest bench -q

Not part of the library's test suite (``testpaths`` names ``tests`` only).
A smoke run makes one round of one operation per phase: a paper pair's
``full_report``, the oracle at 0 on a Bergman kernel, the field grid of a
Bergman kernel, and one ``cdbundle invariants`` process.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
ROUTES = {"oracle.curvature_fd": (72, 33), "oracle.covd_zbar_fd": (576, 284),
          "oracle.covd_zzbar_fd": (5256, 2692)}
COUNT_UNITS = ("calls/op", "evals/call", "points/call")


def smoke(workload, trace, seed=5, cwd=BENCH.parent):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd, "bench", "run.py")), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=300)
    return proc


def result(workload, trace, seed=5):
    proc = smoke(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    return res


def values(res):
    return {name: m["value"] for name, m in res["metrics"].items()}


def counters(res):
    return {name: m["value"] for name, m in res["metrics"].items() if m["unit"] in COUNT_UNITS}


@pytest.fixture(scope="module")
def traced():
    return {w: result(w, 1) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metric_names_and_units(workload):
    res = result(workload, 0)
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in res["metrics"].items()} == want
    for name in ("ops_per_s", "latency_p50_ms", "latency_tail_ms", "peak_rss_mb", "setup_s"):
        assert res["metrics"][name]["value"] > 0


def test_per_layer_metric_names_and_units(traced):
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for res in traced.values():
        assert {name: m["unit"] for name, m in res["metrics"].items()} == want


def test_oracle_route_counters(traced):
    for workload in ("oracle_point", "cli_calls"):  # oracle at 0, in process and in the CLI
        m = values(traced[workload])
        for route, (evals, distinct) in ROUTES.items():
            assert m[f"{route}.calls"] == 1
            assert m[f"{route}.metric_evals"] == evals
            assert m[f"{route}.distinct_points"] == distinct
        assert m["kernels.metric_at.calls"] == 72 + 576 + 5256 + 1  # + h(0) for the frame
        assert m["series.multiply.calls"] == (0 if workload == "oracle_point" else 2)
    assert values(traced["cli_calls"])["cli.invariants.wall_s"] > 0


def test_series_counters(traced):
    m = values(traced["series_report"])  # full_report on example2_pair(1, 2)
    assert m["equivalence.full_report.calls"] == 1
    assert m["kernels.taylor.calls"] == 2
    assert m["series.multiply.calls"] == 4
    assert m["series.invert.calls"] == 4
    assert m["kernels.metric_at.calls"] == 0
    assert all(m[f"{route}.calls"] == 0 for route in ROUTES)
    assert m["cli.invariants.wall_s"] == 0


def test_field_counters(traced):
    m = values(traced["field_grid"])  # one kernel's 81 grid points
    assert m["oracle.curvature_eigenvalues_fd.calls"] == 81
    assert m["oracle.curvature_fd.calls"] == 81
    assert m["oracle.curvature_fd.metric_evals"] == 72
    assert m["series.invert.calls"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_repeat_with_the_same_seed(traced, workload):
    assert counters(result(workload, 1)) == counters(traced[workload])


def test_refuses_without_a_source_tree(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = smoke("oracle_point", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_meter_takes_its_samples_off_the_call():
    sys.path.insert(0, str(BENCH))
    import speed

    def fail():
        raise ValueError("counted, not raised")

    with speed.Meter() as meter:
        out, exc, scaled, _wall = meter.run(lambda: sum(i * i for i in range(300_000)))
        assert exc is None and out > 0 and scaled > 0
        # time.sleep keeps its deadline through the interruptions, which are taken off
        _out, _exc, _scaled, slept = meter.run(lambda: time.sleep(0.05))
        assert len(meter._ticks) >= 5
        assert 0.05 <= slept + meter._tick_s < 0.5
        assert slept < 0.05
        assert isinstance(meter.run(fail)[1], ValueError)
