import copy
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cdbundle
from cdbundle import errors
from cdbundle.cli import (
    EXIT_DISTINCT,
    EXIT_EIGS_ONLY,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_PARSE,
    canonical_json,
    main,
)
from cdbundle.kernels import spec_to_dict
from cdbundle.reproduce import SCENARIOS
from conftest import zoo_fixtures

BERGMAN2 = {"type": "bergman", "lambda": 2.0}
JET22 = {"type": "jet", "alpha": 1.0, "beta": 2.0, "k": 2}
HOM = {"type": "homogeneous", "lambda": 2.0, "mu": [1.0, 1.0, 1.0], "m": 2}
DS_JET1_B5 = {
    "type": "direct_sum",
    "parts": [
        {"type": "bergman", "lambda": 1.0},
        {"type": "jet", "alpha": 1.0, "beta": 5.0, "k": 1},
    ],
}
DS_B1_B5 = {
    "type": "direct_sum",
    "parts": [{"type": "bergman", "lambda": 1.0}, {"type": "bergman", "lambda": 5.0}],
}
JET1_B1 = {"type": "jet", "alpha": 1.0, "beta": 1.0, "k": 1}
NON_FINITE_SPECS = [
    {"type": "bergman", "lambda": float("inf")},
    {**HOM, "mu": [1.0, float("nan"), 1.0]},
]


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload), encoding="utf-8")
    return str(p)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariants_bergman(tmp_path, capsys):
    path = write(tmp_path, "b2.json", BERGMAN2)
    code, out, _ = run(capsys, ["invariants", "--kernel", path, "--json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["schema"] == "cdbundle/1"
    assert doc["outputs"]["curvature"] == [[{"im": 0.0, "re": 2.0}]]
    assert doc["outputs"]["oracle_residuals"]["curvature"] < 1e-5


def test_invariants_jet_and_homogeneous(tmp_path, capsys):
    path = write(tmp_path, "j.json", JET22)
    code, out, _ = run(capsys, ["invariants", "--kernel", path, "--json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    diag = [row[i]["re"] for i, row in enumerate(doc["outputs"]["curvature"])]
    assert diag == pytest.approx([1.0, 1.0, 13.0], abs=1e-10)

    path = write(tmp_path, "h.json", HOM)
    code, out, _ = run(capsys, ["invariants", "--kernel", path, "--json"])
    doc = json.loads(out)
    diag = [row[i]["re"] for i, row in enumerate(doc["outputs"]["curvature"])]
    assert diag == pytest.approx([4 / 3, 44 / 21, 60 / 7], abs=1e-10)


@pytest.mark.parametrize("payload, n, kernel_line", [
    (BERGMAN2, 1, 'kernel: {"type": "bergman", "lambda": 2.0}'),
    (HOM, 3, 'kernel: {"type": "homogeneous", "lambda": 2.0, "mu": [1.0, 1.0, 1.0], "m": 2}'),
], ids=["rank1", "rank3"])
def test_invariants_text_output(tmp_path, capsys, payload, n, kernel_line):
    # without --json: the spec, then each invariant under its header as an n-line matrix
    path = write(tmp_path, "k.json", payload)
    code, out, err = run(capsys, ["invariants", "--kernel", path])
    assert code == EXIT_OK and err == ""
    lines = out.splitlines()
    assert len(lines) == 5 + 3 * n
    assert lines[0] == kernel_line
    assert [lines[1 + i * (n + 1)] for i in range(3)] == ["curvature(0):", "d_zbar(0):", "d_zzbar(0):"]
    for i in range(3):
        block = lines[2 + i * (n + 1): 2 + i * (n + 1) + n]
        assert block[0].startswith("[[") and block[-1].endswith("]]"), block
    number = r"'\d\.\d{3}e[+-]\d{2}'"
    assert re.fullmatch(r"oracle residuals: \{'curvature': N, 'd_zbar': N, 'd_zzbar': N\}"
                        .replace("N", number), lines[-1])
    if n == 1:
        assert lines[2] == "[[2.+0.j]]"


def test_invariants_deterministic_and_round_trip(tmp_path, capsys):
    path = write(tmp_path, "h.json", HOM)
    _, out1, _ = run(capsys, ["invariants", "--kernel", path, "--json"])
    _, out2, _ = run(capsys, ["invariants", "--kernel", path, "--json"])
    assert out1 == out2
    # parse -> re-serialize is byte identical
    assert canonical_json(json.loads(out1)) + "\n" == out1


def test_equiv_exit_codes(tmp_path, capsys):
    left = write(tmp_path, "l.json", DS_B1_B5)
    right = write(tmp_path, "r.json", JET1_B1)
    code, out, _ = run(capsys, ["equiv", "--left", left, "--right", right])
    assert code == EXIT_EIGS_ONLY
    doc = json.loads(out)
    assert doc["verdict"] == "eigenvalues_match_only"
    assert doc["certificate"]["level"] == "(0,1)"

    left2 = write(tmp_path, "l2.json", DS_JET1_B5)
    right2 = write(tmp_path, "r2.json", JET22)
    code, out, _ = run(capsys, ["equiv", "--left", left2, "--right", right2])
    assert code == EXIT_EIGS_ONLY
    assert json.loads(out)["certificate"]["level"] == "(1,1)"

    code, _, _ = run(capsys, ["equiv", "--left", left, "--right", left])
    assert code == EXIT_OK

    b2 = write(tmp_path, "b2.json", BERGMAN2)
    b1 = write(tmp_path, "b1.json", {"type": "bergman", "lambda": 1.0})
    code, _, _ = run(capsys, ["equiv", "--left", b2, "--right", b1])
    assert code == EXIT_DISTINCT


def assert_unrecognized(capsys, argv, *unknown):
    # retired flags: the answers read a fixed lattice order and a fixed torus, and
    # --pair alone selects the rank-2 problem, so none of them is accepted
    with pytest.raises(SystemExit) as exc:
        main([*argv, *unknown])
    out, err = capsys.readouterr()
    assert exc.value.code == EXIT_PARSE
    assert out == ""
    assert err.startswith("usage: cdbundle")
    assert f"unrecognized arguments: {' '.join(unknown)}" in err


@pytest.mark.parametrize("command", ["invariants", "equiv"])
def test_order_below_two_is_a_parse_failure(tmp_path, capsys, command):
    path = write(tmp_path, "b2.json", BERGMAN2)
    files = ["--kernel", path] if command == "invariants" else ["--left", path, "--right", path]
    assert_unrecognized(capsys, [command, *files], "--order", "1")


def test_feasible_triple_with_permutations(capsys):
    code, out, _ = run(capsys, ["feasible", "--triple", "1,2,10.5", "--permutations"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["feasible"] is True
    assert doc["feasible_sigmas"] == ["123", "213"]
    assert doc["respects_exclusions"] is True

    code, out, _ = run(capsys, ["feasible", "--triple", "0.5,7.5,8", "--permutations"])
    assert json.loads(out)["feasible_sigmas"] == ["123", "132"]


def test_feasible_triple_with_a_huge_third_entry(capsys):
    # the ledger accepts (1, 2, d3) up to 1e18 (test_feasibility), but from d3 = 5e5 on
    # mu_1^2 is about 9 / d3^2 and the realizing kernel's metric at 0 has an eigenvalue below
    # 1e-10: the series path cannot read the diagonal back, so nothing is printed
    for argv in (["1,2,5e5"], ["1,2,1e6"], ["1,2,1e18"], ["1,2,1e6", "--permutations"]):
        code, out, err = run(capsys, ["feasible", "--triple", *argv])
        assert code == EXIT_NUMERIC and out == "", argv
        assert err.startswith("numeric error: cannot check the parameters for (1.0, 2.0, ")
        assert "not positive definite" in err and err.count("\n") == 1, err


def test_feasible_diagonal_off_the_input_exits_numeric(capsys, monkeypatch):
    # a kernel whose diagonal comes back 2e-9 relative off the input: one error line, no report
    import cdbundle.cli as cli_mod

    real = cli_mod.invariants_at_zero

    def off(lattice):
        inv = real(lattice)
        return type(inv)(inv.curvature * (1 + 2e-9), inv.d_zbar, inv.d_zzbar)

    monkeypatch.setattr(cli_mod, "invariants_at_zero", off)
    for argv in (["--triple", "1,2,10.5", "--permutations"], ["--pair", "1,5"]):
        code, out, err = run(capsys, ["feasible", *argv])
        assert code == EXIT_NUMERIC and out == "", argv
        assert err.startswith("numeric error: the parameters for (1.0, ")
        assert "relative from it (tolerance 1e-09)" in err and err.count("\n") == 1, err


def test_feasible_pair_beyond_the_lattice_exits_numeric(capsys):
    # lambda = 1e160 solves the pair, but the series path cannot build its Taylor lattice
    code, out, err = run(capsys, ["feasible", "--pair", "1e160,3e160"])
    assert code == EXIT_NUMERIC and out == ""
    assert err.startswith("numeric error: cannot check the parameters for (1e+160, 3e+160): "
                          "lambda 1e+160 is too large") and err.count("\n") == 1, err


def test_passing_checks_keep_the_bytes(tmp_path, capsys, monkeypatch):
    # field and feasible print the same bytes with their checks as without them
    import cdbundle.cli as cli_mod

    path = write(tmp_path, "hom.json", HOM)
    calls = [["field", "--kernel", path, "--grid", "5", "--out", str(tmp_path / "f.csv")],
             ["feasible", "--triple", "1,2,10.5", "--permutations"],
             ["feasible", "--triple", "0.5,7.5,8"], ["feasible", "--pair", "2.5,4.6"]]

    def outputs():
        return [run(capsys, argv) for argv in calls], (tmp_path / "f.csv").read_bytes()

    checked = outputs()
    assert all(code == EXIT_OK for code, _, _ in checked[0])
    monkeypatch.setattr(cli_mod, "_check_transport", lambda *args: None)
    monkeypatch.setattr(cli_mod, "_check_realized", lambda *args: None)
    assert outputs() == checked


def test_infeasible_triple_prints_null_params(capsys):
    code, out, _ = run(capsys, ["feasible", "--triple", "0,3,7", "--permutations"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["feasible"] is False and doc["params"] is None
    assert doc["feasible_sigmas"] == []
    for sigma, entry in doc["permutations"].items():
        assert entry["feasible"] is False and entry["params"] is None, sigma


def test_feasible_rank2(capsys):
    code, out, _ = run(capsys, ["feasible", "--pair", "1,5"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["inputs"] == {"pair": [1, 5], "rank2": True}
    assert doc["feasible"] is True
    assert doc["params"]["lambda"] == pytest.approx(1.5)
    assert doc["params"]["mu1_sq"] == pytest.approx(0.5)


def test_feasible_rank2_flag_is_retired(capsys):
    assert_unrecognized(capsys, ["feasible", "--pair", "1,5"], "--rank2")


def test_feasible_malformed_input(capsys):
    code, _, err = run(capsys, ["feasible", "--triple", "1,2"])
    assert code == EXIT_PARSE
    assert "error" in err


@pytest.mark.parametrize("argv, token", [
    (["--triple", "nan,2,10"], "nan"),
    (["--triple", "1,2,inf"], "inf"),
    (["--pair", "1e400,5"], "1e400"),
    # a flag that the chosen mode would ignore is refused and named, not dropped
    (["--pair", "1,5", "--triple", "1,2,10"], "--triple"),
    (["--pair", "1,5", "--permutations"], "--permutations"),
    (["--triple", "1,2,10", "--pair", "1,5"], "--pair"),
])
def test_feasible_non_finite_input_is_a_parse_failure(capsys, argv, token):
    code, out, err = run(capsys, ["feasible", *argv])
    assert code == EXIT_PARSE
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert repr(token) in err


@pytest.mark.parametrize("argv, quantity", [
    (["--triple", "1e308,1e308,1e308"], "a = inf"),
    (["--triple", "1e200,1e200,3e200", "--permutations"], "mu2_pos lhs = inf"),
    (["--pair", "1e308,1.7e308"], "lambda = inf"),
])
def test_feasible_overflow_names_the_quantity(capsys, argv, quantity):
    code, out, err = run(capsys, ["feasible", *argv])
    assert code == EXIT_PARSE
    assert out == ""
    assert err == f"error: derived quantity {quantity} is not finite\n"


@pytest.mark.parametrize("command", ["invariants", "field"])
@pytest.mark.parametrize("step", ["1", "nan", "0", "1e-9"])
def test_fd_step_out_of_range_is_a_parse_failure(tmp_path, capsys, command, step):
    path = write(tmp_path, "b2.json", BERGMAN2)
    argv = [command, "--kernel", path]
    if command == "field":
        argv += ["--out", str(tmp_path / "f.csv")]
    assert_unrecognized(capsys, argv, "--fd-step", step)


def test_field_csv(tmp_path, capsys):
    path = write(tmp_path, "b3.json", {"type": "bergman", "lambda": 3.0})
    out_csv = tmp_path / "field.csv"
    code, _, _ = run(
        capsys,
        ["field", "--kernel", path, "--grid", "3", "--radius", "0.5", "--out", str(out_csv)],
    )
    assert code == EXIT_OK
    text = out_csv.read_bytes()
    assert b"\r" not in text
    lines = text.decode().strip().split("\n")
    assert lines[0] == "x,y,eig1"
    rows = {tuple(l.split(",")[:2]): float(l.split(",")[2]) for l in lines[1:]}
    assert len(rows) == 5  # corners of the 3x3 grid fall outside |z| <= r
    assert rows[("0", "0")] == pytest.approx(3.0, rel=1e-6)

    code, _, _ = run(
        capsys,
        ["field", "--kernel", path, "--grid", "3", "--radius", "0.5", "--out", str(out_csv)],
    )
    assert out_csv.read_bytes() == text


@pytest.mark.parametrize("grid", ["-1", "0", "1", "2"])
def test_field_grid_below_three_is_a_parse_failure(tmp_path, capsys, grid):
    path = write(tmp_path, "b3.json", {"type": "bergman", "lambda": 3.0})
    out_csv = tmp_path / "field.csv"
    code, out, err = run(capsys, ["field", "--kernel", path, "--grid", grid, "--out", str(out_csv)])
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out_csv.exists()


def test_parse_failures(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, ["invariants", "--kernel", str(bad)])
    assert code == EXIT_PARSE

    unknown = write(tmp_path, "u.json", {"type": "bergman", "lambda": 2.0, "extra": 1})
    code, _, err = run(capsys, ["invariants", "--kernel", str(unknown)])
    assert code == EXIT_PARSE
    assert "unknown fields" in err

    missing = str(tmp_path / "nothere.json")
    code, _, _ = run(capsys, ["invariants", "--kernel", missing])
    assert code == EXIT_PARSE


@pytest.mark.parametrize(
    "spec",
    [
        {**JET1_B1, "k": 1.7},
        {"type": "permuted", "sigma": "21", "inner": JET1_B1},
        {"type": "bergman", "lambda": True},
        {"type": "bergman", "lambda": "2"},
        {"type": "direct_sum", "parts": 5},
        {**HOM, "mu": None},
        {"type": "bergman", "lambda": [1]},
        *NON_FINITE_SPECS,
    ],
)
def test_mistyped_spec_values(tmp_path, capsys, spec):
    path = write(tmp_path, "bad.json", spec)
    code, out, err = run(capsys, ["invariants", "--kernel", path])
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("spec", NON_FINITE_SPECS)
def test_field_rejects_non_finite_spec_values(tmp_path, capsys, spec):
    path = write(tmp_path, "bad.json", spec)
    code, out, err = run(capsys, ["field", "--kernel", path, "--out", str(tmp_path / "f.csv")])
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


NUMBER_FIELDS = {"lambda", "alpha", "beta", "k", "m"}
NOT_A_NUMBER = ["2", None, True, [1.0], {"re": 1.0}, float("nan"), float("inf")]
NOT_A_LIST = ["1", None, 3, {"0": 1}]
NOT_A_SPEC = [5, "bergman", None, [], [BERGMAN2]]


def _spec_objects(spec):
    """Every kernel-spec object of a spec tree, the root first."""
    yield spec
    for part in spec.get("parts", []):
        yield from _spec_objects(part)
    if "inner" in spec:
        yield from _spec_objects(spec["inner"])


def _wrong_value(rng, key):
    if key in NUMBER_FIELDS:
        pool = NOT_A_NUMBER
    elif key == "inner":
        pool = NOT_A_SPEC
    elif key == "type":
        pool = ["spectral", None, 3, ["bergman"]]
    else:
        pool = NOT_A_LIST
    return pool[rng.integers(len(pool))]


# each way of breaking a spec object, with the fields it needs (none: any object)
MALFORMATIONS = {
    "wrong type": (),
    "missing field": (),
    "extra field": (),
    "wrong element type": ("mu", "sigma", "parts"),
    "non-integral": ("k", "m", "sigma"),
    "bad sigma": ("sigma",),
}


def _malform(rng, kind, node):
    """Break the spec object `node` in place in the way `kind` names."""
    keys = sorted(node)
    fields = [k for k in MALFORMATIONS[kind] if k in node]
    if kind == "wrong type":
        key = keys[rng.integers(len(keys))]
        node[key] = _wrong_value(rng, key)
    elif kind == "missing field":
        del node[keys[rng.integers(len(keys))]]
    elif kind == "extra field":
        node[["extra", "lam", "order", "weights"][rng.integers(4)]] = 1.0
    elif kind == "wrong element type":
        items = node[fields[0]]
        pool = NOT_A_SPEC if fields[0] == "parts" else NOT_A_NUMBER
        items[rng.integers(len(items))] = pool[rng.integers(len(pool))]
    elif kind == "non-integral":
        if fields[0] == "sigma":
            node["sigma"][rng.integers(len(node["sigma"]))] += 0.5
        else:
            node[fields[0]] += 0.5
    else:
        sigma = node["sigma"]
        node["sigma"] = [
            [sigma[0]] * len(sigma),  # repeated entry
            [s - 1 for s in sigma],  # zero-based
            sigma[:-1],  # too short
            sigma + [len(sigma) + 1],  # too long
        ][rng.integers(4)]


def test_malformed_spec_corpus(tmp_path, capsys, rng):
    base = [spec_to_dict(spec) for _, spec in zoo_fixtures()]
    targets = {
        kind: [(s, n) for s, spec in enumerate(base) for n, node in enumerate(_spec_objects(spec))
               if not needs or any(k in node for k in needs)]
        for kind, needs in MALFORMATIONS.items()
    }
    kinds = sorted(MALFORMATIONS)
    for case in range(72):
        kind = kinds[case % len(kinds)]
        s, n = targets[kind][rng.integers(len(targets[kind]))]
        spec = copy.deepcopy(base[s])
        node = list(_spec_objects(spec))[n]
        _malform(rng, kind, node)
        path = write(tmp_path, f"bad{case}.json", spec)
        code, out, err = run(capsys, ["invariants", "--kernel", path])
        what = (kind, spec)
        assert code == EXIT_PARSE, what
        assert out == "", what
        assert err.startswith("error: ") and err.count("\n") == 1, (what, err)


@pytest.mark.parametrize("depth", [100, 1500])
def test_deeply_nested_spec_is_a_parse_failure(tmp_path, capsys, depth):
    text = '{"type": "direct_sum", "parts": [' * depth + json.dumps(BERGMAN2) + "]}" * depth
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, ["invariants", "--kernel", str(path)])
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_oracle_residual_above_tolerance_exits_numeric(tmp_path, capsys, monkeypatch):
    import cdbundle.cli as cli_mod

    oracle = cli_mod.oracle_invariants_at_zero

    def off_by_2e5(spec):
        out = oracle(spec)
        return {**out, "d_zzbar": out["d_zzbar"] + 2e-5}

    monkeypatch.setattr(cli_mod, "oracle_invariants_at_zero", off_by_2e5)
    path = write(tmp_path, "j.json", JET22)
    code, out, err = run(capsys, ["invariants", "--kernel", path, "--json"])
    assert code == EXIT_NUMERIC
    doc = json.loads(out)
    tol = doc["tolerances"]["oracle_cross_check"]
    assert doc["outputs"]["oracle_residuals"]["d_zzbar"] > tol
    assert err.startswith("numeric error: ") and err.count("\n") == 1


def test_invariants_jet_residuals_against_the_absolute_tolerance(tmp_path, capsys):
    # the finite differences read d_zzbar residuals of 2.98e-6 on jet(1.5, 5, k=2) and
    # 3.443e-5 on jet(8, 8, k=2), |d_zzbar| about 556, which exited 3
    for alpha, beta in ((1.5, 5.0), (8.0, 8.0)):
        path = write(tmp_path, "j.json", {"type": "jet", "alpha": alpha, "beta": beta, "k": 2})
        code, out, err = run(capsys, ["invariants", "--kernel", path, "--json"])
        assert code == EXIT_OK and err == "", (alpha, beta)
        assert json.loads(out)["outputs"]["oracle_residuals"]["d_zzbar"] < 1e-8, (alpha, beta)


def run_process(argv):
    env = {**os.environ, "PYTHONPATH": str(Path(cdbundle.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "cdbundle", *argv], capture_output=True,
                          text=True, env=env, timeout=120)


def assert_one_numeric_error(proc):
    assert proc.returncode == EXIT_NUMERIC
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numeric error: ") and "not finite" in lines[0]
    assert "RuntimeWarning" not in proc.stderr


def test_field_overflow_is_one_numeric_error(tmp_path):
    # (1 - |z|^2)^-1000 overflows at |z| = 0.9: one message, no numpy warning, no CSV
    path = write(tmp_path, "b1000.json", {"type": "bergman", "lambda": 1000})
    out_csv = tmp_path / "field.csv"
    assert_one_numeric_error(
        run_process(["field", "--kernel", path, "--radius", "0.9", "--out", str(out_csv)]))
    assert not out_csv.exists()


def test_field_off_the_transport_exits_numeric(tmp_path, capsys):
    # the oracle's eigenvalue at |z| = 0.5 on the Bergman kernel of weight 1000 is 43.6 times
    # off the (1 - |z|^2)^-2 transport of the one at 0: one line naming the point, no CSV
    path = write(tmp_path, "b1000.json", {"type": "bergman", "lambda": 1000})
    out_csv = tmp_path / "field.csv"
    code, out, err = run(capsys, ["field", "--kernel", path, "--grid", "3", "--out", str(out_csv)])
    assert code == EXIT_NUMERIC and out == "" and not out_csv.exists()
    got = re.fullmatch(r"numeric error: curvature eigenvalues at x = (\S+), y = (\S+) miss the "
                       r"transport of those at 0 by (\S+) relative \(tolerance 1e-05\)\n", err)
    assert got is not None, err
    x, y, miss = map(float, got.groups())
    assert np.hypot(x, y) == 0.5 and 40 < miss < 50, err


def test_field_on_a_singular_constant_term_exits_numeric(tmp_path, capsys):
    # mu_1 = 1e150: the oracle writes eigenvalues near -1e-13, but the series path's constant
    # term has condition number 1e300, so there are no eigenvalues at 0 to check them against
    path = write(tmp_path, "hom.json", {**HOM, "mu": [1.0, 1e150, 1.0]})
    out_csv = tmp_path / "field.csv"
    code, out, err = run(capsys, ["field", "--kernel", path, "--grid", "3", "--out", str(out_csv)])
    assert code == EXIT_NUMERIC and out == "" and not out_csv.exists()
    assert err.startswith("numeric error: ") and "singular" in err and err.count("\n") == 1


def test_invariants_overflow_is_one_numeric_error(tmp_path):
    # (1 - z conj w)^-1e6 overflows on the oracle's torus at 0
    path = write(tmp_path, "b1e6.json", {"type": "bergman", "lambda": 1e6})
    assert_one_numeric_error(run_process(["invariants", "--kernel", path]))


def one_spec_argv(command, path, tmp_path):
    return {
        "invariants": ["invariants", "--kernel", path],
        "equiv": ["equiv", "--left", path, "--right", path],
        "field": ["field", "--kernel", path, "--grid", "3", "--out", str(tmp_path / "f.csv")],
    }[command]


def assert_one_parse_error(proc, field):
    assert proc.returncode == EXIT_PARSE and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {field} "), proc.stderr
    assert "Warning" not in proc.stderr


@pytest.mark.parametrize("command", ["invariants", "equiv", "field"])
@pytest.mark.parametrize("mu", [[1.0, 1e200, 1.0], [1.0, 1e154, 1e154]])
def test_overflowing_mu_is_one_parse_error(tmp_path, command, mu):
    # 1e200^2 overflowed Python's float power (exit 3, "Numerical result out of range");
    # d = L mu' overflowed in the matmul for 1e154 (a numpy warning, then exit 2)
    path = write(tmp_path, "hom.json", {**HOM, "mu": mu})
    assert_one_parse_error(run_process(one_spec_argv(command, path, tmp_path)), "mu")


@pytest.mark.parametrize("command", ["invariants", "equiv", "field"])
def test_overflowing_lambda_is_one_error_line(tmp_path, command):
    # the rising factorials (2 lambda - m)_t of the Taylor lattice overflowed: two numpy
    # warnings, then exit 2 with "series coefficients contains non-finite entries"
    path = write(tmp_path, "hom.json", {"type": "homogeneous", "lambda": 1e200, "mu": [1, 2], "m": 1})
    proc = run_process(one_spec_argv(command, path, tmp_path))
    if command == "field":  # the oracle never builds the lattice; its torus overflows first
        assert_one_numeric_error(proc)
    else:
        assert_one_parse_error(proc, "lambda")


def test_large_finite_mu_stays_a_numeric_error(tmp_path, capsys):
    # mu_1^2 = 1e300 is finite, and the constant term is singular to working precision
    path = write(tmp_path, "hom.json", {**HOM, "mu": [1.0, 1e150, 1.0]})
    code, out, err = run(capsys, ["invariants", "--kernel", path])
    assert code == EXIT_NUMERIC and out == ""
    assert err.startswith("numeric error: ") and "singular" in err


def test_field_near_the_boundary(tmp_path, capsys):
    # eigenvalues scale by (1 - |z|^2)^-2; the finite differences drifted by 4.1e-3 at 0.999
    spec = {"type": "homogeneous", "lambda": 2.0, "mu": [1.0, 1.0, 1.0], "m": 2}
    path = write(tmp_path, "hom.json", spec)
    out_csv = tmp_path / "field.csv"
    argv = ["field", "--kernel", path, "--grid", "5", "--radius", "0.999", "--out", str(out_csv)]
    code, _, err = run(capsys, argv)
    assert code == EXIT_OK and err == ""
    rows = [list(map(float, line.split(","))) for line in out_csv.read_text().splitlines()[1:]]
    base = np.array(rows[len(rows) // 2][2:])  # the centre row, z = 0
    assert len(rows) == 13
    for x, y, *eigs in rows:
        ref = base / (1 - x * x - y * y) ** 2
        assert np.abs(np.array(eigs) - ref).max() / ref.max() < 1e-5, (x, y)


# every class of errors.py, and the two builtin and numpy errors that the library lets through
ERROR_EXITS = [
    (errors.MetricDegeneracyError, EXIT_NUMERIC),
    (errors.SingularLeadingTermError, EXIT_NUMERIC),
    (errors.WitnessVerificationError, EXIT_NUMERIC),
    (OverflowError, EXIT_NUMERIC),
    (errors.DiscDomainError, EXIT_NUMERIC),
    (np.linalg.LinAlgError, EXIT_NUMERIC),
    (errors.DimensionMismatchError, EXIT_PARSE),
    (errors.TruncationOrderError, EXIT_PARSE),
    (errors.UnsupportedShapeError, EXIT_PARSE),
    (errors.DegenerateInputError, EXIT_PARSE),
]


@pytest.mark.parametrize("exc, exit_code", ERROR_EXITS, ids=[e.__name__ for e, _ in ERROR_EXITS])
def test_numeric_failure_exit_code(tmp_path, capsys, monkeypatch, exc, exit_code):
    import cdbundle.cli as cli_mod

    declared = {v for v in vars(errors).values()
                if isinstance(v, type) and v.__module__ == errors.__name__}
    assert declared <= {e for e, _ in ERROR_EXITS}

    def boom(*args, **kwargs):
        raise exc("synthetic failure")

    monkeypatch.setattr(cli_mod, "invariants_at_zero", boom)
    path = write(tmp_path, "b2.json", BERGMAN2)
    code, out, err = run(capsys, ["invariants", "--kernel", path])
    assert code == exit_code and out == ""
    prefix = "numeric error: " if exit_code == EXIT_NUMERIC else "error: "
    assert err == f"{prefix}synthetic failure\n"


def test_cli_snapshot_of_the_checkout_against_itself():
    # the snapshot that backs a "byte-identical" claim: here both sides are this checkout
    src = str(Path(cdbundle.__file__).parents[1])
    script = str(Path(__file__).with_name("cli_snapshot.py"))
    proc = subprocess.run([sys.executable, script, src, src], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr
    *lines, summary = proc.stdout.splitlines()
    assert len(lines) > 300 and all(line.startswith("same  ") for line in lines)
    assert summary == f"{len(lines)}/{len(lines)} identical"


@pytest.mark.parametrize("case", sorted(SCENARIOS))
def test_reproduce_cases_pass(capsys, case):
    code, out, _ = run(capsys, ["reproduce", "--case", case])
    assert code == EXIT_OK, out
    assert "FAIL" not in out


def test_canonical_json_formatting():
    blob = canonical_json({"b": 1.0, "a": [True, None, 0.1], "c": 1 + 2j})
    doc = json.loads(blob)
    assert doc["c"] == {"im": 2.0, "re": 1.0}
    assert list(json.loads(blob)) == ["a", "b", "c"]
    # 17 significant digits round-trip doubles exactly
    x = 0.1 + 0.2
    assert float(canonical_json(x)) == x
