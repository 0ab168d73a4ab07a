import ast
import importlib
import pathlib

ROOT = pathlib.Path(__file__).parents[1]
SOURCES = sorted((ROOT / "src" / "cdbundle").glob("*.py"))
BENCH = ROOT / "bench"


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so every check in the library must raise
    assert SOURCES
    for source in SOURCES:
        for node in ast.walk(ast.parse(source.read_text())):
            assert not isinstance(node, ast.Assert), f"{source.name}:{node.lineno}"


def _bench_tables() -> dict:
    """The literal tables assigned at the top level of bench/tracing.py, read without running it."""
    tree = ast.parse((BENCH / "tracing.py").read_text())
    return {target.id: ast.literal_eval(node.value)
            for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and target.id in ("FUNCTIONS", "METHODS")}


def _resolve(module: str, name: str):
    """What ``from module import name`` binds: an attribute, or else a submodule."""
    owner = importlib.import_module(module)
    if not hasattr(owner, name):
        importlib.import_module(f"{module}.{name}")
    return getattr(owner, name)


def test_names_the_benchmark_reaches_resolve():
    # the benchmark names library functions and methods from outside the package; a rename in
    # the library would otherwise first show when a traced run or a workload fails
    tables = _bench_tables()
    assert tables["FUNCTIONS"] and tables["METHODS"]
    for _span, module, attr in tables["FUNCTIONS"]:
        assert callable(getattr(importlib.import_module(f"cdbundle.{module}"), attr, None)), attr
    for _span, module, cls, attr in tables["METHODS"]:
        assert attr in vars(getattr(importlib.import_module(f"cdbundle.{module}"), cls)), attr

    tree = ast.parse((BENCH / "workloads.py").read_text())
    aliases, imported = {}, 0
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "cdbundle":
            for alias in node.names:
                aliases[alias.asname or alias.name] = _resolve(node.module, alias.name)
                imported += 1
    assert imported
    used = [(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in aliases]
    assert used
    for alias, attr in used:
        assert hasattr(aliases[alias], attr), f"{alias}.{attr}"
