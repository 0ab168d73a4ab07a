import ast
import pathlib

SOURCES = sorted((pathlib.Path(__file__).parents[1] / "src" / "cdbundle").glob("*.py"))


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so every check in the library must raise
    assert SOURCES
    for source in SOURCES:
        for node in ast.walk(ast.parse(source.read_text())):
            assert not isinstance(node, ast.Assert), f"{source.name}:{node.lineno}"
