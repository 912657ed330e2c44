"""Properties of the program's source text."""

import ast
import importlib
from pathlib import Path

import parafusion

SOURCE = Path(__file__).parent.parent / "src" / "parafusion"


def test_program_has_no_assert_statements():
    # python -O strips assert statements, so no runtime check may be one
    paths = sorted(SOURCE.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_size_refusal_goes_through_one_helper():
    # one budget constant, and CodeTooLargeError raised only by check_budget
    paths = sorted(SOURCE.glob("*.py"))
    raises = [
        path.name
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", None) == "CodeTooLargeError"
    ]
    assert raises == ["arith.py"]
    assert sum(path.read_text().count("2**20") for path in paths) == 1


def test_no_module_imports_a_private_name():
    # each rule lives in the module that owns it; other modules call its public names
    paths = sorted(SOURCE.glob("*.py"))
    assert len(paths) > 10
    private = [
        f"{path.name}: {alias.name}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("parafusion"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_package_names_are_the_modules_all():
    # each module's __all__ is the one list of its public names
    for name in ("arith", "codes", "fusion", "lattice", "parafermion", "u0", "ud",
                 "virasoro"):
        module = importlib.import_module(f"parafusion.{name}")
        missing = [n for n in module.__all__
                   if getattr(parafusion, n, None) is not getattr(module, n)]
        assert missing == [], name
