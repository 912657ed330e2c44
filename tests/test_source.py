"""Properties of the program's source text."""

import ast
from pathlib import Path

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
