import ast
from pathlib import Path

import gadic


def test_no_assert_statements_in_library():
    # `python -O` strips asserts, so a soundness check must raise instead
    src = Path(gadic.__file__).parent
    files = sorted(src.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
