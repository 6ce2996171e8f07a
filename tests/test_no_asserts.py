import ast
from pathlib import Path

import alcovekit


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements, so checks must raise explicitly
    root = Path(alcovekit.__file__).parent
    hits = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        hits += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                 if isinstance(node, ast.Assert)]
    assert hits == []
