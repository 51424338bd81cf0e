"""Static checks over the package source."""

import ast
from pathlib import Path

import wtap


def test_no_runtime_assert():
    # python -O strips assert statements, so a runtime invariant must
    # raise InvariantViolationError instead
    sources = sorted(Path(wtap.__file__).parent.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"runtime assert at {', '.join(found)}"
