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


def _imported_modules(tree) -> set:
    """Names of the wtap modules a module imports, any import form."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[-1] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                found.add(node.module.split(".")[-1])
            if node.level or node.module == "wtap":
                found.update(a.name for a in node.names)
    return found


def test_path_layers_never_import_tree_layers():
    # pruning, the path solvers and the oracles work in one path's
    # coordinates; tree coordinates enter only through tree_online
    package = Path(wtap.__file__).parent
    leaks = []
    for name in ("pruning", "path_online", "fractional", "oracles"):
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        leaks += [f"{name} imports {m}" for m in sorted(
            _imported_modules(tree) & {"decomposition", "tree_online"})]
    assert not leaks, "; ".join(leaks)
