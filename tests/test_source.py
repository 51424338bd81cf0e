"""Static checks over the package source, and the shape of its records."""

import argparse
import ast
import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

import wtap
from wtap.cli import build_parser
from wtap.fractional import FracRecord, FractionalPathSolver
from wtap.instance import Link, Request, TreeInstance
from wtap.path_online import PathSolver, ServeRecord
from wtap.pruning import PathLink, build_minimal_instance
from wtap.tree_online import PairReport


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


def test_package_leaves_the_collector_alone():
    # the collector's pauses are kept small by allocating less, never by
    # switching it off or forcing a collection
    found = []
    for path in sorted(Path(wtap.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Import) and any(
                      a.name == "gc" for a in node.names)
                  or isinstance(node, ast.ImportFrom) and node.module == "gc"
                  or isinstance(node, ast.Name) and node.id == "gc"
                  or isinstance(node, ast.Constant) and node.value == "gc"]
    assert not found, f"gc used at {', '.join(found)}"



def test_imports_only_the_standard_library():
    # the package has no runtime dependency: every import is relative or
    # names a standard-library module
    found = []
    for path in sorted(Path(wtap.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.partition(".")[0] not in sys.stdlib_module_names]
    assert not found, f"non-stdlib import at {', '.join(found)}"


def test_importing_the_package_loads_no_openssl():
    # hashlib maps OpenSSL's libcrypto, several MB resident; only taking
    # a digest needs it, and no solve takes one
    src = str(Path(wtap.__file__).parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import wtap; "
            "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# package functions no run names, each with the reason it stays
_UNNAMED_BY_A_RUN = {
    "cli._Parser.error": "argparse calls it",
    "oracles.verify_nice": "ROADMAP item 4 decides its place",
    "oracles.hat_dual": "ROADMAP item 4 decides its place",
    "fractional.restricted_solution": "goes with ROADMAP item 3",
}


def _defined_functions(tree, prefix="") -> list:
    """Dotted names of the functions and methods defined in a tree."""
    out = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append(prefix + node.name)
            out += _defined_functions(node, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            out += _defined_functions(node, f"{prefix}{node.name}.")
        else:
            out += _defined_functions(node, prefix)
    return out


def _named(node, used: set, inside=frozenset()):
    """Add to ``used`` every name, attribute and string constant under
    ``node``, except within a function of that same name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        inside = inside | {node.name}
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value
    else:
        name = None
    if name is not None and name not in inside:
        used.add(name)
    for child in ast.iter_child_nodes(node):
        _named(child, used, inside)


def test_every_package_function_is_named_where_a_run_reaches():
    # a function or method of the package must be named by package code
    # other than __init__ (which only re-exports), or by the benchmark,
    # whose tracer names its targets by string; what only tests name
    # belongs beside the tests.  This matches names, not call sites: a
    # name any other code mentions, say one method name shared by two
    # classes, passes for every function that bears it.
    package = Path(wtap.__file__).parent
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in [*package.glob("*.py"), *perfbench.glob("*.py")]}
    used = set()
    for path, tree in trees.items():
        if path.name != "__init__.py":
            _named(tree, used)
    defined = [f"{path.stem}.{name}" for path, tree in trees.items()
               if path.parent == package for name in _defined_functions(tree)]
    assert set(_UNNAMED_BY_A_RUN) <= set(defined)
    unnamed = [name for name in defined
               if not name.endswith("__") and name not in _UNNAMED_BY_A_RUN
               and name.rpartition(".")[2] not in used]
    assert not unnamed, f"named only by tests: {', '.join(sorted(unnamed))}"


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


@pytest.mark.parametrize("name", ["oracles", "decomposition"])
def test_imports_only_errors_and_instance(name):
    # the exact optima are the ground truth for pruning and the solvers,
    # so they must not be computed with the code they check; and the
    # decomposition is the bottom tree layer, which the tree solver and
    # the run pipeline build on
    package = Path(wtap.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
    imported = _imported_modules(tree) & modules
    assert imported <= {"errors", "instance"}, sorted(imported)


def test_coverage_check_uses_nothing_of_the_tree_solver():
    # run-tree's coverage check reads only the instance and the bought
    # link ids, so a fault in the solver or the decomposition cannot hide
    # itself from it
    package = Path(wtap.__file__).parent
    tree = ast.parse((package / "cli.py").read_text(encoding="utf-8"))
    layers = {"tree_online", "decomposition"}
    solver_names = set(layers)
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module in layers:
            solver_names.update(a.asname or a.name for a in node.names)
    assert solver_names > layers
    check, = [node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name == "_uncovered_requested_edges"]
    used = {node.id for node in ast.walk(check) if isinstance(node, ast.Name)}
    assert not used & solver_names, sorted(used & solver_names)


_INST = TreeInstance(3, [(0, 1), (1, 2)], 0, [(0, 2, 3)], [(0, 2)])
_RECORDS = [
    (Link, (0, 2, 1, 0)),
    (Request, (0, 2)),
    (PathLink, (0, 2, 4, 7)),
    (ServeRecord, (1, 3, 0, None, (2,), 2)),
    (FracRecord, (1, 4, "large", 0.5, 1.25, 2)),
    (PairReport, (0, 2, (0, 1), (0,), 1, _INST)),
]


@pytest.mark.parametrize("cls, args", _RECORDS,
                         ids=[cls.__name__ for cls, _ in _RECORDS])
def test_records_are_slotted_and_compare_by_field(cls, args):
    # the per-entry and per-request records are slotted: no per-instance
    # dict, and equality and hashing field by field
    a, b = cls(*args), cls(*args)
    assert "__slots__" in cls.__dict__
    assert not hasattr(a, "__dict__")
    assert a is not b and a == b and hash(a) == hash(b)
    changed = cls(args[0] + 1, *args[1:])
    assert changed != a


_FIELDS = {
    Link: ["u", "v", "cost", "id"],
    PathLink: ["left", "right", "cost", "id"],
    Request: ["s", "t"],
    ServeRecord: ["request", "y_raise", "type1", "type2", "type3",
                  "frontier_right", "skipped"],
    FracRecord: ["request", "opt_i", "kind", "t_star", "incremental_cost",
                 "band_size"],
    PairReport: ["s", "t", "served", "bought_sources", "incremental_cost",
                 "inst"],
}


@pytest.mark.parametrize("cls", list(_FIELDS), ids=lambda cls: cls.__name__)
def test_records_keep_only_these_fields(cls):
    # a link record exists once per link and a serve record once per
    # request, so a new field costs once per entry; it shows up here as
    # a change to this table
    assert [f.name for f in dataclasses.fields(cls)] == _FIELDS[cls]


_STATE = {
    PathSolver: ["bought", "charge", "cost", "covered", "fenwick",
                 "frontier", "m", "minimal", "n_global", "residual",
                 "rooted_by_right", "y"],
    FractionalPathSolver: ["_choice", "_cost_of", "_g", "_g_at", "_left_of",
                           "_lefts", "_stale", "_witness", "m", "minimal",
                           "requested", "theta", "total_cost", "x"],
}


@pytest.mark.parametrize("cls", list(_STATE), ids=lambda cls: cls.__name__)
def test_path_solvers_keep_only_this_state(cls):
    # every path of a tree instance owns one solver, so a new field costs
    # once per path; it shows up here as a change to this table
    minimal, _ = build_minimal_instance(2, [PathLink(0, 2, 2, 0)])
    assert sorted(vars(cls(minimal))) == _STATE[cls]


_RUN_OPTIONS = ["--quiet", "--report"]
_OPTIONS = {
    "decompose": ["--quiet"],
    "prune": ["--path", "--quiet"],
    "run-path": ["--quiet", "--report", "--trace"],
    "run-tree": _RUN_OPTIONS,
    "run-frac": _RUN_OPTIONS,
    "oracle": ["--quiet"],
    "verify": ["--quiet"],
    "lowerbound": ["--B", "--algo", "--csv", "--format", "--k", "--quiet"],
    "gen": ["--cost-spread", "--kind", "--links", "--n", "--no-feasible",
            "--out", "--quiet", "--requests", "--seed", "-o"],
    "sweep": ["--cost-spread", "--format", "--links", "--n", "--out",
              "--quiet", "--requests", "--seed", "--seeds", "-o"],
}


def test_each_subcommand_offers_only_the_options_it_reads():
    # a new option, or an option given to one more subcommand, shows up
    # here as a change to this table
    subs, = [a for a in build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    found = {name: sorted(opt for action in p._actions
                          for opt in action.option_strings
                          if opt not in ("-h", "--help"))
             for name, p in subs.choices.items()}
    assert found == _OPTIONS
