"""Golden corpus: CLI outputs frozen byte for byte.

Every file under ``tests/golden/`` is the output of one CLI command on a
seeded ``wtap gen`` instance, or one adversary table.  Run reports have
``wall_time`` zeroed; everything else is the command's exact output.
Refactors must reproduce the corpus unchanged.  After an intended
output change, regenerate it with

    PYTHONPATH=src python tests/test_golden.py --regenerate

Run as a script with any other arguments, it prints its usage, exits 2
and writes nothing.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import wtap
from wtap.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> `wtap gen` arguments; tree instances with more than
# TREE_ENUM_LINK_CAP (24) links report a null opt, and the no-feasible
# ones contain a request edge no link covers (exit 3); path-n100-long
# serves 374 edges out of position order, repeats included, so the
# fractional solver's optimum is both kept and recomputed mid-run
INSTANCES = {
    "path-n6": "--kind path --n 6 --links 4 --requests 4 --seed 1",
    "path-n12": "--kind path --n 12 --links 10 --requests 10 --seed 2",
    "path-n40": "--kind path --n 40 --links 40 --requests 6 --seed 3",
    "path-n100": "--kind path --n 100 --links 120 --requests 4 --seed 4",
    "path-n100-long":
        "--kind path --n 100 --links 100 --requests 10 --seed 17",
    "path-n8-norequests": "--kind path --n 8 --links 6 --seed 5",
    "path-n9-uncoverable":
        "--kind path --n 9 --links 4 --requests 4 --seed 2 --no-feasible",
    "tree-n7": "--kind tree --n 7 --links 5 --requests 4 --seed 6",
    "tree-n10": "--kind tree --n 10 --links 8 --requests 6 --seed 7",
    "tree-n14": "--kind tree --n 14 --links 10 --requests 8 --seed 8",
    "tree-n40": "--kind tree --n 40 --links 40 --requests 20 --seed 9",
    "tree-n150": "--kind tree --n 150 --links 300 --requests 50 --seed 10",
    "tree-n9-uncoverable":
        "--kind tree --n 9 --links 3 --requests 4 --seed 1 --no-feasible",
}

LOWERBOUND_ALGOS = ("greedy", "alg1", "top")


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _outcome(argv, report_path=None) -> tuple:
    """(file suffix, content): the report or stdout, or the exit and stderr."""
    code, out, err = _cli(argv)
    if code not in (0, 2):
        return "exit", f"{code}\n{err}"
    if report_path is None:
        return "json", out
    data = json.loads(Path(report_path).read_text())
    data["wall_time"] = 0.0
    return "json", json.dumps(data, indent=2, sort_keys=True)


def render() -> dict:
    """Every golden file's name and content, computed afresh."""
    files = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, gen_args in INSTANCES.items():
            code, text, err = _cli(["gen", *gen_args.split()])
            assert code == 0, err
            files[f"{name}.instance"] = text
            inst_path = str(Path(tmp) / f"{name}.txt")
            Path(inst_path).write_text(text)
            commands = ["run-tree"]
            if "--kind path" in gen_args:
                commands += ["run-path", "run-frac"]
            for cmd in commands:
                report = str(Path(tmp) / f"{name}.{cmd}.json")
                suffix, content = _outcome(
                    [cmd, inst_path, "--quiet", "--report", report], report)
                files[f"{name}.{cmd}.{suffix}"] = content
            for cmd in (["decompose"], ["prune", "--path", "0"]):
                suffix, content = _outcome([*cmd, inst_path])
                files[f"{name}.{cmd[0]}.{suffix}"] = content
    for algo in LOWERBOUND_ALGOS:
        code, out, err = _cli(["lowerbound", "--k", "1..5", "--algo", algo])
        assert code == 0, err
        files[f"lowerbound-{algo}.csv"] = out
    return files


def assert_is_the_corpus(files: dict):
    assert sorted(files) == sorted(p.name for p in GOLDEN.iterdir())
    for name, content in files.items():
        assert (GOLDEN / name).read_bytes() == content.encode(), name


def test_golden_corpus_is_reproduced():
    assert_is_the_corpus(render())


def test_golden_corpus_is_reproduced_under_python_O():
    # runtime invariants raise instead of asserting, so stripping the
    # asserts must change no output
    code = ("import json, sys, test_golden; "
            "json.dump([sys.flags.optimize, test_golden.render()], sys.stdout)")
    path = os.pathsep.join([str(Path(wtap.__file__).parent.parent),
                            str(Path(__file__).parent)])
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    optimize, files = json.loads(proc.stdout)
    assert optimize == 1
    assert_is_the_corpus(files)


USAGE = "usage: python tests/test_golden.py --regenerate"


def test_script_writes_only_when_asked_to_regenerate(tmp_path):
    # a copy of this script beside an empty golden/ must print its usage,
    # exit 2 and leave the directory empty for anything but --regenerate,
    # which writes the corpus afresh
    script = tmp_path / "test_golden.py"
    script.write_text(Path(__file__).read_text(encoding="utf-8"), encoding="utf-8")
    golden = tmp_path / "golden"
    golden.mkdir()
    env = {**os.environ, "PYTHONPATH": str(Path(wtap.__file__).parent.parent)}
    for argv in ([], ["--help"], ["regenerate"], ["--regenerate", "--help"]):
        proc = subprocess.run([sys.executable, str(script), *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", USAGE + "\n")
        assert list(golden.iterdir()) == [], argv
    proc = subprocess.run([sys.executable, str(script), "--regenerate"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in golden.iterdir()) == sorted(
        p.name for p in GOLDEN.iterdir())
    for path in golden.iterdir():
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes(), path.name


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        print(USAGE, file=sys.stderr)
        sys.exit(2)
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.iterdir():
        old.unlink()
    for name, content in render().items():
        (GOLDEN / name).write_bytes(content.encode())
    print(f"wrote {len(list(GOLDEN.iterdir()))} files to {GOLDEN}",
          file=sys.stderr)
