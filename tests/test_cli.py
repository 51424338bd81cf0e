import csv
import hashlib
import io
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wtap import cli, instance
from wtap.adversary import CONTESTANTS
from wtap.cli import _uncovered_requested_edges, main
from wtap.decomposition import decompose, project
from wtap.errors import BadInputError
from wtap.generators import gen_random
from wtap.instance import TreeInstance, format_instance, parse_instance

PATH_INSTANCE = """\
n 4 root 0
edge 0 1
edge 1 2
edge 2 3
link 0 3 4
link 0 1 1
link 1 3 2
link 2 3 1
request 0 2
request 1 3
"""

STAR_INSTANCE = """\
n 4 root 0
edge 0 1
edge 0 2
edge 0 3
link 1 2 1
link 2 3 1
link 0 3 1
request 1 2
"""

UNCOVERABLE = """\
n 3 root 0
edge 0 1
edge 1 2
link 0 1 1
request 1 2
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def last_json_block(out):
    """The pretty-printed object at the end of stdout."""
    start = out.rfind("\n{\n")
    return json.loads(out[0 if start == -1 else start + 1:])


def test_decompose_payload(tmp_path, capsys):
    rc = main(["decompose", write(tmp_path, "i.txt", STAR_INSTANCE)])
    out = capsys.readouterr().out
    assert rc == 0
    data = json.loads(out)
    assert data["n"] == 4
    assert data["width"] <= data["width_bound"]
    assert len(data["edge_to_path"]) == 3
    owners = {p["id"] for p in data["paths"]}
    assert set(data["edge_to_path"]) <= owners


def test_prune_payload(tmp_path, capsys):
    gen = gen_random("tree", 30, 40, 16.0, seed=5)
    text = format_instance(gen)
    inst = parse_instance(text)
    decomp = decompose(inst)
    spans = [set() for _ in decomp.paths]
    for ln in inst.links:
        for pid, left, right in project(inst, decomp, ln):
            spans[pid].add((left, right))
    path = write(tmp_path, "i.txt", text)
    assert len(decomp.paths) > 1
    for pid in range(len(decomp.paths)):
        rc = main(["prune", path, "--path", str(pid)])
        data = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert data["path"] == pid
        assert len(data["kept"]) + len(data["removed"]) == len(spans[pid])
        kept_ids = {row["id"] for row in data["kept"]}
        for row in data["removed"]:
            assert row["reason"] in ("dominated-rooted", "redundant-cover")
            assert set(row["replacement"]) <= kept_ids
            assert 1 <= len(row["replacement"]) <= 3


def test_prune_path_out_of_range(tmp_path, capsys):
    rc = main(["prune", write(tmp_path, "i.txt", PATH_INSTANCE), "--path", "9"])
    assert rc == 4
    capsys.readouterr()
    # with no tree edges there is no path id to name a range of
    rc = main(["prune", write(tmp_path, "j.txt", "n 1 root 0\n"), "--path", "0"])
    err = capsys.readouterr().err
    assert rc == 4
    assert "no decomposition paths" in err and "out of range" not in err


def test_run_path_trace_keys(tmp_path, capsys):
    rc = main(["run-path", write(tmp_path, "i.txt", PATH_INSTANCE), "--trace"])
    out = capsys.readouterr().out
    assert rc == 0
    trace = [json.loads(l) for l in out.splitlines() if l.startswith('{"')]
    assert len(trace) == 4  # requests 0-2 and 1-3 expand to two edges each
    for row in trace:
        assert set(row) == {"request", "y_raise", "type1", "type2", "type3",
                            "Z_right_endpoint"}
    summary = last_json_block(out)
    assert summary["algorithm"] == "path-online"
    assert summary["invariants_ok"] is True
    assert summary["ratio"] is not None


def test_run_path_report_verify_round_trip(tmp_path, capsys):
    inst = write(tmp_path, "i.txt", PATH_INSTANCE)
    report = str(tmp_path / "run.json")
    assert main(["run-path", inst, "--report", report, "--quiet"]) == 0
    capsys.readouterr()
    assert main(["verify", report]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_verify_flags_tampering(tmp_path, capsys):
    inst = write(tmp_path, "i.txt", PATH_INSTANCE)
    report = str(tmp_path / "run.json")
    main(["run-path", inst, "--report", report, "--quiet"])
    data = json.loads(open(report).read())
    data["final_cost"] = "999"
    open(report, "w").write(json.dumps(data))
    capsys.readouterr()
    rc = main(["verify", report])
    out = capsys.readouterr().out
    assert rc == 2
    assert "final cost" in out


def _forge_invariant(key, value):
    return lambda data: data["invariants"][0].update({key: value})


@pytest.mark.parametrize("forge, message", [
    (lambda data: data.update(opt="1"), "opt 1 stored, 4 rerun"),
    (lambda data: data.update(ratio=0.5), "ratio 0.5 stored, 1.25 rerun"),
    (_forge_invariant("id", "forged"), "invariant record mismatch"),
    (_forge_invariant("ok", False), "invariant record mismatch"),
    (_forge_invariant("detail", "forged"), "invariant record mismatch"),
], ids=["opt", "ratio", "invariant-id", "invariant-ok", "invariant-detail"])
def test_verify_flags_each_forged_field(tmp_path, capsys, forge, message):
    inst = str(Path(__file__).parent / "golden" / "path-n12.instance")
    report = str(tmp_path / "run.json")
    assert main(["run-path", inst, "--report", report, "--quiet"]) == 0
    data = json.loads(open(report).read())
    assert (data["opt"], data["ratio"]) == ("4", 1.25)
    assert data["invariants"][0] == {"id": "dual-feasible", "ok": True,
                                     "detail": ""}
    forge(data)
    open(report, "w").write(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", report]) == 2
    assert capsys.readouterr().out.splitlines() == [message]


def test_verify_rejects_garbage(tmp_path, capsys):
    bad = write(tmp_path, "r.json", "not a report")
    assert main(["verify", bad]) == 4


@pytest.mark.parametrize("payload", ["[1, 2]", '"report"', "null", "3"])
def test_verify_rejects_non_object_report(tmp_path, capsys, payload):
    bad = write(tmp_path, "r.json", payload)
    assert main(["verify", bad]) == 4
    assert capsys.readouterr().err == (
        "error: malformed report: top level is not a JSON object\n")


def test_run_tree_report_and_verify(tmp_path, capsys):
    inst = write(tmp_path, "i.txt", STAR_INSTANCE)
    report = str(tmp_path / "run.json")
    rc = main(["run-tree", inst, "--report", report, "--quiet"])
    out = capsys.readouterr().out
    assert rc == 0
    summary = last_json_block(out)
    assert summary["algorithm"] == "tree-online"
    assert summary["invariants_ok"] is True
    assert main(["verify", report, "--quiet"]) == 0


def test_run_report_formats_the_instance_once(monkeypatch):
    inst = parse_instance(STAR_INSTANCE)
    text = format_instance(inst)
    digest = hashlib.sha256(text.encode()).hexdigest()
    calls = []

    def counting(i):
        calls.append(i)
        return format_instance(i)

    monkeypatch.setattr(cli, "format_instance", counting)
    monkeypatch.setattr(instance, "format_instance", counting)
    rep = cli.run_report("tree-online", inst)
    assert len(calls) == 1
    assert (rep.instance_text, rep.instance_digest) == (text, digest)


def test_coverage_check_counts_paths_through_each_edge():
    inst = parse_instance(STAR_INSTANCE)     # request 1 2 needs edges 0, 1
    assert _uncovered_requested_edges(inst, []) == [0, 1]
    assert _uncovered_requested_edges(inst, [1]) == [0]
    assert _uncovered_requested_edges(inst, [2, 1]) == [0]
    assert _uncovered_requested_edges(inst, [0]) == []


def test_coverage_check_matches_walked_paths():
    for seed in range(20):
        inst = gen_random("tree", 25, 10, 8.0, seed=seed, feasible=False,
                          request_count=6)
        rng = random.Random(seed)
        bought = rng.sample(range(len(inst.links)), rng.randrange(11))
        covered = {e for i in bought
                   for e in inst.tree_path(inst.links[i].u, inst.links[i].v)}
        asked = {e for r in inst.requests for e in inst.tree_path(r.s, r.t)}
        assert _uncovered_requested_edges(inst, bought) == (
            sorted(asked - covered))


def uncovered_by_difference_counts(inst, bought) -> list:
    """The coverage check by tree difference counts: each path adds +1 at
    both ends and -2 at its top vertex, the parent of the child end of
    the walked path's shallowest edge, so each subtree sum counts the
    paths through the edge above it."""
    def paths_through(ends):
        counts = [0] * inst.n
        for u, v in ends:
            counts[u] += 1
            counts[v] += 1
            path = inst.tree_path(u, v)
            top = inst.parent[min((inst.child_of_edge[e] for e in path),
                                  key=inst.depth.__getitem__)] if path else u
            counts[top] -= 2
        return counts

    links = paths_through((inst.links[i].u, inst.links[i].v) for i in bought)
    asked = paths_through((r.s, r.t) for r in inst.requests)
    for v in reversed(inst.order):
        p = inst.parent[v]
        if p >= 0:
            links[p] += links[v]
            asked[p] += asked[v]
    return sorted(inst.edge_of_child[v] for v in range(inst.n)
                  if asked[v] and not links[v])


@given(n=st.integers(2, 40), links=st.integers(0, 30),
       requests=st.integers(0, 12), feasible=st.booleans(),
       kind=st.sampled_from(["tree", "path"]), seed=st.integers(0, 10 ** 6))
def test_coverage_check_matches_difference_counts(
        n, links, requests, feasible, kind, seed):
    # without the feasibility layer some requested edges have no link at
    # all; the extra requests repeat a vertex as both ends
    gen = gen_random(kind, n, links, 8.0, seed, feasible=feasible,
                     request_count=requests)
    rng = random.Random(seed)
    pairs = [(r.s, r.t) for r in gen.requests]
    pairs += [(v, v) for v in rng.sample(range(n), min(n, 3))]
    rng.shuffle(pairs)
    inst = TreeInstance(gen.n, gen.edges, gen.root,
                        [(l.u, l.v, c) for l, c in zip(gen.links, gen.raw_costs)],
                        pairs)
    for bought in ([], range(len(inst.links)),
                   rng.sample(range(len(inst.links)),
                              rng.randrange(len(inst.links) + 1))):
        assert _uncovered_requested_edges(inst, bought) == (
            uncovered_by_difference_counts(inst, bought))


def test_run_frac_summary(tmp_path, capsys):
    rc = main(["run-frac", write(tmp_path, "i.txt", PATH_INSTANCE)])
    out = capsys.readouterr().out
    assert rc == 0
    summary = last_json_block(out)
    assert summary["algorithm"] == "fractional"
    assert summary["invariants_ok"] is True


def test_oracle_picks_the_right_backend(tmp_path, capsys):
    rc = main(["oracle", write(tmp_path, "p.txt", PATH_INSTANCE)])
    out = capsys.readouterr().out
    assert rc == 0
    assert json.loads(out)["method"] == "interval-dp"

    rc = main(["oracle", write(tmp_path, "s.txt", STAR_INSTANCE)])
    out = capsys.readouterr().out
    assert rc == 0
    data = json.loads(out)
    assert data["method"] == "subset-enum"
    assert data["opt"] == 1


def test_lowerbound_csv_table(capsys):
    rc = main(["lowerbound", "--B", "2", "--k", "1..3", "--algo", "greedy",
               "--quiet"])
    out = capsys.readouterr().out
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert list(rows[0]) == ["B", "k", "n", "alg_cost", "opt", "ratio",
                             "cert_ok"]
    assert [r["ratio"] for r in rows] == ["2.0", "4.0", "8.0"]
    assert all(r["cert_ok"] == "True" for r in rows)


def test_lowerbound_json_and_file(tmp_path, capsys):
    out_file = str(tmp_path / "lb.json")
    rc = main(["lowerbound", "--B", "2", "--k", "2", "--algo", "top",
               "--format", "json", "--csv", out_file, "--quiet"])
    assert rc == 0
    rows = json.loads(open(out_file).read())
    assert rows[0]["alg_cost"] == 4
    assert rows[0]["opt"] == 1


def test_lowerbound_bad_algo(capsys, monkeypatch):
    # the name is rejected while parsing, before any hierarchy is built
    monkeypatch.setattr(cli, "HierarchicalInstance", None)
    assert main(["lowerbound", "--algo", "nope", "--quiet"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert "'nope'" in err and all(name in err for name in CONTESTANTS)


def test_gen_is_deterministic_and_runnable(tmp_path, capsys):
    a = str(tmp_path / "a.txt")
    b = str(tmp_path / "b.txt")
    argv = ["gen", "--n", "9", "--seed", "5", "--links", "6",
            "--requests", "4", "--quiet"]
    assert main(argv + ["-o", a]) == 0
    assert main(argv + ["-o", b]) == 0
    assert open(a).read() == open(b).read()
    capsys.readouterr()
    assert main(["run-tree", a, "--quiet"]) == 0
    assert last_json_block(capsys.readouterr().out)["invariants_ok"] is True


def test_gen_path_feeds_run_path(tmp_path, capsys):
    p = str(tmp_path / "p.txt")
    assert main(["gen", "--kind", "path", "--n", "7", "--seed", "2",
                 "--links", "5", "--requests", "3", "--quiet", "-o", p]) == 0
    capsys.readouterr()
    assert main(["run-path", p, "--quiet"]) == 0


@pytest.mark.parametrize("command", ["run-tree", "run-path", "run-frac"])
def test_run_commands_serve_the_one_vertex_instance(tmp_path, capsys, command):
    one = write(tmp_path, "one.txt", "n 1 root 0\n")
    assert main([command, one, "--quiet"]) == 0
    summary = last_json_block(capsys.readouterr().out)
    assert float(summary["final_cost"]) == 0
    assert summary["invariants_ok"] is True


def test_sweep_tree_table(tmp_path, capsys):
    out_file = str(tmp_path / "sweep.csv")
    rc = main(["sweep", "--n", "5..6", "--seeds", "2",
               "--requests", "4", "--quiet", "-o", out_file])
    assert rc == 0
    rows = list(csv.DictReader(open(out_file)))
    assert list(rows[0]) == ["n", "seed", "cost", "opt", "ratio",
                             "invariants_ok", "error"]
    assert len(rows) == 4
    for r in rows:
        assert r["error"] == ""
        assert r["invariants_ok"] == "True"


def test_lowerbound_prints_ratio_summary_on_stderr(capsys):
    argv = ["lowerbound", "--k", "1..2", "--algo", "greedy",
            "--format", "json"]
    rc = main(argv)
    out, err = capsys.readouterr()
    assert rc == 0
    rows = json.loads(out)
    assert [r["ratio"] for r in rows] == [2.0, 4.0]
    assert all(r["cert_ok"] for r in rows)
    x = [math.log2(r["n"]) for r in rows]
    slope = (2.0 * x[0] + 4.0 * x[1]) / (x[0] ** 2 + x[1] ** 2)
    assert err.splitlines() == [
        f"max ratio at n={rows[0]['n']}: 2.0000",
        f"max ratio at n={rows[1]['n']}: 4.0000",
        f"fitted ratio/log2(n) slope: {slope:.4f}",
    ]
    # --quiet drops the summary and leaves stdout as it was
    assert main(argv + ["--quiet"]) == 0
    assert capsys.readouterr() == (out, "")


def test_exit_codes(tmp_path, capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["run-path"]) == 4              # missing argument
    assert main(["frobnicate"]) == 4            # unknown subcommand
    assert main(["run-path", str(tmp_path / "missing.txt")]) == 4
    assert main(["run-tree",
                 write(tmp_path, "u.txt", UNCOVERABLE), "--quiet"]) == 3
    assert main(["run-tree", write(tmp_path, "j.txt",
                                   "n 2 root 0\nedge 0 1 junk\n")]) == 4


@pytest.mark.parametrize("command", ["run-path", "run-tree", "run-frac"])
def test_run_commands_take_no_seed(tmp_path, capsys, command):
    # every solver is deterministic, so a seed would change nothing
    inst = write(tmp_path, "i.txt", PATH_INSTANCE)
    assert main([command, inst, "--seed", "1"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: unrecognized arguments: --seed 1\n"


@pytest.mark.parametrize("cost", ["e++0", "1e+-5"])
def test_cost_exponent_with_two_signs_names_the_token(tmp_path, capsys, cost):
    text = f"n 2 root 0\nedge 0 1\nlink 0 1 {cost}\n"
    assert main(["run-tree", write(tmp_path, "signs.txt", text)]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: line 3: Invalid literal for Fraction: {cost!r}\n"


@pytest.mark.parametrize("command", ["run-tree", "run-path", "run-frac",
                                     "oracle", "decompose", "prune"])
def test_instance_file_not_utf8_exits_4_with_one_line(tmp_path, capsys, command):
    path = tmp_path / "bytes.txt"
    path.write_bytes(b"\xff\xfe")
    assert main([command, str(path)]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["gen", "--n", "10", "--cost-spread", "inf"],
    ["gen", "--n", "10", "--cost-spread", "nan"],
    ["gen", "--n", "10", "--links", "2000", "--cost-spread", "1e308"],
    ["sweep", "--cost-spread", "inf"],
    ["lowerbound", "--k", "8000"],
    ["verify", 5],                  # a report with this instance_text
    ["verify", None],
    ["lowerbound", "--k", "1..99999999999"],
    ["lowerbound", "--k", "1..3,x"],
    ["sweep", "--n", "1..99999999999"],
    ["lowerbound", "--algo", "nope", "--k", "1..2"],
    ["lowerbound", "--algo", "alg1", "--B", "3"],
])
def test_hostile_arguments_exit_4_with_one_line(tmp_path, capsys, argv):
    if argv[0] == "verify":
        report = str(tmp_path / "run.json")
        main(["run-path", write(tmp_path, "i.txt", PATH_INSTANCE),
              "--report", report, "--quiet"])
        data = json.loads(open(report).read())
        data["instance_text"] = argv[1]
        open(report, "w").write(json.dumps(data))
        argv = ["verify", report]
    capsys.readouterr()
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 200, err


@pytest.mark.parametrize("argv", [
    ["gen", "--n", "5", "-o", "{out}"],
    ["run-tree", "{inst}", "--report", "{out}"],
    ["lowerbound", "--k", "1", "--csv", "{out}"],
    ["sweep", "--n", "5", "--seeds", "1", "-o", "{out}"],
], ids=lambda argv: argv[0])
def test_unwritable_output_exits_4_naming_the_path(tmp_path, capsys, argv):
    out = tmp_path / "no-such-dir" / "x.out"
    inst = write(tmp_path, "i.txt", PATH_INSTANCE)
    assert main([a.format(out=out, inst=inst) for a in argv]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["gen", "--kind", "path", "--n", "5", "--links", "-3", "--requests", "-4"],
    ["gen", "--kind", "tree", "--n", "5", "--links", "-1"],
    ["gen", "--kind", "tree", "--n", "5", "--requests", "-1"],
    ["sweep", "--seeds", "-2"],
    ["sweep", "--links", "-1"],
    ["sweep", "--requests", "-1"],
])
def test_negative_counts_exit_4(capsys, argv):
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: negative count") and err.count("\n") == 1


def test_gen_random_rejects_negative_counts():
    with pytest.raises(BadInputError):
        gen_random("path", 5, -3, 16.0, 1)
    with pytest.raises(BadInputError):
        gen_random("tree", 5, 0, 16.0, 1, request_count=-4)
