import csv
import io
import json

from wtap.cli import main

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
    rc = main(["prune", write(tmp_path, "i.txt", PATH_INSTANCE), "--path", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    data = json.loads(out)
    kept_ids = {row["id"] for row in data["kept"]}
    for row in data["removed"]:
        assert row["reason"] in ("dominated-rooted", "redundant-cover")
        assert set(row["replacement"]) <= kept_ids
        assert 1 <= len(row["replacement"]) <= 3


def test_prune_path_out_of_range(tmp_path, capsys):
    rc = main(["prune", write(tmp_path, "i.txt", PATH_INSTANCE), "--path", "9"])
    assert rc == 4


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


def test_verify_rejects_garbage(tmp_path, capsys):
    bad = write(tmp_path, "r.json", "not a report")
    assert main(["verify", bad]) == 4


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


def test_lowerbound_bad_algo(capsys):
    assert main(["lowerbound", "--algo", "nope", "--quiet"]) == 4


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


def test_sweep_tree_table(tmp_path, capsys):
    out_file = str(tmp_path / "sweep.csv")
    rc = main(["sweep", "--kind", "tree", "--n", "5..6", "--seeds", "2",
               "--requests", "4", "--quiet", "-o", out_file])
    assert rc == 0
    rows = list(csv.DictReader(open(out_file)))
    assert list(rows[0]) == ["n", "seed", "cost", "opt", "ratio",
                             "invariants_ok", "error"]
    assert len(rows) == 4
    for r in rows:
        assert r["error"] == ""
        assert r["invariants_ok"] == "True"


def test_sweep_lowerbound_table(capsys):
    rc = main(["sweep", "--kind", "lowerbound", "--k", "1..2",
               "--algo", "greedy", "--format", "json", "--quiet"])
    out = capsys.readouterr().out
    assert rc == 0
    rows = json.loads(out)
    assert [r["ratio"] for r in rows] == [2.0, 4.0]
    assert all(r["cert_ok"] for r in rows)


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
