import hashlib
import json
from dataclasses import asdict

import pytest

from wtap.reports import (
    InvariantRecord,
    RunReport,
    config_hash,
    rows_to_csv,
    rows_to_json,
)


def sample_report():
    return RunReport(
        algorithm="run-path",
        instance_digest="abc123",
        instance_text="n 3 root 0\n",
        per_request=[{"request": 0, "y_raise": "1"}],
        final_cost="3",
        opt="2",
        ratio=1.5,
        invariants=[InvariantRecord(id="dual-feasible", ok=True)],
        wall_time=0.01,
        config_hash="deadbeef",
    )


def test_report_round_trip():
    rep = sample_report()
    back = RunReport.from_json(rep.to_json())
    assert back == rep
    assert back.invariants[0] == InvariantRecord(id="dual-feasible", ok=True)


def test_report_json_is_sorted_and_versioned():
    data = json.loads(sample_report().to_json())
    assert data["format_version"] == "1"
    assert list(data) == sorted(data)


def test_report_json_matches_the_deep_copy():
    # to_json hands the fields to json as they are; asdict would copy
    # every nested row first and must give the same bytes
    rep = sample_report()
    rep.per_request = [
        {"request": 2, "type3": [4, 5], "bought": (1, 2), "y_raise": 0},
        {"pair": [0, 3], "served": [{"edge": 1, "ids": [7]}], "inc": None},
    ]
    rep.invariants.append(InvariantRecord("coverage", False, "edge 1"))
    assert rep.to_json() == json.dumps(asdict(rep), indent=2, sort_keys=True)


def test_report_version_gate():
    data = json.loads(sample_report().to_json())
    data["format_version"] = "0"
    with pytest.raises(ValueError):
        RunReport.from_json(json.dumps(data))
    data.pop("format_version")
    with pytest.raises(ValueError):
        RunReport.from_json(json.dumps(data))


def test_config_hash_stable_and_sensitive():
    a = config_hash("tree-online")
    assert a == config_hash("tree-online")
    assert len(a) == 16
    assert a != config_hash("path-online")
    assert a != config_hash("fractional")


def test_config_hash_hashes_the_blob_with_empty_params():
    # the blob earlier reports were hashed from, so their hashes still hold
    blob = '{"algorithm":"tree-online","params":[],"seed":0}'
    assert config_hash("tree-online") == (
        hashlib.sha256(blob.encode()).hexdigest()[:16])


@pytest.mark.parametrize("algorithm, digits", [
    ("path-online", "99485c4eed1d2b5f"),
    ("tree-online", "b4f4808fb8036007"),
    ("fractional", "cfff714872f38e02"),
])
def test_config_hash_is_the_one_the_golden_reports_carry(algorithm, digits):
    assert config_hash(algorithm) == digits


def test_rows_to_csv_golden():
    rows = [{"n": 4, "cost": "7/2"}, {"n": 5, "cost": "3"}]
    assert rows_to_csv(["n", "cost"], rows) == "n,cost\n4,7/2\n5,3\n"


def test_rows_to_json():
    text = rows_to_json([{"b": 1, "a": 2}])
    assert json.loads(text) == [{"a": 2, "b": 1}]
    assert text.index('"a"') < text.index('"b"')
