"""Run reports: machine-readable records of a solver run.

A report embeds the instance text, so ``verify`` can re-run the same
algorithm later and diff the outcome against what the report claims.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

REPORT_FORMAT_VERSION = "1"


@dataclass(frozen=True)
class InvariantRecord:
    id: str
    ok: bool
    detail: str = ""


def config_hash(algorithm: str) -> str:
    """Sixteen hex digits naming a run's configuration: the solvers are
    deterministic, so the algorithm alone.  The blob keeps the seed at 0
    and an empty ``params`` list so that earlier reports' hashes hold."""
    blob = json.dumps({"algorithm": algorithm, "seed": 0, "params": []},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class RunReport:
    algorithm: str
    instance_digest: str
    instance_text: str
    per_request: list = field(default_factory=list)
    final_cost: str = "0"
    opt: Optional[str] = None
    ratio: Optional[float] = None
    invariants: list = field(default_factory=list)
    wall_time: float = 0.0
    config_hash: str = ""
    format_version: str = REPORT_FORMAT_VERSION

    def to_json(self) -> str:
        # the fields as they are: asdict would deep-copy every row
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["invariants"] = [asdict(inv) for inv in self.invariants]
        return json.dumps(payload, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "RunReport":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise TypeError("top level is not a JSON object")
        version = data.pop("format_version", None)
        if version != REPORT_FORMAT_VERSION:
            raise ValueError(f"unsupported report version {version!r}")
        invariants = [InvariantRecord(**inv) for inv in data.pop("invariants", [])]
        report = RunReport(format_version=version, invariants=invariants, **data)
        if not isinstance(report.instance_text, str):
            raise TypeError("instance_text is not a string")
        return report


def rows_to_csv(fieldnames, rows) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def rows_to_json(rows) -> str:
    return json.dumps(list(rows), indent=2, sort_keys=True)
