"""Output checks computed independently of the package.

The coverage checks re-read the instance text with their own parser and
walk the tree themselves; nothing here imports ``wtap``.  The digest is
a SHA-256 over the per-request purchase records and the final cost,
compared against the values committed in ``digests.json`` for the same
input text.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import deque
from pathlib import Path

DIGESTS_FILE = Path(__file__).resolve().parent / "digests.json"
COVERAGE_TOL = 1e-9


class TextInstance:
    """Tree, links and requests read straight from the instance text."""

    def __init__(self, text: str):
        n = root = None
        edges = []
        self.links = []             # (u, v); index = link id
        self.requests = []          # (s, t)
        for line in text.splitlines():
            words = line.split("#", 1)[0].split()
            if not words:
                continue
            if words[0] == "n":
                n, root = int(words[1]), int(words[3])
            elif words[0] == "edge":
                edges.append((int(words[1]), int(words[2])))
            elif words[0] == "link":
                self.links.append((int(words[1]), int(words[2])))
            elif words[0] == "request":
                self.requests.append((int(words[1]), int(words[2])))
        adj = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        self.parent = [-1] * n
        self.depth = [0] * n
        seen = [False] * n
        seen[root] = True
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    self.parent[v] = u
                    self.depth[v] = self.depth[u] + 1
                    queue.append(v)

    def path_edges(self, u: int, v: int) -> list:
        """Tree edges between u and v, each named by its child vertex."""
        out = []
        while u != v:
            if self.depth[u] < self.depth[v]:
                u, v = v, u
            out.append(u)
            u = self.parent[u]
        return out


def uncovered_requests(text: str, bought_link_ids) -> list:
    """Indices of requests with a tree edge that no bought link covers."""
    ti = TextInstance(text)
    covered = set()
    for lid in bought_link_ids:
        covered.update(ti.path_edges(*ti.links[lid]))
    return [i for i, (s, t) in enumerate(ti.requests)
            if not covered.issuperset(ti.path_edges(s, t))]


def undercovered_requests(text: str, x_by_link: dict) -> list:
    """Indices of requests whose edge has fractional coverage < 1 - 1e-9."""
    ti = TextInstance(text)
    coverage = {}
    for lid, x in x_by_link.items():
        for e in ti.path_edges(*ti.links[int(lid)]):
            coverage[e] = coverage.get(e, 0.0) + x
    return [i for i, (s, t) in enumerate(ti.requests)
            if any(coverage.get(e, 0.0) < 1.0 - COVERAGE_TOL
                   for e in ti.path_edges(s, t))]


def frac_ratio_cap(edge_count: int) -> float:
    return 6 * math.log2(math.log2(edge_count))


def output_digest(records, final_cost: str) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(rec.encode())
        h.update(b"\n")
    h.update(f"cost {final_cost}\n".encode())
    return h.hexdigest()


def input_key(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def committed_digest(workload: str, text: str):
    """The committed output digest for this input text, or None.

    Keyed by the input's own hash, so an entry holds for every seed that
    yields the same text (all seeds, for ``lowerbound``).
    """
    with open(DIGESTS_FILE, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(input_key(text))


def check_rep(workload: str, text: str, rep: dict) -> tuple:
    """Check one repetition's outputs.

    Returns (failed_requests, checks): the number of requests that raised
    or whose output is wrong, and a {check name: ok} dict for the
    whole-run checks.
    """
    checks = {f"verifier {k}": bool(v) for k, v in rep["verifiers"].items()}
    failed = {i for i, _ in rep["errors"]}
    if workload in ("tree-serve", "path-serve"):
        failed.update(uncovered_requests(text, rep["bought"]))
    if workload == "path-serve":
        checks["cost >= opt_path_dp"] = int(rep["final_cost"]) >= rep["opt"]
    if workload == "frac-serve":
        failed.update(undercovered_requests(text, rep["x"]))
        ratio = float(rep["final_cost"]) / rep["opt"]
        checks["ratio <= 6 log2 log2 m"] = ratio <= frac_ratio_cap(rep["edge_count"])
    return len(failed), checks
