"""Online tree augmentation by reduction to per-path solvers.

Setup: decompose the tree into rooted paths, project every link onto
every path it meets, dedup projections landing on identical spans to
the cheapest source, prune each path's link set to a minimal instance,
and attach one path solver per path.

Serving a terminal pair expands it to elementary edge requests (s up
to the meeting vertex, then down to t).  Each still-uncovered edge is
handed to its path's solver; every projected purchase buys the source
link it came from.  Source purchases are global: a link bought through
one path covers its whole tree path, so repeat purchases through other
paths are free no-ops and global coverage, not per-path coverage,
decides whether an edge still needs serving.

An edge no link covers is caught from its path's minimal instance
alone.  A link covers a tree edge exactly when its projection onto the
edge's path covers the edge's position; span dedup keeps one source per
projected span; rooted dominance drops a link only for a kept one
covering a superset, and the per-class cover keeps each class's edge
union.  So the position has a kept covering link iff the tree edge has
any covering link.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decomposition import decompose, project
from .errors import InfeasibleInstanceError
from .instance import Request, TreeInstance
from .path_online import PathSolver
from .pruning import PathLink, build_minimal_instance


@dataclass
class PairReport:
    s: int
    t: int
    elementary: tuple           # edge ids in serve order
    served: tuple               # subset actually routed to solvers
    bought_sources: tuple       # original link ids bought, purchase order
    incremental_cost: int


class TreeSolver:
    def __init__(self, inst: TreeInstance):
        self.inst = inst
        self.decomp = decompose(inst)
        n_paths = len(self.decomp.paths)

        # cheapest source per identical projected span
        spans = [dict() for _ in range(n_paths)]
        self.projections_of = {ln.id: [] for ln in inst.links}
        for ln in inst.links:
            for pr in project(inst, self.decomp, ln):
                self.projections_of[ln.id].append(pr)
                key = (pr.left, pr.right)
                cur = spans[pr.path_id].get(key)
                if cur is None or (ln.cost, ln.id) < (cur.cost, cur.id):
                    spans[pr.path_id][key] = ln

        self.minimal = []
        self.prune_records = []
        self.solvers = []
        for pid in range(n_paths):
            plinks = []
            kept_from = {}
            for idx, ((left, right), src) in enumerate(sorted(spans[pid].items())):
                plinks.append(PathLink(left=left, right=right, cost=src.cost,
                                       cls=src.cls, id=idx))
                kept_from[idx] = src.id
            minimal, record = build_minimal_instance(
                edge_count=len(self.decomp.paths[pid].vertices) - 1,
                links=plinks,
                kept_from=kept_from,
                path=self.decomp.paths[pid],
            )
            self.minimal.append(minimal)
            self.prune_records.append(record)
            self.solvers.append(PathSolver(minimal, n_global=inst.n))

        # edge id -> (path id, position of the edge on that path)
        pid_above = self.decomp.pid_above
        pos_above = self.decomp.pos_above
        self.edge_pos = [(pid_above[child], pos_above[child] - 1)
                         for child in inst.child_of_edge]

        self.bought_sources = set()
        self.purchase_order = []
        self.cost_total = 0
        self.covered = [False] * (inst.n - 1)
        self.reports = []

    def _buy_source(self, link_id: int) -> int:
        """Buy an original link once; repeats cost nothing."""
        if link_id in self.bought_sources:
            return 0
        self.bought_sources.add(link_id)
        self.purchase_order.append(link_id)
        link = self.inst.links[link_id]
        for e in self.inst.link_edges(link.id):
            self.covered[e] = True
        self.cost_total += link.cost
        return link.cost

    def serve_pair(self, s: int, t: int) -> PairReport:
        elementary = tuple(self.inst.expand_request(Request(s=s, t=t)))
        served = []
        bought = []
        inc = 0
        for e in elementary:
            if self.covered[e]:
                continue
            pid, pos = self.edge_pos[e]
            if not self.minimal[pid].cov_ids[pos]:
                raise InfeasibleInstanceError(
                    f"request edge {e} has no covering link")
            solver = self.solvers[pid]
            rec = solver.serve(pos)
            served.append(e)
            new_ids = ([] if rec.type1 is None else [rec.type1])
            if rec.type2 is not None:
                new_ids.append(rec.type2)
            new_ids.extend(rec.type3)
            kept_from = self.minimal[pid].kept_from
            for plid in new_ids:
                src = kept_from[plid]
                spent = self._buy_source(src)
                if spent:
                    bought.append(src)
                    inc += spent
            if not self.covered[e]:
                raise InfeasibleInstanceError(
                    f"serving edge {e} failed to cover it")
        report = PairReport(s=s, t=t, elementary=elementary,
                            served=tuple(served), bought_sources=tuple(bought),
                            incremental_cost=inc)
        self.reports.append(report)
        return report

    def run(self, pairs) -> list:
        return [self.serve_pair(s, t) for s, t in pairs]

    def path_cost_total(self) -> int:
        return sum(s.cost for s in self.solvers)
