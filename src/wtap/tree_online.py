"""Online tree augmentation by reduction to per-path solvers.

Setup: decompose the tree into rooted paths, project every link onto
every path it meets in one walk over all links (by path-head jumps,
O(width) per link), dedup the spans of all paths by their global edge
slots, keeping each span's cheapest source, prune
each path's link set to a minimal instance, and attach one path solver
per path.

Serving a terminal pair hands its still-uncovered edges, up from s and
then down to t, one at a time to their paths' solvers; every projected
purchase buys the source link it came from.  Source purchases are
global: a link bought through one path covers its whole tree path, so
repeat purchases through other paths are free no-ops and global
coverage, not per-path coverage, decides whether an edge still needs
serving.

Coverage lives in a union-find over covered edges (Tarjan 1975):
``up[v]`` leads to the nearest ancestor-or-self of v whose parent edge
is still uncovered, or to the root, so the edge above v is covered
exactly when ``up[v] != v``.  A pair lists only its uncovered edges:
while its two ends have different roots, the deeper root's parent edge
is uncovered and on the pair's path, and that end steps past it.  A
bought link unites the child end of each of its uncovered edges, found
the same way, with its parent, so every tree edge is covered once over
the whole run.  The listed edges are re-checked as they are served,
since a purchase may cover later ones; so the serve order and skips are
those of an edge-by-edge walk.

An edge no link covers is caught from its path's minimal instance
alone.  A link covers a tree edge exactly when its projection onto the
edge's path covers the edge's position; span dedup keeps one source per
projected span; rooted dominance drops a link only for a kept one
covering a superset, and the per-class cover keeps each class's edge
union.  So the position has a kept covering link iff the tree edge has
any covering link.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# ``project``, the one-link view of ``project_all``, stays importable
# here: perfbench's tracer wraps it under this module's name
from .decomposition import decompose, project, project_all
from .errors import InfeasibleInstanceError, InvariantViolationError
from .instance import TreeInstance
from .path_online import PathSolver
from .pruning import PathLink, build_minimal_instance


@dataclass(slots=True, unsafe_hash=True)
class PairReport:
    """What serving one terminal pair did.

    Immutable by convention: nothing assigns to a report after it is
    built.  ``inst`` is kept only for ``elementary`` and takes no part
    in equality or hashing.
    """

    s: int
    t: int
    served: tuple               # edge ids routed to solvers, serve order
    bought_sources: tuple       # original link ids bought, purchase order
    incremental_cost: int
    inst: TreeInstance = field(repr=False, compare=False)

    @property
    def elementary(self) -> tuple:
        """Edge ids of the pair's tree path from s to t, walked on access."""
        return self.inst.tree_path(self.s, self.t)


def path_link_sets(inst: TreeInstance, decomp):
    """Yield each path's pruning input, in path id order.

    A path's input is ``(links, kept_from)``: one PathLink per distinct
    projected span, numbered in ascending ``(left, right)`` order, and
    the map from those numbers to the span's cheapest source link.

    One walk over all links feeds one dedup in global edge slots: path
    p's edges hold the slots ``base[p] .. base[p+1]-1``, so a span is
    the slot run ``lo .. hi-1``.  A rooted span is fixed by ``hi``
    alone, and most spans are rooted, so those go to a flat list by
    ``hi``; the rest (at most one per link) go to one dict keyed by the
    int ``lo * (S+1) + hi`` (S tree edges), whose sorted keys run path
    by path.  Links come in ascending id and meet a path at most once,
    so a strict cost test keeps the lowest id among equal costs.
    """
    base = decomp.base
    stride = base[-1] + 1
    rooted = [None] * stride            # hi -> cheapest rooted source
    inner = {}                          # lo * stride + hi -> the same
    get = inner.get
    for link, pid, left, right in project_all(inst, decomp, inst.links):
        if left:
            b = base[pid]
            key = (b + left) * stride + b + right
            cur = get(key)
            if cur is None or link.cost < cur.cost:
                inner[key] = link
        else:
            hi = base[pid] + right
            cur = rooted[hi]
            if cur is None or link.cost < cur.cost:
                rooted[hi] = link
    keys = sorted(inner)
    i, count = 0, len(keys)
    for pid in range(len(decomp.paths)):
        b, end = base[pid], base[pid + 1]
        links = []
        kept_from = {}
        for hi in range(b + 1, end + 1):
            src = rooted[hi]
            if src is not None:
                kept_from[len(links)] = src.id
                links.append(PathLink(0, hi - b, src.cost, src.cls, len(links)))
        past = end * stride             # the first key past this path
        while i < count and keys[i] < past:
            lo, hi = divmod(keys[i], stride)
            src = inner[keys[i]]
            kept_from[len(links)] = src.id
            links.append(PathLink(lo - b, hi - b, src.cost, src.cls, len(links)))
            i += 1
        yield links, kept_from


class TreeSolver:
    def __init__(self, inst: TreeInstance):
        self.inst = inst
        self.decomp = decompose(inst)
        self.solvers = []
        for pid, (plinks, kept_from) in enumerate(
                path_link_sets(inst, self.decomp)):
            minimal, _ = build_minimal_instance(
                edge_count=len(self.decomp.paths[pid]) - 1,
                links=plinks,
                kept_from=kept_from,
            )
            self.solvers.append(PathSolver(minimal, n_global=inst.n))

        self.bought_sources = set()
        self.cost_total = 0
        # the union-find over covered edges (see the module docstring)
        self.up = list(range(inst.n))

    def _uncovered_between(self, s: int, t: int) -> tuple:
        """Child ends of the uncovered edges on the s-t path: the s side
        and the t side, each bottom-up.

        Each step finds both ends' union-find roots, halving the paths
        it follows.  While the roots differ, the deeper one's parent edge
        is uncovered and lies on the path, so that end lists it and
        steps to its parent.
        """
        depth, parent, up = self.inst.depth, self.inst.parent, self.up
        s_side, t_side = [], []
        while True:
            while up[s] != s:
                up[s] = up[up[s]]
                s = up[s]
            while up[t] != t:
                up[t] = up[up[t]]
                t = up[t]
            if s == t:
                return s_side, t_side
            if depth[s] >= depth[t]:
                s_side.append(s)
                s = parent[s]
            else:
                t_side.append(t)
                t = parent[t]

    def _buy_source(self, link_id: int) -> int:
        """Buy an original link once; repeats cost nothing.

        Covers the link's still-uncovered edges by uniting each child
        end with its parent, so every tree edge is covered once over the
        whole run.
        """
        if link_id in self.bought_sources:
            return 0
        self.bought_sources.add(link_id)
        link = self.inst.links[link_id]
        parent, up = self.inst.parent, self.up
        for side in self._uncovered_between(link.u, link.v):
            for v in side:
                up[v] = parent[v]
        self.cost_total += link.cost
        return link.cost

    def serve_pair(self, s: int, t: int) -> PairReport:
        s_side, t_side = self._uncovered_between(s, t)
        edge_of_child = self.inst.edge_of_child
        pid_above, pos_above = self.decomp.pid_above, self.decomp.pos_above
        up = self.up
        served = []
        bought = []
        inc = 0
        for v in s_side + t_side[::-1]:
            if up[v] != v:              # bought earlier in this pair
                continue
            e = edge_of_child[v]
            pid, pos = pid_above[v], pos_above[v] - 1
            solver = self.solvers[pid]
            if not solver.minimal.cov_ids[pos]:
                raise InfeasibleInstanceError(
                    f"request edge {e} has no covering link")
            rec = solver.serve(pos)
            served.append(e)
            kept_from = solver.minimal.kept_from
            for plid in rec.purchases:
                src = kept_from[plid]
                spent = self._buy_source(src)
                if spent:
                    bought.append(src)
                    inc += spent
            if up[v] == v:
                raise InvariantViolationError(
                    f"serving edge {e} failed to cover it")
        return PairReport(s, t, tuple(served), tuple(bought), inc, self.inst)

    def path_cost_total(self) -> int:
        return sum(s.cost for s in self.solvers)
