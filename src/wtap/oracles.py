"""Exact offline optima and independent verifiers.

Everything here is ground truth for tests and reports: the exact path
optimum, a branch-and-bound tree oracle for small link sets, and the
dual-feasibility / solution-quality verifiers.  The module reads only
instances and errors from the package, never the pruning or solver
code it checks: the niceness check rebuilds a path solver's duals and
charges by replaying its serve records.

On a path the optimum is an interval set cover (the path case of
Meyerson's parking-permit problem, FOCS 2005).  ``opt_path_dp`` solves
it with one right-to-left sweep over the requested edges that keeps
the links covering the current one in a lazily pruned min-heap, in
O(edge_count + L + k log L) time for L links and k requested edges,
so it certifies ratios at sizes an enumeration cannot reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush
from itertools import accumulate

from .errors import (InfeasibleInstanceError, InvariantViolationError,
                     OracleSizeError)
from .instance import TreeInstance

TREE_ENUM_LINK_CAP = 24


@dataclass(frozen=True)
class OracleResult:
    opt_cost: int
    witness: frozenset
    method: str


def opt_path_dp(edge_count: int, links, requested_edges) -> OracleResult:
    """Exact minimum-cost cover of the requested path edges.

    States are suffixes of the k ascending requested edges: ``best[i]``
    is the cheapest cover of requests i..k-1, and the link chosen for
    request i covers a contiguous block of requests from i on.  With
    ``rank[x]`` the number of requested edges left of position x, a link
    [left, right) covers requests ``rank[left] .. rank[right]-1``.  A
    sweep from the right pushes each link onto a min-heap, keyed
    ``(cost + best[rank[right]], id)``, at the last request it covers;
    an entry whose first request lies right of i covers no request the
    sweep meets later, so it is popped once it reaches the top, and the
    top is ``best[i]``.  Time O(edge_count + L + k log L) for L links;
    ties in value go to the lower link id.
    """
    reqs = sorted(set(requested_edges))
    for r in reqs:
        if not 0 <= r < edge_count:
            raise InfeasibleInstanceError(f"requested edge {r} out of range")
    if not reqs:
        return OracleResult(0, frozenset(), "interval-dp")
    k = len(reqs)
    requested = bytearray(edge_count)
    for r in reqs:
        requested[r] = 1
    rank = list(accumulate(requested, initial=0))
    # each link in the bucket of the last request it covers
    ending = [[] for _ in range(k)]
    for l in links:
        left = l.left if l.left > 0 else 0
        right = l.right if l.right < edge_count else edge_count
        if left < right and rank[left] < rank[right]:
            ending[rank[right] - 1].append(l)
    # an entry (value, id, a * stride + j) is a link covering requests
    # a..j-1; 4-tuples would outlive the call in the interpreter's free
    # list for that size, which little else reuses
    stride = k + 1
    best = [(0,)] * (k + 1)
    heap = []
    for i in range(k - 1, -1, -1):
        after = best[i + 1][0]
        for l in ending[i]:
            a = rank[l.left] if l.left > 0 else 0
            heappush(heap, (l.cost + after, l.id, a * stride + i + 1))
        limit = (i + 1) * stride
        while heap and heap[0][2] >= limit:
            heappop(heap)
        if not heap:
            raise InfeasibleInstanceError(f"edge {reqs[i]} has no covering link")
        best[i] = heap[0]
    witness = set()
    i = 0
    while i < k:
        _, lid, span = best[i]
        witness.add(lid)
        i = span % stride
    return OracleResult(best[0][0], frozenset(witness), "interval-dp")


def opt_tree_enum(inst: TreeInstance) -> OracleResult:
    """Exact tree optimum by branch and bound over the link set.

    Feasible means every edge of every request path is covered.  Capped
    at TREE_ENUM_LINK_CAP links; branch on the uncovered edge with the
    fewest candidates, bound by best-so-far plus the most expensive
    single-edge minimum.
    """
    if len(inst.links) > TREE_ENUM_LINK_CAP:
        raise OracleSizeError(
            f"tree enumeration capped at {TREE_ENUM_LINK_CAP} links")
    required = set()
    for req in inst.requests:
        required.update(inst.tree_path(req.s, req.t))
    if not required:
        return OracleResult(0, frozenset(), "subset-enum")
    edge_ids = sorted(required)
    pos = {e: i for i, e in enumerate(edge_ids)}
    full = (1 << len(edge_ids)) - 1
    link_masks = []
    for ln in inst.links:
        m = 0
        for e in inst.tree_path(ln.u, ln.v):
            if e in pos:
                m |= 1 << pos[e]
        link_masks.append(m)
    covering = [[] for _ in edge_ids]
    for li, m in enumerate(link_masks):
        for i in range(len(edge_ids)):
            if m >> i & 1:
                covering[i].append(li)
    cheapest = []
    for i, cands in enumerate(covering):
        if not cands:
            raise InfeasibleInstanceError(
                f"request edge {edge_ids[i]} has no covering link")
        cheapest.append(min(inst.links[li].cost for li in cands))

    best = [math.inf, frozenset()]

    def dfs(mask, cost, chosen):
        if mask == full:
            if cost < best[0]:
                best[0] = cost
                best[1] = frozenset(chosen)
            return
        lb = 0
        branch_i = -1
        branch_deg = None
        for i in range(len(edge_ids)):
            if mask >> i & 1:
                continue
            if cheapest[i] > lb:
                lb = cheapest[i]
            deg = len(covering[i])
            if branch_deg is None or deg < branch_deg:
                branch_deg = deg
                branch_i = i
        if cost + lb >= best[0]:
            return
        for li in sorted(covering[branch_i], key=lambda j: (inst.links[j].cost, j)):
            chosen.append(li)
            dfs(mask | link_masks[li], cost + inst.links[li].cost, chosen)
            chosen.pop()

    dfs(0, 0, [])
    if best[0] is math.inf:
        raise InfeasibleInstanceError("no link subset covers the requests")
    witness = frozenset(inst.links[li].id for li in best[1])
    return OracleResult(int(best[0]), witness, "subset-enum")


def verify_dual_feasible(y, links):
    """Exact check of the packing constraints; returns (ok, violators).

    ``y`` may hold ints or ``Fraction``s; sums stay exact either way.
    """
    prefix = [0]
    for v in y:
        prefix.append(prefix[-1] + v)
    bad = []
    for l in links:
        if prefix[l.right] - prefix[l.left] > l.cost:
            bad.append(l.id)
    return (not bad), bad


@dataclass
class ConditionRecord:
    id: str
    bound: str
    observed: str
    ok: bool


@dataclass
class NicenessReport:
    conditions: list = field(default_factory=list)
    ok: bool = True

    def add(self, cid, bound, observed, ok):
        self.conditions.append(ConditionRecord(cid, str(bound), str(observed), ok))
        if not ok:
            self.ok = False


def _width_term(n_global: int) -> float:
    return 2 * math.log2(max(2, n_global)) + 1


def _replay(minimal, records) -> tuple:
    """(y, charged): a path solver's dual and each type-1 pick's charged
    edges, rebuilt from its serve records.

    A pick charged the positive-dual edges of its span from the frontier
    the record before it left.  The final dual picks the same edges: the
    pick covers its span, and a covered edge is never raised again.
    """
    y = [0] * minimal.edge_count
    for r in records:
        y[r.request] += r.y_raise
    charged = {}
    frontier = 0
    for r in records:
        if r.type1 is not None:
            p = minimal.by_id[r.type1]
            charged[r.type1] = [i for i in range(max(p.left, frontier), p.right)
                                if y[i] > 0]
        frontier = r.frontier_right
    return y, charged


def _loads(minimal, y, charged, n_global) -> tuple:
    """(weighted, hat) per edge: the dual times the charged sets holding
    the edge, over every pick, then over the picks costing at least
    (max pick cost)/n**2 only, n = ``n_global``."""
    by_id = minimal.by_id
    cmax = max((by_id[lid].cost for lid in charged), default=0)
    weighted, hat = [0] * len(y), [0] * len(y)
    for lid, edges in charged.items():
        kept = by_id[lid].cost * n_global * n_global >= cmax
        for e in edges:
            weighted[e] += y[e]
            if kept:
                hat[e] += y[e]
    return weighted, hat


def hat_dual(minimal, records, n_global) -> list:
    """The charge-weighted dual of a path solver, replayed from its serve
    records, less the charges of picks too cheap for the analysis to
    count (after Gupta, Krishnaswamy and Ravi 2012)."""
    return _loads(minimal, *_replay(minimal, records), n_global)[1]


def verify_nice(solver, records) -> NicenessReport:
    """Check the purchased solution against the quality certificate.

    Three direct conditions: total cost vs the scaled hat dual, per
    non-rooted hat load against ``2*(2 log2 n + 1)`` times its cost, and
    per rooted full load against 3 times its cost, with n the solver's
    ``n_global``.  The loads are replayed from the solver's serve
    ``records``, in order; a replay that misses the solver's dual or
    total cost raises ``InvariantViolationError``.
    """
    report = NicenessReport()
    minimal = solver.minimal
    links = minimal.links
    y, charged = _replay(minimal, records)
    total = solver.cost
    paid = sum(minimal.by_id[lid].cost for r in records for lid in r.purchases)
    if y != solver.y or paid != total:
        raise InvariantViolationError(
            "serve records do not replay the solver's dual and cost")
    weighted, hat = _loads(minimal, y, charged, solver.n_global)
    hat_total = sum(hat)

    ok_a = total <= 24 * hat_total
    report.add("cost-vs-hat-dual", f"<= 24*{hat_total}", str(total), ok_a)

    wterm = _width_term(solver.n_global)
    hat_prefix = list(accumulate(hat, initial=0))
    weighted_prefix = list(accumulate(weighted, initial=0))
    ok_b, worst_nr = True, 0.0
    ok_c, worst_r = True, Fraction(0)
    for l in links:
        if l.rooted:
            load = weighted_prefix[l.right] - weighted_prefix[l.left]
            ok_c = ok_c and load <= 3 * l.cost
            worst_r = max(worst_r, Fraction(load, l.cost))
        else:
            load = hat_prefix[l.right] - hat_prefix[l.left]
            ok_b = ok_b and load <= Fraction(2 * wterm) * l.cost
            worst_nr = max(worst_nr, float(load) / l.cost)
    report.add("nonrooted-hat-load", f"<= 2*({wterm:.3f})*cost",
               f"max load/cost {worst_nr:.3f}", ok_b)
    report.add("rooted-full-load", "<= 3*cost",
               f"max load/cost {float(worst_r):.3f}", ok_c)
    return report
