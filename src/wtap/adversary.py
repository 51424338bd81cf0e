"""Hierarchical hard instances and the adaptive request driver.

The instance is a path of (2B)^k edges.  Level-j links tile the path
in disjoint blocks of length (2B)^j at cost B^j, so every edge sits
under exactly one link per level and cheap-per-edge coverage lives at
the top.  The driver repeatedly requests the leftmost edge the
algorithm has not yet covered, which punishes algorithms that cover
requests with low levels.

Algorithms are canonicalized: whenever a serve buys a link containing
the request, the wrapper also buys the unique lower-level links
containing that request inside it.  After the run the driver builds,
per level, the set of level-j links containing some request; each such
set is itself feasible for the request sequence, their total cost is
at most twice the algorithm's cost, and the cheapest of them bounds
the offline optimum, which pins the competitive ratio from below.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BadInputError, InvariantViolationError
from .oracles import opt_path_dp
from .path_online import PathSolver
from .pruning import PathLink, build_minimal_instance


class HierarchicalInstance:
    SIZE_GUARD = 1 << 20

    def __init__(self, B: int, k: int):
        if B < 2:
            raise BadInputError("block factor B must be at least 2")
        if k < 1:
            raise BadInputError("depth k must be at least 1")
        n = 1
        for _ in range(k):      # (2B)^k itself may have thousands of digits
            n *= 2 * B
            if n > self.SIZE_GUARD:
                raise BadInputError(f"path length (2B)^k for B = {B}, k = {k} "
                                    f"exceeds the guard {self.SIZE_GUARD}")
        self.B = B
        self.k = k
        self.n = n
        self.spans = [(2 * B) ** j for j in range(k + 1)]
        self.levels = []        # level j costs B^j
        self.links = []
        for j, span in enumerate(self.spans):
            cost = B ** j
            base = len(self.links)
            row = [PathLink(i * span, (i + 1) * span, cost, base + i)
                   for i in range(n // span)]
            self.levels.append(row)
            self.links.extend(row)


class CanonicalWrapper:
    """Adds the containing lower-level chain to every relevant purchase."""

    def __init__(self, inst: HierarchicalInstance, inner, canonical: bool = True):
        self.inst = inst
        self.inner = inner
        self.canonical = canonical
        self.bought = set()
        self.cost = 0
        self.covered = [False] * inst.n

    def _buy(self, link: PathLink):
        if link.id in self.bought:
            return
        self.bought.add(link.id)
        self.cost += link.cost
        self.covered[link.left:link.right] = [True] * (link.right - link.left)

    def serve(self, e: int):
        inst = self.inst
        for lid in self.inner.serve(e):
            link = inst.links[lid]                # ids are list positions
            self._buy(link)
            if self.canonical and link.left <= e < link.right:
                # spans rise strictly and a level-j link is spans[j] wide
                width = link.right - link.left
                for row, span in zip(inst.levels, inst.spans):
                    if span == width:
                        break
                    self._buy(row[e // span])


class GreedyCheapestCover:
    """Buys the cheapest covering link it does not own yet.

    Level costs B^j rise strictly with j, so that is the lowest level
    whose link over the edge is unowned.
    """

    def __init__(self, inst: HierarchicalInstance):
        self.inst = inst
        self.owned = set()

    def serve(self, e: int):
        owned = self.owned
        for row, span in zip(self.inst.levels, self.inst.spans):
            lid = row[e // span].id
            if lid not in owned:
                owned.add(lid)
                return [lid]
        raise InvariantViolationError(f"nothing left to buy for edge {e}")


class BuyTop:
    """Buys the whole-path link on the first request; degenerate baseline."""

    def __init__(self, inst: HierarchicalInstance):
        self.inst = inst
        self.done = False

    def serve(self, e: int):
        if self.done:
            return []
        self.done = True
        return [self.inst.levels[self.inst.k][0].id]


class PathAlgContestant:
    """The primal-dual path solver as a lower-bound contestant.

    Only defined for B = 2, where level costs are already powers of
    two; the hierarchical link set is minimal as-is (disjoint tilings
    per class, nested rooted prefixes), which the constructor checks.
    """

    def __init__(self, inst: HierarchicalInstance):
        if inst.B != 2:
            raise BadInputError("the path solver contestant needs B = 2")
        minimal, _ = build_minimal_instance(inst.n, inst.links)
        if len(minimal.links) != len(inst.links):
            raise InvariantViolationError(
                "hierarchical instance should already be minimal")
        self.solver = PathSolver(minimal, n_global=inst.n + 1)

    def serve(self, e: int):
        return self.solver.serve(e).purchases


CONTESTANTS = {
    "greedy": (GreedyCheapestCover, True),
    "alg1": (PathAlgContestant, True),
    "top": (BuyTop, False),
}


@dataclass
class LowerBoundReport:
    B: int
    k: int
    n: int
    alg_cost: int
    opt: int
    ratio: float
    cert_ok: bool = False
    requests: list = field(default_factory=list)


def adversary_drive(inst: HierarchicalInstance, algo_name: str) -> LowerBoundReport:
    """Run the leftmost-uncovered driver until the path is covered."""
    try:
        factory, canonical = CONTESTANTS[algo_name]
    except KeyError:
        raise BadInputError(f"unknown contestant {algo_name!r}") from None
    wrapper = CanonicalWrapper(inst, factory(inst), canonical=canonical)
    requests = []
    cursor = 0
    while True:
        while cursor < inst.n and wrapper.covered[cursor]:
            cursor += 1
        if cursor >= inst.n:
            break
        if len(requests) >= inst.n:
            raise InvariantViolationError("driver exceeded the request budget")
        requests.append(cursor)
        wrapper.serve(cursor)
        if not wrapper.covered[cursor]:
            raise InvariantViolationError(
                f"request {cursor} still uncovered after serve")

    total = 0
    for j, (row, span) in enumerate(zip(inst.levels, inst.spans)):
        chosen = set()
        for r in requests:
            link = row[r // span]
            if not (link.left <= r < link.right):
                raise InvariantViolationError("level cover misses a request")
            chosen.add(link.id)
        total += len(chosen) * inst.B ** j
    cert_ok = total <= 2 * wrapper.cost

    opt = opt_path_dp(inst.n, inst.links, requests).opt_cost
    ratio = wrapper.cost / opt if opt else float("inf")
    return LowerBoundReport(
        B=inst.B, k=inst.k, n=inst.n, alg_cost=wrapper.cost,
        opt=opt, ratio=ratio, cert_ok=cert_ok, requests=requests,
    )
