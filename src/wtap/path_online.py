"""Deterministic online algorithm for rooted path instances.

One solver owns one minimal path instance and serves uncovered edge
requests.  A serve step does three things, in order:

1. raise the request edge's dual until the cheapest-residual covering
   link goes tight, and buy that link (type 1; ties prefer higher
   class, then the furthest right endpoint, then the smaller id);
2. charge every positive-dual edge of the bought link's span at or
   beyond the frontier, recording the charged set for the bought link;
3. scan rooted links extending past the frontier whose accumulated
   charge-weighted dual strictly exceeds their cost; the highest-class
   such link becomes the new frontier, is bought if not already owned
   (type 2), and a paid-for frontier also sweeps in every unbought
   strictly-lower-class link crossing its right endpoint from a
   positive left position (type 3).

The frontier is an integer prefix boundary: edges below it are covered
by an owned rooted link and receive no further charges.  All dual
arithmetic is exact rationals; purchases and charge counts are ints.

Deviations from the obvious literal reading (strict trigger, triggers
on owned links advancing the frontier without payment, sweeping only
strictly-lower classes at paid triggers only) are what make the load
caps provable; the accompanying test suite pins the intended traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (BadInputError, InfeasibleInstanceError,
                     InvariantViolationError)
from .pruning import MinimalPathInstance


@dataclass(frozen=True)
class ServeRecord:
    request: int
    y_raise: Fraction
    type1: Optional[int]
    type2: Optional[int]
    type3: tuple
    frontier_right: int
    skipped: bool = False


class PathSolver:
    def __init__(self, minimal: MinimalPathInstance, n_global: Optional[int] = None):
        self.minimal = minimal
        m = minimal.edge_count
        self.m = m
        # vertex count used in the hat-dual cost floor; the path itself
        # when the instance is standalone
        self.n_global = n_global if n_global is not None else m + 1
        self.links = minimal.by_id
        self.y = [Fraction(0)] * m
        self.charge = [0] * m
        self.product = [Fraction(0)] * m      # charge[e] * y[e]
        self.frontier = 0
        self.bought = set()
        self.type1 = []
        self.type2 = []
        self.type3 = []
        self.charged = {}                     # type-1 id -> charged edges
        self.covered = [False] * m
        self.residual = {l.id: Fraction(l.cost) for l in minimal.links}
        self.rooted_by_right = sorted(
            (l for l in minimal.links if l.rooted), key=lambda l: l.right)
        self.last_type2 = None
        self.cost = 0
        self.records = []
        self.requested = set()

    # -- purchases --------------------------------------------------------

    def _buy(self, link):
        self.bought.add(link.id)
        self.cost += link.cost
        for i in range(link.left, link.right):
            self.covered[i] = True

    # -- main step --------------------------------------------------------

    def serve(self, e: int) -> ServeRecord:
        if not 0 <= e < self.m:
            raise BadInputError(f"edge {e} out of range")
        self.requested.add(e)
        if self.covered[e]:
            rec = ServeRecord(request=e, y_raise=Fraction(0), type1=None,
                              type2=None, type3=(), skipped=True,
                              frontier_right=self.frontier)
            self.records.append(rec)
            return rec
        cands = self.minimal.cov_ids[e]
        if not cands:
            raise InfeasibleInstanceError(f"edge {e} has no covering link")

        delta = min(self.residual[lid] for lid in cands)
        pick = None
        pick_key = None
        for lid in cands:
            if self.residual[lid] == delta:
                l = self.links[lid]
                key = (-l.cls, -l.right, l.id)
                if pick is None or key < pick_key:
                    pick, pick_key = l, key
        if delta > 0:
            # an uncovered edge was never charged: charges always come
            # from a bought link whose span contains the edge
            if self.charge[e]:
                raise InvariantViolationError(
                    f"uncovered edge {e} already carries charge "
                    f"{self.charge[e]}")
            self.y[e] += delta
            for lid in cands:
                self.residual[lid] -= delta

        self._buy(pick)
        self.type1.append(pick.id)
        charged = []
        for i in range(max(pick.left, self.frontier), pick.right):
            if self.y[i] > 0:
                self.charge[i] += 1
                self.product[i] += self.y[i]
                charged.append(i)
        self.charged[pick.id] = tuple(charged)

        trig = None
        acc = Fraction(0)
        idx = 0
        for l in self.rooted_by_right:
            while idx < l.right:
                acc += self.product[idx]
                idx += 1
            if l.right > self.frontier and acc > l.cost:
                trig = l                     # rights ascend with class
        bought2 = None
        swept = []
        if trig is not None:
            if trig.id not in self.bought:
                self._buy(trig)
                self.type2.append(trig.id)
                self.last_type2 = trig.id
                bought2 = trig.id
                for l in self.minimal.links:
                    if (l.id not in self.bought and l.cls < trig.cls
                            and 0 < l.left < trig.right < l.right):
                        self._buy(l)
                        self.type3.append(l.id)
                        swept.append(l.id)
            self.frontier = trig.right

        if not self.covered[e]:
            raise InvariantViolationError(f"edge {e} left uncovered by serve")
        rec = ServeRecord(request=e, y_raise=delta, type1=pick.id,
                          type2=bought2, type3=tuple(swept),
                          frontier_right=self.frontier)
        self.records.append(rec)
        return rec

    # -- analysis views ---------------------------------------------------

    def full_load(self, link) -> Fraction:
        """Charge-weighted dual over the link's span."""
        return sum((self.product[i] for i in range(link.left, link.right)),
                   Fraction(0))

    def charge_weighted_total(self) -> Fraction:
        return sum(self.product, Fraction(0))

    def hat_dual(self, n_global: Optional[int] = None) -> list:
        """Cost-floored variant of the charge-weighted dual.

        Only type-1 links costing at least (max type-1 cost)/n**2
        contribute their charges; everything cheaper is noise the
        analysis can afford to drop.
        """
        n = n_global if n_global is not None else self.n_global
        hat = [Fraction(0)] * self.m
        if not self.type1:
            return hat
        cmax = max(self.links[lid].cost for lid in self.type1)
        floor = Fraction(cmax, n * n)
        lam = [0] * self.m
        for lid in self.type1:
            if self.links[lid].cost >= floor:
                for e in self.charged[lid]:
                    lam[e] += 1
        for i in range(self.m):
            if lam[i]:
                hat[i] = lam[i] * self.y[i]
        return hat

    def bought_cost_by_type(self):
        c1 = sum(self.links[l].cost for l in self.type1)
        c2 = sum(self.links[l].cost for l in self.type2)
        c3 = sum(self.links[l].cost for l in self.type3)
        return c1, c2, c3


def run_sequence(minimal: MinimalPathInstance, requests,
                 n_global: Optional[int] = None) -> PathSolver:
    """Serve a whole request sequence; covered requests are skipped."""
    solver = PathSolver(minimal, n_global=n_global)
    for e in requests:
        solver.serve(e)
    return solver
