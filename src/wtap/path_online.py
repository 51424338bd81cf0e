"""Deterministic online algorithm for rooted path instances.

One solver owns one minimal path instance and serves uncovered edge
requests.  A serve step does three things, in order:

1. raise the request edge's dual until the cheapest-residual covering
   link goes tight, and buy that link (type 1; ties prefer higher
   cost, then the furthest right endpoint, then the smaller id);
2. charge every positive-dual edge of the bought link's span at or
   beyond the frontier;
3. scan rooted links extending past the frontier whose accumulated
   charge-weighted dual strictly exceeds their cost; the highest-class
   such link becomes the new frontier, is bought if not already owned
   (type 2), and a paid-for frontier also sweeps in every unbought
   strictly-lower-class link crossing its right endpoint from a
   positive left position (type 3).  Every such link covers the edge
   at that endpoint, so the sweep reads that one edge's entry of the
   coverage index, never the whole link set; a minimal instance has
   at most two links of a class over any edge, so that is
   O(#classes) candidates.

The frontier is an integer prefix boundary: edges below it are covered
by an owned rooted link and receive no further charges.

All dual arithmetic is exact in plain ints.  Link costs are powers of
two, so every residual starts as an int; a raise ``delta`` is the
minimum of integer residuals, and subtracting it from integer
residuals leaves them integral.  So ``y`` and ``residual`` never leave
the integers, and neither does the charge-weighted dual
``charge[e] * y[e]``.

The trigger scan asks one prefix sum of the charge-weighted dual per
rooted link.  It is not stored edge by edge: a Fenwick tree (binary
indexed tree, Fenwick 1994) holds it and answers each prefix in
O(log m), and a minimal instance has at most one rooted link per
class, so a serve scans in O(#classes * log m) rather than walking the
whole prefix.

Deviations from the obvious literal reading (strict trigger, triggers
on owned links advancing the frontier without payment, sweeping only
strictly-lower classes at paid triggers only) are what make the load
caps provable; the accompanying test suite pins the intended traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Optional

from .errors import (BadInputError, InfeasibleInstanceError,
                     InvariantViolationError)
from .pruning import MinimalPathInstance

_RIGHT = attrgetter("right")


@dataclass(slots=True, unsafe_hash=True)
class ServeRecord:
    """What serving one edge request did.

    Immutable by convention: nothing assigns to a record after it is
    built.
    """

    request: int
    y_raise: int
    type1: Optional[int]
    type2: Optional[int]
    type3: tuple
    frontier_right: int
    skipped: bool = False

    @property
    def purchases(self) -> list:
        """The ids this serve bought: type 1, then type 2, then type 3."""
        out = [] if self.type1 is None else [self.type1]
        if self.type2 is not None:
            out.append(self.type2)
        out.extend(self.type3)
        return out


class PathSolver:
    def __init__(self, minimal: MinimalPathInstance, n_global: Optional[int] = None):
        self.minimal = minimal
        m = minimal.edge_count
        self.m = m
        # vertex count n for ``verify_nice``'s hat-dual cost floor and
        # width term; the path itself when the instance is standalone
        self.n_global = n_global if n_global is not None else m + 1
        self.y = [0] * m
        self.charge = [0] * m
        self.fenwick = [0] * (m + 1)          # over charge[e] * y[e]
        self.frontier = 0
        self.bought = {}                      # id -> type 1, 2 or 3, in order
        self.covered = [False] * m
        self.residual = {l.id: l.cost for l in minimal.links}
        self.rooted_by_right = sorted(
            [l for l in minimal.links if l.left == 0], key=_RIGHT)
        self.cost = 0

    # -- prefix index -----------------------------------------------------

    def _add_product(self, i, v):
        """Add ``v`` to the charge-weighted dual at edge ``i``."""
        tree = self.fenwick
        i += 1
        while i <= self.m:
            tree[i] += v
            i += i & -i

    def _prefix(self, k):
        """Charge-weighted dual over edges ``0..k-1``."""
        tree = self.fenwick
        s = 0
        while k:
            s += tree[k]
            k &= k - 1
        return s

    # -- purchases --------------------------------------------------------

    def _buy(self, link, kind):
        self.bought[link.id] = kind
        self.cost += link.cost
        self.covered[link.left:link.right] = [True] * (link.right - link.left)

    def _sweep(self, trig) -> tuple:
        """Buy the type-3 links of the paid trigger ``trig``; return their
        ids in purchase order.  Each covers edge ``trig.right``, so that
        edge's coverage list (ascending by id) holds every candidate."""
        right = trig.right
        if right == self.m:
            return ()
        by_id = self.minimal.by_id
        swept = []
        for lid in self.minimal.cov_ids[right]:
            l = by_id[lid]
            if lid not in self.bought and l.cost < trig.cost and 0 < l.left < right:
                self._buy(l, 3)
                swept.append(lid)
        return tuple(swept)

    # -- main step --------------------------------------------------------

    def serve(self, e: int) -> ServeRecord:
        if not 0 <= e < self.m:
            raise BadInputError(f"edge {e} out of range")
        if self.covered[e]:
            # (request, y_raise, type1, type2, type3, frontier_right, skipped)
            return ServeRecord(e, 0, None, None, (), self.frontier, True)
        minimal = self.minimal
        cands = minimal.cov_ids[e]
        if not cands:
            raise InfeasibleInstanceError(f"edge {e} has no covering link")

        delta = min(self.residual[lid] for lid in cands)
        pick = None
        pick_key = None
        for lid in cands:
            if self.residual[lid] == delta:
                l = minimal.by_id[lid]
                key = (-l.cost, -l.right, l.id)
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

        self._buy(pick, 1)
        for i in range(max(pick.left, self.frontier), pick.right):
            if self.y[i] > 0:
                self.charge[i] += 1
                self._add_product(i, self.y[i])

        # the trigger is the furthest-right loaded rooted link past the
        # frontier (rights ascend with class)
        trig = None
        for l in reversed(self.rooted_by_right):
            if l.right <= self.frontier:
                break
            if self._prefix(l.right) > l.cost:
                trig = l
                break
        bought2 = None
        swept = ()
        if trig is not None:
            if trig.id not in self.bought:
                self._buy(trig, 2)
                bought2 = trig.id
                swept = self._sweep(trig)
            self.frontier = trig.right

        if not self.covered[e]:
            raise InvariantViolationError(f"edge {e} left uncovered by serve")
        return ServeRecord(e, delta, pick.id, bought2, swept, self.frontier)

    # -- analysis views ---------------------------------------------------

    def full_load(self, link) -> int:
        """Charge-weighted dual over the link's span."""
        return self._prefix(link.right) - self._prefix(link.left)
