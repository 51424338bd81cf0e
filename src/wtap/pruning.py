"""Pruning rooted-path link sets down to minimal instances.

Links here live on one decomposition path with integer vertex
positions: a link ``[left, right]`` covers edges ``left .. right-1``
and is rooted exactly when ``left == 0``.

Costs are powers of two, so a link's cost is its class.  A minimal
instance has, per class, at most one rooted link and at most two links
over any edge, and its rooted links are strictly nested by class.
Pruning happens in two stages, rooted dominance first, then a
per-class minimum interval cover; each stage returns only what it
keeps.  ``build_minimal_instance`` then splits the links into kept and
removed in one pass by id, sorting them first only when their ids do
not already ascend.  ``replacement`` hands any link a cover by kept
links: itself if kept, one kept rooted link of no higher cost if it is
a removed rooted link, else at most three kept links of its own cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from operator import attrgetter

from .errors import BadInputError, InvariantViolationError
from .instance import TreeInstance


@dataclass(slots=True, unsafe_hash=True)
class PathLink:
    """A link on a rooted path; covers edges ``left .. right-1``.

    Immutable by convention: nothing assigns to a link after it is built.
    """

    left: int
    right: int
    cost: int
    id: int

    @property
    def rooted(self) -> bool:
        return self.left == 0


@dataclass(slots=True)
class MinimalPathInstance:
    """A pruned link set plus the one coverage index its solvers share.

    ``by_id`` maps link id to link and ``cov_ids[e]`` lists the ids of
    the links covering edge e, ascending; both are built once here.
    Coverage changes only at link ends, so the edges of each run
    between consecutive ends share one list.  Immutable by convention:
    nothing assigns to an instance or its lists after it is built.
    """

    edge_count: int
    links: tuple                      # kept PathLinks, ascending id
    kept_from: dict                   # kept link id -> source link id
    by_id: dict = field(init=False, repr=False, compare=False)
    cov_ids: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.by_id = {l.id: l for l in self.links}
        # coverage changes only at link ends: a run of edges starts at
        # edge 0 and at each link end, each run gets one list, and each
        # link's id goes to the runs that start within its span, in id
        # order (a one-edge link lies in one run)
        m = self.edge_count
        starts = bytearray(m + 1)
        starts[0] = 1
        for l in self.links:
            starts[l.left] = starts[l.right] = 1
        cov_ids = []
        for start in starts[:m]:
            if start:
                run = []
            cov_ids.append(run)
        for l in self.links:
            lid, left, right = l.id, l.left, l.right
            if right - left == 1:
                cov_ids[left].append(lid)
                continue
            for run in compress(cov_ids[left:right], starts[left:right]):
                run.append(lid)
        self.cov_ids = cov_ids


def prune_rooted(links):
    """The rooted links no equal-or-lower-class rooted link dominates.

    Returns the surviving chain by ascending class: at most one link per
    class, with strictly increasing spans.
    """
    order = sorted((l for l in links if l.left == 0),
                   key=lambda l: (l.cost, -l.right, l.id))
    kept = []
    max_right = -1
    for l in order:
        if l.right > max_right:
            kept.append(l)
            max_right = l.right
    return kept


def prune_class(links):
    """Ids of a minimum-size subset of same-class links covering their
    edge union.

    One pointer sweep over the links by left end: at the leftmost
    uncovered edge, take the link reaching furthest right (ties by
    smaller id); at a gap, jump to the next link's left end.  Exact for
    interval covering, and the output covers no edge more than twice.
    """
    if not links:
        return set()
    by_left = sorted(links, key=lambda l: (l.left, -l.right, l.id))
    kept_ids = set()
    i, pos, best = 0, by_left[0].left, None
    while True:
        # links starting at or before pos; every earlier one ends by pos
        while i < len(by_left) and by_left[i].left <= pos:
            l = by_left[i]
            i += 1
            if l.right > pos and (best is None or l.right > best.right
                                  or (l.right == best.right and l.id < best.id)):
                best = l
        if best is not None:
            kept_ids.add(best.id)
            pos, best = best.right, None
        elif i < len(by_left):
            pos = by_left[i].left             # a gap: jump to the next link
        else:
            break
    return kept_ids


# why a link was removed: a rooted one is always dominated, since a
# class's rooted survivor is its only link at 0 and its cover keeps it
REMOVED_DOMINATED = "dominated-rooted"
REMOVED_REDUNDANT = "redundant-cover"


def replacement(minimal: MinimalPathInstance, link: PathLink) -> list:
    """Kept links covering the given link's span.

    A kept link replaces itself; a removed rooted link gets the kept
    rooted link of smallest (cost, id) among those costing no more and
    reaching at least as far; any other link gets a chain of at most
    three same-class kept links.  Both read the coverage index: a kept
    rooted link reaches as far exactly when it covers the link's last
    edge.
    """
    if minimal.by_id.get(link.id) == link:
        return [link]
    if link.rooted:
        dominators = [k for k in map(minimal.by_id.get,
                                     minimal.cov_ids[link.right - 1])
                      if k.rooted and k.cost <= link.cost]
        if not dominators:
            raise InvariantViolationError(
                f"dominated rooted link {link.id} has no kept dominator")
        return [min(dominators, key=lambda l: (l.cost, l.id))]
    return replacement_cover(link, minimal)


def replacement_cover(link: PathLink, minimal: MinimalPathInstance) -> list:
    """At most three kept links of the link's class covering its span.

    Greedy from the link's left end: at each uncovered edge take the
    same-class kept link over it reaching furthest right (ties by
    smaller id), found in the coverage index.
    """
    out = []
    pos = link.left
    while pos < link.right:
        best = None
        for l in map(minimal.by_id.get, minimal.cov_ids[pos]):
            if l.cost == link.cost and (best is None or l.right > best.right
                                      or (l.right == best.right and l.id < best.id)):
                best = l
        if best is None:
            raise InvariantViolationError(
                f"pruned link {link.id} uncoverable at edge {pos}")
        out.append(best)
        pos = best.right
        if len(out) > 3:
            raise InvariantViolationError(
                f"pruned link {link.id} needs more than three replacements")
    return out


def build_minimal_instance(edge_count: int, links, kept_from=None):
    """Run both prune stages; returns (minimal, removed).

    ``removed`` lists the removed PathLinks ascending by id.  The links
    are sorted by id only when they do not already ascend.
    """
    rooted, by_class = [], {}           # cost -> its non-rooted links
    ascending, last = True, None
    for l in links:
        left = l.left
        if not 0 <= left < l.right <= edge_count:
            raise BadInputError(f"link {l.id} positions out of range")
        if l.cost < 1 or l.cost & (l.cost - 1):
            raise BadInputError(f"link {l.id} cost is not a power of two")
        if left == 0:
            rooted.append(l)
        else:
            by_class.setdefault(l.cost, []).append(l)
        if ascending and last is not None and l.id <= last:
            ascending = False
        last = l.id
    for l in prune_rooted(rooted) if len(rooted) > 1 else rooted:
        by_class.setdefault(l.cost, []).append(l)
    # a lone link of its class is its class's cover
    kept_ids = {cost: prune_class(group) if len(group) > 1 else {group[0].id}
                for cost, group in by_class.items()}
    by_id = links
    if not ascending:
        by_id = sorted(links, key=attrgetter("id"))
        if any(a.id == b.id for a, b in zip(by_id, by_id[1:])):
            raise BadInputError("duplicate link ids")
    kept, sources, removed = [], {}, []
    for l in by_id:
        if l.id in kept_ids.get(l.cost, ()):
            kept.append(l)
            sources[l.id] = l.id if kept_from is None else kept_from[l.id]
        else:
            removed.append(l)
    return MinimalPathInstance(edge_count, tuple(kept), sources), removed


def path_instance_from_tree(inst: TreeInstance):
    """Convert a path-shaped tree instance to path coordinates.

    Returns (edge_count, path links, request edge positions).  The tree
    must be a path rooted at an endpoint, so that every link is rooted
    or internal and each vertex's position is its depth; any other shape
    raises ``BadInputError``.
    """
    # the tree is connected: such a path exactly when a vertex is n - 1 deep
    if max(inst.depth) != inst.n - 1:
        raise BadInputError("instance is not a path rooted at an endpoint")
    pos = inst.depth
    plinks = []
    for ln in inst.links:
        a, b = pos[ln.u], pos[ln.v]
        left, right = min(a, b), max(a, b)
        plinks.append(PathLink(left, right, ln.cost, ln.id))
    # the edge above the vertex at position i sits at position i - 1, so
    # a request's edges, in order from s, are a run of consecutive positions
    request_edges = []
    for req in inst.requests:
        a, b = pos[req.s], pos[req.t]
        request_edges.extend(range(a, b) if a < b else range(a - 1, b - 1, -1))
    return inst.n - 1, plinks, request_edges
