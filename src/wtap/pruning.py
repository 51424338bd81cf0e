"""Pruning rooted-path link sets down to minimal instances.

Links here live on one decomposition path with integer vertex
positions: a link ``[left, right]`` covers edges ``left .. right-1``
and is rooted exactly when ``left == 0``.

A minimal instance has, per cost class, at most one rooted link and at
most two links over any edge, and its rooted links are strictly nested
by class.  Pruning happens in two stages, rooted dominance first, then
a per-class minimum interval cover; each stage returns only what it
keeps.  ``build_minimal_instance`` then splits the links into kept and
removed in one pass by id.
``replacement`` hands any link a cover by kept links: itself if kept,
one kept rooted link of no higher class if it is a removed rooted
link, else at most three kept links of its own class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    cls: int
    id: int

    @property
    def rooted(self) -> bool:
        return self.left == 0


@dataclass(frozen=True)
class MinimalPathInstance:
    """A pruned link set plus the one coverage index its solvers share.

    ``by_id`` maps link id to link and ``cov_ids[e]`` lists the ids of
    the links covering edge e, ascending; both are built once here.
    """

    edge_count: int
    links: tuple                      # kept PathLinks, ascending id
    kept_from: dict                   # kept link id -> source link id
    by_id: dict = field(init=False, repr=False, compare=False)
    cov_ids: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cov_ids = [[] for _ in range(self.edge_count)]
        for l in self.links:
            for e in range(l.left, l.right):
                cov_ids[e].append(l.id)
        object.__setattr__(self, "by_id", {l.id: l for l in self.links})
        object.__setattr__(self, "cov_ids", cov_ids)


def prune_rooted(links):
    """The rooted links no equal-or-lower-class rooted link dominates.

    Returns the surviving chain by ascending class: at most one link per
    class, with strictly increasing spans.
    """
    order = sorted((l for l in links if l.left == 0),
                   key=lambda l: (l.cls, -l.right, l.id))
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
    rooted link of smallest (class, id) among those with class no higher
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
                      if k.rooted and k.cls <= link.cls]
        if not dominators:
            raise InvariantViolationError(
                f"dominated rooted link {link.id} has no kept dominator")
        return [min(dominators, key=lambda l: (l.cls, l.id))]
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
            if l.cls == link.cls and (best is None or l.right > best.right
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

    ``removed`` lists the removed PathLinks ascending by id.
    """
    rooted, by_class = [], {}           # class -> its non-rooted links
    for l in links:
        left = l.left
        if not 0 <= left < l.right <= edge_count:
            raise BadInputError(f"link {l.id} positions out of range")
        if l.cost != 1 << l.cls:
            raise BadInputError(f"link {l.id} cost is not 2**cls")
        if left == 0:
            rooted.append(l)
        else:
            by_class.setdefault(l.cls, []).append(l)
    for l in prune_rooted(rooted):
        by_class.setdefault(l.cls, []).append(l)
    kept_ids = {cls: prune_class(group) for cls, group in by_class.items()}
    by_id = sorted(links, key=attrgetter("id"))
    if any(a.id == b.id for a, b in zip(by_id, by_id[1:])):
        raise BadInputError("duplicate link ids")
    kept, sources, removed = [], {}, []
    for l in by_id:
        if l.id in kept_ids.get(l.cls, ()):
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
        plinks.append(PathLink(left, right, ln.cost, ln.cls, ln.id))
    # the edge above the vertex at position i sits at position i - 1, so
    # a request's edges, in order from s, are a run of consecutive positions
    request_edges = []
    for req in inst.requests:
        a, b = pos[req.s], pos[req.t]
        request_edges.extend(range(a, b) if a < b else range(a - 1, b - 1, -1))
    return inst.n - 1, plinks, request_edges
