"""Pruning rooted-path link sets down to minimal instances.

Links here live on one decomposition path with integer vertex
positions: a link ``[left, right]`` covers edges ``left .. right-1``
and is rooted exactly when ``left == 0``.

A minimal instance has, per cost class, at most one rooted link and at
most two links over any edge, and its rooted links are strictly nested
by class.  Pruning happens in two stages, rooted dominance first, then
a per-class minimum interval cover; both stages record what they
removed so that any pruned link can be handed a same-class replacement
cover of at most three kept links, and any feasible solution over the
original links transfers to the kept links with bounded cost loss
(single rooted substitute at no extra cost, triples at 3x for the
rest).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .decomposition import DecompPath
from .errors import BadInputError, InvariantViolationError
from .instance import TreeInstance


@dataclass(frozen=True)
class PathLink:
    """A link on a rooted path; covers edges ``left .. right-1``."""

    left: int
    right: int
    cost: int
    cls: int
    id: int

    @property
    def rooted(self) -> bool:
        return self.left == 0

    def covers(self, edge: int) -> bool:
        return self.left <= edge < self.right


@dataclass(frozen=True)
class MinimalPathInstance:
    """A pruned link set plus the one coverage index its solvers share.

    ``by_id`` maps link id to link and ``cov_ids[e]`` lists the ids of
    the links covering edge e, ascending; both are built once here.
    """

    edge_count: int
    links: tuple                      # kept PathLinks, ascending id
    kept_from: dict                   # kept link id -> source link id
    path: Optional[DecompPath] = None
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
    """Drop rooted links dominated by an equal-or-lower-class rooted link.

    Returns (kept, removed).  Survivors have at most one link per class
    and strictly increasing spans with strictly increasing class.
    """
    rooted = [l for l in links if l.rooted]
    order = sorted(rooted, key=lambda l: (l.cls, -l.right, l.id))
    kept = []
    max_right = -1
    for l in order:
        if l.right > max_right:
            kept.append(l)
            max_right = l.right
    kept_ids = {l.id for l in kept}
    removed = [l for l in rooted if l.id not in kept_ids]
    kept.sort(key=lambda l: l.id)
    removed.sort(key=lambda l: l.id)
    return kept, removed


def prune_class(links):
    """Minimum-size subset of same-class links covering their edge union.

    Greedy sweep: at the leftmost uncovered edge, take the link
    reaching furthest right (ties by smaller id).  Exact for interval
    covering, and the output covers no edge more than twice.
    """
    if not links:
        return [], []
    cls = links[0].cls
    for l in links:
        if l.cls != cls:
            raise BadInputError("prune_class expects links of one class")
    by_left = sorted(links, key=lambda l: (l.left, -l.right, l.id))
    segments = []
    seg_l, seg_r = by_left[0].left, by_left[0].right
    for l in by_left[1:]:
        if l.left <= seg_r:
            if l.right > seg_r:
                seg_r = l.right
        else:
            segments.append((seg_l, seg_r))
            seg_l, seg_r = l.left, l.right
    segments.append((seg_l, seg_r))

    kept_ids = set()
    for a, b in segments:
        pos = a
        while pos < b:
            best = None
            for l in by_left:
                if l.left > pos:
                    break
                if l.right > pos and (best is None or l.right > best.right
                                      or (l.right == best.right and l.id < best.id)):
                    best = l
            kept_ids.add(best.id)
            pos = best.right
    kept = [l for l in links if l.id in kept_ids]
    removed = [l for l in links if l.id not in kept_ids]
    kept.sort(key=lambda l: l.id)
    removed.sort(key=lambda l: l.id)
    return kept, removed


REMOVED_DOMINATED = "dominated-rooted"
REMOVED_REDUNDANT = "redundant-cover"


@dataclass
class PruneRecord:
    """Everything the prune threw away, plus replacement lookups."""

    edge_count: int
    kept: list
    removed: list                    # (PathLink, reason) pairs
    kept_by_class: dict = field(default_factory=dict)

    def __post_init__(self):
        for l in self.kept:
            self.kept_by_class.setdefault(l.cls, []).append(l)
        self._kept_ids = {l.id for l in self.kept}
        self._by_id = {l.id: l for l in self.kept}
        for l, _ in self.removed:
            self._by_id[l.id] = l

    def replacement(self, link_id: int) -> list:
        """Kept links covering the given link's span.

        A kept link replaces itself; a dominated rooted link gets its
        single dominating survivor; a class-pruned link gets a chain of
        at most three same-class survivors.
        """
        link = self._by_id.get(link_id)
        if link is None:
            raise BadInputError(f"unknown link id {link_id}")
        if link_id in self._kept_ids:
            return [link]
        if link.rooted:
            candidates = [k for k in self.kept
                          if k.rooted and k.cls <= link.cls and k.right >= link.right]
            if not candidates:
                raise InvariantViolationError(
                    f"dominated rooted link {link_id} has no kept dominator")
            candidates.sort(key=lambda l: (l.cls, l.id))
            return [candidates[0]]
        return replacement_cover(link, self.kept_by_class.get(link.cls, []))

    def transfer(self, solution_ids) -> "TransferResult":
        """Map a feasible solution over the original links to kept links.

        The rooted part collapses to one survivor covering the deepest
        rooted member; every non-rooted member is replaced by its
        (at most three) same-class survivors.
        """
        rooted = []
        nonrooted = []
        for lid in solution_ids:
            link = self._by_id.get(lid)
            if link is None:
                raise BadInputError(f"unknown link id {lid}")
            (rooted if link.rooted else nonrooted).append(link)
        cover_rooted = []
        if rooted:
            deepest = max(rooted, key=lambda l: (l.right, -l.cls, -l.id))
            cover_rooted = self.replacement(deepest.id)
            if len(cover_rooted) != 1:
                raise InvariantViolationError(
                    "rooted replacement must be a single link")
        cover_nonrooted = {}
        for link in nonrooted:
            for rep in self.replacement(link.id):
                cover_nonrooted[rep.id] = rep
        return TransferResult(
            rooted_input=rooted,
            nonrooted_input=nonrooted,
            cover_for_rooted=cover_rooted,
            cover_for_nonrooted=sorted(cover_nonrooted.values(), key=lambda l: l.id),
        )


@dataclass
class TransferResult:
    rooted_input: list
    nonrooted_input: list
    cover_for_rooted: list
    cover_for_nonrooted: list

    @property
    def rooted_input_cost(self) -> int:
        return sum(l.cost for l in self.rooted_input)

    @property
    def nonrooted_input_cost(self) -> int:
        return sum(l.cost for l in self.nonrooted_input)

    @property
    def cover_for_rooted_cost(self) -> int:
        return sum(l.cost for l in self.cover_for_rooted)

    @property
    def cover_for_nonrooted_cost(self) -> int:
        return sum(l.cost for l in self.cover_for_nonrooted)

    def all_links(self) -> list:
        merged = {l.id: l for l in self.cover_for_rooted}
        for l in self.cover_for_nonrooted:
            merged[l.id] = l
        return sorted(merged.values(), key=lambda l: l.id)


def replacement_cover(link: PathLink, kept_same_class) -> list:
    """At most three kept same-class links whose spans cover the link."""
    out = []
    pos = link.left
    while pos < link.right:
        best = None
        for l in kept_same_class:
            if l.left <= pos < l.right and (best is None or l.right > best.right
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


def build_minimal_instance(edge_count: int, links, kept_from=None,
                           path: Optional[DecompPath] = None):
    """Run both prune stages; returns (MinimalPathInstance, PruneRecord)."""
    for l in links:
        if not (0 <= l.left < l.right <= edge_count):
            raise BadInputError(f"link {l.id} positions out of range")
        if l.cost != 1 << l.cls:
            raise BadInputError(f"link {l.id} cost is not 2**cls")
    ids = [l.id for l in links]
    if len(set(ids)) != len(ids):
        raise BadInputError("duplicate link ids")

    kept_rooted, removed_rooted = prune_rooted(links)
    survivors = kept_rooted + [l for l in links if not l.rooted]
    by_class = {}
    for l in survivors:
        by_class.setdefault(l.cls, []).append(l)
    kept = []
    removed = [(l, REMOVED_DOMINATED) for l in removed_rooted]
    for cls in sorted(by_class):
        k, r = prune_class(by_class[cls])
        kept.extend(k)
        removed.extend((l, REMOVED_REDUNDANT) for l in r)
    kept.sort(key=lambda l: l.id)
    removed.sort(key=lambda lr: lr[0].id)

    if kept_from is None:
        kept_from = {l.id: l.id for l in kept}
    else:
        kept_from = {l.id: kept_from[l.id] for l in kept}
    minimal = MinimalPathInstance(
        edge_count=edge_count,
        links=tuple(kept),
        kept_from=kept_from,
        path=path,
    )
    record = PruneRecord(edge_count=edge_count, kept=kept, removed=removed)
    return minimal, record


def check_minimal(minimal: MinimalPathInstance) -> list:
    """Violations of the minimal-instance shape; empty list when clean."""
    problems = []
    by_class = {}
    for l in minimal.links:
        by_class.setdefault(l.cls, []).append(l)
    rooted_all = sorted((l for l in minimal.links if l.rooted), key=lambda l: l.cls)
    for cls, group in sorted(by_class.items()):
        rooted = [l for l in group if l.rooted]
        if len(rooted) > 1:
            problems.append(f"class {cls}: {len(rooted)} rooted links")
        for e in range(minimal.edge_count):
            depth = sum(1 for l in group if l.covers(e))
            if depth > 2:
                problems.append(f"class {cls}: edge {e} covered {depth} times")
    for a, b in zip(rooted_all, rooted_all[1:]):
        if not (a.cls < b.cls and a.right < b.right):
            problems.append(
                f"rooted links {a.id},{b.id} not strictly nested by class")
    return problems


def path_positions(inst: TreeInstance) -> Optional[list]:
    """Vertex order along the tree when it is a path rooted at one end."""
    if inst.n == 1:
        return [inst.root]
    degree = [len(a) for a in inst.adjacency]
    if max(degree) > 2 or degree[inst.root] != 1:
        return None
    order = [inst.root]
    prev = -1
    cur = inst.root
    while len(order) < inst.n:
        nxt = [w for w, _ in inst.adjacency[cur] if w != prev]
        if len(nxt) != 1:
            return None
        prev, cur = cur, nxt[0]
        order.append(cur)
    return order


def path_instance_from_tree(inst: TreeInstance):
    """Convert a path-shaped tree instance to path coordinates.

    Returns (edge_count, path links, request edge positions).  The tree
    must be a path with the root at an endpoint, so that every link is
    rooted or internal in the path sense.
    """
    order = path_positions(inst)
    if order is None:
        raise BadInputError("instance is not a path rooted at an endpoint")
    pos = {v: i for i, v in enumerate(order)}
    plinks = []
    for ln in inst.links:
        a, b = pos[ln.u], pos[ln.v]
        left, right = min(a, b), max(a, b)
        plinks.append(PathLink(left=left, right=right, cost=ln.cost,
                               cls=ln.cls, id=ln.id))
    request_edges = []
    for req in inst.requests:
        for e in inst.expand_request(req):
            child = inst.child_of_edge[e]
            request_edges.append(pos[child] - 1)
    return inst.n - 1, plinks, request_edges
