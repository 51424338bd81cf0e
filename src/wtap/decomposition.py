"""Rooted path decomposition and link projection.

The tree's edge set is partitioned into vertically monotone paths, each
rooted at its vertex closest to the tree root.  Construction is the
heavy-path decomposition (Sleator-Tarjan 1983).  A vertex's heavy child
is its largest child, ties to the smallest id; its other children are
light.  One path descends from the root, and one from the parent of
each light child through that child, each then taking heavy children
down to a leaf.  A light child holds less than half its parent's
subtree, so a downward walk crosses at most ``floor(log2 n)`` light
edges, and a new path starts only at a light edge.  A u-v path splits
at its top vertex into two downward walks, of whose first edges at most
one is heavy, so it meets at most ``2*floor(log2 n) + 1`` decomposition
paths, within ``default_width_bound``.

Two layers:

* array layer (``decompose_arrays``, ``width_arrays``) works on plain
  ``parent``/``children`` arrays and a top-down ``order`` (the root
  first, each vertex after its parent), as ``TreeInstance`` keeps them;
  the exhaustive small tree sweeps run through it.
* instance layer (``decompose``, ``width``, ``project_all``,
  ``project``) takes a ``TreeInstance``.  ``decompose`` returns the
  arrays frozen in a ``RootedPathDecomposition``; ``project_all`` walks
  a whole sequence of links once, yielding every span as
  ``(link, path_id, left, right)``, and ``project`` is that walk for
  one link, its spans sorted by path id.

A ``RootedPathDecomposition`` holds four arrays.  ``paths[p]`` is path
p's vertex tuple, from its head (the vertex closest to the tree root)
downward.  ``pid_above[v]`` is the path owning the edge from v to its
parent, and ``pos_above[v]`` is v's position on that path.  Every edge
is addressed by its child vertex, so ``width`` and the walk (and the
tree solver's edge routing) read these arrays instead of rebuilding
vertex-to-position maps.  ``base`` numbers the edges globally,
heavy-light style: path p's edges hold the contiguous slots
``base[p] .. base[p+1]-1`` in path order, so a span ``(p, left,
right)`` is the slot run ``base[p]+left .. base[p]+right-1``, and
``base[-1]`` is the edge count.

The walk never follows a tree path edge by edge.  It steps both
endpoints at once, always jumping the one whose path head
(``paths[pid][0]``) is deeper to that head, until both sit on one path;
each jump yields one span.  So a link's projections cost O(width) steps.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .errors import InvariantViolationError
from .instance import Link, TreeInstance


@dataclass(frozen=True)
class RootedPathDecomposition:
    paths: tuple             # path id -> vertex tuple, head first
    pid_above: tuple         # vertex -> id of the path owning its parent edge
    pos_above: tuple         # vertex -> its position on that path (root: -1)
    base: tuple              # path id -> slot of its first edge; then n - 1


def decompose_arrays(parent: list, children: list, order: list):
    """Core decomposition on plain arrays.

    ``children[v]`` must be sorted ascending (determinism of all tie
    breaks depends on it), and ``order`` lists every vertex after its
    parent, the root first.  Returns ``(paths, pid_above)`` where each
    path is a vertex list starting at its root and ``pid_above[v]`` is
    the id of the path owning the edge between v and its parent (-1 for
    the tree root).
    """
    n = len(parent)
    root = order[0]
    size = [1] * n
    for w in reversed(order):
        p = parent[w]
        if p >= 0:
            size[p] += size[w]

    paths = []
    pid_above = [-1] * n
    # path starts, first in first out: the root, then each light child
    queue = deque([root] if children[root] else [])
    while queue:
        w = queue.popleft()
        path = [w] if w == root else [parent[w], w]
        ch = children[w]
        while ch:
            # the largest child; ties go to the smallest id
            heavy = ch[0]
            for c in ch[1:]:
                if size[c] > size[heavy]:
                    heavy = c
            for c in ch:
                if c != heavy:
                    queue.append(c)
            path.append(heavy)
            ch = children[heavy]
        pid = len(paths)
        for v in path[1:]:
            pid_above[v] = pid
        paths.append(path)
    return paths, pid_above


def width_arrays(parent: list, children: list, order: list,
                 pid_above: list) -> int:
    """Exact width in O(n).

    Decomposition paths are vertically monotone, so along any
    root-to-v walk each path id occupies one contiguous run and the
    distinct-count D(v) satisfies a one-step recurrence.  A u-v path
    with top vertex w splits into two downward segments that share no
    path id (a monotone path cannot bend at w into two children), so
    the width is the best single downward count or the best sum of two
    at a common top vertex.
    """
    n = len(parent)
    if n <= 1:
        return 0
    root = order[0]
    dcount = [0] * n
    for w in order:
        for c in children[w]:
            cont = w != root and pid_above[c] == pid_above[w]
            dcount[c] = dcount[w] + (0 if cont else 1)
    max_d = dcount[:]
    for w in reversed(order):
        p = parent[w]
        if p >= 0 and max_d[w] > max_d[p]:
            max_d[p] = max_d[w]

    best = 0
    for w in order:
        ch = children[w]
        if not ch:
            continue
        top1 = 0
        top2 = 0
        dw = dcount[w]
        for c in ch:
            cont = w != root and pid_above[c] == pid_above[w]
            m = max_d[c] - dw + (1 if cont else 0)
            if m > top1:
                top1, top2 = m, top1
            elif m > top2:
                top2 = m
        if top1 + top2 > best:
            best = top1 + top2
    return best


def default_width_bound(n: int) -> int:
    if n <= 1:
        return 0
    return 2 * math.ceil(math.log2(n)) + 1


def decompose(inst: TreeInstance) -> RootedPathDecomposition:
    paths, pid_above = decompose_arrays(inst.parent, inst.children, inst.order)
    pos_above = [-1] * inst.n
    base = [0]
    for p in paths:
        for i in range(1, len(p)):
            pos_above[p[i]] = i
        base.append(base[-1] + len(p) - 1)
    return RootedPathDecomposition(
        paths=tuple(map(tuple, paths)),
        pid_above=tuple(pid_above),
        pos_above=tuple(pos_above),
        base=tuple(base),
    )


def width(inst: TreeInstance, decomp: RootedPathDecomposition) -> int:
    return width_arrays(inst.parent, inst.children, inst.order,
                        decomp.pid_above)


def project_all(inst: TreeInstance, decomp: RootedPathDecomposition,
                links):
    """Yield ``(link, path_id, left, right)`` for every span of every link.

    ``left``/``right`` are vertex positions on path ``path_id`` (head =
    0); the span covers that path's edges ``left .. right-1`` and is
    rooted exactly when ``left == 0``.  One joint walk from both
    endpoints finds a link's spans: while the two ends hang below
    different paths, the end whose path head is deeper takes the rooted
    span ``(pid, 0, pos_above[x])`` of its path ``pid`` and jumps to that
    head; once both hang below one path, the span between them is the
    last.  Each jump leaves a path for good, so a link costs O(width),
    not O(length of its tree path), and its spans come in walk order,
    not path id order.  Paths meeting the link's tree path in zero edges
    contribute nothing; among the rest at most one span is non-rooted.
    A path met twice by one link, or a span end not at its stated
    position, means the decomposition's arrays disagree and raises
    ``InvariantViolationError``.
    """
    pid_above, pos_above = decomp.pid_above, decomp.pos_above
    paths, depth = decomp.paths, inst.depth
    met = [-1] * len(paths)         # path id -> last link index meeting it
    for i, link in enumerate(links):
        x, z = link.u, link.v       # x steps; the two ends swap as needed
        while x != z:
            pid, other = pid_above[x], pid_above[z]
            if pid == other:
                if depth[x] < depth[z]:
                    x, z = z, x
                y, left = z, pos_above[z]
            else:
                if pid < 0 or (other >= 0 and depth[paths[other][0]]
                               > depth[paths[pid][0]]):
                    x, z, pid = z, x, other
                y, left = paths[pid][0], 0
            verts = paths[pid]
            right = pos_above[x]
            if (met[pid] == i or not 0 <= left < right < len(verts)
                    or verts[left] != y or verts[right] != x):
                raise InvariantViolationError(
                    f"projection of link {link.id} onto path {pid} "
                    f"is not contiguous")
            met[pid] = i
            yield link, pid, left, right
            x = y


def project(inst: TreeInstance, decomp: RootedPathDecomposition,
            link: Link) -> list:
    """The link's spans ``(path_id, left, right)``, path id ascending:
    ``project_all`` for one link."""
    return sorted((pid, left, right) for _, pid, left, right
                  in project_all(inst, decomp, (link,)))
