"""Rooted path decomposition and link projection.

The tree's edge set is partitioned into vertically monotone paths, each
rooted at its vertex closest to the tree root.  Construction is a
recursive balanced caterpillar: find the centroid of the current
component, take the component-root-to-leaf backbone through it, recurse
on the hanging pieces.  Components halve in size (up to the attach
vertex), so any root-to-leaf walk meets O(log n) backbones, and any
u-v path meets at most ``2*ceil(log2 n) + 1`` decomposition paths.

Two layers:

* array layer (``decompose_arrays``, ``width_arrays``) works on plain
  parent/children arrays with no object overhead; the exhaustive small
  tree sweeps run through it.
* object layer (``decompose``, ``width``, ``project``) wraps a
  ``TreeInstance`` and produces ``RootedPathDecomposition`` /
  ``ProjectedLink`` values for everything downstream.

The decomposition stores one per-vertex index: ``pid_above[v]``, the
path owning the edge from v to its parent, and ``pos_above[v]``, v's
position on that path.  Every edge is addressed by its child vertex, so
``width`` and ``project`` (and the tree solver's edge routing) read
these arrays instead of rebuilding vertex-to-position maps.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .errors import InvariantViolationError
from .instance import Link, TreeInstance


@dataclass(frozen=True)
class DecompPath:
    id: int
    vertices: tuple     # ordered from the path's root downward
    root: int


@dataclass(frozen=True)
class RootedPathDecomposition:
    paths: tuple
    edge_to_path: tuple      # edge id -> path id
    width_bound: int         # 2*ceil(log2 n) + 1
    n: int
    root: int
    pid_above: tuple         # vertex -> id of the path owning its parent edge
    pos_above: tuple         # vertex -> its position on that path (root: -1)


@dataclass(frozen=True)
class ProjectedLink:
    """Image of a link on one decomposition path.

    ``left``/``right`` are vertex positions along the path (root = 0);
    the projection covers path edges ``left .. right-1``.  Rooted means
    the upper endpoint is the path's root.
    """

    source: int
    path_id: int
    u: int
    v: int
    left: int
    right: int
    rooted: bool


def tree_children(inst: TreeInstance) -> list:
    children = [[] for _ in range(inst.n)]
    for v in range(inst.n):
        p = inst.parent[v]
        if p >= 0:
            children[p].append(v)
    for c in children:
        c.sort()
    return children


def decompose_arrays(n: int, root: int, parent: list, children: list):
    """Core decomposition on plain arrays.

    ``children[v]`` must be sorted ascending (determinism of all tie
    breaks depends on it).  Returns ``(paths, pid_above)`` where each
    path is a vertex list starting at its root and ``pid_above[v]`` is
    the id of the path owning the edge between v and its parent (-1 for
    the tree root).
    """
    size = [1] * n
    order = [root]
    i = 0
    while i < len(order):
        order.extend(children[order[i]])
        i += 1
    for w in reversed(order):
        p = parent[w]
        if p >= 0:
            size[p] += size[w]

    paths = []
    pid_above = [-1] * n
    queue = deque()
    queue.append((root, children[root]))
    while queue:
        rc, comp_children = queue.popleft()
        if not comp_children:
            continue
        comp_size = 1
        for c in comp_children:
            comp_size += size[c]

        # centroid: smallest max piece after vertex removal, ties by id
        best_v = rc
        best_f = max(size[c] for c in comp_children)
        stack = list(comp_children)
        while stack:
            u = stack.pop()
            f = comp_size - size[u]
            for c in children[u]:
                if size[c] > f:
                    f = size[c]
                stack.append(c)
            if f < best_f or (f == best_f and u < best_v):
                best_v, best_f = u, f

        # backbone: component root down to centroid, then follow the
        # largest child subtree (ties by smallest id) to a leaf
        up = []
        w = best_v
        while w != rc:
            up.append(w)
            w = parent[w]
        backbone = [rc] + up[::-1]
        w = best_v
        while True:
            ch = comp_children if w == rc else children[w]
            if not ch:
                break
            nxt = ch[0]
            for c in ch[1:]:
                if size[c] > size[nxt]:
                    nxt = c
            backbone.append(nxt)
            w = nxt

        pid = len(paths)
        paths.append(backbone)
        for v in backbone[1:]:
            pid_above[v] = pid
        for i2, w in enumerate(backbone):
            nxt = backbone[i2 + 1] if i2 + 1 < len(backbone) else -1
            ch = comp_children if w == rc else children[w]
            for c in ch:
                if c != nxt:
                    queue.append((w, [c]))
    return paths, pid_above


def width_arrays(n: int, root: int, parent: list, children: list,
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
    if n <= 1:
        return 0
    order = [root]
    i = 0
    while i < len(order):
        order.extend(children[order[i]])
        i += 1

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
    children = tree_children(inst)
    paths, pid_above = decompose_arrays(inst.n, inst.root, inst.parent, children)
    edge_to_path = tuple(pid_above[child] for child in inst.child_of_edge)
    pos_above = [-1] * inst.n
    for p in paths:
        for i in range(1, len(p)):
            pos_above[p[i]] = i
    dpaths = tuple(
        DecompPath(id=i, vertices=tuple(p), root=p[0]) for i, p in enumerate(paths)
    )
    return RootedPathDecomposition(
        paths=dpaths,
        edge_to_path=edge_to_path,
        width_bound=default_width_bound(inst.n),
        n=inst.n,
        root=inst.root,
        pid_above=tuple(pid_above),
        pos_above=tuple(pos_above),
    )


def width(inst: TreeInstance, decomp: RootedPathDecomposition) -> int:
    return width_arrays(inst.n, inst.root, inst.parent, tree_children(inst),
                        decomp.pid_above)


def project(inst: TreeInstance, decomp: RootedPathDecomposition,
            link: Link) -> list:
    """All per-path projections of one link, path id ascending.

    Paths meeting the link's tree path in zero edges contribute
    nothing; among the rest at most one projection is non-rooted.
    """
    by_pid = {}
    for e in inst.tree_path(link.u, link.v).edges:
        child = inst.child_of_edge[e]
        by_pid.setdefault(decomp.pid_above[child], []).append(
            decomp.pos_above[child])
    out = []
    for pid in sorted(by_pid):
        idxs = by_pid[pid]
        i0, i1 = min(idxs), max(idxs)
        if i1 - i0 + 1 != len(idxs):
            raise InvariantViolationError(
                f"projection of link {link.id} onto path {pid} "
                f"is not contiguous")
        verts = decomp.paths[pid].vertices
        out.append(ProjectedLink(
            source=link.id,
            path_id=pid,
            u=verts[i0 - 1],
            v=verts[i1],
            left=i0 - 1,
            right=i1,
            rooted=(i0 - 1 == 0),
        ))
    return out
