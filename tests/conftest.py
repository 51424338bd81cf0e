"""Shared fixtures and independent reference implementations.

The reference helpers here are deliberately written with different
algorithms than the package (BFS instead of parent walks, recursive
subset search instead of bitmask DP, per-request cover lists instead of
the heap sweep, centroid backbones instead of heavy paths, two pruning
stages that each list what they remove instead of one kept/removed
pass) so that agreement between the two actually means something.
"""

import random
from bisect import bisect_left
from collections import deque
from itertools import combinations

import pytest
from hypothesis import settings

from wtap.errors import InfeasibleInstanceError
from wtap.oracles import OracleResult
from wtap.pruning import PathLink

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


def PL(left, right, cls, id):
    """PathLink with the cost implied by its class."""
    return PathLink(left=left, right=right, cost=1 << cls, cls=cls, id=id)


def bought_of_type(solver, kind):
    """A path solver's purchases of one type (1, 2 or 3), in order."""
    return [lid for lid, k in solver.bought.items() if k == kind]


def bfs_path(n, edges, u, v):
    """Vertex sequence of the unique u-v path, found by plain BFS."""
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    prev = {u: None}
    q = deque([u])
    while q:
        w = q.popleft()
        if w == v:
            break
        for x in adj[w]:
            if x not in prev:
                prev[x] = w
                q.append(x)
    out = [v]
    while prev[out[-1]] is not None:
        out.append(prev[out[-1]])
    return out[::-1]


def brute_cover(edge_count, links, requested):
    """Minimum cover cost by trying subsets smallest-first; None if infeasible."""
    need = set(requested)
    links = list(links)
    best = None
    for size in range(len(links) + 1):
        for combo in combinations(links, size):
            covered = set()
            for l in combo:
                covered.update(range(l.left, l.right))
            if need <= covered:
                cost = sum(l.cost for l in combo)
                if best is None or cost < best:
                    best = cost
        # cost is not monotone in subset size, so keep scanning all sizes
    return best


def _cover_lists(links, requests):
    """Per requested edge (ascending), the links covering it."""
    by_left = sorted(links, key=lambda l: l.left)
    active = []
    out = []
    ptr = 0
    for r in requests:
        while ptr < len(by_left) and by_left[ptr].left <= r:
            active.append(by_left[ptr])
            ptr += 1
        active = [l for l in active if l.right > r]
        out.append(list(active))
    return out


def reference_opt_path_dp(edge_count, links, requested_edges):
    """The interval-cover DP over explicit per-request cover lists.

    Time grows with the sum, over requested edges, of the links covering
    each; the package's heap sweep must agree with it on the optimum,
    the witness and the error text.
    """
    reqs = sorted(set(requested_edges))
    for r in reqs:
        if not 0 <= r < edge_count:
            raise InfeasibleInstanceError(f"requested edge {r} out of range")
    if not reqs:
        return OracleResult(0, frozenset(), "interval-dp")
    covers = _cover_lists(links, reqs)
    k = len(reqs)
    best = [None] * (k + 1)
    best[k] = (0, None, None)
    for i in range(k - 1, -1, -1):
        r = reqs[i]
        pick = None
        for l in covers[i]:
            j = bisect_left(reqs, l.right)
            cand = l.cost + best[j][0]
            if pick is None or cand < pick[0] or (cand == pick[0] and l.id < pick[1]):
                pick = (cand, l.id, j)
        if pick is None:
            raise InfeasibleInstanceError(f"edge {r} has no covering link")
        best[i] = pick
    witness = set()
    i = 0
    while i < k:
        _, lid, j = best[i]
        witness.add(lid)
        i = j
    return OracleResult(best[0][0], frozenset(witness), "interval-dp")


def _reference_prune_rooted(links):
    """(kept, removed) rooted links, each ascending by id."""
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


def _reference_prune_class(links):
    """(kept, removed) for one class's minimum interval cover, each
    ascending by id."""
    if not links:
        return [], []
    by_left = sorted(links, key=lambda l: (l.left, -l.right, l.id))
    kept_ids = set()
    i, pos, best = 0, by_left[0].left, None
    while True:
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
            pos = by_left[i].left
        else:
            break
    kept = [l for l in links if l.id in kept_ids]
    removed = [l for l in links if l.id not in kept_ids]
    kept.sort(key=lambda l: l.id)
    removed.sort(key=lambda l: l.id)
    return kept, removed


def reference_build_minimal(links, kept_from=None):
    """(kept links, kept_from, removed (link, reason) pairs): each stage
    lists what it removes with the stage's own reason, and the lists
    are merged and sorted by id."""
    kept_rooted, removed_rooted = _reference_prune_rooted(links)
    survivors = kept_rooted + [l for l in links if not l.rooted]
    by_class = {}
    for l in survivors:
        by_class.setdefault(l.cls, []).append(l)
    kept = []
    removed = [(l, "dominated-rooted") for l in removed_rooted]
    for cls in sorted(by_class):
        k, r = _reference_prune_class(by_class[cls])
        kept.extend(k)
        removed.extend((l, "redundant-cover") for l in r)
    kept.sort(key=lambda l: l.id)
    removed.sort(key=lambda lr: lr[0].id)
    if kept_from is None:
        kept_from = {l.id: l.id for l in kept}
    else:
        kept_from = {l.id: kept_from[l.id] for l in kept}
    return kept, kept_from, removed


def tree_arrays(n, edges, root=0):
    """(parent, children, order): children sorted ascending, and the BFS
    order from the root, each vertex after its parent."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = [-1] * n
    children = [[] for _ in range(n)]
    seen = [False] * n
    seen[root] = True
    order = [root]
    for u in order:
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                parent[w] = u
                children[u].append(w)
                order.append(w)
    for c in children:
        c.sort()
    return parent, children, order


def reference_decompose_arrays(parent, children, order):
    """The recursive balanced caterpillar: per component, the backbone
    from the component's root through its centroid, then down the
    largest child subtree (ties by smallest id) to a leaf; the hanging
    pieces are queued first in, first out.  O(n log n), one centroid
    search per component; the package's heavy-path decomposition must
    return the same ``(paths, pid_above)``.
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


def pairwise_width(n, edges, pid_above, root=0):
    """Max number of distinct decomposition paths met by any u-v path."""
    parent, _, order = tree_arrays(n, edges, root)
    depth = [0] * n
    for v in order[1:]:
        depth[v] = depth[parent[v]] + 1
    best = 0
    for u in range(n):
        for v in range(u + 1, n):
            a, b = u, v
            pids = set()
            while a != b:
                if depth[a] < depth[b]:
                    a, b = b, a
                pids.add(pid_above[a])
                a = parent[a]
            best = max(best, len(pids))
    return best


@pytest.fixture
def rng():
    return random.Random(991)
