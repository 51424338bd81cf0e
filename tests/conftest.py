"""Shared fixtures and independent reference implementations.

The reference helpers here are deliberately written with different
algorithms than the package (BFS instead of parent walks, recursive
subset search instead of bitmask DP) so that agreement between the two
actually means something.
"""

import random
from collections import deque
from itertools import combinations

import pytest
from hypothesis import settings

from wtap.pruning import PathLink

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


def PL(left, right, cls, id):
    """PathLink with the cost implied by its class."""
    return PathLink(left=left, right=right, cost=1 << cls, cls=cls, id=id)


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
