"""Random instance generators for ``wtap gen`` and ``wtap sweep``."""

from __future__ import annotations

import heapq
import math
import random
from fractions import Fraction

from .errors import BadInputError
from .instance import TreeInstance


def prufer_decode(seq, n: int):
    """Edges of the labelled tree on 0..n-1 with Prüfer sequence seq."""
    if n < 2:
        raise BadInputError("need at least two vertices")
    if len(seq) != n - 2:
        raise BadInputError("sequence length must be n - 2")
    degree = [1] * n
    for v in seq:
        if not 0 <= v < n:
            raise BadInputError(f"sequence entry {v} out of range")
        degree[v] += 1
    # degree[v] == 1 + remaining occurrences of v, so a popped vertex
    # never reappears in the suffix and is never pushed back
    heap = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(heap)
    edges = []
    for v in seq:
        leaf = heapq.heappop(heap)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(heap, v)
    a = heapq.heappop(heap)
    b = heapq.heappop(heap)
    edges.append((a, b))
    return edges


def random_tree(n: int, rng: random.Random):
    seq = [rng.randrange(n) for _ in range(n - 2)]
    return prufer_decode(seq, n)


def random_path_edges(n: int, rng: random.Random):
    order = list(range(n))
    rng.shuffle(order)
    return [(order[i], order[i + 1]) for i in range(n - 1)]


def gen_random(kind: str, n: int, link_count: int, cost_spread: float,
               seed: int, feasible: bool = True,
               request_count: int = 0) -> TreeInstance:
    """Random instance with log-uniform raw costs quantized to 1/4096.

    With ``feasible`` every tree edge gets a parallel unit-cost link, so
    any request stream can be served.
    """
    if n < 2:
        raise BadInputError("need at least two vertices")
    if link_count < 0 or request_count < 0:
        raise BadInputError(f"negative count: {link_count} links, "
                            f"{request_count} requests")
    if not math.isfinite(cost_spread * 4096):
        raise BadInputError(f"cost spread {cost_spread} times 4096 is not finite")
    rng = random.Random(seed)
    root = 0
    if kind == "tree":
        edges = random_tree(n, rng)
    elif kind == "path":
        edges = random_path_edges(n, rng)
        # root at an endpoint so path-only consumers accept the instance
        root = min(edges[0][0], edges[-1][1])
    else:
        raise BadInputError(f"unknown instance kind {kind!r}")

    raw_links = []
    if feasible:
        for (u, v) in edges:
            raw_links.append((u, v, Fraction(1)))
    spread = max(1.0, cost_spread)
    for _ in range(link_count):
        u = rng.randrange(n)
        v = rng.randrange(n)
        while v == u:
            v = rng.randrange(n)
        val = spread ** rng.random()
        raw_links.append((u, v, Fraction(max(1, round(val * 4096)), 4096)))

    requests = []
    for _ in range(request_count):
        s = rng.randrange(n)
        t = rng.randrange(n)
        while t == s:
            t = rng.randrange(n)
        requests.append((s, t))

    return TreeInstance(n=n, edges=edges, root=root,
                        raw_links=raw_links, requests=requests)

