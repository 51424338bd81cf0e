"""Seeded, stdlib-only input generator for the wtap benchmark.

Each workload is emitted as text.  ``tree-serve``, ``path-serve`` and
``frac-serve`` use the package's instance format (``n``/``edge``/``link``/
``request`` lines); ``lowerbound`` is a one-line adversary spec.  The
generator does not import ``wtap`` (in particular not
``wtap.generators``), so no change to the package can change a workload.

Usage: python3 perfbench/gen.py <workload> [--seed N]
"""

from __future__ import annotations

import argparse
import heapq
import random
import sys

WORKLOADS = ("tree-serve", "path-serve", "frac-serve", "lowerbound")

# tree-serve: random Pruefer tree, a unit link on every tree edge, 2n
# random links with log-uniform raw costs over a 16x spread, and 4n random
# terminal pairs.  A repetition takes about 1 s, so 20-30 fit in a run
# (each piece of work is timed at its fastest over them), and with 4n
# pairs the lazy cov-table build on the first one, a single long piece,
# is a small part of the serve phase.
TREE_N = 2000
TREE_EXTRA_LINKS_PER_VERTEX = 2
TREE_REQUESTS_PER_VERTEX = 4
COST_SPREAD = 16.0

# path-serve / frac-serve: a path of PATH_M edges rooted at one end with a
# ladder of nested rooted links (one per class, the top one spanning the
# whole path) plus short local links.
PATH_M = 4000
LADDER_CLASSES = 12
LOCAL_LINKS_PER_EDGE = 3
LOCAL_SPAN_MAX = 32
PATH_REQUESTS_PER_EDGE = 2          # every edge twice, in random order
FRAC_REQUESTS = 1000                # distinct random edges, random order

# lowerbound: the adversary table for two contestants.
LB_B = 2
LB_KS = (1, 2, 3, 4, 5, 6)
LB_ALGOS = ("greedy", "alg1")


def _log_uniform_cost(rng: random.Random) -> str:
    return f"{COST_SPREAD ** rng.random():.4f}"


def pruefer_edges(rng: random.Random, n: int) -> list:
    """Edges of a uniformly random labelled tree on ``n >= 2`` vertices."""
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def _distinct_pair(rng: random.Random, n: int) -> tuple:
    u = rng.randrange(n)
    v = rng.randrange(n - 1)
    return u, v + (v >= u)


def tree_serve_text(seed: int, n: int = TREE_N) -> str:
    # Distances in a random labelled tree do not concentrate as n grows
    # (over seeds 1..10 the mean distance at n = 8000 ranged from 91 to
    # 136), and setup time and memory follow them; at n = 4000, set-up
    # time still followed the random links from seed to seed.  So the
    # tree's shape and its links are drawn once per n, from fixed streams;
    # the seed permutes the labels and draws the requests, the online
    # input.
    fixed = random.Random(f"tree-serve/shape/{n}")
    shape = pruefer_edges(fixed, n)
    extra = [(*_distinct_pair(fixed, n), _log_uniform_cost(fixed))
             for _ in range(TREE_EXTRA_LINKS_PER_VERTEX * n)]
    rng = random.Random(f"tree-serve/{seed}")
    label = list(range(n))
    rng.shuffle(label)
    edges = [(label[u], label[v]) for u, v in shape]
    lines = [f"n {n} root {label[0]}"]
    lines.extend(f"edge {u} {v}" for u, v in edges)
    lines.extend(f"link {u} {v} 1" for u, v in edges)
    lines.extend(f"link {label[u]} {label[v]} {cost}" for u, v, cost in extra)
    for _ in range(TREE_REQUESTS_PER_VERTEX * n):
        s, t = _distinct_pair(rng, n)
        lines.append(f"request {s} {t}")
    return "\n".join(lines) + "\n"


def _path_lines(rng: random.Random, m: int) -> list:
    lines = [f"n {m + 1} root 0"]
    lines.extend(f"edge {i} {i + 1}" for i in range(m))
    top = LADDER_CLASSES - 1
    for cls in range(LADDER_CLASSES):
        right = max(cls + 1, m >> (top - cls))
        lines.append(f"link 0 {right} {1 << cls}")
    for _ in range(LOCAL_LINKS_PER_EDGE * m):
        left = rng.randrange(m)
        right = min(m, left + rng.randint(1, LOCAL_SPAN_MAX))
        lines.append(f"link {left} {right} {_log_uniform_cost(rng)}")
    return lines


def path_serve_text(seed: int, m: int = PATH_M) -> str:
    rng = random.Random(f"path-serve/{seed}")
    lines = _path_lines(rng, m)
    edges = list(range(m)) * PATH_REQUESTS_PER_EDGE
    rng.shuffle(edges)
    lines.extend(f"request {e} {e + 1}" for e in edges)
    return "\n".join(lines) + "\n"


def frac_serve_text(seed: int, m: int = PATH_M,
                    requests: int = FRAC_REQUESTS) -> str:
    rng = random.Random(f"frac-serve/{seed}")
    lines = _path_lines(rng, m)
    lines.extend(f"request {e} {e + 1}" for e in rng.sample(range(m), requests))
    return "\n".join(lines) + "\n"


def lowerbound_text(seed: int) -> str:
    # The adversary is deterministic and adaptive: the seed selects nothing.
    ks = " ".join(str(k) for k in LB_KS)
    return f"adversary B {LB_B} k {ks} algos {' '.join(LB_ALGOS)}\n"


GENERATORS = {
    "tree-serve": tree_serve_text,
    "path-serve": path_serve_text,
    "frac-serve": frac_serve_text,
    "lowerbound": lowerbound_text,
}


def workload_text(workload: str, seed: int) -> str:
    return GENERATORS[workload](seed)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    sys.stdout.write(workload_text(args.workload, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
