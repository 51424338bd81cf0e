"""Checkers and instance generators that only the tests run.

None of this is a reference the package must match (those live in
``conftest.py``).  These check the paper's guarantees from outside:
the transfer of a feasible solution onto a pruned instance (after
Gupta, Krishnaswamy and Ravi 2012), the minimal-instance shape, a brute
subset minimum to cross-check the path DP, and the exhaustive sweep of
every feasible split behind the solution-quality certificate.  The
generators list every labelled tree and draw random minimal path
instances for the online batches.
"""

import itertools
import math

from wtap.errors import InfeasibleInstanceError, OracleSizeError
from wtap.generators import prufer_decode
from wtap.oracles import OracleResult, _width_term
from wtap.pruning import PathLink, build_minimal_instance, replacement

PATH_ENUM_LINK_CAP = 20
SPLIT_ENUM_LINK_CAP = 14


def covers(link, edge):
    """Whether the path link covers the edge."""
    return link.left <= edge < link.right


# -- pruning ---------------------------------------------------------------

def transfer(minimal, links) -> tuple:
    """Map a feasible solution over the original links to kept links.

    Returns (rooted_cover, nonrooted_cover), each ascending by id.  The
    rooted members collapse to the single replacement of the deepest
    one, costing no more than it; every non-rooted member is replaced by
    its at most three same-class kept links, so that part costs at most
    three times its input.
    """
    rooted = [l for l in links if l.rooted]
    rooted_cover = []
    if rooted:
        deepest = max(rooted, key=lambda l: (l.right, -l.cost, -l.id))
        rooted_cover = replacement(minimal, deepest)
    nonrooted_cover = {}
    for link in links:
        if not link.rooted:
            for rep in replacement(minimal, link):
                nonrooted_cover[rep.id] = rep
    return rooted_cover, sorted(nonrooted_cover.values(), key=lambda l: l.id)


def check_minimal(minimal) -> list:
    """Violations of the minimal-instance shape; empty list when clean."""
    problems = []
    by_cost = {}
    for l in minimal.links:
        by_cost.setdefault(l.cost, []).append(l)
    rooted_all = sorted((l for l in minimal.links if l.rooted), key=lambda l: l.cost)
    for cost, group in sorted(by_cost.items()):
        rooted = [l for l in group if l.rooted]
        if len(rooted) > 1:
            problems.append(f"cost {cost}: {len(rooted)} rooted links")
        for e in range(minimal.edge_count):
            depth = sum(1 for l in group if covers(l, e))
            if depth > 2:
                problems.append(f"cost {cost}: edge {e} covered {depth} times")
    for a, b in zip(rooted_all, rooted_all[1:]):
        if not (a.cost < b.cost and a.right < b.right):
            problems.append(
                f"rooted links {a.id},{b.id} not strictly nested by class")
    return problems


# -- exhaustive sweeps -----------------------------------------------------

def opt_path_enum(edge_count, links, requested_edges) -> OracleResult:
    """Brute-force subset minimum; cross-check oracle for the DP."""
    links = list(links)
    if len(links) > PATH_ENUM_LINK_CAP:
        raise OracleSizeError(f"enumeration capped at {PATH_ENUM_LINK_CAP} links")
    reqs = sorted(set(requested_edges))
    if not reqs:
        return OracleResult(0, frozenset(), "subset-enum")
    full = (1 << len(reqs)) - 1
    masks = [sum(1 << i for i, r in enumerate(reqs) if l.left <= r < l.right)
             for l in links]
    best_cost = None
    best_set = None
    for subset in range(1 << len(links)):
        m = 0
        c = 0
        s = subset
        while s:
            b = s & -s
            i = b.bit_length() - 1
            m |= masks[i]
            c += links[i].cost
            s ^= b
        if m == full and (best_cost is None or c < best_cost):
            best_cost = c
            best_set = subset
    if best_cost is None:
        raise InfeasibleInstanceError("no link subset covers the requests")
    witness = frozenset(links[i].id for i in range(len(links))
                        if best_set >> i & 1)
    return OracleResult(best_cost, witness, "subset-enum")


def sweep_splits(solver, records) -> tuple:
    """(count, worst, ok) over every feasible solution F of a path
    solver's pruned universe for the requests in its serve ``records``.

    ``ok`` holds when the solver's cost stays within
    ``24*c(rooted part) + 24*(2 log2 n + 1)*c(non-rooted part)`` for
    every F, with n the solver's ``n_global``; ``worst`` is the largest
    cost over ``c(rooted part) + (2 log2 n + 1)*c(non-rooted part)``.
    Capped at ``SPLIT_ENUM_LINK_CAP`` links.
    """
    links = solver.minimal.links
    if len(links) > SPLIT_ENUM_LINK_CAP:
        raise OracleSizeError(f"split sweep capped at {SPLIT_ENUM_LINK_CAP} links")
    total = solver.cost
    wterm = _width_term(solver.n_global)
    reqs = sorted({r.request for r in records})
    full = (1 << len(reqs)) - 1
    masks = [sum(1 << i for i, r in enumerate(reqs) if l.left <= r < l.right)
             for l in links]
    nlinks = len(links)
    cover = [0] * (1 << nlinks)
    ok = True
    worst = 0.0
    count = 0
    for s in range(1, 1 << nlinks):
        low = s & -s
        cover[s] = cover[s ^ low] | masks[low.bit_length() - 1]
        if cover[s] != full:
            continue
        count += 1
        chosen = [l for i, l in enumerate(links) if s >> i & 1]
        rcost = sum(l.cost for l in chosen if l.rooted)
        scost = sum(l.cost for l in chosen) - rcost
        denom = rcost + wterm * scost
        ratio = total / denom if denom else math.inf
        if ratio > worst:
            worst = ratio
        if total > 24 * rcost + 24 * wterm * scost + 1e-9:
            ok = False
    return count, worst, ok


# -- generators ------------------------------------------------------------

def enumerate_trees(n: int):
    """Yield the edge lists of all n**(n-2) labelled trees on 0..n-1."""
    if n == 1:
        yield []
        return
    if n == 2:
        yield [(0, 1)]
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        yield prufer_decode(seq, n)


def random_minimal_path_instance(rng, max_edges: int = 64,
                                 max_links: int = 40, max_cls: int = 6):
    """Random feasible minimal path instance for the online batches.

    A full-span rooted link guarantees feasibility; roughly a third of
    the rest start at the root so dominance pruning has work to do.
    Returns (minimal, removed, raw links).
    """
    m = rng.randint(2, max_edges)
    count = rng.randint(1, max_links - 1)
    raw = [PathLink(left=0, right=m, cost=2 ** max_cls, id=0)]
    for i in range(1, count + 1):
        left = 0 if rng.random() < 0.3 else rng.randint(0, m - 1)
        right = rng.randint(left + 1, m)
        cls = rng.randint(0, max_cls)
        raw.append(PathLink(left=left, right=right, cost=2 ** cls, id=i))
    minimal, removed = build_minimal_instance(m, raw)
    return minimal, removed, raw
