import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from wtap.decomposition import (
    decompose,
    decompose_arrays,
    default_width_bound,
    project,
    width,
    width_arrays,
)
from wtap.errors import InvariantViolationError
from wtap.generators import gen_random, prufer_decode
from wtap.instance import TreeInstance

from checkers import enumerate_trees
from conftest import pairwise_width, reference_decompose_arrays, tree_arrays


def make(n, edges, root=0, raw_links=()):
    return TreeInstance(n=n, edges=edges, root=root, raw_links=raw_links)


# -- pinned shapes ----------------------------------------------------------

def test_path_from_endpoint_is_one_path():
    inst = make(8, [(i, i + 1) for i in range(7)])
    d = decompose(inst)
    assert len(d.paths) == 1
    assert d.paths[0] == tuple(range(8))
    assert width(inst, d) == 1
    assert default_width_bound(inst.n) == 7


def test_path_from_interior_root_splits_once():
    inst = make(5, [(i, i + 1) for i in range(4)], root=2)
    d = decompose(inst)
    assert len(d.paths) == 2
    assert width(inst, d) == 2


def test_star_from_center():
    inst = make(4, [(0, 1), (0, 2), (0, 3)])
    d = decompose(inst)
    assert len(d.paths) == 3
    assert sorted(d.paths) == [(0, 1), (0, 2), (0, 3)]
    assert width(inst, d) == 2


def test_star_from_leaf():
    inst = make(4, [(0, 1), (0, 2), (0, 3)], root=1)
    d = decompose(inst)
    assert len(d.paths) == 2
    assert width(inst, d) == 2


def test_complete_binary_tree_width_within_bound():
    edges = [((i - 1) // 2, i) for i in range(1, 15)]
    inst = make(15, edges)
    d = decompose(inst)
    assert width(inst, d) <= default_width_bound(inst.n) == 9


def test_single_vertex_decomposes_to_nothing():
    inst = make(1, [])
    d = decompose(inst)
    assert d.paths == ()
    assert width(inst, d) == 0
    assert default_width_bound(inst.n) == 0


def test_width_bound_values():
    assert default_width_bound(1) == 0
    assert default_width_bound(2) == 3
    assert default_width_bound(8) == 7
    assert default_width_bound(9) == 9
    assert default_width_bound(512) == 19


# -- structural invariants --------------------------------------------------

def assert_well_formed(inst, d):
    # every tree edge belongs to exactly one path, via its child endpoint
    # and sits at its stated position there
    owner = {}
    for pid, verts in enumerate(d.paths):
        for i, (a, b) in enumerate(zip(verts, verts[1:]), start=1):
            assert inst.parent[b] == a, "paths must descend parent to child"
            assert b not in owner
            owner[b] = pid
            assert d.pos_above[b] == i
    assert len(owner) == inst.n - 1
    for child in inst.child_of_edge:
        assert d.pid_above[child] == owner[child]
    assert d.pid_above[inst.root] == d.pos_above[inst.root] == -1
    # each later path hangs off a vertex of an earlier one
    for pid, verts in enumerate(d.paths):
        if pid > 0:
            assert any(verts[0] in q for q in d.paths[:pid])
    if d.paths:
        assert d.paths[0][0] == inst.root


@given(st.data())
def test_random_tree_decompositions_are_well_formed(data):
    n = data.draw(st.integers(min_value=2, max_value=40))
    seq = data.draw(st.lists(st.integers(0, n - 1),
                             min_size=n - 2, max_size=n - 2))
    inst = make(n, prufer_decode(seq, n))
    d = decompose(inst)
    assert_well_formed(inst, d)
    assert width(inst, d) <= default_width_bound(inst.n)


@settings(max_examples=40)
@given(st.data())
def test_width_arrays_matches_pairwise_count(data):
    n = data.draw(st.integers(min_value=2, max_value=24))
    seq = data.draw(st.lists(st.integers(0, n - 1),
                             min_size=n - 2, max_size=n - 2))
    edges = prufer_decode(seq, n)
    parent, children, order = tree_arrays(n, edges)
    paths, pid_above = decompose_arrays(parent, children, order)
    assert width_arrays(parent, children, order, pid_above) == \
        pairwise_width(n, edges, pid_above)


def test_width_arrays_exhaustive_small():
    for n in range(2, 7):
        for edges in enumerate_trees(n):
            parent, children, order = tree_arrays(n, edges)
            paths, pid_above = decompose_arrays(parent, children, order)
            got = width_arrays(parent, children, order, pid_above)
            assert got == pairwise_width(n, edges, pid_above)
            assert got <= default_width_bound(n)


def test_heavy_paths_match_the_centroid_reference_exhaustive_small():
    for n in range(1, 7):
        for edges in enumerate_trees(n):
            for root in range(n):
                args = tree_arrays(n, edges, root)
                assert decompose_arrays(*args) == \
                    reference_decompose_arrays(*args)


@given(st.data())
def test_heavy_paths_match_the_centroid_reference(data):
    n = data.draw(st.integers(min_value=2, max_value=300), label="n")
    shape = data.draw(st.sampled_from(["random", "path", "star"]),
                      label="shape")
    if shape == "random":
        seq = data.draw(st.lists(st.integers(0, n - 1),
                                 min_size=n - 2, max_size=n - 2))
    elif shape == "path":
        # n - 2 distinct entries: every vertex has degree at most two
        seq = data.draw(st.permutations(range(n)))[:n - 2]
    else:
        seq = [data.draw(st.integers(0, n - 1), label="centre")] * (n - 2)
    root = data.draw(st.integers(0, n - 1), label="root")
    args = tree_arrays(n, prufer_decode(seq, n), root)
    assert decompose_arrays(*args) == reference_decompose_arrays(*args)


def test_instance_order_and_children():
    # edges in neither sorted nor BFS order, root inside the tree
    edges = [(6, 2), (4, 0), (2, 5), (3, 2), (0, 6), (2, 1), (4, 7)]
    inst = make(8, edges, root=6)
    order = inst.order
    assert sorted(order) == list(range(8))
    assert order[0] == 6
    seen = {v: i for i, v in enumerate(order)}
    assert all(seen[inst.parent[v]] < seen[v] for v in order[1:])
    for v in range(8):
        assert inst.children[v] == sorted(inst.children[v])
        assert inst.children[v] == [c for c in range(8) if inst.parent[c] == v]
    assert inst.children[2] == [1, 3, 5]


# -- projections ------------------------------------------------------------

def test_projection_example():
    inst = make(4, [(0, 1), (1, 2), (1, 3)], raw_links=[(3, 2, 1)])
    d = decompose(inst)
    assert d.paths == ((0, 1, 2), (1, 3))
    prs = project(inst, d, inst.links[0])
    assert prs == [(0, 1, 2), (1, 0, 1)]
    # endpoint vertices of each span, upper end first
    assert [(d.paths[pid][left], d.paths[pid][right])
            for pid, left, right in prs] == [(1, 2), (1, 3)]


def test_projection_of_in_path_link_is_rooted_iff_at_path_root():
    inst = make(4, [(0, 1), (1, 2), (2, 3)], raw_links=[(0, 2, 1), (1, 3, 1)])
    d = decompose(inst)
    pr0 = project(inst, d, inst.links[0])
    pr1 = project(inst, d, inst.links[1])
    assert pr0 == [(0, 0, 2)]           # rooted: starts at the path's head
    assert pr1 == [(0, 1, 3)]


def test_non_contiguous_projection_is_an_invariant_violation():
    inst = make(4, [(0, 1), (1, 2), (2, 3)], raw_links=[(0, 3, 1)])
    d = decompose(inst)
    assert d.pos_above == (-1, 1, 2, 3)
    broken = dataclasses.replace(d, pos_above=(-1, 1, 3, 4))
    with pytest.raises(InvariantViolationError):
        project(inst, broken, inst.links[0])


@given(st.data())
def test_projections_partition_link_path(data):
    n = data.draw(st.integers(min_value=2, max_value=30))
    seq = data.draw(st.lists(st.integers(0, n - 1),
                             min_size=n - 2, max_size=n - 2))
    u = data.draw(st.integers(0, n - 1))
    v = data.draw(st.integers(0, n - 1))
    if u == v:
        v = (v + 1) % n
    inst = make(n, prufer_decode(seq, n), raw_links=[(u, v, 1)])
    d = decompose(inst)
    prs = project(inst, d, inst.links[0])
    link_path = inst.tree_path(inst.links[0].u, inst.links[0].v)
    assert sum(right - left for _, left, right in prs) == len(link_path)
    assert sum(1 for _, left, _ in prs if left != 0) <= 1
    assert len(prs) <= max(1, width(inst, d))
    assert [pid for pid, _, _ in prs] == sorted({pid for pid, _, _ in prs})
    for pid, left, right in prs:
        verts = d.paths[pid]
        for e in range(left, right):
            child = verts[e + 1]
            assert inst.edge_of_child[child] in link_path


def broom(handle, leaves, links, seed):
    """A heavy path 0 .. handle-1 from the root, with ``leaves`` leaves
    hung from random path vertices, and ``links`` random unit links."""
    rng = random.Random(seed)
    n = handle + leaves
    edges = [(v - 1, v) for v in range(1, handle)]
    edges += [(rng.randrange(handle), v) for v in range(handle, n)]
    raw_links = [(*rng.sample(range(n), 2), 1) for _ in range(links)]
    return TreeInstance(n, edges, 0, raw_links)


def test_projections_stay_within_the_width_bound():
    # every link's span count against the bound itself, not a measured
    # width, up to n = 2**13; a broom's leaf-to-leaf links take three
    insts = [gen_random("tree", 1 << p, 1000, 4.0, seed=p, feasible=False)
             for p in range(8, 14)]
    insts.append(broom(4000, 4000, 2000, seed=1))
    for inst in insts:
        decomp = decompose(inst)
        bound = default_width_bound(inst.n)
        worst = max(len(project(inst, decomp, ln)) for ln in inst.links)
        assert worst <= bound, (inst.n, worst, bound)
    assert worst == 3
