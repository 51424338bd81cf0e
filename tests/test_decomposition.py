import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from wtap.decomposition import (
    decompose,
    decompose_arrays,
    default_width_bound,
    project,
    tree_children,
    width,
    width_arrays,
)
from wtap.errors import InvariantViolationError
from wtap.generators import enumerate_trees, prufer_decode
from wtap.instance import TreeInstance

from conftest import pairwise_width, tree_arrays


def make(n, edges, root=0, raw_links=()):
    return TreeInstance(n=n, edges=edges, root=root, raw_links=raw_links)


# -- pinned shapes ----------------------------------------------------------

def test_path_from_endpoint_is_one_path():
    inst = make(8, [(i, i + 1) for i in range(7)])
    d = decompose(inst)
    assert len(d.paths) == 1
    assert d.paths[0].vertices == tuple(range(8))
    assert width(inst, d) == 1
    assert d.width_bound == 7


def test_path_from_interior_root_splits_once():
    inst = make(5, [(i, i + 1) for i in range(4)], root=2)
    d = decompose(inst)
    assert len(d.paths) == 2
    assert width(inst, d) == 2


def test_star_from_center():
    inst = make(4, [(0, 1), (0, 2), (0, 3)])
    d = decompose(inst)
    assert len(d.paths) == 3
    assert sorted(p.vertices for p in d.paths) == [(0, 1), (0, 2), (0, 3)]
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
    assert width(inst, d) <= d.width_bound == 9


def test_single_vertex_decomposes_to_nothing():
    inst = make(1, [])
    d = decompose(inst)
    assert d.paths == ()
    assert width(inst, d) == 0
    assert d.width_bound == 0


def test_width_bound_values():
    assert default_width_bound(1) == 0
    assert default_width_bound(2) == 3
    assert default_width_bound(8) == 7
    assert default_width_bound(9) == 9
    assert default_width_bound(512) == 19


# -- structural invariants --------------------------------------------------

def assert_well_formed(inst, d):
    # every tree edge belongs to exactly one path, via its child endpoint
    owner = {}
    for p in d.paths:
        for a, b in zip(p.vertices, p.vertices[1:]):
            assert inst.parent[b] == a, "paths must descend parent to child"
            assert b not in owner
            owner[b] = p.id
    assert len(owner) == inst.n - 1
    for eid in range(inst.n - 1):
        assert d.edge_to_path[eid] == owner[inst.child_of_edge[eid]]
    # each later path hangs off a vertex of an earlier one
    for p in d.paths:
        assert p.root == p.vertices[0]
        if p.id > 0:
            assert any(p.root in q.vertices for q in d.paths[:p.id])
    if d.paths:
        assert d.paths[0].root == inst.root


@given(st.data())
def test_random_tree_decompositions_are_well_formed(data):
    n = data.draw(st.integers(min_value=2, max_value=40))
    seq = data.draw(st.lists(st.integers(0, n - 1),
                             min_size=n - 2, max_size=n - 2))
    inst = make(n, prufer_decode(seq, n))
    d = decompose(inst)
    assert_well_formed(inst, d)
    assert width(inst, d) <= d.width_bound


@settings(max_examples=40)
@given(st.data())
def test_width_arrays_matches_pairwise_count(data):
    n = data.draw(st.integers(min_value=2, max_value=24))
    seq = data.draw(st.lists(st.integers(0, n - 1),
                             min_size=n - 2, max_size=n - 2))
    edges = prufer_decode(seq, n)
    parent, children = tree_arrays(n, edges)
    paths, pid_above = decompose_arrays(n, 0, parent, children)
    assert width_arrays(n, 0, parent, children, pid_above) == \
        pairwise_width(n, edges, pid_above)


def test_width_arrays_exhaustive_small():
    for n in range(2, 7):
        for edges in enumerate_trees(n):
            parent, children = tree_arrays(n, edges)
            paths, pid_above = decompose_arrays(n, 0, parent, children)
            got = width_arrays(n, 0, parent, children, pid_above)
            assert got == pairwise_width(n, edges, pid_above)
            assert got <= default_width_bound(n)


def test_tree_children_sorted():
    inst = make(5, [(0, 3), (0, 1), (1, 4), (1, 2)])
    ch = tree_children(inst)
    assert ch[0] == [1, 3]
    assert ch[1] == [2, 4]


# -- projections ------------------------------------------------------------

def test_projection_example():
    inst = make(4, [(0, 1), (1, 2), (1, 3)], raw_links=[(3, 2, 1)])
    d = decompose(inst)
    assert [p.vertices for p in d.paths] == [(0, 1, 2), (1, 3)]
    prs = project(inst, d, inst.links[0])
    by_pid = {pr.path_id: pr for pr in prs}
    assert len(prs) == 2
    p0 = by_pid[0]
    assert (p0.u, p0.v, p0.left, p0.right, p0.rooted) == (1, 2, 1, 2, False)
    p1 = by_pid[1]
    assert (p1.u, p1.v, p1.left, p1.right, p1.rooted) == (1, 3, 0, 1, True)


def test_projection_of_in_path_link_is_rooted_iff_at_path_root():
    inst = make(4, [(0, 1), (1, 2), (2, 3)], raw_links=[(0, 2, 1), (1, 3, 1)])
    d = decompose(inst)
    pr0 = project(inst, d, inst.links[0])
    pr1 = project(inst, d, inst.links[1])
    assert len(pr0) == 1 and pr0[0].rooted
    assert len(pr1) == 1 and not pr1[0].rooted


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
    assert sum(pr.right - pr.left for pr in prs) == len(inst.link_edges(0))
    assert sum(1 for pr in prs if not pr.rooted) <= 1
    assert len(prs) <= max(1, width(inst, d))
    for pr in prs:
        verts = d.paths[pr.path_id].vertices
        for e in range(pr.left, pr.right):
            child = verts[e + 1]
            assert inst.edge_of_child[child] in inst.link_edges(0)
        assert pr.rooted == (pr.left == 0)
