"""Unit tests for the small graph utilities."""

from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from singlink.links import DynkinType
from singlink.quivers import dynkin_tree_edges, graphs_isomorphic


def test_path_vs_star():
    path = [(0, 1), (1, 2), (2, 3)]
    star = [(0, 1), (0, 2), (0, 3)]
    assert not graphs_isomorphic(4, path, 4, star)
    assert graphs_isomorphic(4, path, 4, [(3, 2), (2, 1), (1, 0)])


def test_relabeled_tree():
    e6 = dynkin_tree_edges(DynkinType("E", 6))
    relabeled = [(5 - u, 5 - v) for u, v in e6]
    assert graphs_isomorphic(6, e6, 6, relabeled)
    assert not graphs_isomorphic(6, e6, 6, dynkin_tree_edges(DynkinType("D", 6)))


def test_multigraph_edge_multiplicity():
    double = [(0, 1), (0, 1)]
    single = [(0, 1)]
    assert not graphs_isomorphic(2, double, 2, single)
    assert graphs_isomorphic(2, double, 2, [(1, 0), (0, 1)])


def test_size_mismatch():
    assert not graphs_isomorphic(2, [(0, 1)], 3, [(0, 1)])
    assert not graphs_isomorphic(3, [(0, 1)], 3, [(0, 1), (1, 2)])


def test_dynkin_tree_shapes():
    assert dynkin_tree_edges(DynkinType("A", 1)) == []
    assert dynkin_tree_edges(DynkinType("D", 3)) == [(0, 1), (0, 2)]
    assert len(dynkin_tree_edges(DynkinType("E", 8))) == 7
    with pytest.raises(ValueError):
        dynkin_tree_edges(DynkinType("E", 9))  # the label refuses the rank
    with pytest.raises(ValueError):
        dynkin_tree_edges(DynkinType("B", 3))


def test_edge_range_validation():
    with pytest.raises(ValueError):
        graphs_isomorphic(2, [(0, 5)], 2, [(0, 1)])


def _isomorphic_by_search(n, edges1, edges2) -> bool:
    def multiset(edges):
        return Counter(tuple(sorted(e)) for e in edges)

    target = multiset(edges2)
    return any(
        multiset((p[u], p[v]) for u, v in edges1) == target for p in permutations(range(n))
    )


@st.composite
def _multigraph_pairs(draw):
    """Two multigraphs (loops allowed) on n <= 6 vertices; the second is
    often a relabeling of the first with a few edges moved."""
    n = draw(st.integers(1, 6))
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges1 = draw(st.lists(edge, max_size=9))
    if draw(st.booleans()):
        edges2 = draw(st.lists(edge, max_size=9))
    else:
        p = draw(st.permutations(range(n)))
        edges2 = [(p[u], p[v]) for u, v in edges1]
        for _ in range(draw(st.integers(0, 2))):
            if edges2:
                edges2[draw(st.integers(0, len(edges2) - 1))] = draw(edge)
    return n, edges1, edges2


@given(_multigraph_pairs())
@settings(max_examples=300, deadline=None)
def test_isomorphism_agrees_with_exhaustive_search(case):
    n, edges1, edges2 = case
    assert graphs_isomorphic(n, edges1, n, edges2) == _isomorphic_by_search(n, edges1, edges2)
