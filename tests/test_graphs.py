"""Unit tests for the small graph utilities and the one isomorphism engine
behind graphs_isomorphic and canonical_form."""

import random
import time
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from singlink.bricks import brick_quiver, to_exchange_matrix
from singlink.links import DynkinType, torus_braid
from singlink.quivers import ExchangeMatrix, canonical_form, dynkin_tree_edges, graphs_isomorphic


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


def _exchange_matrix(symmetrizer, upper) -> ExchangeMatrix:
    """B = S D for the skew-symmetric S with upper triangle ``upper``, so
    that D B is skew-symmetric."""
    n = len(symmetrizer)
    s = [[0] * n for _ in range(n)]
    for (i, j), x in upper.items():
        s[i][j], s[j][i] = x, -x
    rows = [[s[i][j] * symmetrizer[j] for j in range(n)] for i in range(n)]
    return ExchangeMatrix.from_rows(rows, symmetrizer)


@st.composite
def _quiver_pairs(draw):
    """Two exchange matrices of rank n <= 6 with symmetrizers; the second is
    often a relabelling of the first with a few entries moved."""
    n = draw(st.integers(1, 6))
    symmetrizer = st.lists(st.integers(1, 3), min_size=n, max_size=n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    entry = st.integers(-2, 2)
    d1 = draw(symmetrizer)
    upper1 = {pair: draw(entry) for pair in pairs}
    if draw(st.booleans()):
        d2, upper2 = draw(symmetrizer), {pair: draw(entry) for pair in pairs}
    else:
        p = draw(st.permutations(range(n)))
        d2 = [0] * n
        for i, d in enumerate(d1):
            d2[p[i]] = d
        upper2 = {}
        for (i, j), x in upper1.items():
            upper2[min(p[i], p[j]), max(p[i], p[j])] = x if p[i] < p[j] else -x
        for _ in range(draw(st.integers(0, 2)) if pairs else 0):
            upper2[draw(st.sampled_from(pairs))] = draw(entry)
    return n, _exchange_matrix(d1, upper1), _exchange_matrix(d2, upper2)


@given(_quiver_pairs())
@settings(max_examples=300, deadline=None)
def test_canonical_form_agrees_with_exhaustive_search(case):
    n, m1, m2 = case
    by_search = any(m1.permuted(p) == m2 for p in permutations(range(n)))
    assert (canonical_form(m1) == canonical_form(m2)) == by_search


@pytest.mark.parametrize("a, b", [(3, 7), (3, 10)])
def test_torus_brick_quivers_keep_their_form_under_relabelling(a, b):
    # Ranks 12 and 18: the old form enumerated 80,640 orderings of T(3,7)
    # and about 1.7e11 of T(3,10).
    matrix = to_exchange_matrix(brick_quiver(torus_braid(a, b)))
    perm = list(range(matrix.n))
    random.Random(b).shuffle(perm)
    started = time.perf_counter()
    assert canonical_form(matrix) == canonical_form(matrix.permuted(tuple(perm)))
    assert time.perf_counter() - started < 0.5


UNIONS_OF_CYCLES = [(12,), (6, 6), (6, 3, 3), (4, 4, 4), (3, 3, 3, 3), (5, 7), (4, 8), (3, 4, 5)]


def _union_of_cycles(lengths, rng) -> list[tuple[int, int]]:
    """The arrows i -> i + 1 around each cycle, vertices shuffled by ``rng``."""
    label = list(range(sum(lengths)))
    rng.shuffle(label)
    arrows, start = [], 0
    for length in lengths:
        arrows += [(label[start + i], label[start + (i + 1) % length]) for i in range(length)]
        start += length
    return arrows


@given(st.randoms(use_true_random=False))
@settings(max_examples=10, deadline=None)
def test_unions_of_cycles_are_told_apart_by_the_search(rng):
    # Every vertex of a union of oriented cycles on 12 vertices has one arrow
    # in and one out, so refinement alone leaves a single cell of 12 vertices,
    # and only the search tells the unions apart.
    forms, graphs = [], []
    for lengths in UNIONS_OF_CYCLES:
        arrows = _union_of_cycles(lengths, rng)
        rows = [[0] * 12 for _ in range(12)]
        for u, v in arrows:
            rows[u][v], rows[v][u] = 1, -1
        forms.append(canonical_form(ExchangeMatrix.from_rows(rows)))
        graphs.append(arrows)
    for i, lengths in enumerate(UNIONS_OF_CYCLES):
        for j, other in enumerate(UNIONS_OF_CYCLES):
            assert (forms[i] == forms[j]) == (i == j), (lengths, other)
        again = _union_of_cycles(lengths, rng)
        assert graphs_isomorphic(12, graphs[i], 12, again)
        assert not graphs_isomorphic(12, graphs[i], 12, graphs[i - 1])
