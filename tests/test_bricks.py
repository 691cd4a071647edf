"""Tests for the brick quiver construction."""

import pytest

from singlink.bricks import (
    Brick,
    BrickError,
    brick_quiver,
    to_exchange_matrix,
)
from singlink.links import BraidWord, DynkinType, ade_braid
from singlink.quivers import dynkin_tree_edges, graphs_isomorphic

ADE_LABELS = (
    [("A", n) for n in range(1, 9)]
    + [("D", n) for n in range(3, 9)]
    + [("E", n) for n in (6, 7, 8)]
)


def test_an_brick_quiver_is_path():
    for n in range(1, 7):
        quiver = brick_quiver(BraidWord(2, (1,) * (n + 1)))
        assert quiver.rank == n
        assert len(quiver.arrows) == n - 1
        # Same-row arrows point left: (i+1)-th brick to i-th.
        assert set(quiver.arrows) == {(i + 1, i) for i in range(n - 1)}


def test_d4_bricks_exact():
    quiver = brick_quiver(BraidWord(3, (1, 1, 2, 1, 1, 2)))
    assert quiver.bricks == (
        Brick(1, (1, 2)),
        Brick(1, (2, 4)),
        Brick(1, (4, 5)),
        Brick(2, (3, 6)),
    )
    # Star centered on [2,4]: same-row arrows lean left, the interleave
    # arrow starts at the earlier span.
    assert set(quiver.arrows) == {(1, 0), (2, 1), (1, 3)}


def test_e6_brick_quiver_shape():
    quiver = brick_quiver(ade_braid("E6"))
    assert quiver.rank == 6
    row1 = [i for i, b in enumerate(quiver.bricks) if b.row == 1]
    row2 = [i for i, b in enumerate(quiver.bricks) if b.row == 2]
    assert len(row1) == 5 and len(row2) == 1
    # The row-2 brick attaches to the middle row-1 brick.
    (attach,) = [
        s if t == row2[0] else t
        for s, t in quiver.arrows
        if row2[0] in (s, t)
    ]
    assert quiver.bricks[attach].span == (3, 5)


def test_nested_spans_no_arrow():
    # sigma_1 sigma_2 sigma_2 sigma_1: row-1 span (1,4) strictly contains
    # row-2 span (2,3): no arrow between them.
    quiver = brick_quiver(BraidWord(3, (1, 2, 2, 1)))
    assert quiver.rank == 2
    assert quiver.arrows == ()


def test_disjoint_spans_no_arrow():
    quiver = brick_quiver(BraidWord(3, (1, 1, 2, 2)))
    assert quiver.rank == 2
    assert quiver.arrows == ()


def test_brick_quiver_rank_formula():
    for word, strands in [((1, 1, 1), 2), ((1, 1, 2, 1, 1, 2), 3), ((1, 2, 1, 2), 3)]:
        braid = BraidWord(strands, word)
        assert brick_quiver(braid).rank == len(word) - len(set(word))


def test_all_ade_brick_quivers_are_dynkin_trees():
    for family, rank in ADE_LABELS:
        quiver = brick_quiver(ade_braid(f"{family}{rank}"))
        assert quiver.rank == rank
        assert graphs_isomorphic(
            quiver.rank,
            quiver.arrows,
            rank,
            dynkin_tree_edges(DynkinType(family, rank)),
        ), (family, rank)


def test_exchange_matrix_examples():
    single = brick_quiver(BraidWord(2, (1, 1)))
    assert to_exchange_matrix(single).entries == ((0,),)
    two = brick_quiver(BraidWord(2, (1, 1, 1)))
    # One arrow from brick 2 to brick 1: b_12 = -1.
    assert to_exchange_matrix(two).entries == ((0, -1), (1, 0))


def test_d4_exchange_matrix_star():
    m = to_exchange_matrix(brick_quiver(ade_braid("D4")))
    center = 1  # brick [2,4]
    nonzero = [(i, j) for i in range(4) for j in range(4) if m.entries[i][j] != 0]
    assert all(center in pair for pair in nonzero)
    assert len(nonzero) == 6  # three +/- pairs


def test_ade_matrix_entries_are_unit():
    for family, rank in ADE_LABELS:
        m = to_exchange_matrix(brick_quiver(ade_braid(f"{family}{rank}")))
        assert all(abs(x) <= 1 for row in m.entries for x in row)


def test_empty_word_rejected():
    with pytest.raises(BrickError):
        brick_quiver(BraidWord(2, ()))
    with pytest.raises(BrickError):
        Brick(1, (3, 3))


def test_dot_and_json_roundtrip():
    quiver = brick_quiver(ade_braid("D4"))
    dot = quiver.to_dot()
    assert '"1:[2,4]" -> "1:[1,2]"' in dot
    assert quiver.to_json_dict()["bricks"][1] == {"row": 1, "span": [2, 4]}
