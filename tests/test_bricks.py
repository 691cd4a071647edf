"""Tests for the brick quiver construction."""

import pytest
from hypothesis import given, settings, strategies as st

from singlink.bricks import (
    Brick,
    BrickError,
    BrickQuiver,
    brick_quiver,
    to_exchange_matrix,
)
from singlink.links import BraidWord, DynkinType, ade_braid
from singlink.quivers import canonical_form, dynkin_tree_edges, graphs_isomorphic, mutate

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


# -- braid moves are mutations ----------------------------------------------------
# A braid relation or a commutation keeps the Legendrian isotopy class of the
# rainbow closure, and the brick quiver answers with one mutation or none.


@st.composite
def _moves(draw, relation: bool):
    """(strands, prefix, pattern, moved pattern, suffix): a word of at most
    5 strands and 12 letters around sigma_a sigma_b sigma_a with |a - b| = 1
    (``relation``) or around sigma_a sigma_b with |a - b| >= 2."""
    strands = draw(st.integers(3 if relation else 4, 5))
    letter = st.integers(1, strands - 1)
    pairs = [(a, b) for a in range(1, strands) for b in range(1, strands) if a != b]
    a, b = draw(st.sampled_from([(a, b) for a, b in pairs if (abs(a - b) == 1) == relation]))
    pattern, moved = ((a, b, a), (b, a, b)) if relation else ((a, b), (b, a))
    prefix = draw(st.lists(letter, max_size=12 - len(pattern)))
    suffix = draw(st.lists(letter, max_size=12 - len(pattern) - len(prefix)))
    return strands, tuple(prefix), pattern, moved, tuple(suffix)


def _form(quiver: BrickQuiver):
    return canonical_form(to_exchange_matrix(quiver)) if quiver.rank else None


@given(_moves(relation=True))
@settings(max_examples=200, deadline=None)
def test_a_braid_relation_is_one_mutation_at_the_middle_brick(case):
    strands, prefix, pattern, moved, suffix = case
    quiver = brick_quiver(BraidWord(strands, prefix + pattern + suffix))
    first = len(prefix) + 1  # the 1-based position of the first sigma_a
    k = quiver.bricks.index(Brick(pattern[0], (first, first + 2))) + 1
    after = brick_quiver(BraidWord(strands, prefix + moved + suffix))
    assert canonical_form(mutate(to_exchange_matrix(quiver), k)) == _form(after)


@given(_moves(relation=False))
@settings(max_examples=200, deadline=None)
def test_a_commutation_keeps_the_quiver(case):
    strands, prefix, pattern, moved, suffix = case
    before = brick_quiver(BraidWord(strands, prefix + pattern + suffix))
    after = brick_quiver(BraidWord(strands, prefix + moved + suffix))
    assert _form(before) == _form(after)


def test_a_dropped_arrow_breaks_the_braid_relation():
    # sigma_1 sigma_2 sigma_1 sigma_2 sigma_1 sigma_2 on 3 strands; the
    # relation at the start moves it to sigma_2 sigma_1 sigma_2 sigma_2 sigma_1 sigma_2.
    quiver = brick_quiver(BraidWord(3, (1, 2, 1, 2, 1, 2)))
    k = quiver.bricks.index(Brick(1, (1, 3))) + 1
    mutated = canonical_form(mutate(to_exchange_matrix(quiver), k))
    after = brick_quiver(BraidWord(3, (2, 1, 2, 2, 1, 2)))
    assert mutated == _form(after)
    assert after.arrows
    for dropped in range(len(after.arrows)):
        arrows = after.arrows[:dropped] + after.arrows[dropped + 1 :]
        assert mutated != _form(BrickQuiver(after.bricks, arrows)), after.arrows[dropped]
