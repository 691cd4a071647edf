"""Tests for singularity inputs and braid presentations."""

import math

import pytest
from hypothesis import given, strategies as st

from singlink.exactmath import BudgetExceededError
from singlink.links import (
    MAX_BRAID,
    ADELabel,
    BraidWord,
    CablePairs,
    LinkError,
    PuiseuxPairs,
    ade_braid,
    append_full_twist,
    braid_from_text,
    braid_invariants,
    cable_pairs_from_puiseux,
    half_twist,
    is_algebraic,
    parse_ade_label,
    torus_braid,
)

ADE_LABELS = (
    [ADELabel("A", n) for n in range(1, 9)]
    + [ADELabel("D", n) for n in range(3, 9)]
    + [ADELabel("E", n) for n in (6, 7, 8)]
)


def test_cable_pairs_trefoil():
    assert cable_pairs_from_puiseux(PuiseuxPairs(((3, 2),))).pairs == ((2, 3),)


def test_cable_pairs_regression_2_13():
    # 13 = 7 - 3*2 + 2*3*2
    c = cable_pairs_from_puiseux(PuiseuxPairs(((3, 2), (7, 2))))
    assert c.pairs == ((2, 3), (2, 13))


def test_cable_pairs_regression_3_19():
    # 19 = 10 - 3*3 + 2*3*3
    c = cable_pairs_from_puiseux(PuiseuxPairs(((3, 2), (10, 3))))
    assert c.pairs == ((2, 3), (3, 19))


def test_cable_pairs_depth_three_recursion():
    # Third pair uses the previous cable number, not the previous Puiseux
    # numerator: s_3 = (15 - 7*2) + 2*2*13 = 53.
    c = cable_pairs_from_puiseux(PuiseuxPairs(((3, 2), (7, 2), (15, 2))))
    assert c.pairs == ((2, 3), (2, 13), (2, 53))
    assert is_algebraic(c)  # 53 > (2*13)*2 = 52


def test_puiseux_validation():
    with pytest.raises(LinkError):
        PuiseuxPairs(())
    with pytest.raises(LinkError):
        PuiseuxPairs(((3, 1),))
    with pytest.raises(LinkError):
        PuiseuxPairs(((3, 2), (6, 2)))  # 6 <= 3*2: not increasing


def test_is_algebraic_examples():
    assert is_algebraic(CablePairs(((2, 3), (2, 13))))  # 13 > 12
    assert not is_algebraic(CablePairs(((2, 3), (2, 12))))  # 12 is not > 12
    assert is_algebraic(CablePairs(((2, 3),)))


def test_ade_braid_examples():
    assert ade_braid("A2") == BraidWord(2, (1, 1, 1))
    assert ade_braid("D4") == BraidWord(3, (1, 1, 2, 1, 1, 2))
    assert ade_braid("E6") == BraidWord(3, (1, 1, 1, 2, 1, 1, 1, 2))
    assert ade_braid(ADELabel("E", 8)) == BraidWord(3, (1, 1, 1, 1, 1, 2, 1, 1, 1, 2))


def test_ade_label_validation():
    with pytest.raises(LinkError):
        parse_ade_label("D2")
    with pytest.raises(LinkError):
        parse_ade_label("E9")
    with pytest.raises(LinkError):
        parse_ade_label("F4")
    assert parse_ade_label("d_5") == ADELabel("D", 5)


def test_torus_braid_examples():
    assert torus_braid(2, 3) == ade_braid("A2")
    assert torus_braid(3, 4) == BraidWord(3, (1, 2, 1, 2, 1, 2, 1, 2))
    assert torus_braid(2, 5) == BraidWord(2, (1,) * 5)
    with pytest.raises(LinkError):
        torus_braid(1, 5)
    with pytest.raises(LinkError):
        torus_braid(3, 1)


def test_full_twist_examples():
    assert append_full_twist(BraidWord(2, (1, 1, 1))) == BraidWord(2, (1,) * 5)
    assert append_full_twist(BraidWord(1, ())) == BraidWord(1, ())
    assert append_full_twist(BraidWord(3, ())) == BraidWord(3, (1, 2, 1, 1, 2, 1))
    braid = BraidWord(4, (2,))
    assert len(append_full_twist(braid)) == 1 + 4 * 3


def test_half_twist_word():
    assert half_twist(4).letters == (1, 2, 1, 3, 2, 1)


def test_braid_invariants_trefoil():
    inv = braid_invariants(BraidWord(2, (1, 1, 1)))
    assert inv.components == 1
    assert inv.euler_characteristic == -1
    assert inv.first_betti == 2
    assert inv.tb == 1
    assert inv.milnor_number == 2


def test_braid_invariants_unknot():
    inv = braid_invariants(BraidWord(1, ()))
    assert inv == braid_invariants(BraidWord(1, ()))
    assert (inv.components, inv.euler_characteristic, inv.first_betti) == (1, 1, 0)
    assert (inv.tb, inv.milnor_number) == (-1, 0)


def test_braid_invariants_e8():
    inv = braid_invariants(BraidWord(3, (1, 1, 1, 1, 1, 2, 1, 1, 1, 2)))
    assert inv.first_betti == 8
    assert inv.milnor_number == 8


def test_ade_milnor_equals_rank():
    for label in ADE_LABELS:
        assert braid_invariants(ade_braid(label)).milnor_number == label.rank


def test_braid_text_roundtrip():
    braid = BraidWord(3, (1, 1, 2, 1, 1, 2))
    assert braid_from_text(braid.to_text(), 3) == braid
    assert braid_from_text("1 1 2 1 1 2") == braid
    with pytest.raises(LinkError):
        braid_from_text("1 x 2")
    with pytest.raises(LinkError):
        braid_from_text("")
    with pytest.raises(LinkError):
        BraidWord(2, (2,))


@given(st.integers(2, 6), st.lists(st.integers(1, 5), max_size=20))
def test_tb_equals_b1_minus_one(strands, raw):
    letters = tuple(k for k in raw if k < strands)
    inv = braid_invariants(BraidWord(strands, letters))
    assert inv.tb == inv.first_betti - 1
    assert inv.milnor_number == inv.first_betti


@given(st.integers(2, 7), st.integers(2, 7))
def test_torus_link_components_are_the_gcd(a, b):
    assert braid_invariants(torus_braid(a, b)).components == math.gcd(a, b)


@st.composite
def puiseux_inputs(draw):
    depth = draw(st.integers(1, 4))
    pairs = []
    prev_n = 0
    for _ in range(depth):
        m = draw(st.integers(2, 5))
        n = draw(st.integers(prev_n * m + 1, prev_n * m + 12))
        pairs.append((n, m))
        prev_n = n
    return PuiseuxPairs(tuple(pairs))


@given(puiseux_inputs())
def test_puiseux_cables_always_algebraic(p):
    cables = cable_pairs_from_puiseux(p)
    assert is_algebraic(cables), f"counterexample: {p.pairs} -> {cables.pairs}"


def test_braid_size_is_bounded_before_the_word_is_built():
    # Just above the bound in letters or in strands, every constructor raises
    # from integers alone; at the bound the word is built.
    for build in (
        lambda: torus_braid(2, MAX_BRAID + 1),
        lambda: torus_braid(MAX_BRAID + 1, 2),
        lambda: ade_braid(f"A{MAX_BRAID}"),
        lambda: ade_braid(f"D{MAX_BRAID - 1}"),
        lambda: BraidWord(MAX_BRAID + 1, ()),
        lambda: BraidWord(2, (1,) * (MAX_BRAID + 1)),
        lambda: braid_from_text("1", MAX_BRAID + 1),
        lambda: braid_from_text(f"{MAX_BRAID}"),
        lambda: braid_from_text("1 " * (MAX_BRAID + 1)),
    ):
        with pytest.raises(BudgetExceededError, match=f"exceeds the braid bound {MAX_BRAID}"):
            build()
    assert len(torus_braid(2, MAX_BRAID)) == MAX_BRAID
    assert len(ade_braid(f"A{MAX_BRAID - 1}")) == MAX_BRAID
    assert BraidWord(MAX_BRAID, ()).strands == MAX_BRAID
