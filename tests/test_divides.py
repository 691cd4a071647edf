"""Tests for divides, face tracing, and intersection quivers."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from singlink import dividecatalog
from singlink.bricks import to_exchange_matrix
from singlink.dividecatalog import (
    CATALOG_LABELS,
    divide_catalog,
    divide_from_polylines,
    _ccw_key,
)
from singlink.divides import (
    Divide,
    DivideError,
    Strand,
    acampo_quiver,
    divide_from_json,
    milnor_number,
    trace_faces,
)
from singlink.graphs import dynkin_tree_edges, graphs_isomorphic
from singlink.links import ade_braid, braid_invariants, parse_ade_label


def embedded_arc() -> Divide:
    return Divide(0, (Strand(False, ()),), ((0, 0), (0, 1)))


def test_embedded_arc_has_no_bounded_faces():
    faces = trace_faces(embedded_arc())
    assert len(faces.bounded_faces) == 0
    assert milnor_number(embedded_arc()) == 0


def test_a2_catalog_divide():
    d = divide_catalog("A2")
    assert d.crossings == 1
    faces = trace_faces(d)
    assert len(faces.bounded_faces) == 1
    assert milnor_number(d) == 2


def test_a3_catalog_divide():
    d = divide_catalog("A3")
    assert d.crossings == 2
    assert len(trace_faces(d).bounded_faces) == 1


def test_d4_catalog_divide_triangle():
    d = divide_catalog("D4")
    assert d.crossings == 3
    faces = trace_faces(d)
    assert len(faces.bounded_faces) == 1
    # The single bounded face is the triangle: three corners at three
    # distinct crossings.
    triangle = faces.bounded_faces[0]
    assert sorted(c for c, _ in triangle.corners) == [0, 1, 2]


def test_e7_catalog_divide():
    d = divide_catalog("E7")
    assert d.crossings == 4
    assert len(trace_faces(d).bounded_faces) == 3
    assert milnor_number(d) == 7


def test_catalog_milnor_matches_braid_invariants():
    for text in CATALOG_LABELS:
        label = parse_ade_label(text)
        assert milnor_number(divide_catalog(text)) == label.rank
        assert braid_invariants(ade_braid(label)).milnor_number == label.rank


def test_catalog_quivers_are_dynkin_trees():
    for text in CATALOG_LABELS:
        label = parse_ade_label(text)
        quiver = acampo_quiver(divide_catalog(text))
        assert graphs_isomorphic(
            quiver.rank,
            quiver.arrows,
            label.rank,
            dynkin_tree_edges(label.family, label.rank),
        ), text


def test_acampo_quiver_bipartite_orientation():
    for text in ("A4", "D5", "E6"):
        quiver = acampo_quiver(divide_catalog(text))
        for source, target in quiver.arrows:
            assert source < quiver.crossings <= target


def test_a2_quiver_single_arrow():
    quiver = acampo_quiver(divide_catalog("A2"))
    assert quiver.crossings == 1 and quiver.regions == 1
    assert quiver.arrows == ((0, 1),)


def test_d4_quiver_star():
    quiver = acampo_quiver(divide_catalog("D4"))
    assert quiver.crossings == 3 and quiver.regions == 1
    assert quiver.arrows == ((0, 3), (1, 3), (2, 3))


def test_corner_conservation():
    for text in ("A3", "D4", "E8"):
        d = divide_catalog(text)
        faces = trace_faces(d)
        tally = {}
        for face in faces.faces:
            for crossing, _ in face.corners:
                tally[crossing] = tally.get(crossing, 0) + 1
        assert tally == {c: 4 for c in range(d.crossings)}


def test_unbounded_face_carries_all_endpoints():
    d = divide_catalog("E6")
    [unbounded] = [face for face in trace_faces(d).faces if not face.bounded]
    assert set(unbounded.endpoints) == set(d.boundary_order)


def test_closed_polyline_rejected_as_open_strand():
    # Drawing a closed loop as an open polyline that returns to its start
    # leaves two coincident endpoints, which is rejected; closed strands
    # enter through the combinatorial constructor instead.
    chord = [(-9, 0), (9, 0)]
    loop = [(-3, 2), (-3, -2), (3, -2), (3, 2)]
    with pytest.raises(DivideError):
        divide_from_polylines([chord, loop + [loop[0]]])


def test_closed_loop_strand_supported_via_explicit_map():
    # Same picture, entered directly as a closed strand: a west-east chord
    # (entry slot 2 = the westward ray) crossed by a rectangular loop
    # running down through crossing 0 and up through crossing 1.
    chord = Strand(False, ((0, 2), (1, 2)))
    loop = Strand(True, ((0, 1), (1, 3)))
    d = Divide(2, (chord, loop), ((0, 0), (0, 1)))
    faces = trace_faces(d)
    assert len(faces.bounded_faces) == 2
    assert milnor_number(d) == 4
    quiver = acampo_quiver(d)
    assert sorted(quiver.arrows) == [(0, 2), (0, 3), (1, 2), (1, 3)]


def test_divide_validation_errors():
    with pytest.raises(DivideError):
        Divide(1, (Strand(False, ((0, 0),)),), ((0, 0), (0, 1)))  # one passage only
    with pytest.raises(DivideError):
        Divide(
            1,
            (Strand(False, ((0, 0), (0, 2))),),
            ((0, 0), (0, 1)),
        )  # same slot pair twice
    with pytest.raises(DivideError):
        Divide(0, (Strand(False, ()),), ((0, 0),))  # missing endpoint
    with pytest.raises(DivideError):
        Strand(True, ())
    with pytest.raises(DivideError):
        Divide(0, (Strand(True, ((0, 1),)),), ())  # crossing out of range


def test_all_closed_rejected():
    loop_a = Strand(True, ((0, 0), (1, 0)))
    loop_b = Strand(True, ((0, 1), (1, 1)))
    d = Divide(2, (loop_a, loop_b), ())
    with pytest.raises(DivideError, match="^divide has no boundary endpoints"):
        trace_faces(d)


def test_disconnected_map_rejected():
    # An open chord, and a closed figure-eight strand that never meets it.
    figure_eight = Strand(True, ((0, 0), (0, 1)))
    d = Divide(1, (Strand(False, ()), figure_eight), ((0, 0), (0, 1)))
    with pytest.raises(DivideError, match="^divide map is disconnected; nesting is undetermined$"):
        trace_faces(d)


def test_broken_rotation_fails_euler_check():
    # Flipping any single entry slot of the A3 lens forces genus > 0.
    good = divide_catalog("A3")
    passages = [list(s.passages) for s in good.strands]
    c, s = passages[0][0]
    passages[0][0] = (c, (s + 2) % 4)
    bad = Divide(
        2,
        tuple(Strand(False, tuple(p)) for p in passages),
        good.boundary_order,
    )
    with pytest.raises(DivideError, match="not planar"):
        trace_faces(bad)


def test_json_roundtrip():
    for text in ("A2", "D6", "E8"):
        d = divide_catalog(text)
        assert divide_from_json(json.dumps(d.to_json_dict())) == d


def test_acampo_exchange_matrix_skew():
    m = to_exchange_matrix(acampo_quiver(divide_catalog("E6")))
    assert m.n == 6
    for i in range(6):
        for j in range(6):
            assert m.entries[i][j] == -m.entries[j][i]


def test_quiver_dot_output():
    quiver = acampo_quiver(divide_catalog("A2"))
    dot = quiver.to_dot()
    assert dot.startswith("digraph")
    assert '"p0" -> "q0"' in dot


def _in_fractions(polylines):
    return [[(Fraction(x), Fraction(y)) for x, y in pts] for pts in polylines]


def test_polyline_builder_rejects_bad_drawings():
    origin = (Fraction(0), Fraction(0))
    bad = [
        ([[(0, 1)]], "polyline strands need at least two points"),
        # Three concurrent chords through the origin.
        (
            [[(-5, -5), (5, 5)], [(-5, 5), (5, -5)], [(-7, 0), (7, 0)]],
            f"more than two branches meet at {origin}",
        ),
        # Second chord ends exactly on the first.
        ([[(-5, 0), (5, 0)], [(0, 0), (0, 5)]], "segments touch at an endpoint"),
        # Overlapping collinear segments.
        (
            [[(-5, 0), (5, 0)], [(-1, 0), (1, 0)]],
            "collinear overlapping segments in drawing",
        ),
    ]
    for polylines, message in bad:
        for drawing in (polylines, _in_fractions(polylines)):
            with pytest.raises(DivideError) as caught:
                divide_from_polylines(drawing)
            assert str(caught.value) == message


def test_catalog_divides_equal_their_fraction_coordinate_builds(monkeypatch):
    # The catalog draws in ints; the same drawing in Fraction coordinates
    # must build an equal divide.
    drawn = []
    monkeypatch.setattr(
        dividecatalog,
        "divide_from_polylines",
        lambda polylines: drawn.append(polylines) or divide_from_polylines(polylines),
    )
    for label in CATALOG_LABELS:
        drawn.clear()
        divide = dividecatalog.divide_catalog(label)
        [polylines] = drawn
        assert {type(v) for pts in polylines for p in pts for v in p} == {int}
        assert divide_from_polylines(_in_fractions(polylines)) == divide, label


def test_random_chord_arrangements_are_planar():
    # Straight chords between random boundary points form planar divides;
    # face tracing must always satisfy the Euler check, conserve corners,
    # and produce a bipartite quiver.
    import random

    rng = random.Random(91)

    def square_point():
        side = rng.randrange(4)
        along = Fraction(rng.randrange(-49, 50))
        return {
            0: (Fraction(50), along),
            1: (along, Fraction(50)),
            2: (Fraction(-50), along),
            3: (along, Fraction(-50)),
        }[side]

    built = 0
    attempts = 0
    while built < 30 and attempts < 300:
        attempts += 1
        chords = []
        for _ in range(rng.randint(2, 6)):
            p, q = square_point(), square_point()
            if p == q:
                break
            chords.append([p, q])
        else:
            try:
                divide = divide_from_polylines(chords)
            except DivideError:
                continue  # degenerate draw; try again
            # The builder is exact on int coordinates as well.
            ints = [[(int(x), int(y)) for x, y in chord] for chord in chords]
            assert divide_from_polylines(ints) == divide
            faces = trace_faces(divide)
            tally = {}
            for face in faces.faces:
                for crossing, _ in face.corners:
                    tally[crossing] = tally.get(crossing, 0) + 1
            assert tally == {c: 4 for c in range(divide.crossings)}
            quiver = acampo_quiver(divide)
            assert all(s < quiver.crossings <= t for s, t in quiver.arrows)
            assert milnor_number(divide) >= divide.crossings
            built += 1
    assert built == 30, f"only {built} random arrangements built"


_DIRECTIONS = (
    st.tuples(st.integers(-9, 9), st.integers(-9, 9))
    .filter(any)
    .map(lambda v: (v[0] // math.gcd(*v), v[1] // math.gcd(*v)))
)


@given(st.sets(_DIRECTIONS, max_size=12))
def test_ccw_key_orders_directions_by_angle(directions):
    # Primitive integer directions are distinct, so are their angles.
    def angle(v):
        return math.atan2(v[1], v[0]) % (2 * math.pi)

    assert sorted(directions, key=_ccw_key) == sorted(directions, key=angle)
