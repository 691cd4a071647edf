"""Divide construction from exact polyline drawings, and the ADE catalog.

Catalog divides are authored as integer polylines: the builder finds the
transversal self-intersections exactly, assigns counterclockwise slot
numbers from the branch directions, and reads the boundary order from the
endpoint angles around the origin.  The snake family drives A_n (and the
tails of longer chains); D and E types are a triangle of chords with a
loop, bead, or bead chain grafted onto chosen corners.

Catalog shapes (mu = crossings + bounded regions = rank):

    A_{2m}  single snake strand, m nodes, m beads (turn at the east end)
    A_{2m+1} two mirror snake strands, m+1 nodes, m beads, four tails
    D_n     chord triangle with a chain appendage of length n - 4
    E_6     triangle with loops on two corners
    E_7     triangle with a loop and a bead appendage
    E_8     triangle with a loop and a bead + loop appendage

Every entry is certified by the Milnor number, Euler, and quiver-shape
checks in the test suite.
"""

from __future__ import annotations

from fractions import Fraction

from .divides import Divide, DivideError, Strand
from .links import ADELabel, parse_ade_label

# Catalog points are int pairs; the builder also takes Fraction coordinates.
Point = tuple[int | Fraction, int | Fraction]


def _ccw_key(v: Point):
    """Exact sort key of a nonzero direction by its angle in [0, 2 pi).

    The positive x-axis comes first, then the upper half plane, where
    -x/y grows with the angle, then the negative x-axis and the lower
    half plane in the same way.  Exact for int and Fraction coordinates.
    """
    x, y = v
    return (y < 0 or (y == 0 and x < 0), y != 0, Fraction(-x, y) if y else 0)


def divide_from_polylines(polylines: list[list[Point]]) -> Divide:
    """Build a Divide from open polyline strands in general position.

    Requirements: all intersections are transversal interior points of
    exactly two segments, endpoints have pairwise distinct directions
    from the origin, and the drawing is radially star-shaped enough that
    the endpoint angle order equals the disk boundary order (violations
    surface through the planarity check downstream).  Coordinates may be
    ints or Fractions; all arithmetic is exact.

    Segment p1 + t d1 meets segment p2 + u d2 where t = (e x d2) / (d1 x d2)
    and u = (e x d1) / (d1 x d2), with e = p2 - p1.  The pair test compares
    the numerators with 0 and the denominator, made positive, so a
    Fraction is built only for a crossing point.
    """
    segments = []  # (strand, seg index, p, q - p)
    for sid, pts in enumerate(polylines):
        if len(pts) < 2:
            raise DivideError("polyline strands need at least two points")
        for j, (p, q) in enumerate(zip(pts, pts[1:])):
            if p == q:
                raise DivideError("zero-length polyline segment")
            segments.append((sid, j, p, (q[0] - p[0], q[1] - p[1])))

    hits: dict[Point, list[tuple[int, int, Fraction, Point]]] = {}
    for i, (s1, j1, p1, d1) in enumerate(segments):
        (x1, y1), (dx1, dy1) = p1, d1
        for s2, j2, (x2, y2), d2 in segments[i + 1 :]:
            if s1 == s2 and abs(j1 - j2) == 1:
                continue  # consecutive segments share a waypoint only
            dx2, dy2 = d2
            ex, ey = x2 - x1, y2 - y1
            denom = dx1 * dy2 - dy1 * dx2
            t_num = ex * dy2 - ey * dx2
            u_num = ex * dy1 - ey * dx1
            if denom == 0:
                if u_num == 0:
                    # Same line: only disjoint parameter intervals are fine.
                    # p2 and q2 sit at t = a/dd and b/dd along segment 1.
                    dd = dx1 * dx1 + dy1 * dy1
                    a = ex * dx1 + ey * dy1
                    b = a + dx2 * dx1 + dy2 * dy1
                    if max(a, b) >= 0 and min(a, b) <= dd:
                        raise DivideError("collinear overlapping segments in drawing")
                continue
            if denom < 0:
                denom, t_num, u_num = -denom, -t_num, -u_num
            if t_num <= 0 or t_num >= denom or u_num <= 0 or u_num >= denom:
                if 0 <= t_num <= denom and 0 <= u_num <= denom:
                    raise DivideError("segments touch at an endpoint")
                continue
            t = Fraction(t_num, denom)
            point = (x1 + t * dx1, y1 + t * dy1)
            hits.setdefault(point, []).append((s1, j1, t, d1))
            hits[point].append((s2, j2, Fraction(u_num, denom), d2))

    for point, records in hits.items():
        if len(records) != 2:
            raise DivideError(f"more than two branches meet at {point}")

    # Crossings are numbered in coordinate order.  Their four branch rays
    # take the counterclockwise slots 0..3, and a strand enters through
    # the slot of its backward ray.
    passages: list[list[tuple]] = [[] for _ in polylines]
    for crossing, point in enumerate(sorted(hits)):
        records = hits[point]
        back = [_ccw_key((-d[0], -d[1])) for *_, d in records]
        slots = sorted(back + [_ccw_key(d) for *_, d in records])
        for (sid, j, t, _), key in zip(records, back):
            passages[sid].append((j, t, crossing, slots.index(key)))
    strands = tuple(
        Strand(False, tuple((c, slot) for *_, c, slot in sorted(p))) for p in passages
    )

    ends = {}
    for sid, pts in enumerate(polylines):
        ends[sid, 0], ends[sid, 1] = pts[0], pts[-1]
    if (0, 0) in ends.values():
        raise DivideError("strand endpoints must avoid the origin")
    keys = {end: _ccw_key(p) for end, p in ends.items()}
    if len(set(keys.values())) < len(keys):
        raise DivideError("two endpoints share a boundary direction")
    return Divide(len(hits), strands, tuple(sorted(keys, key=keys.get)))


# -- snake family (A types) ----------------------------------------------------


def _snake_even(m: int) -> list[list[Point]]:
    """Single strand, m nodes on the axis, turn at the east end."""
    pts = [(-2, 7)]
    for i in range(1, m + 1):
        eps = 1 if i % 2 == 1 else -1
        pts += [(3 * i - 1, eps), (3 * i + 1, -eps)]
    pts.append((3 * m + 3, 0))
    for i in range(m, 0, -1):
        eps = 1 if i % 2 == 1 else -1
        pts += [(3 * i + 1, eps), (3 * i - 1, -eps)]
    pts.append((-2, -7))
    return [pts]


def _snake_odd(m: int) -> list[list[Point]]:
    """Two mirror strands crossing at m+1 nodes."""
    k = m + 1
    upper = [(-2, 7)]
    lower = [(-2, -7)]
    for i in range(1, k + 1):
        eps = 1 if i % 2 == 1 else -1
        upper += [(3 * i - 1, eps), (3 * i + 1, -eps)]
        lower += [(3 * i - 1, -eps), (3 * i + 1, eps)]
    eps_k = 1 if k % 2 == 1 else -1
    upper.append((3 * k + 5, -7 * eps_k))
    lower.append((3 * k + 5, 7 * eps_k))
    return [upper, lower]


def _crossed_chords() -> list[list[Point]]:
    return [
        [(-8, 6), (8, -6)],
        [(-8, -6), (8, 6)],
    ]


# -- triangle family (D and E types) -------------------------------------------

_TRIANGLE = {
    "A": (0, 4),
    "B": (-4, -2),
    "C": (4, -2),
}
_CHORDS = (("A", "B"), ("B", "C"), ("C", "A"))
# Outward extension directions of each chord at each of its vertices.
_OUTWARD = {
    ("A", "B"): {"A": (2, 3), "B": (-2, -3)},
    ("B", "C"): {"B": (-3, 0), "C": (3, 0)},
    ("C", "A"): {"C": (2, -3), "A": (-2, 3)},
}

_MERGING_KINDS = ("loop", "bead_loop")
_APPENDAGE_KINDS = ("tails", "loop", "bead_tails", "bead_loop", "bead_bead_tails")


def _combine(base: Point, *scaled: tuple[int, Point]) -> Point:
    x, y = base
    for c, v in scaled:
        x += c * v[0]
        y += c * v[1]
    return (x, y)


def _outward_piece(kind: str, vertex: Point, u: Point, u_other: Point) -> list[Point]:
    """Waypoints from near the vertex outward, for one chord end."""
    if kind == "tails":
        return [_combine(vertex, (8, u))]
    if kind == "loop":
        return [_combine(vertex, (2, u)), _combine(vertex, (2, u), (2, u_other))]
    if kind == "bead_tails":
        return [_combine(vertex, (2, u)), _combine(vertex, (2, u), (6, u_other))]
    if kind == "bead_loop":
        return [
            _combine(vertex, (2, u)),
            _combine(vertex, (2, u), (5, u_other)),
            _combine(vertex, (5, u), (5, u_other)),
        ]
    if kind == "bead_bead_tails":
        return [
            _combine(vertex, (2, u)),
            _combine(vertex, (2, u), (3, u_other)),
            _combine(vertex, (10, u), (7, u_other)),
        ]
    raise DivideError(f"unknown appendage kind {kind!r}")


def _triangle_polylines(appendages: dict[str, str]) -> list[list[Point]]:
    """Assemble chord strands for the triangle with per-corner appendages."""
    for corner in "ABC":
        if appendages.get(corner, "tails") not in _APPENDAGE_KINDS:
            raise DivideError(f"unknown appendage {appendages[corner]!r}")

    def chord_of(corner: str):
        return [ch for ch in _CHORDS if corner in ch]

    def other_vertex(chord, corner):
        return chord[0] if chord[1] == corner else chord[1]

    def piece(chord, corner) -> list[Point]:
        kind = appendages.get(corner, "tails")
        u = _OUTWARD[chord][corner]
        partner = next(ch for ch in chord_of(corner) if ch != chord)
        u_other = _OUTWARD[partner][corner]
        return _outward_piece(kind, _TRIANGLE[corner], u, u_other)

    visited: set[tuple[str, str]] = set()
    polylines = []
    for chord in _CHORDS:
        for start_corner in chord:
            kind = appendages.get(start_corner, "tails")
            if kind in _MERGING_KINDS or chord in visited:
                continue
            # Walk from this unmerged end through any merged corners.
            pts = list(reversed(piece(chord, start_corner)))
            cur_chord, cur_corner = chord, start_corner
            while True:
                visited.add(cur_chord)
                far_corner = other_vertex(cur_chord, cur_corner)
                pts.extend(piece(cur_chord, far_corner))
                if appendages.get(far_corner, "tails") not in _MERGING_KINDS:
                    break
                partner = next(ch for ch in chord_of(far_corner) if ch != cur_chord)
                partner_piece = piece(partner, far_corner)
                pts.extend(reversed(partner_piece[:-1]))
                cur_chord, cur_corner = partner, far_corner
            polylines.append(pts)
            break
    if set(_CHORDS) - visited:
        raise DivideError("appendage merges form a closed cycle; not supported")
    return polylines


_D_APPENDAGE_BY_EXCESS = {
    0: {},
    1: {"A": "loop"},
    2: {"A": "bead_tails"},
    3: {"A": "bead_loop"},
    4: {"A": "bead_bead_tails"},
}

_E_APPENDAGES = {
    6: {"A": "loop", "B": "loop"},
    7: {"A": "loop", "B": "bead_tails"},
    8: {"A": "loop", "B": "bead_loop"},
}


def divide_catalog(label: ADELabel | str) -> Divide:
    """Catalog divide for a simple singularity type.

    Supported: A_n for n <= 8, D_n for 3 <= n <= 8 (D_3 reuses the A_3
    two-chord lens), E_6, E_7, E_8.  The Milnor number equals the rank
    and the intersection quiver is the Dynkin tree of the label.
    """
    if isinstance(label, str):
        label = parse_ade_label(label)
    n = label.rank
    if label.family == "A":
        if n > 8:
            raise DivideError("catalog covers A_n only for n <= 8")
        if n == 1:
            return divide_from_polylines(_crossed_chords())
        if n % 2 == 0:
            return divide_from_polylines(_snake_even(n // 2))
        return divide_from_polylines(_snake_odd((n - 1) // 2))
    if label.family == "D":
        if n > 8:
            raise DivideError("catalog covers D_n only for n <= 8")
        if n == 3:
            return divide_from_polylines(_snake_odd(1))  # lens; D_3 = A_3
        return divide_from_polylines(
            _triangle_polylines(_D_APPENDAGE_BY_EXCESS[n - 4])
        )
    return divide_from_polylines(_triangle_polylines(_E_APPENDAGES[n]))


CATALOG_LABELS = tuple(
    [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(3, 9)] + ["E6", "E7", "E8"]
)
