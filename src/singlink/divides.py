"""Combinatorial divides: immersed arc/loop collections in the disk.

A divide is stored as a combinatorial map: 4-valent crossings whose four
half-edge slots are numbered 0-3 in counterclockwise rotation order,
strand walks recording, for each passage through a crossing, the entry
slot (the exit is the opposite slot), and the counterclockwise order of
the arc endpoints on the disk boundary.  Opposite slot pairs (0,2) and
(1,3) belong to the two transversal branches.

Face tracing adds the boundary circle to the map and works on its darts
(half-edges): alpha pairs the two darts of each edge, sigma sends a dart
to the next one counterclockwise at its vertex, and the faces are the
orbits of sigma o alpha.  Faces meeting an arc endpoint are merged into
the single unbounded region of the plane complement; the remaining faces
are the bounded regions.  Two checks reject data that no plane drawing
realizes: a map whose darts are not all reachable through sigma and
alpha is disconnected, so the nesting of its pieces is undetermined, and
a connected rotation system with V - E + F != 2 has positive genus.
"""

from __future__ import annotations

import json

from .records import Record


class DivideError(ValueError):
    pass


class Strand(Record):
    __slots__ = ("closed", "passages")  # passages: (crossing, entry slot) pairs

    def __init__(self, closed: bool, passages: tuple[tuple[int, int], ...]) -> None:
        super().__init__(closed, tuple((int(c), int(s)) for c, s in passages))
        for _, slot in self.passages:
            if not 0 <= slot <= 3:
                raise DivideError(f"slot {slot} out of range 0..3")
        if closed and not self.passages:
            raise DivideError("a closed strand must traverse at least one crossing")


class Divide(Record):
    """Crossing count, strand walks, and boundary endpoint order.

    ``boundary_order`` lists (strand index, end) pairs counterclockwise,
    where end 0 is the start of the walk and end 1 its finish; closed
    strands contribute no endpoints.  The map formed by the strands and
    the boundary circle must be connected, which requires at least one
    open strand.
    """

    __slots__ = ("crossings", "strands", "boundary_order")

    def __init__(
        self,
        crossings: int,
        strands: tuple[Strand, ...],
        boundary_order: tuple[tuple[int, int], ...],
    ) -> None:
        super().__init__(
            crossings, tuple(strands), tuple((int(s), int(e)) for s, e in boundary_order)
        )
        strands, boundary_order = self.strands, self.boundary_order
        if crossings < 0:
            raise DivideError("negative crossing count")
        slots_used: dict[tuple[int, int], int] = {}
        per_crossing: dict[int, list[int]] = {}
        for strand in strands:
            for crossing, slot in strand.passages:
                if not 0 <= crossing < crossings:
                    raise DivideError(f"crossing {crossing} out of range")
                for s in (slot, (slot + 2) % 4):
                    if (crossing, s) in slots_used:
                        raise DivideError(
                            f"slot {s} of crossing {crossing} used more than once"
                        )
                    slots_used[(crossing, s)] = 1
                per_crossing.setdefault(crossing, []).append(slot)
        for crossing in range(crossings):
            slots = per_crossing.get(crossing, [])
            if len(slots) != 2 or {s % 2 for s in slots} != {0, 1}:
                raise DivideError(
                    f"crossing {crossing} must carry two passages on opposite slot pairs"
                )
        expected = {
            (i, e)
            for i, strand in enumerate(strands)
            if not strand.closed
            for e in (0, 1)
        }
        if set(boundary_order) != expected or len(boundary_order) != len(expected):
            raise DivideError("boundary order must list each arc endpoint exactly once")

    def to_json_dict(self) -> dict:
        return {
            "crossings": self.crossings,
            "strands": [
                {"closed": s.closed, "passages": [list(p) for p in s.passages]}
                for s in self.strands
            ],
            "boundary_order": [list(p) for p in self.boundary_order],
        }


def _is_pairs(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(p, list) and len(p) == 2 and all(type(x) is int for x in p) for p in value
    )


def divide_from_json(text: str) -> Divide:
    """The divide of JSON text in the shape of :meth:`Divide.to_json_dict`;
    any other shape raises :class:`DivideError`."""
    data = json.loads(text)
    strands = data.get("strands") if isinstance(data, dict) else None
    if not (
        isinstance(strands, list)
        and type(data.get("crossings")) is int
        and _is_pairs(data.get("boundary_order"))
        and all(
            isinstance(s, dict) and type(s.get("closed")) is bool and _is_pairs(s.get("passages"))
            for s in strands
        )
    ):
        raise DivideError(
            'divide JSON must be {"crossings": int, "boundary_order": [[strand, end], ..],'
            ' "strands": [{"closed": bool, "passages": [[crossing, slot], ..]}, ..]}'
        )
    strands = tuple(Strand(s["closed"], s["passages"]) for s in strands)
    return Divide(data["crossings"], strands, data["boundary_order"])


class Face(Record):
    """One complement region: its crossing corners and boundary flag.

    A corner (c, s) sits at crossing c between slots s and s+1 (mod 4).
    The unbounded face also records which arc endpoints it touches.
    """

    __slots__ = ("corners", "bounded", "endpoints")

    def __init__(
        self,
        corners: tuple[tuple[int, int], ...],
        bounded: bool,
        endpoints: tuple[tuple[int, int], ...] = (),
    ) -> None:
        super().__init__(corners, bounded, endpoints)


class DivideFaces(Record):
    __slots__ = ("faces",)

    @property
    def bounded_faces(self) -> tuple[Face, ...]:
        return tuple(f for f in self.faces if f.bounded)


def trace_faces(divide: Divide) -> DivideFaces:
    """All complement regions of the divide: the bounded ones, then the unbounded one.

    Darts are (crossing, slot) at a crossing and (strand, end, k) at an
    arc endpoint, where k = "a", "t", "b" names the circle-forward,
    strand and circle-backward darts in counterclockwise order.  Raises
    :class:`DivideError` when the divide has no arc endpoint, or when its
    map is disconnected or fails the Euler check (see the module notes).
    """
    bo = divide.boundary_order
    if not bo:
        raise DivideError(
            "divide has no boundary endpoints; the unbounded region is undetermined"
        )
    sigma = {(c, s): (c, (s + 1) % 4) for c in range(divide.crossings) for s in range(4)}
    for i, e in bo:
        a, t, b = (i, e, "a"), (i, e, "t"), (i, e, "b")
        sigma.update({a: t, t: b, b: a})
    # Consecutive darts (0, 1), (2, 3), ... of ``ends`` are the two ends of one edge.
    ends = []
    for i, strand in enumerate(divide.strands):
        walk = [d for c, s in strand.passages for d in ((c, s), (c, (s + 2) % 4))]
        ends += walk[1:] + walk[:1] if strand.closed else [(i, 0, "t"), *walk, (i, 1, "t")]
    for (i, e), (j, f) in zip(bo, bo[1:] + bo[:1]):
        ends += [(i, e, "a"), (j, f, "b")]
    alpha = dict(zip(ends[::2], ends[1::2]))
    alpha.update(zip(ends[1::2], ends[::2]))

    reached, stack = set(), [ends[0]]
    while stack:
        d = stack.pop()
        if d not in reached:
            reached.add(d)
            stack += (sigma[d], alpha[d])
    if len(reached) != len(sigma):
        raise DivideError("divide map is disconnected; nesting is undetermined")

    # Each orbit is recorded by its reversed darts alpha(d): a crossing
    # dart (c, s) there is the corner between slots s and s + 1.
    orbits = []
    seen = set()
    for d in sigma:
        orbit = []
        while d not in seen:
            seen.add(d)
            orbit.append(alpha[d])
            d = sigma[alpha[d]]
        if orbit:
            orbits.append(orbit)
    n_vertices, n_edges = divide.crossings + len(bo), len(sigma) // 2
    if n_vertices - n_edges + len(orbits) != 2:
        raise DivideError(
            "rotation system is not planar: "
            f"V - E + F = {n_vertices} - {n_edges} + {len(orbits)} != 2"
        )
    bounded = [Face(tuple(o), True) for o in orbits if all(len(d) == 2 for d in o)]
    outer = [d for o in orbits if any(len(d) == 3 for d in o) for d in o if len(d) == 2]
    return DivideFaces((*bounded, Face(tuple(outer), False, tuple(sorted(bo)))))


def milnor_number(divide: Divide) -> int:
    """Crossings plus bounded complement regions."""
    return divide.crossings + len(trace_faces(divide).bounded_faces)


class AcampoQuiver(Record):
    """Bipartite intersection quiver: crossing vertices and region vertices.

    Vertices are indexed 0..crossings-1 (double points p_i) followed by
    crossings..crossings+regions-1 (bounded regions q_j); every arrow
    runs from a crossing to a region, one per corner incidence.
    """

    __slots__ = ("crossings", "regions", "arrows")

    @property
    def rank(self) -> int:
        return self.crossings + self.regions

    def vertex_label(self, v: int) -> str:
        if v < self.crossings:
            return f"p{v}"
        return f"q{v - self.crossings}"

    def to_dot(self) -> str:
        from .bricks import quiver_to_dot

        return quiver_to_dot(self, "acampo_quiver")

    def to_json_dict(self) -> dict:
        return {
            "crossings": self.crossings,
            "regions": self.regions,
            "arrows": [list(a) for a in self.arrows],
        }


def acampo_quiver(divide: Divide) -> AcampoQuiver:
    """Arrows crossing -> region, one per corner of a region at a crossing.

    A region meeting the same crossing at two corners yields a double
    arrow.  The underlying graph is bipartite by construction.
    """
    faces = trace_faces(divide)
    arrows = []
    for j, face in enumerate(faces.bounded_faces):
        for crossing, _ in face.corners:
            arrows.append((crossing, divide.crossings + j))
    return AcampoQuiver(
        crossings=divide.crossings,
        regions=len(faces.bounded_faces),
        arrows=tuple(sorted(arrows)),
    )
