"""Combinatorial divides: immersed arc/loop collections in the disk.

A divide is stored as a combinatorial map: 4-valent crossings whose four
half-edge slots are numbered 0-3 in counterclockwise rotation order,
strand walks recording, for each passage through a crossing, the entry
slot (the exit is the opposite slot), and the counterclockwise order of
the arc endpoints on the disk boundary.  Opposite slot pairs (0,2) and
(1,3) belong to the two transversal branches.

Face tracing adds the boundary circle to the map and extracts the orbit
faces of the rotation system.  Faces meeting the circle are merged into
the single unbounded region of the plane complement; the remaining faces
are the bounded regions.  The planarity of the declared rotation system
is certified by Euler's formula V - E + F = 2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


class DivideError(ValueError):
    pass


@dataclass(frozen=True)
class Strand:
    closed: bool
    passages: tuple[tuple[int, int], ...]  # (crossing, entry slot)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "passages", tuple((int(c), int(s)) for c, s in self.passages)
        )
        for _, slot in self.passages:
            if not 0 <= slot <= 3:
                raise DivideError(f"slot {slot} out of range 0..3")
        if self.closed and not self.passages:
            raise DivideError("a closed strand must traverse at least one crossing")


@dataclass(frozen=True)
class Divide:
    """Crossing count, strand walks, and boundary endpoint order.

    ``boundary_order`` lists (strand index, end) pairs counterclockwise,
    where end 0 is the start of the walk and end 1 its finish; closed
    strands contribute no endpoints.  The map formed by the strands and
    the boundary circle must be connected, which requires at least one
    open strand.
    """

    crossings: int
    strands: tuple[Strand, ...]
    boundary_order: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "strands", tuple(self.strands))
        object.__setattr__(
            self, "boundary_order", tuple((int(s), int(e)) for s, e in self.boundary_order)
        )
        if self.crossings < 0:
            raise DivideError("negative crossing count")
        slots_used: dict[tuple[int, int], int] = {}
        per_crossing: dict[int, list[int]] = {}
        for strand in self.strands:
            for crossing, slot in strand.passages:
                if not 0 <= crossing < self.crossings:
                    raise DivideError(f"crossing {crossing} out of range")
                for s in (slot, (slot + 2) % 4):
                    if (crossing, s) in slots_used:
                        raise DivideError(
                            f"slot {s} of crossing {crossing} used more than once"
                        )
                    slots_used[(crossing, s)] = 1
                per_crossing.setdefault(crossing, []).append(slot)
        for crossing in range(self.crossings):
            slots = per_crossing.get(crossing, [])
            if len(slots) != 2 or {s % 2 for s in slots} != {0, 1}:
                raise DivideError(
                    f"crossing {crossing} must carry two passages on opposite slot pairs"
                )
        expected = {
            (i, e)
            for i, strand in enumerate(self.strands)
            if not strand.closed
            for e in (0, 1)
        }
        if set(self.boundary_order) != expected or len(self.boundary_order) != len(expected):
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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


def divide_from_json(data: dict | str) -> Divide:
    if isinstance(data, str):
        data = json.loads(data)
    strands = tuple(
        Strand(bool(s["closed"]), tuple(tuple(p) for p in s["passages"]))
        for s in data["strands"]
    )
    boundary = tuple(tuple(p) for p in data["boundary_order"])
    return Divide(int(data["crossings"]), strands, boundary)


@dataclass(frozen=True)
class Face:
    """One complement region: its crossing corners and boundary flag.

    A corner (c, s) sits at crossing c between slots s and s+1 (mod 4).
    The unbounded face also records which arc endpoints it touches.
    """

    corners: tuple[tuple[int, int], ...]
    bounded: bool
    endpoints: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class DivideFaces:
    faces: tuple[Face, ...]

    @property
    def bounded_faces(self) -> tuple[Face, ...]:
        return tuple(f for f in self.faces if f.bounded)

    @property
    def unbounded_face(self) -> Face:
        return next(f for f in self.faces if not f.bounded)


def _build_map(divide: Divide):
    """Vertices, edges and rotations of the divide plus boundary circle.

    Returns (vertex list, edge list, attachment dict) where attachments
    map (vertex, position) -> dart and positions are listed in
    counterclockwise rotation order per vertex.
    """
    if not divide.boundary_order:
        raise DivideError(
            "divide has no boundary endpoints; the unbounded region is undetermined"
        )
    edges: list[tuple[tuple, tuple]] = []  # (attachment, attachment)

    def passage_entry(c, slot):
        return ("c", c, slot)

    def passage_exit(c, slot):
        return ("c", c, (slot + 2) % 4)

    for idx, strand in enumerate(divide.strands):
        ps = strand.passages
        if strand.closed:
            for j, (c, slot) in enumerate(ps):
                nc, nslot = ps[(j + 1) % len(ps)]
                edges.append((passage_exit(c, slot), passage_entry(nc, nslot)))
        else:
            if not ps:
                edges.append((("e", idx, 0, "t"), ("e", idx, 1, "t")))
                continue
            edges.append((("e", idx, 0, "t"), passage_entry(*ps[0])))
            for (c, slot), (nc, nslot) in zip(ps, ps[1:]):
                edges.append((passage_exit(c, slot), passage_entry(nc, nslot)))
            edges.append((passage_exit(*ps[-1]), ("e", idx, 1, "t")))

    bo = divide.boundary_order
    m = len(bo)
    for i, (s, e) in enumerate(bo):
        ns, ne = bo[(i + 1) % m]
        edges.append((("e", s, e, "a"), ("e", ns, ne, "b")))
    circle_edges = set(range(len(edges) - m, len(edges)))

    attachments: dict[tuple, tuple[int, int]] = {}
    for eid, (a, b) in enumerate(edges):
        for end, att in ((0, a), (1, b)):
            if att in attachments:
                raise DivideError(f"attachment {att} used twice")
            attachments[att] = (eid, end)

    # Rotation orders per vertex, counterclockwise.
    rotations: dict[tuple, list[tuple]] = {}
    for c in range(divide.crossings):
        rotations[("c", c)] = [("c", c, s) for s in range(4)]
    for s, e in bo:
        # Circle-forward dart, inward strand dart, circle-backward dart.
        rotations[("e", s, e)] = [("e", s, e, "a"), ("e", s, e, "t"), ("e", s, e, "b")]

    for vertex, slots in rotations.items():
        for att in slots:
            if att not in attachments:
                raise DivideError(f"half-edge {att} is not attached")
    return edges, circle_edges, rotations, attachments


def trace_faces(divide: Divide) -> DivideFaces:
    """All complement regions of the divide, bounded ones individually.

    Faces of the rotation system touching the boundary circle belong to
    the unbounded region of the plane complement and are merged into one
    face.  Raises when the rotation system is not realizable in the
    plane (connectivity or the Euler check V - E + F = 2 fails).
    """
    edges, circle_edges, rotations, attachments = _build_map(divide)

    # Connectivity over vertices.
    vertex_ids = {v: i for i, v in enumerate(rotations)}
    parent = list(range(len(vertex_ids)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(vertex_ids[a[:-1] if a[0] == "e" else a[:2]]), find(
            vertex_ids[b[:-1] if b[0] == "e" else b[:2]]
        )
        if ra != rb:
            parent[ra] = rb
    if len({find(i) for i in range(len(vertex_ids))}) != 1:
        raise DivideError("divide map is disconnected; nesting is undetermined")

    # sigma: dart -> next dart counterclockwise at its vertex.
    sigma: dict[tuple[int, int], tuple[int, int]] = {}
    dart_vertex: dict[tuple[int, int], tuple] = {}
    dart_att: dict[tuple[int, int], tuple] = {}
    for vertex, atts in rotations.items():
        darts = [attachments[att] for att in atts]
        for i, d in enumerate(darts):
            sigma[d] = darts[(i + 1) % len(darts)]
            dart_vertex[d] = vertex
            dart_att[d] = atts[i]

    def alpha(d):
        return (d[0], 1 - d[1])

    visited = set()
    raw_faces = []
    for start in sigma:
        if start in visited:
            continue
        walk = []
        corners = []
        endpoints = []
        has_circle = False
        d = start
        while True:
            visited.add(d)
            walk.append(d)
            if d[0] in circle_edges:
                has_circle = True
            rev = alpha(d)
            vertex = dart_vertex[rev]
            nxt = sigma[rev]
            if vertex[0] == "c":
                corners.append((vertex[1], dart_att[rev][2]))
            else:
                endpoints.append((vertex[1], vertex[2]))
                has_circle = True
            d = nxt
            if d == start:
                break
        raw_faces.append((tuple(corners), has_circle, tuple(endpoints)))

    n_vertices = len(rotations)
    n_edges = len(edges)
    n_faces = len(raw_faces)
    if n_vertices - n_edges + n_faces != 2:
        raise DivideError(
            "rotation system is not planar: "
            f"V - E + F = {n_vertices} - {n_edges} + {n_faces} != 2"
        )

    bounded = [
        Face(corners, True)
        for corners, has_circle, _ in raw_faces
        if not has_circle
    ]
    merged_corners: list[tuple[int, int]] = []
    merged_endpoints: list[tuple[int, int]] = []
    for corners, has_circle, endpoints in raw_faces:
        if has_circle:
            merged_corners.extend(corners)
            merged_endpoints.extend(endpoints)
    seen_endpoints = sorted(set(merged_endpoints))
    if seen_endpoints != sorted(divide.boundary_order):
        raise DivideError("unbounded region does not reach every endpoint")
    unbounded = Face(tuple(merged_corners), False, tuple(seen_endpoints))

    faces = tuple(bounded) + (unbounded,)
    # Corner conservation: each crossing has exactly four corners overall.
    tally: dict[int, int] = {}
    for face in faces:
        for c, _ in face.corners:
            tally[c] = tally.get(c, 0) + 1
    if any(tally.get(c, 0) != 4 for c in range(divide.crossings)):
        raise DivideError("corner conservation failed")
    return DivideFaces(faces)


def milnor_number(divide: Divide) -> int:
    """Crossings plus bounded complement regions."""
    return divide.crossings + len(trace_faces(divide).bounded_faces)


@dataclass(frozen=True)
class AcampoQuiver:
    """Bipartite intersection quiver: crossing vertices and region vertices.

    Vertices are indexed 0..crossings-1 (double points p_i) followed by
    crossings..crossings+regions-1 (bounded regions q_j); every arrow
    runs from a crossing to a region, one per corner incidence.
    """

    crossings: int
    regions: int
    arrows: tuple[tuple[int, int], ...]

    @property
    def rank(self) -> int:
        return self.crossings + self.regions

    def vertex_label(self, v: int) -> str:
        if v < self.crossings:
            return f"p{v}"
        return f"q{v - self.crossings}"

    def undirected_edges(self) -> list[tuple[int, int]]:
        return [(s, t) for s, t in self.arrows]

    def to_dot(self) -> str:
        lines = ["digraph acampo_quiver {"]
        for v in range(self.rank):
            lines.append(f'  "{self.vertex_label(v)}";')
        for s, t in self.arrows:
            lines.append(f'  "{self.vertex_label(s)}" -> "{self.vertex_label(t)}";')
        lines.append("}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "crossings": self.crossings,
            "regions": self.regions,
            "arrows": [list(a) for a in self.arrows],
        }


def acampo_quiver_from_json(data: dict) -> AcampoQuiver:
    quiver = AcampoQuiver(
        crossings=int(data["crossings"]),
        regions=int(data["regions"]),
        arrows=tuple((int(s), int(t)) for s, t in data["arrows"]),
    )
    for s, t in quiver.arrows:
        if not (0 <= s < quiver.crossings and quiver.crossings <= t < quiver.rank):
            raise DivideError("arrow endpoints must run crossing -> region")
    return quiver


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
