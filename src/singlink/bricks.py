"""Brick quiver of a positive braid word.

A brick on row k spans two consecutive occurrences of the generator
sigma_k.  Bricks are the mutable vertices of the initial quiver for the
cluster structure attached to the braid closure; arrows join consecutive
bricks on one row (pointing left, toward the earlier brick) and
interleaved bricks on adjacent rows (pointing from the earlier-starting
span).  Nested or disjoint spans get no arrow.
"""

from __future__ import annotations

from .links import BraidWord
from .records import Record


class BrickError(ValueError):
    pass


class Brick(Record):
    """Row index and (1-based, exclusive-interior) letter span of a brick."""

    __slots__ = ("row", "span")

    def __init__(self, row: int, span: tuple[int, int]) -> None:
        super().__init__(row, span)
        a, b = span
        if not a < b:
            raise BrickError(f"brick span {span} must be increasing")


class BrickQuiver(Record):
    __slots__ = ("bricks", "arrows")  # arrows: (source index, target index)

    @property
    def rank(self) -> int:
        return len(self.bricks)

    def vertex_label(self, v: int) -> str:
        brick = self.bricks[v]
        return f"{brick.row}:[{brick.span[0]},{brick.span[1]}]"

    def to_dot(self) -> str:
        return quiver_to_dot(self, "brick_quiver")

    def to_json_dict(self) -> dict:
        return {
            "bricks": [{"row": b.row, "span": list(b.span)} for b in self.bricks],
            "arrows": [list(a) for a in self.arrows],
        }


def brick_quiver(braid: BraidWord) -> BrickQuiver:
    """Build the brick quiver of a positive braid word.

    Vertices: for each generator row, one brick per pair of consecutive
    occurrences.  Arrows: same-row consecutive bricks [a,b], [b,c] give
    [b,c] -> [a,b]; adjacent-row spans [a,b], [c,d] with a < c < b < d
    give an arrow from the span starting at a.
    """
    if not braid.letters:
        raise BrickError("brick quiver needs a nonempty braid word")
    positions: dict[int, list[int]] = {}
    for pos, k in enumerate(braid.letters, start=1):
        positions.setdefault(k, []).append(pos)

    spans = {row: list(zip(occ, occ[1:])) for row, occ in sorted(positions.items())}
    bricks: list[Brick] = []
    arrows: list[tuple[int, int]] = []
    for row, row_spans in spans.items():
        # The row's bricks are the vertices start, start + 1, ...
        start = len(bricks)
        bricks.extend(Brick(row, span) for span in row_spans)
        # Same row: arrows point left.
        arrows.extend((v + 1, v) for v in range(start, len(bricks) - 1))
        # Adjacent row above, whose bricks come next: one arrow per
        # interleaved pair, from the earlier-starting span.
        for v, (a, b) in enumerate(row_spans, start):
            for w, (c, d) in enumerate(spans.get(row + 1, ()), len(bricks)):
                if a < c < b < d:
                    arrows.append((v, w))
                elif c < a < d < b:
                    arrows.append((w, v))
    return BrickQuiver(tuple(bricks), tuple(arrows))


def quiver_to_dot(quiver, name: str) -> str:
    """Graphviz digraph ``name`` of a brick or A'Campo quiver, by ``vertex_label``."""
    labels = [quiver.vertex_label(v) for v in range(quiver.rank)]
    lines = [f"digraph {name} {{", *(f'  "{label}";' for label in labels)]
    lines += (f'  "{labels[s]}" -> "{labels[t]}";' for s, t in quiver.arrows)
    return "\n".join([*lines, "}"])


def to_exchange_matrix(quiver: BrickQuiver):
    """Skew-symmetric exchange matrix b_ij = #arrows(i->j) - #arrows(j->i).

    Reads only ``rank`` and ``arrows``, so it serves A'Campo quivers of
    divides as well.
    """
    from .quivers import ExchangeMatrix, check_rank

    n = quiver.rank
    check_rank(n)
    entries = [[0] * n for _ in range(n)]
    for s, t in quiver.arrows:
        entries[s][t] += 1
        entries[t][s] -= 1
    return ExchangeMatrix.from_rows(entries)
