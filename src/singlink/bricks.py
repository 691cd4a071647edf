"""Brick quiver of a positive braid word.

A brick on row k spans two consecutive occurrences of the generator
sigma_k.  Bricks are the mutable vertices of the initial quiver for the
cluster structure attached to the braid closure; arrows join consecutive
bricks on one row (pointing left, toward the earlier brick) and
interleaved bricks on adjacent rows (pointing from the earlier-starting
span).  Nested or disjoint spans get no arrow.
"""

from __future__ import annotations

from dataclasses import dataclass

from .links import BraidWord


class BrickError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class Brick:
    """Row index and (1-based, exclusive-interior) letter span of a brick."""

    row: int
    span: tuple[int, int]

    def __post_init__(self) -> None:
        a, b = self.span
        if not a < b:
            raise BrickError(f"brick span {self.span} must be increasing")

    def label(self) -> str:
        return f"{self.row}:[{self.span[0]},{self.span[1]}]"


@dataclass(frozen=True)
class BrickQuiver:
    bricks: tuple[Brick, ...]
    arrows: tuple[tuple[int, int], ...]  # (source index, target index)

    @property
    def rank(self) -> int:
        return len(self.bricks)

    def to_dot(self) -> str:
        lines = ["digraph brick_quiver {"]
        for brick in self.bricks:
            lines.append(f'  "{brick.label()}";')
        for s, t in self.arrows:
            lines.append(f'  "{self.bricks[s].label()}" -> "{self.bricks[t].label()}";')
        lines.append("}")
        return "\n".join(lines)

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

    bricks: list[Brick] = []
    for row in sorted(positions):
        occ = positions[row]
        bricks.extend(Brick(row, (a, b)) for a, b in zip(occ, occ[1:]))
    index = {brick: i for i, brick in enumerate(bricks)}

    arrows: list[tuple[int, int]] = []
    for row in sorted(positions):
        occ = positions[row]
        row_bricks = [Brick(row, (a, b)) for a, b in zip(occ, occ[1:])]
        # Same row: arrows point left.
        for left, right in zip(row_bricks, row_bricks[1:]):
            arrows.append((index[right], index[left]))
        # Adjacent row above: one arrow per interleaved pair, from the
        # earlier-starting span.
        upper = row + 1
        if upper not in positions:
            continue
        occ_up = positions[upper]
        for brick in row_bricks:
            a, b = brick.span
            for c, d in zip(occ_up, occ_up[1:]):
                other = Brick(upper, (c, d))
                if a < c < b < d:
                    arrows.append((index[brick], index[other]))
                elif c < a < d < b:
                    arrows.append((index[other], index[brick]))
    return BrickQuiver(tuple(bricks), tuple(arrows))


def to_exchange_matrix(quiver: BrickQuiver):
    """Skew-symmetric exchange matrix b_ij = #arrows(i->j) - #arrows(j->i).

    Reads only ``rank`` and ``arrows``, so it serves A'Campo quivers of
    divides as well.
    """
    from .cluster import ExchangeMatrix, check_rank

    n = quiver.rank
    check_rank(n)
    entries = [[0] * n for _ in range(n)]
    for s, t in quiver.arrows:
        entries[s][t] += 1
        entries[t][s] -= 1
    return ExchangeMatrix.from_rows(entries)
