"""Skew-symmetrizable exchange matrices, seed mutation and enumeration,
and finite-type classification.

Seeds carry exact Laurent cluster variables in the initial variables
u1..un; mutation divides the exchange binomial by the outgoing variable,
which is exact whenever the Laurent phenomenon holds (asserted).  A seed
of a finite-type algebra is determined by its cluster (Fomin-Zelevinsky,
Cluster algebras II; Gekhtman-Shapiro-Vainshtein), so seed identity is
the unordered set of cluster variables and enumeration counts clusters.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .exactmath import DivisionError, Polynomial, RingDescriptor, divide_exact
from .fqmath import BudgetExceededError

_ASCII = "abcdefg"

# Classification is O(n^3): ``classify --type A200`` takes about 0.4 s
# (Python 3.11, 2-vCPU VM).
MAX_RANK = 200


class ClusterError(ValueError):
    pass


def check_rank(n: int) -> None:
    """Reject a rank above ``MAX_RANK`` before an n x n matrix is built (exit code 3)."""
    if n > MAX_RANK:
        raise BudgetExceededError(
            f"rank {n} exceeds the exchange matrix rank bound {MAX_RANK}", MAX_RANK
        )


@dataclass(frozen=True)
class ExchangeMatrix:
    """Integer matrix B with positive diagonal symmetrizer D, D*B skew-symmetric."""

    n: int
    entries: tuple[tuple[int, ...], ...]
    symmetrizer: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1 or len(self.entries) != self.n:
            raise ClusterError("exchange matrix must be square and non-empty")
        for row in self.entries:
            if len(row) != self.n:
                raise ClusterError("exchange matrix must be square")
        if len(self.symmetrizer) != self.n or any(d < 1 for d in self.symmetrizer):
            raise ClusterError("symmetrizer must be positive integers")
        d = self.symmetrizer
        b = self.entries
        for i in range(self.n):
            if b[i][i] != 0:
                raise ClusterError("diagonal entries must vanish")
            for j in range(i + 1, self.n):
                if d[i] * b[i][j] != -d[j] * b[j][i]:
                    raise ClusterError(
                        f"D*B not skew-symmetric at ({i}, {j}): "
                        f"{d[i]}*{b[i][j]} != -{d[j]}*{b[j][i]}"
                    )

    @classmethod
    def from_rows(cls, rows, symmetrizer=None) -> "ExchangeMatrix":
        entries = tuple(tuple(int(x) for x in row) for row in rows)
        n = len(entries)
        if symmetrizer is None:
            symmetrizer = (1,) * n
        return cls(n, entries, tuple(int(d) for d in symmetrizer))

    def permuted(self, perm: tuple[int, ...]) -> "ExchangeMatrix":
        """Simultaneous row/column permutation: entry (i, j) -> (perm[i], perm[j])."""
        n = self.n
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        entries = tuple(
            tuple(self.entries[inv[i]][inv[j]] for j in range(n)) for i in range(n)
        )
        sym = tuple(self.symmetrizer[inv[i]] for i in range(n))
        return ExchangeMatrix(n, entries, sym)

    def to_json_dict(self) -> dict:
        return {"entries": [list(r) for r in self.entries], "symmetrizer": list(self.symmetrizer)}


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(x, int) and not isinstance(x, bool) for x in value
    )


def exchange_matrix_from_json(data) -> ExchangeMatrix:
    """The matrix of a parsed ``{"entries": [[..], ..], "symmetrizer": [..]}``.

    Rows and the optional symmetrizer must be lists of integers; any other
    shape raises :class:`ClusterError`.
    """
    if not isinstance(data, dict) or "entries" not in data:
        raise ClusterError('matrix JSON must be an object with an "entries" key')
    rows, symmetrizer = data["entries"], data.get("symmetrizer")
    if not isinstance(rows, list) or not all(_is_int_list(row) for row in rows):
        raise ClusterError('"entries" must be a list of rows of integers')
    check_rank(len(rows))
    if symmetrizer is not None and not _is_int_list(symmetrizer):
        raise ClusterError('"symmetrizer" must be a list of integers')
    return ExchangeMatrix.from_rows(rows, symmetrizer)


def mutate(matrix: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Matrix mutation at direction k (1-based).

    b'_ij = -b_ij when i = k or j = k, else b_ij + sgn(b_ik) max(0, b_ik b_kj).
    A row with b_ik = 0 is unchanged; any other row adds |b_ik| times the
    positive (b_ik > 0) or negative (b_ik < 0) part of row k.  Mutation
    keeps D*B skew-symmetric with the same D, so the result is not
    validated again.
    """
    n = matrix.n
    if not 1 <= k <= n:
        raise ClusterError(f"mutation index {k} out of range 1..{n}")
    kk = k - 1
    row_k = matrix.entries[kk]
    positive = [max(x, 0) for x in row_k]
    negative = [min(x, 0) for x in row_k]
    new_rows = []
    for i, row in enumerate(matrix.entries):
        bik = row[kk]
        if i == kk:
            row = tuple(map(operator.neg, row))
        elif bik:
            part = positive if bik > 0 else negative
            scaled = map(operator.mul, itertools.repeat(abs(bik)), part)
            new = list(map(operator.add, row, scaled))
            new[kk] = -bik
            row = tuple(new)
        new_rows.append(row)
    mutated = object.__new__(ExchangeMatrix)
    object.__setattr__(mutated, "n", n)
    object.__setattr__(mutated, "entries", tuple(new_rows))
    object.__setattr__(mutated, "symmetrizer", matrix.symmetrizer)
    return mutated


# -- seeds ---------------------------------------------------------------------


def initial_cluster_ring(n: int) -> RingDescriptor:
    names = tuple(f"u{i}" for i in range(1, n + 1))
    return RingDescriptor(names, laurent=frozenset(names))


@dataclass(frozen=True)
class Seed:
    matrix: ExchangeMatrix
    cluster: tuple[Polynomial, ...]


def initial_seed(matrix: ExchangeMatrix) -> Seed:
    ring = initial_cluster_ring(matrix.n)
    return Seed(matrix, tuple(ring.var(v) for v in ring.variables))


def _product(factors: list[Polynomial], one: Polynomial) -> Polynomial:
    """Product of the factors, starting from the first (``one`` if none)."""
    return functools.reduce(operator.mul, factors) if factors else one


def _exchange(seed: Seed, kk: int) -> Polynomial:
    """The exchange relation at direction kk (0-based):

    x'_k = (prod_{b_ik > 0} x_i^{b_ik} + prod_{b_ik < 0} x_i^{-b_ik}) / x_k.

    The Laurent phenomenon makes the division exact for every seed reached
    by mutation; a remainder raises :class:`ClusterError`.
    """
    pos, neg = [], []
    for x, row in zip(seed.cluster, seed.matrix.entries):
        b = row[kk]
        if b > 0:
            pos.append(x ** b)
        elif b < 0:
            neg.append(x ** -b)
    one = seed.cluster[0].ring.one()
    numerator = _product(pos, one) + _product(neg, one)
    try:
        return divide_exact(numerator, seed.cluster[kk])
    except DivisionError as exc:
        raise ClusterError(
            f"Laurent phenomenon violated at direction {kk + 1}: {exc}"
        ) from None


def mutate_seed(seed: Seed, k: int) -> Seed:
    """Seed mutation at direction k (1-based): exchange relation plus matrix mutation."""
    n = seed.matrix.n
    if not 1 <= k <= n:
        raise ClusterError(f"mutation index {k} out of range 1..{n}")
    kk = k - 1
    new_var = _exchange(seed, kk)
    cluster = seed.cluster[:kk] + (new_var,) + seed.cluster[kk + 1 :]
    return Seed(mutate(seed.matrix, k), cluster)


def enumerate_seeds(matrix: ExchangeMatrix, cap: int = 100_000) -> tuple[Seed, ...]:
    """All seeds reachable from the initial seed, deduplicated by cluster.

    Breadth-first closure under the n mutation directions.  Before the
    search, each connected component of the diagram is classified
    (:func:`is_finite_type`): the seeds of B are the products of the seeds
    of its components, so an infinite component, or a product of
    component seed counts above ``cap``, raises
    :class:`BudgetExceededError` at once instead of after ``cap`` seeds.

    Cluster variables are hash-consed into a pool that lives as long as
    the search, so a pooled variable's ``id`` stands for the variable.  A
    cluster is keyed by the frozenset of its ids, and an exchange result
    is memoized on ``(id of x_k, frozenset of (id of x_i, b_ik) with
    b_ik != 0)``, a local configuration that the larger frontiers (E7,
    E8) revisit constantly.  The matrix of a neighbour is mutated only
    when its cluster is new.
    """
    if cap < 1:
        raise ClusterError("cap must be at least 1")
    count = 1
    for part in _components(matrix):
        dynkin = is_finite_type(part)
        if dynkin is not None:
            count *= expected_seed_count(dynkin)
        if dynkin is None or count > cap:
            raise BudgetExceededError(f"more than {cap} seeds reached", cap)
    start = initial_seed(matrix)
    pool: dict = {var: var for var in start.cluster}
    exchange_memo: dict = {}
    seen: dict[frozenset, Seed] = {frozenset(map(id, start.cluster)): start}
    queue: deque[Seed] = deque([start])
    while queue:
        seed = queue.popleft()
        ids = tuple(map(id, seed.cluster))
        for kk, column in enumerate(zip(*seed.matrix.entries)):
            memo_key = (ids[kk], frozenset(itertools.compress(zip(ids, column), column)))
            new_var = exchange_memo.get(memo_key)
            if new_var is None:
                new_var = _exchange(seed, kk)
                new_var = exchange_memo[memo_key] = pool.setdefault(new_var, new_var)
            key = frozenset(ids[:kk] + (id(new_var),) + ids[kk + 1 :])
            if key not in seen:
                if len(seen) >= cap:
                    raise BudgetExceededError(f"more than {cap} seeds reached", cap)
                cluster = seed.cluster[:kk] + (new_var,) + seed.cluster[kk + 1 :]
                seen[key] = neighbor = Seed(mutate(seed.matrix, kk + 1), cluster)
                queue.append(neighbor)
    return tuple(seen.values())


# -- finite type ---------------------------------------------------------------

FINITE_FAMILIES = ("A", "B", "C", "D", "E", "F", "G")


@dataclass(frozen=True)
class DynkinType:
    family: str
    rank: int

    def __post_init__(self) -> None:
        fam = self.family.upper()
        object.__setattr__(self, "family", fam)
        ok = (
            (fam == "A" and self.rank >= 1)
            or (fam == "B" and self.rank >= 2)
            or (fam == "C" and self.rank >= 2)
            or (fam == "D" and self.rank >= 3)
            or (fam == "E" and self.rank in (6, 7, 8))
            or (fam == "F" and self.rank == 4)
            or (fam == "G" and self.rank == 2)
        )
        if not ok:
            raise ClusterError(f"({fam}, {self.rank}) is not in the finite-type table")

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def parse_dynkin_type(text: str) -> DynkinType:
    text = text.strip()
    fam = text[:1].upper()
    if fam not in FINITE_FAMILIES or not text[1:].lstrip("_").isdigit():
        raise ClusterError(f"cannot parse Dynkin type {text!r}")
    return DynkinType(fam, int(text[1:].lstrip("_")))


def exponents_and_coxeter(t: DynkinType) -> tuple[tuple[int, ...], int]:
    """Exponents e_1..e_n and Coxeter number h of the root system."""
    n = t.rank
    if t.family == "A":
        return tuple(range(1, n + 1)), n + 1
    if t.family in ("B", "C"):
        return tuple(range(1, 2 * n, 2)), 2 * n
    if t.family == "D":
        return tuple(range(1, 2 * n - 2, 2)) + (n - 1,), 2 * n - 2
    if t.family == "E":
        table = {
            6: ((1, 4, 5, 7, 8, 11), 12),
            7: ((1, 5, 7, 9, 11, 13, 17), 18),
            8: ((1, 7, 11, 13, 17, 19, 23, 29), 30),
        }
        return table[n]
    if t.family == "F":
        return (1, 5, 7, 11), 12
    return (1, 5), 6  # G2


def expected_seed_count(t: DynkinType) -> int:
    """N(X_n) = prod_i (e_i + h + 1) / (e_i + 1), exactly."""
    exps, h = exponents_and_coxeter(t)
    total = Fraction(1)
    for e in exps:
        total *= Fraction(e + h + 1, e + 1)
    if total.denominator != 1:
        raise ClusterError(f"seed count for {t} is not an integer: {total}")
    return int(total)


def initial_matrix(t: DynkinType) -> ExchangeMatrix:
    """A finite-type initial exchange matrix for the given Dynkin type.

    ADE types use an orientation of the Dynkin tree with unit symmetrizer.
    The non-simply-laced types use a bipartite orientation whose Cartan
    companion (a_ij = -|b_ij| off-diagonal) is the Bourbaki Cartan matrix.
    """
    from .graphs import dynkin_tree_edges

    n = t.rank
    check_rank(n)
    if t.family in ("A", "D", "E"):
        if t.family == "D" and n == 3:
            edges = dynkin_tree_edges("A", 3)
        else:
            edges = dynkin_tree_edges(t.family, n)
        rows = [[0] * n for _ in range(n)]
        for u, v in edges:
            rows[u][v] = 1
            rows[v][u] = -1
        return ExchangeMatrix.from_rows(rows)

    # Weighted path data: per edge (u, v): (|b_uv|, |b_vu|).
    if t.family in ("B", "C"):
        if n == 2:
            weights = [(1, 2)]  # B2 = C2; matches the rank-2 reference matrix
        else:
            weights = [(1, 1)] * (n - 2)
            # Companion convention: B_n has a_{n-1,n} = -2 (short last root).
            weights.append((2, 1) if t.family == "B" else (1, 2))
    elif t.family == "F":
        weights = [(1, 1), (1, 2), (1, 1)]
    else:  # G2
        weights = [(1, 3)]

    rows = [[0] * n for _ in range(n)]
    for i, (w_uv, w_vu) in enumerate(weights):
        u, v = i, i + 1
        # Bipartite orientation: even vertices are sources.
        if u % 2 == 0:
            rows[u][v] = w_uv
            rows[v][u] = -w_vu
        else:
            rows[u][v] = -w_uv
            rows[v][u] = w_vu
    sym = _symmetrizer_for(rows)
    return ExchangeMatrix.from_rows(rows, sym)


def _symmetrizer_for(rows) -> tuple[int, ...]:
    """Positive integer diagonal D with D*B skew-symmetric (B tree-shaped)."""
    n = len(rows)
    d = [Fraction(0)] * n
    d[0] = Fraction(1)
    pending = [0]
    while pending:
        i = pending.pop()
        for j in range(n):
            if rows[i][j] != 0 and d[j] == 0:
                # d_i b_ij = -d_j b_ji
                d[j] = Fraction(-d[i] * rows[i][j], rows[j][i])
                pending.append(j)
    if any(x == 0 for x in d):
        raise ClusterError("symmetrizer construction needs a connected matrix")
    lcm = math.lcm(*(x.denominator for x in d))
    return tuple(int(x * lcm) for x in d)


# -- canonical forms -----------------------------------------------------------
# Nothing in the package needs a canonical form any more: the tests use it
# in their mutation-class oracle, and bench/tracer.py times it.


def _vertex_invariants(matrix: ExchangeMatrix) -> list[tuple]:
    b = matrix.entries
    n = matrix.n
    invs = []
    for i in range(n):
        profile = sorted(
            (b[i][j], b[j][i]) for j in range(n) if j != i and (b[i][j] or b[j][i])
        )
        invs.append((matrix.symmetrizer[i], tuple(profile)))
    return invs


def canonical_form(matrix: ExchangeMatrix) -> tuple:
    """Minimum representative over simultaneous permutations.

    Permutations are restricted to preserve vertex invariants (degree and
    incident entry profiles), which prunes the search to the candidates
    that could possibly achieve the minimum.
    """
    n = matrix.n
    invs = _vertex_invariants(matrix)
    groups: dict[tuple, list[int]] = {}
    for i, inv in enumerate(invs):
        groups.setdefault(inv, []).append(i)
    ordered_groups = [groups[key] for key in sorted(groups)]

    slots: list[list[int]] = []
    for grp in ordered_groups:
        slots.append(grp)

    best: tuple | None = None
    # Assign target positions group by group; total work is the product of
    # factorials of group sizes, small for the sparse matrices used here.
    group_perms = [list(itertools.permutations(grp)) for grp in slots]
    for choice in itertools.product(*group_perms):
        order = [v for grp in choice for v in grp]
        perm = [0] * n
        for target, source in enumerate(order):
            perm[source] = target
        candidate = matrix.permuted(tuple(perm))
        flat = (candidate.symmetrizer, candidate.entries)
        if best is None or flat < best:
            best = flat
    return best


# -- classification ------------------------------------------------------------


def _bfs_order(matrix: ExchangeMatrix, start: int = 0) -> list[int]:
    """Vertices reachable from ``start``, in breadth-first order."""
    b = matrix.entries
    order = [start]
    seen = {start}
    for i in order:
        for j in range(matrix.n):
            if j not in seen and b[i][j]:
                seen.add(j)
                order.append(j)
    return order


def _components(matrix: ExchangeMatrix) -> list[ExchangeMatrix]:
    """The full submatrices on the connected components of the diagram."""
    b, d = matrix.entries, matrix.symmetrizer
    left = set(range(matrix.n))
    parts = []
    while left:
        vs = _bfs_order(matrix, min(left))
        left.difference_update(vs)
        entries = tuple(tuple(b[i][j] for j in vs) for i in vs)
        parts.append(ExchangeMatrix(len(vs), entries, tuple(d[i] for i in vs)))
    return parts


def _chordless_cycles_through(adj: list[set[int]], v: int):
    """Chordless cycles of the graph on vertices 0..v that pass through v.

    Each cycle is yielded once, as the vertex list (v, a, .., b) with
    a < b: an induced path from a to b whose inner vertices are not
    adjacent to v.
    """
    ends = {u for u in adj[v] if u < v}
    for a in sorted(ends):
        stack = [(a,)]
        while stack:
            path = stack.pop()
            for w in adj[path[-1]]:
                if w >= v or w in path or any(w in adj[p] for p in path[:-1]):
                    continue
                if w in ends:
                    if w > a:
                        yield (v,) + path + (w,)
                else:
                    stack.append(path + (w,))


def _dynkin_type_of_companion(n: int, det: Fraction, d: tuple[int, ...]) -> DynkinType:
    """Name a positive quasi-Cartan companion by rank, det A and symmetrizer.

    det A is n+1 for A_n, 4 for D_n, 3/2/1 for E6/E7/E8, 2 for B_n and C_n,
    and 1 for F4 and G2.  B_n has exactly one vertex with the largest
    symmetrizer entry (the initial_matrix convention), C_n has n-1.
    """
    ratio = Fraction(max(d), min(d))
    family = None
    if ratio == 1:
        if det == n + 1:
            family = "A"
        elif det == 4:
            family = "D"
        elif (n, det) in ((6, 3), (7, 2), (8, 1)):
            family = "E"
    elif ratio == 2:
        if det == 2:
            family = "B" if d.count(max(d)) == 1 else "C"
        elif (n, det) == (4, 1):
            family = "F"
    elif ratio == 3 and (n, det) == (2, 1):
        family = "G"
    if family is None:
        raise ClusterError(
            f"positive companion of rank {n}, determinant {det} and symmetrizer "
            f"{list(d)} matches no Dynkin type"
        )
    return DynkinType(family, n)


def is_finite_type(matrix: ExchangeMatrix) -> DynkinType | None:
    """The finite cluster type of an exchange matrix, or None if infinite.

    Barot-Geiss-Zelevinsky: B is of finite type iff every chordless cycle
    of its diagram is cyclically oriented and B has a positive definite
    admissible quasi-Cartan companion A (a_ii = 2, |a_ij| = |b_ij|, an odd
    number of positive entries on every chordless cycle).  The vertices
    are taken in breadth-first order and vertex v is added to the
    finite-type prefix 0..v-1: its new chordless cycles all pass through
    v, their parity conditions fix the signs of its edges up to one
    global flip, and the new leading minor of D*A comes from one more
    row of fraction-free (Bareiss) elimination.  The first failure
    returns None; a prefix of a finite-type matrix is of finite type, so
    cycles are only ever enumerated in a finite-type graph.  The type is
    read from the rank, det A = det(D*A) / prod(D) and the symmetrizer.

    Raises :class:`ClusterError` for disconnected input (a product of
    types has no single Dynkin label).
    """
    if matrix.n == 1:
        return DynkinType("A", 1)
    order = _bfs_order(matrix)
    if len(order) != matrix.n:
        raise ClusterError("disconnected exchange matrix: classify components separately")
    n = matrix.n
    b = matrix.entries
    if any(abs(b[i][j] * b[j][i]) >= 4 for i in range(n) for j in range(i + 1, n)):
        return None

    perm = [0] * n
    for position, vertex in enumerate(order):
        perm[vertex] = position
    m = matrix.permuted(tuple(perm))
    b, d = m.entries, m.symmetrizer
    adj = [{j for j in range(n) if b[i][j]} for i in range(n)]
    positive = [[0] * n for _ in range(n)]  # 1 where the companion entry a_ij > 0
    pivots: list[int] = []  # leading minors of D*A
    upper: list[list[int]] = []  # upper[p][j - p]: entry (p, j) when p was the pivot
    for v in range(n):
        links: dict[int, list[tuple[int, int]]] = {}
        for cycle in _chordless_cycles_through(adj, v):
            closed = cycle + (v,)
            if len({b[x][y] > 0 for x, y in zip(closed, closed[1:])}) != 1:
                return None  # a chordless cycle that is not cyclically oriented
            inner = sum(positive[x][y] for x, y in zip(cycle[1:], cycle[2:]))
            parity = (1 + inner) % 2  # of positive[v][a] + positive[v][b]
            links.setdefault(cycle[1], []).append((cycle[-1], parity))
            links.setdefault(cycle[-1], []).append((cycle[1], parity))
        signs: dict[int, int] = {}  # positive[v][u] for the earlier neighbours u
        for start in sorted(u for u in adj[v] if u < v):
            if start in signs:
                continue
            signs[start] = 0
            pending = [start]
            while pending:
                a = pending.pop()
                for other, parity in links.get(a, ()):
                    want = signs[a] ^ parity
                    if other not in signs:
                        signs[other] = want
                        pending.append(other)
                    elif signs[other] != want:
                        return None  # no admissible companion
        row = [0] * (v + 1)
        for u, sign in signs.items():
            positive[u][v] = positive[v][u] = sign
            row[u] = d[v] * abs(b[v][u]) * (1 if sign else -1)
        row[v] = 2 * d[v]
        for p in range(v):
            upper[p].append(row[p])
            below = pivots[p - 1] if p else 1
            for j in range(p + 1, v + 1):
                row[j] = (pivots[p] * row[j] - row[p] * upper[p][j - p]) // below
        if row[v] <= 0:
            return None  # D*A is not positive definite
        pivots.append(row[v])
        upper.append([row[v]])
    return _dynkin_type_of_companion(n, Fraction(pivots[-1], math.prod(d)), d)
