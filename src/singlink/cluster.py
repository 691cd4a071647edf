"""Skew-symmetrizable exchange matrices, seed mutation and enumeration.

Seeds carry exact Laurent cluster variables in the initial variables
u1..un; mutation divides the exchange binomial by the outgoing variable,
which is exact whenever the Laurent phenomenon holds (asserted).  Seed
identity is the unordered set of cluster variables in canonical form, so
enumeration counts clusters.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .exactmath import Polynomial, RingDescriptor, divide_exact

_ASCII = "abcdefg"


class ClusterError(ValueError):
    pass


class CapExceededError(ClusterError):
    """Enumeration or classification exceeded its seed/matrix budget."""

    def __init__(self, cap: int, message: str | None = None):
        super().__init__(message or f"budget of {cap} exceeded")
        self.cap = cap


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

    def is_skew_symmetric(self) -> bool:
        return all(d == self.symmetrizer[0] for d in self.symmetrizer) or all(
            self.entries[i][j] == -self.entries[j][i]
            for i in range(self.n)
            for j in range(self.n)
        )

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


def exchange_matrix_from_json(data: dict) -> ExchangeMatrix:
    return ExchangeMatrix.from_rows(data["entries"], data.get("symmetrizer"))


def mutate(matrix: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Matrix mutation at direction k (1-based).

    b'_ij = -b_ij when i = k or j = k, else b_ij + sgn(b_ik) max(0, b_ik b_kj).
    """
    n = matrix.n
    if not 1 <= k <= n:
        raise ClusterError(f"mutation index {k} out of range 1..{n}")
    kk = k - 1
    b = matrix.entries
    new_rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == kk or j == kk:
                row.append(-b[i][j])
            else:
                bik, bkj = b[i][kk], b[kk][j]
                prod = bik * bkj
                if prod > 0:
                    row.append(b[i][j] + (prod if bik > 0 else -prod))
                else:
                    row.append(b[i][j])
        new_rows.append(tuple(row))
    return ExchangeMatrix(n, tuple(new_rows), matrix.symmetrizer)


# -- seeds --------------------------------------------------------------------


def initial_cluster_ring(n: int) -> RingDescriptor:
    names = tuple(f"u{i}" for i in range(1, n + 1))
    return RingDescriptor(names, laurent=frozenset(names))


@dataclass(frozen=True)
class Seed:
    matrix: ExchangeMatrix
    cluster: tuple[Polynomial, ...]

    def key(self) -> frozenset:
        return frozenset(self.cluster)


def initial_seed(matrix: ExchangeMatrix) -> Seed:
    ring = initial_cluster_ring(matrix.n)
    return Seed(matrix, tuple(ring.var(v) for v in ring.variables))


def _is_laurent_monomial_denominator(p: Polynomial) -> bool:
    # Laurent-ring polynomials have monomial denominators by construction;
    # integrality of coefficients is what remains to check over Z rings.
    return all(isinstance(c, int) for c in p.terms.values())


def mutate_seed(seed: Seed, k: int) -> Seed:
    """Seed mutation at direction k (1-based): exchange relation plus matrix mutation.

    x'_k = (prod_{b_ik > 0} x_i^{b_ik} + prod_{b_ik < 0} x_i^{-b_ik}) / x_k.
    """
    n = seed.matrix.n
    if not 1 <= k <= n:
        raise ClusterError(f"mutation index {k} out of range 1..{n}")
    kk = k - 1
    ring = seed.cluster[0].ring
    pos = ring.one()
    neg = ring.one()
    for i in range(n):
        bik = seed.matrix.entries[i][kk]
        if bik > 0:
            pos = pos * seed.cluster[i] ** bik
        elif bik < 0:
            neg = neg * seed.cluster[i] ** (-bik)
    new_var = divide_exact(pos + neg, seed.cluster[kk])
    if not _is_laurent_monomial_denominator(new_var):
        raise ClusterError("Laurent phenomenon violated: non-integer coefficients")
    cluster = seed.cluster[:kk] + (new_var,) + seed.cluster[kk + 1 :]
    return Seed(mutate(seed.matrix, k), cluster)


def enumerate_seeds(matrix: ExchangeMatrix, cap: int = 100_000) -> tuple[Seed, ...]:
    """All seeds reachable from the initial seed, deduplicated by cluster.

    Breadth-first closure under the n mutation directions; raises
    :class:`CapExceededError` as soon as more than ``cap`` distinct seeds
    appear (infinite type or cap too small).

    Cluster variables are hash-consed into a pool and exchange results
    are memoized on the local configuration (the outgoing variable and
    its signed neighborhood), which the larger exploration frontiers
    (E7, E8) revisit constantly.
    """
    if cap < 1:
        raise ClusterError("cap must be at least 1")
    n = matrix.n
    start = initial_seed(matrix)
    pool: dict = {var: var for var in start.cluster}
    exchange_memo: dict = {}

    def mutate_interned(seed: Seed, k: int) -> Seed:
        kk = k - 1
        column = tuple(seed.matrix.entries[i][kk] for i in range(n))
        local = tuple(
            sorted((id(seed.cluster[i]), b) for i, b in enumerate(column) if b != 0)
        )
        memo_key = (id(seed.cluster[kk]), local)
        new_var = exchange_memo.get(memo_key)
        if new_var is None:
            ring = seed.cluster[0].ring
            pos = ring.one()
            neg = ring.one()
            for i, b in enumerate(column):
                if b > 0:
                    pos = pos * seed.cluster[i] ** b
                elif b < 0:
                    neg = neg * seed.cluster[i] ** (-b)
            new_var = divide_exact(pos + neg, seed.cluster[kk])
            if not _is_laurent_monomial_denominator(new_var):
                raise ClusterError("Laurent phenomenon violated: non-integer coefficients")
            new_var = pool.setdefault(new_var, new_var)
            exchange_memo[memo_key] = new_var
        cluster = seed.cluster[:kk] + (new_var,) + seed.cluster[kk + 1 :]
        return Seed(mutate(seed.matrix, k), cluster)

    seen: dict[frozenset, Seed] = {start.key(): start}
    queue: deque[Seed] = deque([start])
    while queue:
        seed = queue.popleft()
        for k in range(1, n + 1):
            neighbor = mutate_interned(seed, k)
            key = neighbor.key()
            if key not in seen:
                if len(seen) >= cap:
                    raise CapExceededError(cap, f"more than {cap} seeds reached")
                seen[key] = neighbor
                queue.append(neighbor)
    return tuple(seen.values())


# -- finite type --------------------------------------------------------------

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


# -- canonical forms and classification ---------------------------------------


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


def _is_acyclic(matrix: ExchangeMatrix) -> bool:
    n = matrix.n
    succ = [[j for j in range(n) if matrix.entries[i][j] > 0] for i in range(n)]
    state = [0] * n  # 0 unvisited, 1 active, 2 done

    def dfs(i: int) -> bool:
        state[i] = 1
        for j in succ[i]:
            if state[j] == 1:
                return False
            if state[j] == 0 and not dfs(j):
                return False
        state[i] = 2
        return True

    return all(state[i] == 2 or dfs(i) for i in range(n))


def _connected(matrix: ExchangeMatrix) -> bool:
    n = matrix.n
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if j not in seen and (matrix.entries[i][j] or matrix.entries[j][i]):
                seen.add(j)
                stack.append(j)
    return len(seen) == n


def _classify_acyclic_diagram(matrix: ExchangeMatrix) -> DynkinType | None:
    """Dynkin type of an acyclic exchange matrix from its weighted diagram."""
    n = matrix.n
    b = matrix.entries
    if n == 1:
        return DynkinType("A", 1)
    edges = {}
    for i in range(n):
        for j in range(i + 1, n):
            if b[i][j] or b[j][i]:
                edges[(i, j)] = (abs(b[i][j]), abs(b[j][i]))
    if len(edges) != n - 1:
        return None  # finite-type diagrams are trees
    adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for (i, j) in edges:
        adj[i].append(j)
        adj[j].append(i)

    degrees = sorted(len(v) for v in adj.values())
    heavy = {e: w for e, w in edges.items() if w != (1, 1)}

    def edge_weight(u, v):
        return edges[(u, v)] if (u, v) in edges else tuple(reversed(edges[(v, u)]))

    if max(degrees) <= 2:
        # Path: order the vertices.
        ends = [i for i in adj if len(adj[i]) == 1] if n > 1 else [0]
        path = [ends[0]]
        while len(path) < n:
            nxt = [j for j in adj[path[-1]] if len(path) < 2 or j != path[-2]]
            path.append(nxt[0])
        weights = [edge_weight(path[i], path[i + 1]) for i in range(n - 1)]
        heavies = [(i, w) for i, w in enumerate(weights) if w != (1, 1)]
        if not heavies:
            return DynkinType("A", n)
        if len(heavies) > 1:
            return None
        pos, (w_uv, w_vu) = heavies[0]
        if {w_uv, w_vu} == {1, 3}:
            return DynkinType("G", 2) if n == 2 else None
        if {w_uv, w_vu} != {1, 2}:
            return None
        if n == 2:
            return DynkinType("B", 2)
        if pos == 0 or pos == n - 2:
            # Heavy edge at an end: B or C depending on which side carries
            # the 2 (companion a_{n-1,n} = -2 means |b| = 2 pointing at the
            # short leaf).
            if pos == 0:
                leaf, inner = path[0], path[1]
            else:
                leaf, inner = path[-1], path[-2]
            w_inner_leaf = edge_weight(inner, leaf)[0]
            return DynkinType("B" if w_inner_leaf == 2 else "C", n)
        if n == 4 and pos == 1:
            return DynkinType("F", 4)
        return None

    if heavy or degrees[-1] > 3 or degrees.count(3) > 1:
        return None
    # One branch vertex of degree 3, simply laced: D or E by leg lengths.
    branch = next(i for i in adj if len(adj[i]) == 3)
    legs = []
    for start in adj[branch]:
        length = 1
        prev, cur = branch, start
        while len(adj[cur]) == 2:
            nxt = next(j for j in adj[cur] if j != prev)
            prev, cur = cur, nxt
            length += 1
        if len(adj[cur]) == 3:
            return None  # second branch point reached
        legs.append(length)
    legs.sort()
    if legs[0] == 1 and legs[1] == 1:
        return DynkinType("D", n)
    if legs[:2] == [1, 2] and legs[2] in (2, 3, 4) and n == legs[2] + 4:
        return DynkinType("E", n)
    return None


def is_finite_type(matrix: ExchangeMatrix, cap: int = 20_000) -> DynkinType | None:
    """Detect the finite cluster type of an exchange matrix, if any.

    Acyclic matrices are classified directly from their weighted diagram.
    Otherwise the mutation class is explored breadth-first up to
    simultaneous permutation: any |b_ij * b_ji| >= 4 certifies infinite
    type (returns None); a completed 2-finite class is classified through
    one of its acyclic members.  Raises :class:`CapExceededError` when the
    class does not resolve within ``cap`` matrices, and
    :class:`ClusterError` for disconnected input (a product of types has
    no single Dynkin label).
    """
    if matrix.n == 1:
        return DynkinType("A", 1)
    if not _connected(matrix):
        raise ClusterError("disconnected exchange matrix: classify components separately")

    def two_finiteness_violated(m: ExchangeMatrix) -> bool:
        return any(
            abs(m.entries[i][j] * m.entries[j][i]) >= 4
            for i in range(m.n)
            for j in range(i + 1, m.n)
        )

    if two_finiteness_violated(matrix):
        return None
    if _is_acyclic(matrix):
        return _classify_acyclic_diagram(matrix)

    seen = {canonical_form(matrix)}
    queue = deque([matrix])
    acyclic_member: ExchangeMatrix | None = None
    while queue:
        current = queue.popleft()
        for k in range(1, matrix.n + 1):
            neighbor = mutate(current, k)
            if two_finiteness_violated(neighbor):
                return None
            key = canonical_form(neighbor)
            if key not in seen:
                if len(seen) >= cap:
                    raise CapExceededError(cap, "mutation class budget exceeded")
                seen.add(key)
                queue.append(neighbor)
                if acyclic_member is None and _is_acyclic(neighbor):
                    acyclic_member = neighbor
    if acyclic_member is None:
        return None  # 2-finite class with no acyclic member: not finite type
    return _classify_acyclic_diagram(acyclic_member)
