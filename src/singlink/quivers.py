"""The integer quiver layer: exchange matrices and their mutation, Dynkin
trees, one canonical form for quiver and multigraph isomorphism,
finite-type classification, and seed counts by c-vectors.

Nothing here holds a Laurent polynomial, so ``link --pipeline``,
``classify`` and ``mutate`` load no dense algebra; :mod:`cluster` builds
its Laurent seeds on top of this module, never the reverse.  A seed of a
finite-type algebra is determined by the set of its c-vectors
(Nakanishi-Zelevinsky tropical duality), so :func:`count_seeds` counts
the seeds that :func:`cluster.enumerate_seeds` lists while mutating only
integer matrices, with B held as sparse rows of nonzeros so that a
mutation touches only direction k and its neighbours.  Both searches run
the same pre-check, :func:`check_seed_budget`.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import deque

from .fqmath import BudgetExceededError
from .links import DynkinType, parse_ade_label
from .records import Record

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


class ExchangeMatrix(Record):
    """Integer matrix B with positive diagonal symmetrizer D, D*B skew-symmetric."""

    __slots__ = ("n", "entries", "symmetrizer")

    def __init__(
        self, n: int, entries: tuple[tuple[int, ...], ...], symmetrizer: tuple[int, ...]
    ) -> None:
        super().__init__(n, entries, symmetrizer)
        if n < 1 or len(entries) != n:
            raise ClusterError("exchange matrix must be square and non-empty")
        for row in entries:
            if len(row) != n:
                raise ClusterError("exchange matrix must be square")
        if len(symmetrizer) != n or any(d < 1 for d in symmetrizer):
            raise ClusterError("symmetrizer must be positive integers")
        b, d = entries, symmetrizer
        for i in range(n):
            if b[i][i] != 0:
                raise ClusterError("diagonal entries must vanish")
            for j in range(i + 1, n):
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
        """Simultaneous row/column permutation: entry (i, j) -> (perm[i], perm[j]).

        ``perm`` is a permutation of range(n).  It keeps D*B skew-symmetric,
        so the result is not validated again.
        """
        inv = [0] * self.n
        for i, p in enumerate(perm):
            inv[p] = i
        rows = map(self.entries.__getitem__, inv)
        entries = tuple(tuple(map(row.__getitem__, inv)) for row in rows)
        return _derived(self.n, entries, tuple(map(self.symmetrizer.__getitem__, inv)))

    def to_json_dict(self) -> dict:
        return {"entries": [list(r) for r in self.entries], "symmetrizer": list(self.symmetrizer)}


def _derived(n: int, entries: tuple, symmetrizer: tuple) -> ExchangeMatrix:
    """An exchange matrix built from a valid one, which keeps D*B
    skew-symmetric, so the O(n^2) validation is skipped."""
    matrix = object.__new__(ExchangeMatrix)
    object.__setattr__(matrix, "n", n)
    object.__setattr__(matrix, "entries", entries)
    object.__setattr__(matrix, "symmetrizer", symmetrizer)
    return matrix


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
    return _derived(n, tuple(new_rows), matrix.symmetrizer)


# -- graphs --------------------------------------------------------------------


def graphs_isomorphic(n1: int, edges1, n2: int, edges2) -> bool:
    """Exact isomorphism of undirected multigraphs given as edge lists, loops
    allowed: equal first leaves, or equal least leaves, of :func:`_leaves`
    on their multiplicity matrices."""
    if n1 != n2:
        return False
    matrices = ([[0] * n1 for _ in range(n1)], [[0] * n1 for _ in range(n1)])
    for rows, edges in zip(matrices, (edges1, edges2)):
        for u, v in edges:
            if not (0 <= u < n1 and 0 <= v < n1):
                raise ValueError(f"edge ({u}, {v}) out of range")
            rows[u][v] += 1
            rows[v][u] += 1  # so a loop adds 2 on the diagonal
    if len(edges1) != len(edges2):
        return False
    # Equal first leaves already relabel one graph onto the other.
    first, second = (_leaves(rows, [0] * n1) for rows in matrices)
    one, other = next(first), next(second)
    return one == other or min([one, *first]) == min([other, *second])


def dynkin_tree_edges(label: DynkinType) -> list[tuple[int, int]]:
    """Edge list (0-based) of the Dynkin tree of an ADE label, in Bourbaki
    labeling.  :class:`~singlink.links.DynkinType` has checked the rank."""
    n = parse_ade_label(label).rank
    if label.family == "A":
        return [(i, i + 1) for i in range(n - 1)]
    # The path 0..n-2 and the leaf n-1: D_n hangs it on the path's last
    # vertex but one, E_n on its third.
    return [(i, i + 1) for i in range(n - 2)] + [(n - 3 if label.family == "D" else 2, n - 1)]


# -- seed counts ---------------------------------------------------------------


def check_seed_budget(matrix: ExchangeMatrix, cap: int) -> None:
    """The pre-check of both seed searches.

    Each connected component of the diagram is classified
    (:func:`is_finite_type`): the seeds of B are the products of the seeds
    of its components, so an infinite component, or a product of
    component seed counts above ``cap``, raises
    :class:`BudgetExceededError` at once instead of after ``cap`` seeds.
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


# Bits per packed c-vector entry: see count_seeds.
_C_DIGIT_BITS = 16


def count_seeds(matrix: ExchangeMatrix, cap: int = 100_000) -> int:
    """The number of seeds reachable from the initial seed, with no Laurent
    polynomial: the length of :func:`singlink.cluster.enumerate_seeds`, after the same
    pre-check (:func:`check_seed_budget`) and with the same errors.

    Breadth-first search over the pairs (B, C), from C = I, where C holds
    the c-vectors as columns.  Mutation at k is the Fomin-Zelevinsky rule
    on the extended matrix [B; C]; since every c-vector is sign-coherent
    (Gross-Hacking-Keel-Kontsevich, arXiv:1411.1394), with e the sign of
    c_k it reads c'_k = -c_k and c'_j = c_j + [e b_kj]_+ c_k for j != k.
    A seed is keyed by the set of its c-vectors, which determines it
    (Nakanishi-Zelevinsky tropical duality, arXiv:1101.3736), and B is
    mutated only when a key is new.

    B is held as one dict ``{j: b_ij}`` of nonzero entries per row, so an
    edge at k updates only the c_j with [e b_kj]_+ != 0, and a new seed
    rebuilds only row k and the rows of its neighbours
    (:func:`_mutated_sparse_rows`) and shares the others with its parent.
    Mutation is an involution, so the edge back to the parent is skipped.

    Each c-vector is packed into one integer sum_i c_i 2^(16 i), so that a
    column update is one integer addition and the sign of the integer is
    e.  The packing is exact while every |c_i| < 2^15.  The pre-check lets
    only finite types through, and there the c-vectors are positive or
    negative roots: from an acyclic initial seed, roots in the basis of
    simple roots, whose entries are at most 6 in absolute value (the
    highest root of E8).  The tests find no larger entry from mutated
    initial seeds either.
    """
    check_seed_budget(matrix, cap)
    return len(_c_vector_seed_keys(matrix, cap))


def _c_vector_seed_keys(matrix: ExchangeMatrix, cap: int) -> set[frozenset[int]]:
    """The packed c-vector sets of the seeds that :func:`count_seeds` counts."""
    n = matrix.n
    start = [1 << (_C_DIGIT_BITS * i) for i in range(n)]
    seen = {frozenset(start)}
    rows = tuple({j: b for j, b in enumerate(row) if b} for row in matrix.entries)
    queue = deque([(rows, start, -1)])
    while queue:
        rows, c, parent = queue.popleft()
        for kk in range(n):
            if kk == parent:
                continue  # mutation at kk is an involution
            row_k = rows[kk]
            ck = c[kk]
            new = c.copy()
            new[kk] = -ck
            if ck > 0:
                for j, b in row_k.items():
                    if b > 0:
                        new[j] += b * ck
            else:
                for j, b in row_k.items():
                    if b < 0:
                        new[j] -= b * ck
            key = frozenset(new)
            if key in seen:
                continue
            if len(seen) >= cap:
                raise BudgetExceededError(f"more than {cap} seeds reached", cap)
            seen.add(key)
            queue.append((_mutated_sparse_rows(rows, kk), new, kk))
    return seen


def _mutated_sparse_rows(
    rows: tuple[dict[int, int], ...], kk: int
) -> tuple[dict[int, int], ...]:
    """:func:`mutate` at kk (0-based) on rows of nonzeros ``{j: b_ij}``.

    Only row kk and the rows i with b_ik != 0 change, and the other rows
    are shared.  Row i gains |b_ik| b_kj at each j with b_ik b_kj > 0,
    which is never j = i since b_ik and b_ki have opposite signs.
    """
    row_k = rows[kk]
    positive = [(j, b) for j, b in row_k.items() if b > 0]
    negative = [(j, b) for j, b in row_k.items() if b < 0]
    new_rows = list(rows)
    new_rows[kk] = {j: -b for j, b in row_k.items()}
    for i in row_k:
        row = new_rows[i] = rows[i].copy()
        bik = row[kk]
        row[kk] = -bik
        scale = abs(bik)
        for j, bkj in positive if bik > 0 else negative:
            bij = row.get(j, 0) + scale * bkj
            if bij:
                row[j] = bij
            else:
                del row[j]
    return tuple(new_rows)


# -- finite type ---------------------------------------------------------------


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
    top, bottom = math.prod(e + h + 1 for e in exps), math.prod(e + 1 for e in exps)
    count, rest = divmod(top, bottom)
    if rest:
        raise ClusterError(f"seed count for {t} is not an integer: {top}/{bottom}")
    return count


def initial_matrix(t: DynkinType) -> ExchangeMatrix:
    """A finite-type initial exchange matrix for the given Dynkin type.

    ADE types use an orientation of the Dynkin tree with unit symmetrizer.
    The non-simply-laced types use a bipartite orientation whose Cartan
    companion (a_ij = -|b_ij| off-diagonal) is the Bourbaki Cartan matrix.
    """
    n = t.rank
    check_rank(n)
    if t.family in ("A", "D", "E"):
        # D3 = A3 takes the A3 path, not the D3 star of dynkin_tree_edges.
        edges = dynkin_tree_edges(DynkinType("A", 3) if (t.family, n) == ("D", 3) else t)
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
    """The least positive integer diagonal D with D*B skew-symmetric (B tree-shaped)."""
    n = len(rows)
    d = [0] * n
    d[0] = 1
    pending = [0]
    while pending:
        i = pending.pop()
        for j in range(n):
            if rows[i][j] != 0 and d[j] == 0:
                # d_i b_ij = -d_j b_ji; scale D by the least factor that makes d_j an integer
                top, bottom = -d[i] * rows[i][j], rows[j][i]
                scale = abs(bottom) // math.gcd(top, bottom)
                d = [x * scale for x in d]
                d[j] = top * scale // bottom
                pending.append(j)
    if any(x == 0 for x in d):
        raise ClusterError("symmetrizer construction needs a connected matrix")
    return tuple(d)


# -- canonical forms -----------------------------------------------------------
# One engine decides "equal up to relabelling": check reaches it through
# graphs_isomorphic, and the tests' mutation-class oracle and
# bench/tracer.py (through :mod:`cluster`) through canonical_form.


def _leaves(rows, colours):
    """The ``(colours, rows)`` pairs at the leaves of an
    individualization-refinement search (McKay-Piperno, arXiv:1301.1493),
    each permuted by its leaf's vertex order, as the search reaches them.
    Their least pair is a canonical form.  ``b_ij`` and ``b_ji`` vanish
    together, as in an exchange matrix or a multigraph.

    The cells of the ordered partition are numbered by the position of
    their first vertex, and the diagonal joins the first colour.
    Refinement takes one splitter cell S at a time from a queue: each
    vertex's signature is the multiset of its (b_ij, b_ji) over the
    neighbours j in S, and every cell a neighbour of S lies in splits by
    signature, in signature order.  The first part keeps the cell's
    number, and every other part joins the queue; the first is implied,
    since signatures add up over the parts of a cell.  The search
    individualizes each vertex of the first smallest cell in turn, ahead
    of the rest of its cell, and refines from that vertex alone.  A leaf
    with an earlier leaf's pair is its image under an automorphism fixing
    their common path, so it is not yielded, and the rest of the branch
    where the two part is skipped.
    """
    n = len(rows)
    near = [[j for j in itertools.compress(range(n), row) if j != i] for i, row in enumerate(rows)]
    kinds = sorted({(rows[i][j], rows[j][i]) for i, js in enumerate(near) for j in js})
    # A signature sums (n + 1)^(rank of its kind) over the edges into S.
    weight = {kind: (n + 1) ** r for r, kind in enumerate(kinds)}
    edges = [[(j, weight[rows[i][j], rows[j][i]]) for j in js] for i, js in enumerate(near)]

    def refine(cols, cells, queue):
        queued = set(queue)
        for s in queue:  # the queue grows as cells split
            if len(cells) == n:
                break
            queued.discard(s)
            signature = {}
            for u in cells[s]:
                for j, w in edges[u]:
                    signature[j] = signature.get(j, 0) + w
            for c in sorted({cols[j] for j in signature}):
                if len(cells[c]) == 1:
                    continue
                parts = {}
                for v in cells[c]:
                    parts.setdefault(signature.get(v, 0), []).append(v)
                if len(parts) == 1:
                    continue
                start = c
                for key in sorted(parts):
                    cells[start] = part = parts[key]
                    if start != c:
                        for v in part:
                            cols[v] = start
                        if start not in queued:
                            queued.add(start)
                            queue.append(start)
                    start += len(part)
        return cols, cells

    leaves = {}  # pair -> path, for every leaf searched

    def search(cols, cells, path):
        """Yields the new leaf pairs below this node; returns the depth of
        the node whose next child the search visits."""
        if len(cells) == n:
            order = [cells[c][0] for c in range(n)]
            pick = operator.itemgetter(*order) if n > 1 else tuple
            pair = (pick(colours), tuple(map(pick, map(rows.__getitem__, order))))
            if pair in leaves:
                return next(d for d, (u, v) in enumerate(zip(path, leaves[pair])) if u != v)
            leaves[pair] = path
            yield pair
            return len(path)
        cell = min((len(vs), c) for c, vs in cells.items() if len(vs) > 1)[1]
        vs = cells[cell]
        for v in vs:
            individual, split = cols.copy(), cells.copy()
            split[cell] = [v]
            split[cell + 1] = rest = [u for u in vs if u != v]
            for u in rest:
                individual[u] = cell + 1
            depth = yield from search(*refine(individual, split, [cell]), path + [v])
            if depth < len(path):
                return depth
        return len(path)

    start = [(c, rows[i][i]) for i, c in enumerate(colours)]  # the diagonal holds loops
    cols, cells, at = [0] * n, {}, 0
    for value in sorted(set(start)):
        cells[at] = part = [v for v in range(n) if start[v] == value]
        for v in part:
            cols[v] = at
        at += len(part)
    return search(*refine(cols, cells, list(cells)), [])


def canonical_form(matrix: ExchangeMatrix) -> tuple:
    """The least (symmetrizer, entries) pair of :func:`_leaves`: equal for
    two exchange matrices exactly when a simultaneous permutation maps one
    onto the other."""
    return min(_leaves(matrix.entries, matrix.symmetrizer))


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
        parts.append(_derived(len(vs), entries, tuple(d[i] for i in vs)))
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


def _dynkin_type_of_companion(n: int, det: int, d: tuple[int, ...]) -> DynkinType:
    """Name a positive quasi-Cartan companion by rank, det A and symmetrizer.

    det A is n+1 for A_n, 4 for D_n, 3/2/1 for E6/E7/E8, 2 for B_n and C_n,
    and 1 for F4 and G2.  B_n has exactly one vertex with the largest
    symmetrizer entry (the initial_matrix convention), C_n has n-1.
    """
    whole, rest = divmod(max(d), min(d))
    ratio = 0 if rest else whole
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
    read from the rank, det A = det(D*A) / prod(D) (exact: A is an
    integer matrix) and the symmetrizer.

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
    return _dynkin_type_of_companion(n, pivots[-1] // math.prod(d), d)
