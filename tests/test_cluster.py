"""Tests for exchange-matrix mutation, seeds, and finite-type detection."""

import random
import time
from collections import deque
from math import comb, gcd

import pytest

import singlink.cluster as cluster_module
import singlink.quivers as quivers_module
from singlink.bricks import brick_quiver, to_exchange_matrix
from singlink.cluster import Seed, enumerate_seeds, initial_seed, mutate_seed
from singlink.exactmath import divide_exact
from singlink.fqmath import BudgetExceededError
from singlink.links import (
    BraidWord,
    DynkinType,
    LinkError,
    ade_braid,
    parse_dynkin_type,
    torus_braid,
)
from singlink.quivers import (
    ClusterError,
    ExchangeMatrix,
    canonical_form,
    count_seeds,
    expected_seed_count,
    initial_matrix,
    is_finite_type,
    mutate,
)


def M(rows, sym=None):
    return ExchangeMatrix.from_rows(rows, sym)


# -- the mutation-class oracle -------------------------------------------------
# The classifier that the Barot-Geiss-Zelevinsky test replaced: a 2-finite
# class is explored up to simultaneous permutation and classified through
# one of its acyclic members, read off as a weighted Dynkin diagram.


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


def classify_by_mutation_class(matrix: ExchangeMatrix, cap: int = 20_000) -> DynkinType | None:
    """Dynkin type of a connected exchange matrix by searching its mutation class."""

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
    acyclic_member = None
    while queue:
        current = queue.popleft()
        for k in range(1, matrix.n + 1):
            neighbor = mutate(current, k)
            if two_finiteness_violated(neighbor):
                return None
            key = canonical_form(neighbor)
            if key not in seen:
                if len(seen) >= cap:
                    raise BudgetExceededError("mutation class budget exceeded", cap)
                seen.add(key)
                queue.append(neighbor)
                if acyclic_member is None and _is_acyclic(neighbor):
                    acyclic_member = neighbor
    if acyclic_member is None:
        return None  # 2-finite class with no acyclic member: not finite type
    return _classify_acyclic_diagram(acyclic_member)


# -- tests ---------------------------------------------------------------------


def test_rank_two_mutation_flips_signs():
    m = M([[0, 1], [-1, 0]])
    assert mutate(m, 1).entries == ((0, -1), (1, 0))


def test_a3_path_mutation_creates_cycle():
    # 1 -> 2 -> 3, mutate at 2: arrows reverse at 2 and a new arrow 1 -> 3...
    # by the rule b'_13 = b_13 + sgn(b_12) max(0, b_12 b_23) = 1.
    m = M([[0, 1, 0], [-1, 0, 1], [0, -1, 0]])
    out = mutate(m, 2)
    assert out.entries == ((0, -1, 1), (1, 0, -1), (-1, 1, 0))


def test_mutation_is_involution_example():
    m = M([[0, 2, -1], [-2, 0, 3], [1, -3, 0]])
    assert mutate(mutate(m, 2), 2) == m


def test_mutation_index_range():
    m = M([[0, 1], [-1, 0]])
    with pytest.raises(ClusterError):
        mutate(m, 0)
    with pytest.raises(ClusterError):
        mutate(m, 3)


def test_exchange_matrix_validation():
    with pytest.raises(ClusterError):
        M([[0, 1], [1, 0]])  # not sign-coherent / skew
    with pytest.raises(ClusterError):
        M([[1]])
    with pytest.raises(ClusterError):
        ExchangeMatrix.from_rows([[0, 1], [-2, 0]])  # needs symmetrizer (2,1)
    assert ExchangeMatrix.from_rows([[0, 1], [-2, 0]], (2, 1)).n == 2


def random_skew(rng, n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randint(-2, 2)
            rows[i][j] = v
            rows[j][i] = -v
    return M(rows)


def random_skew_symmetrizable(rng, n):
    """A random B with D*B skew-symmetric, d_i in {1, 2, 3}."""
    sym = [rng.choice((1, 2, 3)) for _ in range(n)]
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            # b_ij = k d_j / g and b_ji = -k d_i / g give d_i b_ij = -d_j b_ji.
            k, g = rng.randint(-2, 2), gcd(sym[i], sym[j])
            rows[i][j], rows[j][i] = k * sym[j] // g, -k * sym[i] // g
    return M(rows, sym)


def mutation_by_entry_formula(m, k):
    b, kk = m.entries, k - 1

    def entry(i, j):
        if kk in (i, j):
            return -b[i][j]
        sign = (b[i][kk] > 0) - (b[i][kk] < 0)
        return b[i][j] + sign * max(0, b[i][kk] * b[kk][j])

    return tuple(tuple(entry(i, j) for j in range(m.n)) for i in range(m.n))


def test_involution_and_equivariance_random():
    rng = random.Random(7)
    for _ in range(400):
        n = rng.randint(1, 8)
        m = random_skew_symmetrizable(rng, n)
        for k in range(1, n + 1):
            mutated = mutate(m, k)
            # mutate does not re-validate its result: check it here.
            assert mutated.entries == mutation_by_entry_formula(m, k)
            assert mutated == ExchangeMatrix(n, mutated.entries, m.symmetrizer)
            assert mutate(mutated, k) == m
        k = rng.randint(1, n)
        perm = list(range(n))
        rng.shuffle(perm)
        perm = tuple(perm)
        assert mutate(m.permuted(perm), perm[k - 1] + 1) == mutate(m, k).permuted(perm)


def test_permuted_and_components_match_validated_matrices():
    # permuted and the components of the seed pre-check do not re-validate
    # their results: build the same data through the checking constructor.
    rng = random.Random(11)
    for _ in range(400):
        n = rng.randint(1, 8)
        m = random_skew_symmetrizable(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        p = m.permuted(tuple(perm))
        assert p == ExchangeMatrix(n, p.entries, p.symmetrizer)
        assert all(p.symmetrizer[perm[i]] == m.symmetrizer[i] for i in range(n))
        assert all(
            p.entries[perm[i]][perm[j]] == m.entries[i][j] for i in range(n) for j in range(n)
        )
        assert all(type(row) is tuple for row in p.entries) and type(p.entries) is tuple
        parts = quivers_module._components(m)
        assert sum(part.n for part in parts) == n
        for part in parts:
            assert part == ExchangeMatrix(part.n, part.entries, part.symmetrizer)


def test_seed_mutation_a1():
    seed = initial_seed(M([[0]]))
    out = mutate_seed(seed, 1)
    u1 = seed.cluster[0]
    assert out.cluster[0] == divide_exact(u1.ring.const(2), u1)


def test_seed_mutation_a2_example():
    seed = initial_seed(M([[0, 1], [-1, 0]]))
    out = mutate_seed(seed, 1)
    ring = seed.cluster[0].ring
    u1, u2 = ring.var("u1"), ring.var("u2")
    assert out.cluster[1] == u2
    assert out.cluster[0] == divide_exact(ring.one() + u2, u1)


def test_seed_mutation_rejects_a_non_laurent_exchange():
    # (u1, u1 + u2) is not a cluster of the A2 algebra: the exchange at 2
    # divides 1 + u1 by u1 + u2, which leaves a remainder.
    seed = initial_seed(M([[0, 1], [-1, 0]]))
    u1, u2 = seed.cluster
    with pytest.raises(ClusterError, match="Laurent phenomenon violated"):
        mutate_seed(Seed(seed.matrix, (u1, u1 + u2)), 2)


def test_seed_mutation_involution():
    seed = initial_seed(initial_matrix(DynkinType("D", 4)))
    for k in (1, 2, 3, 4):
        assert frozenset(mutate_seed(mutate_seed(seed, k), k).cluster) == frozenset(seed.cluster)
    walked = mutate_seed(mutate_seed(seed, 2), 3)
    assert frozenset(mutate_seed(mutate_seed(walked, 4), 4).cluster) == frozenset(walked.cluster)


@pytest.mark.parametrize(
    "type_text,count",
    [
        ("A1", 2), ("A2", 5), ("A3", 14), ("A4", 42),
        ("D4", 50), ("B2", 6), ("G2", 8), ("B3", 20), ("C3", 20),
    ],
)
def test_enumerate_small_types(type_text, count):
    t = parse_dynkin_type(type_text)
    seeds = enumerate_seeds(initial_matrix(t), cap=500)
    assert len(seeds) == count == expected_seed_count(t)


def test_enumerate_seeds_cap_overflow():
    markov = M([[0, 2, -2], [-2, 0, 2], [2, -2, 0]])
    with pytest.raises(BudgetExceededError):
        enumerate_seeds(markov, cap=40)


def test_enumerate_disconnected_counts_the_product_and_checks_the_cap_first():
    a1_a2 = M([[0, 0, 0], [0, 0, 1], [0, -1, 0]])
    assert len(enumerate_seeds(a1_a2, cap=10)) == 2 * 5
    with pytest.raises(BudgetExceededError, match="more than 9 seeds reached"):
        enumerate_seeds(a1_a2, cap=9)
    # An infinite component (Kronecker) next to a finite one.
    with pytest.raises(BudgetExceededError):
        enumerate_seeds(M([[0, 2, 0], [-2, 0, 0], [0, 0, 0]]), cap=2000)


def _enumerate_seeds_plainly(matrix: ExchangeMatrix, cap: int) -> tuple[Seed, ...]:
    """Breadth-first closure that runs mutate_seed on every edge and keys
    each seed by the set of its cluster variables: no pool, no memo."""
    start = initial_seed(matrix)
    seen = {frozenset(start.cluster): start}
    queue = deque([start])
    while queue:
        seed = queue.popleft()
        for k in range(1, matrix.n + 1):
            neighbor = mutate_seed(seed, k)
            key = frozenset(neighbor.cluster)
            if key not in seen:
                if len(seen) >= cap:
                    raise BudgetExceededError(f"more than {cap} seeds reached", cap)
                seen[key] = neighbor
                queue.append(neighbor)
    return tuple(seen.values())


def _randomly_mutated(type_text: str, seed: int) -> ExchangeMatrix:
    """initial_matrix of the type after 3 to 15 mutations in seeded random
    directions."""
    rng = random.Random(seed)
    matrix = initial_matrix(parse_dynkin_type(type_text))
    for _ in range(rng.randint(3, 15)):
        matrix = mutate(matrix, rng.randint(1, matrix.n))
    return matrix


# Initial seeds away from initial_matrix's trees, so that skipping the
# directions recorded on a queued seed is checked where a cluster (and a
# c-vector set) must determine its seed far from an acyclic start.
_RANDOM_STARTS = {
    f"{text}-mutated-at-random": (text, _randomly_mutated(text, 34))
    for text in ("A5", "D5", "B3", "C3", "G2", "F4")
}
# Besides the random starts: a disconnected seed, and two with oriented
# cycles.
_NAMED_MATRICES = {
    "A1xA2": M([[0, 0, 0], [0, 0, 1], [0, -1, 0]]),
    "D4-mutated-at-centre": mutate(initial_matrix(DynkinType("D", 4)), 2),
    "A3-oriented-3-cycle": M([[0, 1, -1], [-1, 0, 1], [1, -1, 0]]),
} | {name: matrix for name, (_, matrix) in _RANDOM_STARTS.items()}


@pytest.mark.parametrize(
    "type_text",
    ["A5", "B3", "C3", "G2", "D5", "F4", "D6", *_NAMED_MATRICES],
)
def test_enumerate_seeds_matches_a_plain_breadth_first_search(type_text):
    if type_text in _NAMED_MATRICES:
        matrix = _NAMED_MATRICES[type_text]
    else:
        matrix = initial_matrix(parse_dynkin_type(type_text))
    seeds = enumerate_seeds(matrix, cap=1000)
    assert seeds == _enumerate_seeds_plainly(matrix, cap=1000)
    count = len(seeds)
    message = f"more than {count - 1} seeds reached"
    with pytest.raises(BudgetExceededError, match=message):
        enumerate_seeds(matrix, cap=count - 1)
    with pytest.raises(BudgetExceededError, match=message):
        _enumerate_seeds_plainly(matrix, cap=count - 1)


def test_enumerate_seeds_mutates_each_new_seed_once_and_evaluates_each_edge_once(monkeypatch):
    calls = {"mutate": 0, "divide_exact": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(cluster_module, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(cluster_module, name, counted)
    seeds = enumerate_seeds(initial_matrix(DynkinType("E", 6)), cap=1000)
    assert len(seeds) == 833
    # One matrix mutation per seed past the first; 430 Laurent divisions,
    # the exchange memo's count on E6 when each of the 833 * 6 / 2 = 2499
    # exchange-graph edges is evaluated once, from the end popped first.
    assert calls == {"mutate": 832, "divide_exact": 430}


# -- the c-vector seed counter -------------------------------------------------


def _torus_brick_matrix(a: int, b: int) -> ExchangeMatrix:
    return to_exchange_matrix(brick_quiver(torus_braid(a, b)))


def _outcome(search, matrix, cap):
    try:
        return ("count", search(matrix, cap))
    except (ClusterError, BudgetExceededError) as exc:
        return (type(exc).__name__, str(exc))


@pytest.mark.parametrize(
    "matrix,cap,want",
    [
        pytest.param(
            M([[0, 2, -2], [-2, 0, 2], [2, -2, 0]]), 2000,
            ("BudgetExceededError", "more than 2000 seeds reached"), id="markov",
        ),
        pytest.param(
            _torus_brick_matrix(4, 5), 2000,
            ("BudgetExceededError", "more than 2000 seeds reached"), id="T(4,5)",
        ),
        pytest.param(M([[0, 0, 0], [0, 0, 1], [0, -1, 0]]), 10, ("count", 10), id="A1xA2"),
        pytest.param(
            M([[0, 0, 0], [0, 0, 1], [0, -1, 0]]), 9,
            ("BudgetExceededError", "more than 9 seeds reached"), id="A1xA2-over-cap",
        ),
        pytest.param(
            M([[0, 2, 0], [-2, 0, 0], [0, 0, 0]]), 2000,
            ("BudgetExceededError", "more than 2000 seeds reached"), id="Kronecker-x-A1",
        ),
        pytest.param(
            initial_matrix(DynkinType("E", 6)), 832,
            ("BudgetExceededError", "more than 832 seeds reached"), id="E6-over-cap",
        ),
        pytest.param(M([[0, 1], [-1, 0]]), 0, ("ClusterError", "cap must be at least 1"), id="cap0"),
    ],
)
def test_both_seed_searches_share_the_pre_check(matrix, cap, want):
    def laurent(m, c):
        return len(enumerate_seeds(m, cap=c))

    assert _outcome(laurent, matrix, cap) == want
    assert _outcome(count_seeds, matrix, cap) == want


@pytest.mark.parametrize(
    "type_text",
    ["A1", "A2", "A3", "A4", "A5", "A6", "A7", "B3", "C3", "D4", "D5", "D6", "E6", "F4", "G2"],
)
def test_count_seeds_equals_the_laurent_search_on_initial_matrices(type_text):
    matrix = initial_matrix(parse_dynkin_type(type_text))
    assert count_seeds(matrix) == len(enumerate_seeds(matrix))


def _small_brick_matrices():
    for family, ranks in (("A", range(1, 8)), ("D", range(3, 7)), ("E", (6,))):
        for rank in ranks:
            yield pytest.param(
                to_exchange_matrix(brick_quiver(ade_braid(f"{family}{rank}"))),
                id=f"{family}{rank}",
            )
    yield pytest.param(_torus_brick_matrix(3, 4), id="T(3,4)")
    for b in range(2, 10):
        yield pytest.param(_torus_brick_matrix(2, b), id=f"T(2,{b})")


@pytest.mark.parametrize("matrix", _small_brick_matrices())
def test_count_seeds_equals_the_laurent_search_on_brick_quivers(matrix):
    assert count_seeds(matrix) == len(enumerate_seeds(matrix))


def test_count_seeds_equals_the_laurent_search_after_random_mutations():
    # B3, C3 and G2 have |b_ik| != |b_ki|, which the sparse row update scales.
    rng = random.Random(24)
    for text in ("E6", "D5", "F4", "B3", "C3", "G2"):
        for _ in range(3):
            matrix = initial_matrix(parse_dynkin_type(text))
            for _ in range(rng.randint(3, 15)):
                matrix = mutate(matrix, rng.randint(1, matrix.n))
            assert count_seeds(matrix) == len(enumerate_seeds(matrix)), matrix.entries


@pytest.mark.parametrize("type_text", ["E7", "D8", "E8"])
def test_count_seeds_reaches_the_closed_form_beyond_the_laurent_search(type_text):
    t = parse_dynkin_type(type_text)
    assert count_seeds(initial_matrix(t)) == expected_seed_count(t)


def _c_vector_reference_walk(matrix: ExchangeMatrix) -> set:
    """Every seed's set of c-vectors, as tuples, by the general rule on the
    extended matrix [B; C]: c'_k = -c_k and, for j != k, each entry
    c'_ij = c_ij + sgn(c_ik) [c_ik b_kj]_+, with no sign-coherence assumed.
    Asserts that every c-vector met is >= 0 or <= 0."""
    n = matrix.n
    start = tuple(tuple(int(i == j) for i in range(n)) for j in range(n))
    seen = {frozenset(start)}
    queue = deque([(matrix, start)])
    while queue:
        m, c = queue.popleft()
        for kk in range(n):
            ck = c[kk]
            new = [
                tuple(
                    x + (1 if y > 0 else -1) * max(y * m.entries[kk][j], 0)
                    for x, y in zip(c[j], ck)
                )
                for j in range(n)
            ]
            new[kk] = tuple(-y for y in ck)
            for vector in new:
                assert min(vector) >= 0 or max(vector) <= 0, vector
            key = frozenset(new)
            if key not in seen:
                seen.add(key)
                queue.append((mutate(m, kk + 1), tuple(new)))
    return seen


def _unpack_c_vector(packed: int, n: int) -> tuple[int, ...]:
    """The entries of a c-vector packed as sum_i c_i 2^(16 i)."""
    width = 1 << quivers_module._C_DIGIT_BITS
    entries = []
    for _ in range(n):
        digit = packed % width
        if digit >= width // 2:
            digit -= width
        entries.append(digit)
        packed = (packed - digit) >> quivers_module._C_DIGIT_BITS
    assert packed == 0
    return tuple(entries)


@pytest.mark.parametrize(
    "type_text,matrix",
    [
        *(
            pytest.param(text, initial_matrix(parse_dynkin_type(text)), id=text)
            for text in ("E6", "F4", "G2", "B3", "C3")
        ),
        *(pytest.param(text, matrix, id=name) for name, (text, matrix) in _RANDOM_STARTS.items()),
    ],
)
def test_c_vectors_are_sign_coherent_and_unpack_to_the_reference_walk(type_text, matrix):
    reference = _c_vector_reference_walk(matrix)
    assert len(reference) == expected_seed_count(parse_dynkin_type(type_text))
    packed = quivers_module._c_vector_seed_keys(matrix, cap=len(reference))
    unpacked = {frozenset(_unpack_c_vector(x, matrix.n) for x in key) for key in packed}
    assert unpacked == reference
    # The pre-check refuses cap = count - 1 first; the search alone also
    # stops at its last seed.
    message = f"more than {len(reference) - 1} seeds reached"
    with pytest.raises(BudgetExceededError, match=message):
        count_seeds(matrix, cap=len(reference) - 1)
    with pytest.raises(BudgetExceededError, match=message):
        quivers_module._c_vector_seed_keys(matrix, cap=len(reference) - 1)
    # The sign of a packed c-vector is the sign of its entries.
    for key in packed:
        for x in key:
            entries = _unpack_c_vector(x, matrix.n)
            assert (x > 0) == (max(entries) > 0)


def test_packed_c_vector_entries_stay_far_inside_the_digit_width():
    types = [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 9)]
    types += ["E6", "E7", "E8", "B3", "B5", "C3", "C5", "F4", "G2"]
    largest = 0
    for text in types:
        matrix = initial_matrix(parse_dynkin_type(text))
        vectors = set().union(*quivers_module._c_vector_seed_keys(matrix, cap=25080))
        for x in vectors:
            largest = max(largest, max(map(abs, _unpack_c_vector(x, matrix.n))))
    # The highest root of E8 has a coefficient 6; the packing holds |c_i| < 2^15.
    assert largest == 6


def test_expected_seed_count_closed_forms():
    for n in range(1, 9):
        assert expected_seed_count(DynkinType("A", n)) == comb(2 * n + 2, n + 1) // (n + 2)
    for n in range(4, 9):
        assert expected_seed_count(DynkinType("D", n)) == (3 * n - 2) * comb(2 * n - 2, n - 1) // n
    for n in range(2, 7):
        assert expected_seed_count(DynkinType("B", n)) == comb(2 * n, n)
        if n >= 3:
            assert expected_seed_count(DynkinType("C", n)) == comb(2 * n, n)
    assert expected_seed_count(DynkinType("D", 3)) == 14  # agrees with A3
    assert expected_seed_count(DynkinType("E", 6)) == 833
    assert expected_seed_count(DynkinType("E", 7)) == 4160
    assert expected_seed_count(DynkinType("E", 8)) == 25080
    assert expected_seed_count(DynkinType("F", 4)) == 105
    assert expected_seed_count(DynkinType("G", 2)) == 8


def test_laurent_phenomenon_random_walks():
    rng = random.Random(11)
    for type_text in ("A3", "D4", "B3"):
        matrix = initial_matrix(parse_dynkin_type(type_text))
        for _ in range(60):
            seed = initial_seed(matrix)
            for _ in range(rng.randint(1, 12)):
                seed = mutate_seed(seed, rng.randint(1, matrix.n))
                for var in seed.cluster:
                    assert all(isinstance(c, int) for c in var.terms.values())


def test_is_finite_type_examples():
    assert is_finite_type(to_exchange_matrix(brick_quiver(BraidWord(2, (1, 1, 1))))) == DynkinType("A", 2)
    assert is_finite_type(to_exchange_matrix(brick_quiver(ade_braid("E8")))) == DynkinType("E", 8)
    markov = M([[0, 2, -2], [-2, 0, 2], [2, -2, 0]])
    assert is_finite_type(markov) is None


def test_is_finite_type_cyclic_input():
    # Oriented 3-cycle is mutation-equivalent to the A3 path.
    cyc = M([[0, 1, -1], [-1, 0, 1], [1, -1, 0]])
    assert is_finite_type(cyc) == DynkinType("A", 3)


def test_is_finite_type_bcfg():
    for text in ("B2", "B3", "C3", "F4", "G2"):
        t = parse_dynkin_type(text)
        got = is_finite_type(initial_matrix(t))
        if text == "C2":
            assert got == DynkinType("B", 2)
        else:
            assert got == t


def test_is_finite_type_affine_is_none():
    affine = M([[0, 2], [-2, 0]])
    assert is_finite_type(affine) is None


def test_is_finite_type_disconnected_raises():
    two_a1 = M([[0, 0], [0, 0]])
    with pytest.raises(ClusterError):
        is_finite_type(two_a1)


def test_orientation_independence_of_seed_count():
    # Two orientations of the A3 tree and of the D4 star enumerate equally.
    a3_alt = M([[0, 1, 0], [-1, 0, -1], [0, 1, 0]])
    assert len(enumerate_seeds(a3_alt, cap=100)) == 14
    d4_alt = M([[0, 1, 1, 1], [-1, 0, 0, 0], [-1, 0, 0, 0], [-1, 0, 0, 0]])
    d4_alt2 = M([[0, -1, 1, 1], [1, 0, 0, 0], [-1, 0, 0, 0], [-1, 0, 0, 0]])
    assert len(enumerate_seeds(d4_alt, cap=100)) == 50
    assert len(enumerate_seeds(d4_alt2, cap=100)) == 50


def test_canonical_form_permutation_invariant():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(2, 5)
        m = random_skew(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(m) == canonical_form(m.permuted(tuple(perm)))


def test_initial_matrix_reference_entries():
    assert initial_matrix(DynkinType("A", 2)).entries == ((0, 1), (-1, 0))
    g2 = initial_matrix(DynkinType("G", 2))
    assert g2.entries == ((0, 1), (-3, 0)) and g2.symmetrizer == (3, 1)
    b2 = initial_matrix(DynkinType("B", 2))
    assert b2.entries == ((0, 1), (-2, 0)) and b2.symmetrizer == (2, 1)
    # The symmetrizer is computed along the weighted path: d_v = d_u |b_uv| / |b_vu|.
    reference = {
        ("B", 3): (((0, 1, 0), (-1, 0, -2), (0, 1, 0)), (1, 1, 2)),
        ("B", 4): (((0, 1, 0, 0), (-1, 0, -1, 0), (0, 1, 0, 2), (0, 0, -1, 0)), (1, 1, 1, 2)),
        ("C", 3): (((0, 1, 0), (-1, 0, -1), (0, 2, 0)), (2, 2, 1)),
        ("C", 5): (
            ((0, 1, 0, 0, 0), (-1, 0, -1, 0, 0), (0, 1, 0, 1, 0), (0, 0, -1, 0, -1),
             (0, 0, 0, 2, 0)),
            (2, 2, 2, 2, 1),
        ),
        ("F", 4): (((0, 1, 0, 0), (-1, 0, -1, 0), (0, 2, 0, 1), (0, 0, -1, 0)), (2, 2, 1, 1)),
    }
    for (family, rank), (entries, symmetrizer) in reference.items():
        m = initial_matrix(DynkinType(family, rank))
        assert (m.entries, m.symmetrizer) == (entries, symmetrizer), (family, rank)


def test_classify_catalog_divide_quivers():
    from singlink.dividecatalog import CATALOG_LABELS, divide_catalog
    from singlink.divides import acampo_quiver
    from singlink.links import parse_ade_label

    for text in CATALOG_LABELS:
        label = parse_ade_label(text)
        matrix = to_exchange_matrix(acampo_quiver(divide_catalog(text)))
        expected = "A3" if text == "D3" else text
        assert str(is_finite_type(matrix)) == expected


def test_dynkin_type_table():
    with pytest.raises(LinkError):
        DynkinType("E", 9)
    with pytest.raises(LinkError):
        DynkinType("F", 5)
    with pytest.raises(LinkError):
        DynkinType("H", 3)
    assert str(DynkinType("E", 6)) == "E6"


def test_seed_counts_agree_across_quiver_sources():
    # Brick-quiver and divide-quiver matrices for one label are different
    # orientations of the same tree; their seed enumerations must agree
    # with each other and with the exponent formula.
    from singlink.bricks import brick_quiver, to_exchange_matrix
    from singlink.dividecatalog import divide_catalog
    from singlink.divides import acampo_quiver
    from singlink.links import ade_braid

    for text in ("A2", "A4", "D4", "D5", "E6"):
        expected = expected_seed_count(parse_dynkin_type(text))
        brick_matrix = to_exchange_matrix(brick_quiver(ade_braid(text)))
        divide_matrix = to_exchange_matrix(acampo_quiver(divide_catalog(text)))
        assert len(enumerate_seeds(brick_matrix, cap=1000)) == expected
        assert len(enumerate_seeds(divide_matrix, cap=1000)) == expected


def test_classification_stable_under_random_mutation():
    # Every representative of a finite-type mutation class must classify
    # to the same canonical label, including cyclic representatives.
    rng = random.Random(23)
    for text in ("A3", "A4", "D4", "D5", "B3", "C3", "F4", "G2", "E6"):
        t = parse_dynkin_type(text)
        canonical = "A3" if text == "D3" else text
        for _ in range(12):
            m = initial_matrix(t)
            for _ in range(rng.randint(1, 10)):
                m = mutate(m, rng.randint(1, m.n))
            assert str(is_finite_type(m)) == canonical, (text, m.entries)


def test_a2_pentagon_cluster_variables():
    # The five A2 cluster variables: u1, u2, (1+u2)/u1, (1+u1)/u2, and
    # (1+u1+u2)/(u1*u2).
    from singlink.exactmath import divide_exact

    seeds = enumerate_seeds(M([[0, 1], [-1, 0]]), cap=10)
    ring = seeds[0].cluster[0].ring
    u1, u2, one = ring.var("u1"), ring.var("u2"), ring.one()
    expected = {
        u1,
        u2,
        divide_exact(one + u2, u1),
        divide_exact(one + u1, u2),
        divide_exact(one + u1 + u2, u1 * u2),
    }
    seen = set()
    for seed in seeds:
        seen |= set(seed.cluster)
    assert seen == expected


# -- the Barot-Geiss-Zelevinsky classifier against the oracle ----------------------

ALL_TYPES = (
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 6)]
    + [f"C{n}" for n in range(3, 6)] + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def random_two_finite(rng, n):
    """A connected 2-finite matrix with symmetrizer entries from {1}, {1, 2} or {1, 3}."""
    weights = rng.choice([(1,), (1,), (1, 2), (1, 3)])
    while True:
        sym = [rng.choice(weights) for _ in range(n)]
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.45:
                    # d_i b_ij = -d_j b_ji with |b_ij b_ji| = max(d) / min(d).
                    s = rng.choice((1, -1))
                    rows[i][j] = s * max(1, sym[j] // sym[i])
                    rows[j][i] = -s * max(1, sym[i] // sym[j])
        component = {0}
        for _ in range(n):
            component |= {j for k in component for j in range(n) if rows[k][j]}
        if len(component) == n:
            return M(rows, sym)


def random_walk(rng, matrix, steps):
    for _ in range(steps):
        matrix = mutate(matrix, rng.randint(1, matrix.n))
    perm = list(range(matrix.n))
    rng.shuffle(perm)
    return matrix.permuted(tuple(perm))


def test_bgz_matches_oracle_on_random_two_finite_matrices():
    rng = random.Random(31)
    finite = 0
    for _ in range(380):
        matrix = random_two_finite(rng, rng.randint(2, 6))
        got = is_finite_type(matrix)
        assert got == classify_by_mutation_class(matrix), (matrix.entries, matrix.symmetrizer)
        finite += got is not None
    assert 100 < finite < 280  # both answers are well represented


@pytest.mark.parametrize("text", ALL_TYPES)
def test_bgz_names_every_type_after_random_mutations(text):
    # Rescaled symmetrizers leave the type alone; they pin the B/C naming
    # to the shape of the symmetrizer, not to its values.
    rng = random.Random(text)
    t = parse_dynkin_type(text)
    for walk in range(30):
        start = initial_matrix(t)
        scale = 1 + walk % 3
        start = M(start.entries, [scale * d for d in start.symmetrizer])
        matrix = random_walk(rng, start, rng.randint(0, 15))
        assert is_finite_type(matrix) == t, (matrix.entries, matrix.symmetrizer)
        if t.rank <= 6 and walk < 3:
            assert classify_by_mutation_class(matrix) == t


def oriented_cycle(n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][(i + 1) % n], rows[(i + 1) % n][i] = 1, -1
    return M(rows)


def test_oriented_cycles_and_long_path():
    assert is_finite_type(oriented_cycle(3)) == DynkinType("A", 3)
    for n in range(4, 41):
        assert is_finite_type(oriented_cycle(n)) == DynkinType("D", n)
    rows = [[0] * 40 for _ in range(40)]
    for i in range(39):
        rows[i][i + 1], rows[i + 1][i] = 1, -1
    assert is_finite_type(M(rows)) == DynkinType("A", 40)


def grid_of_oriented_squares(k):
    """(k+1)^2 vertices in a grid whose k^2 unit squares are all cyclically oriented."""
    side = k + 1
    rows = [[0] * side**2 for _ in range(side**2)]

    def arrow(a, b):
        rows[a][b], rows[b][a] = 1, -1

    # Square (r, c) runs clockwise when r + c is even: its top edge points
    # right and its left edge up; its neighbours run counterclockwise.
    for r in range(side):
        for c in range(side):
            here = r * side + c
            clockwise = (r + c) % 2 == 0
            if c + 1 < side:
                arrow(*((here, here + 1) if clockwise else (here + 1, here)))
            if r + 1 < side:
                arrow(*((here + side, here) if clockwise else (here, here + side)))
    return M(rows)


def tournament(n, rng):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            s = rng.choice((1, -1))
            rows[i][j], rows[j][i] = s, -s
    return M(rows)


def wheel(n):
    """A hub joined to every vertex of an oriented (n-1)-cycle, spokes alternating."""
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        j = i % (n - 1) + 1
        rows[i][j], rows[j][i] = 1, -1
        s = 1 if i % 2 else -1
        rows[0][i], rows[i][0] = s, -s
    return M(rows)


def test_grid_of_oriented_squares_has_only_oriented_squares():
    grid = grid_of_oriented_squares(10)
    b = grid.entries
    side = 11
    for r in range(10):
        for c in range(10):
            square = (r * side + c, r * side + c + 1, (r + 1) * side + c + 1, (r + 1) * side + c)
            signs = {b[x][y] > 0 for x, y in zip(square, square[1:] + square[:1])}
            assert len(signs) == 1


@pytest.mark.parametrize(
    "matrix",
    [grid_of_oriented_squares(10), tournament(30, random.Random(5)), wheel(25)],
    ids=["grid-10x10", "tournament-30", "wheel-25"],
)
def test_bgz_ends_fast_on_large_infinite_diagrams(matrix):
    started = time.perf_counter()
    assert is_finite_type(matrix) is None
    assert time.perf_counter() - started < 1.0
