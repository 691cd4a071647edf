"""Tests for augmentation equation systems and counting oracles."""

import ast
import functools
import itertools
import math
import random
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

import singlink.augment as augment
from singlink.augment import (
    DP_STATE_BUDGET,
    MAX_PINS,
    T_CONVENTIONS,
    AugmentationSystem,
    AugmentError,
    BudgetExceededError,
    _bruteforce_kernel,
    _compile_system,
    _count_by_cosets,
    _count_twisted_knot,
    _count_twisted_link,
    _torus_cells,
    augmentation_equations,
    augmentation_ring,
    braid_matrix,
    count_solutions_bruteforce,
    count_solutions_dp,
    symbolic_determinant,
    system_to_json_dict,
)
from singlink.exactmath import PolyMatrix, multilinear_polynomial, parse_polynomial
from singlink.fqmath import compile_kernel, is_prime, mask_indices
from singlink.links import (
    BraidWord,
    ade_braid,
    append_full_twist,
    braid_invariants,
    parse_ade_label,
)
from singlink.sheafmoduli import interpolate_integer_polynomial

WORKED_BETA = BraidWord(4, (2, 1, 3, 2, 1, 3, 2, 1, 3, 1, 2, 3, 1, 2, 3, 1, 2, 1, 3))

ADE_LABELS = (
    [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8"]
)


def count_by_full_matrix_dp(word: BraidWord, q: int) -> int:
    """Oracle: every z of every letter applied to every row-major state of
    M_n(F_q), q |states| work per letter; the count is the multiplicity of
    -diag(t, 1, .., 1) summed over t in F_q^*."""
    n = word.strands
    identity = tuple(1 if i == j else 0 for i in range(n) for j in range(n))
    dist = {identity: 1}
    for k in word.letters:
        ck = k - 1
        new_dist: dict[tuple[int, ...], int] = {}
        for matrix, count in dist.items():
            rows = [matrix[r * n : (r + 1) * n] for r in range(n)]
            for z in range(q):
                flat = []
                for row in rows:
                    new_row = list(row)
                    a, b = row[ck], row[ck + 1]
                    new_row[ck] = b
                    new_row[ck + 1] = (a + z * b) % q
                    flat.extend(new_row)
                key = tuple(flat)
                new_dist[key] = new_dist.get(key, 0) + count
        dist = new_dist
    total = 0
    for t_val in range(1, q):
        target = tuple(
            (-(t_val if i == 0 else 1)) % q if i == j else 0
            for i in range(n)
            for j in range(n)
        )
        total += dist.get(target, 0)
    return total


def count_by_points_and_t(system: AugmentationSystem, q: int) -> int:
    """Oracle: every (z, t) in F_q^s x F_q^* tested against every equation,
    read from its dense polynomial, with early exit; solutions are checked
    against the sign law t = (-1)^(n+s)."""
    s = len(system.word)
    compiled = [
        [(coeff, [(i, e) for i, e in enumerate(exp) if e]) for exp, coeff in p.terms.items()]
        for p in system.polynomials()
    ]
    expected_t = (-1) ** (system.strands + s) % q

    def eval_equation(eq, point) -> int:
        total = 0
        for coeff, factors in eq:
            for i, e in factors:
                coeff *= point[i] if e == 1 else pow(point[i], e, q)
            total += coeff
        return total % q

    found = 0
    for zs in itertools.product(range(q), repeat=s):
        for t_val in range(1, q):
            point = zs + (t_val,)
            if all(eval_equation(eq, point) == 0 for eq in compiled):
                if t_val != expected_t:
                    raise AugmentError(
                        f"solution with t = {t_val} violates t = (-1)^(n+s) = {expected_t}"
                    )
                found += 1
    return found


def count_by_prefixes(system: AugmentationSystem, q: int) -> int:
    """Oracle: the interpreted loop that the generated kernel of
    count_solutions_bruteforce unrolls, read from the stored term maps.
    For each prefix z', every equation is summed term by term as
    alpha + beta z_s.  z_s is solved from the first constraint with
    beta != 0 there, and runs over F_q if none has one."""
    s = len(system.word)
    expected_t = (-1) ** (system.strands + s) % q
    # Per equation and term: (coeff, prefix indices, 1 if it holds z_s);
    # z_k is bit s - k of a mask, so z_s is bit 0.
    entry, *constraints = [
        [(coeff, [s - 1 - bit for bit in range(1, s) if mask >> bit & 1], mask & 1)
         for mask, coeff in terms.items()]
        for terms in system.equations
    ]
    constraints.sort(key=len)  # short ones rule most prefixes out cheaply

    def split(terms, prefix) -> tuple[int, int]:
        # (alpha, beta mod q) of alpha + beta z_s at the prefix.
        parts = [0, 0]
        for coeff, indices, holds_zs in terms:
            for i in indices:
                coeff *= prefix[i]
            parts[holds_zs] += coeff
        return parts[0], parts[1] % q

    def check_sign_law(u: int) -> None:
        t_val = u if system.t_exponent == 1 else pow(u, -1, q)
        if t_val != expected_t:
            raise AugmentError(
                f"solution with t = {t_val} violates t = (-1)^(n+s) = {expected_t}"
            )

    found = 0
    for prefix in itertools.product(range(q), repeat=max(s - 1, 0)):
        pinned = None if s else 0
        for terms in constraints:
            alpha, beta = split(terms, prefix)
            if pinned is not None:
                if (alpha + beta * pinned) % q:
                    break
            elif beta:
                pinned = -alpha * pow(beta, -1, q) % q
            elif alpha % q:
                break
        else:
            alpha, beta = split(entry, prefix)
            for z in range(q) if pinned is None else (pinned,):
                u = -(alpha + beta * z) % q  # t^(+-1) + alpha + beta z_s = 0
                if u:
                    check_sign_law(u)
                    found += 1
    return found


def brute_count(system: AugmentationSystem, q: int, points: bool = True) -> int:
    """count_solutions_bruteforce, asserted equal to the prefix loop and,
    with ``points``, to the point oracle."""
    count = count_solutions_bruteforce(system, q)
    assert count == count_by_prefixes(system, q), q
    if points:
        assert count == count_by_points_and_t(system, q), q
    return count


def raised(count, system: AugmentationSystem, q: int) -> str:
    with pytest.raises(AugmentError) as info:
        count(system, q)
    return str(info.value)


def pk_matrix(ring, n: int, k: int, var: str) -> PolyMatrix:
    """Oracle: the n x n matrix P_k(z), the identity except for the block
    [[0, 1], [1, z]] in rows and columns k, k+1; its determinant is -1."""
    if not 1 <= k <= n - 1:
        raise AugmentError(f"generator index {k} out of range for {n} strands")
    one, zero = ring.one(), ring.zero()
    z = ring.var(var)
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            if (i, j) == (k, k + 1) or (i, j) == (k + 1, k):
                row.append(one)
            elif i == j == k + 1:
                row.append(z)
            elif i == j and i != k:
                row.append(one)
            else:
                row.append(zero)
        rows.append(row)
    return PolyMatrix(ring, rows)


def test_pk_matrix_two_strands():
    ring = augmentation_ring(1)
    m = pk_matrix(ring, 2, 1, "z1")
    z = ring.var("z1")
    assert m.entries == (
        (ring.zero(), ring.one()),
        (ring.one(), z),
    )


def test_pk_matrix_three_strands_k2():
    ring = augmentation_ring(1)
    m = pk_matrix(ring, 3, 2, "z1")
    one, zero, z = ring.one(), ring.zero(), ring.var("z1")
    assert m.entries == ((one, zero, zero), (zero, zero, one), (zero, one, z))


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (4, 2), (5, 4)])
def test_pk_matrix_determinant(n, k):
    ring = augmentation_ring(1)
    assert pk_matrix(ring, n, k, "z1").det() == -ring.one()


def test_pk_matrix_range_check():
    ring = augmentation_ring(1)
    with pytest.raises(AugmentError):
        pk_matrix(ring, 3, 3, "z1")
    with pytest.raises(AugmentError):
        pk_matrix(ring, 3, 0, "z1")


def test_unknot_system():
    system = augmentation_equations(BraidWord(1, ()))
    assert system.equations == ({0: 1},)
    ring = augmentation_ring(0)
    assert system.polynomials() == (ring.var("t") + 1,)


def test_single_letter_forces_contradiction():
    system = augmentation_equations(BraidWord(2, (1,)))
    # Entry (1, 2) of diag(t,1) + P_1(z1) is the constant 1.
    assert system.equation(1, 2) == {0: 1}
    assert count_solutions_bruteforce(system, 3) == 0
    assert count_solutions_dp(BraidWord(2, (1,)), 3) == 0


def test_trefoil_closure_system_shape():
    word = append_full_twist(BraidWord(2, (1, 1, 1)))
    system = augmentation_equations(word)
    assert len(system.equations) == 4
    assert system.variables == ("z1", "z2", "z3", "z4", "z5", "t")


def test_worked_example_structure():
    word = append_full_twist(WORKED_BETA)
    assert len(word) == 31
    system = augmentation_equations(word, t_convention="t-inverse")
    assert len(system.equations) == 16
    assert len(system.variables) == 32  # 31 z's plus t


def test_worked_example_first_equation_monomials():
    """The (1,1)-equation under t-inverse matches the published display."""
    word = append_full_twist(WORKED_BETA)
    system = augmentation_equations(word, t_convention="t-inverse")
    ring = augmentation_ring(len(word))
    display = (
        "z11 + z9*z12 + z9*z20 + z11*z18*z20 + z9*z12*z18*z20"
        " + z13*z21 + z9*z14*z21 + z11*z15*z21 + z9*z12*z15*z21"
        " + z9*z16*z23 + z11*z17*z23 + z9*z12*z17*z23 + z13*z19*z23"
        " + z9*z14*z19*z23 + z11*z15*z19*z23 + z9*z12*z15*z19*z23"
        " + z23 + t^-1"
    )
    assert system.polynomials()[0] == parse_polynomial(display, ring)


def test_t_convention_changes_only_t_entry():
    word = append_full_twist(BraidWord(2, (1, 1, 1)))
    plain = augmentation_equations(word, "t")
    inv = augmentation_equations(word, "t-inverse")
    assert plain.equations == inv.equations  # the lone t term is kept apart
    assert plain.polynomials()[1:] == inv.polynomials()[1:]
    assert plain.polynomials()[0] != inv.polynomials()[0]
    with pytest.raises(AugmentError):
        augmentation_equations(word, "bogus")


def test_unknot_counts():
    system = augmentation_equations(BraidWord(1, ()))
    for q in (2, 3, 5, 7, 11, 13):
        assert brute_count(system, q) == 1
        assert count_solutions_dp(BraidWord(1, ()), q) == 1


def test_trefoil_counts_match():
    word = append_full_twist(BraidWord(2, (1, 1, 1)))
    system = augmentation_equations(word)
    for q in (2, 3, 5):
        assert count_solutions_bruteforce(system, q) == count_solutions_dp(word, q)


def test_dp_matches_brute_on_random_words():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 3)
        s = rng.randint(0, 7) if n > 1 else 0
        letters = tuple(rng.randint(1, n - 1) for _ in range(s)) if n > 1 else ()
        word = BraidWord(n, letters)
        system = augmentation_equations(word)
        for q in (2, 3):
            assert count_solutions_bruteforce(system, q) == count_solutions_dp(word, q)


@st.composite
def counted_words(draw):
    """(word, q) with the coset DP inside its state budget and at most
    5000 brute-force prefixes, the full twist appended half the time."""
    n = draw(st.integers(1, 3))
    q = draw(st.sampled_from([2, 3] if n == 3 else [2, 3, 5, 7, 11, 13]))
    twist = n * (n - 1) if draw(st.booleans()) else 0
    s_max = 1
    while q**s_max <= 5000:
        s_max += 1
    letters = st.integers(1, max(n - 1, 1))
    size = max(s_max - twist, 0) if n > 1 else 0
    word = BraidWord(n, tuple(draw(st.lists(letters, max_size=size))))
    return (append_full_twist(word) if twist else word), q


@given(counted_words(), st.sampled_from(T_CONVENTIONS))
@settings(max_examples=100, deadline=None)
def test_bruteforce_kernel_matches_dp(case, convention):
    word, q = case
    system = augmentation_equations(word, convention)
    assert count_solutions_bruteforce(system, q) == count_solutions_dp(word, q), (word, q)


def test_determinant_identity():
    rng = random.Random(9)
    for _ in range(10):
        n = rng.randint(2, 3)
        s = rng.randint(1, 8)
        word = BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(s)))
        det = symbolic_determinant(word)
        ring = det.ring
        assert det == ring.const((-1) ** s)


def test_determinant_identity_at_points_for_long_words():
    # Symbolic determinants are checked for s <= 12; longer words are
    # checked at random finite-field points instead: evaluate all entries
    # of B at a point and take the numeric determinant.
    import random

    word = append_full_twist(WORKED_BETA)  # s = 31
    ring = augmentation_ring(len(word))
    matrix = dense_braid_matrix(ring, word)
    rng = random.Random(3)
    for q in (5, 7):
        assignment = {f"z{i}": rng.randrange(q) for i in range(1, 32)}
        assignment["t"] = 1
        point = [assignment[name] for name in ring.variables]
        rows = [
            [
                sum(
                    c * math.prod(pow(v, e, q) for v, e in zip(point, exp))
                    for exp, c in matrix[i, j].terms.items()
                ) % q
                for j in range(4)
            ]
            for i in range(4)
        ]
        det = _numeric_det(rows, q)
        assert det == (-1) ** 31 % q


def _numeric_det(rows, q):
    n = len(rows)
    rows = [row[:] for row in rows]
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] % q), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det = det * rows[col][col] % q
        inv = pow(rows[col][col], q - 2, q)
        for r in range(col + 1, n):
            factor = rows[r][col] * inv % q
            rows[r] = [(a - factor * b) % q for a, b in zip(rows[r], rows[col])]
    return det % q


def test_budget_guards():
    with pytest.raises(BudgetExceededError):
        count_solutions_dp(BraidWord(4, (1,)), 7)  # 7^16 states
    word = BraidWord(2, (1,) * 8)
    with pytest.raises(BudgetExceededError):
        count_solutions_bruteforce(augmentation_equations(word), 13)  # 13^8 points


def braid_matrix_by_matmul(ring, word):
    """The plain product P_{k_1}(z_1) ... P_{k_s}(z_s) of full matrices."""
    n = word.strands
    product = None
    for pos, k in enumerate(word.letters, start=1):
        factor = pk_matrix(ring, n, k, f"z{pos}")
        product = factor if product is None else product @ factor
    return product


def dense_braid_matrix(ring, word) -> PolyMatrix:
    """braid_matrix(word), converted entry by entry to dense polynomials."""
    s = len(word)
    return PolyMatrix(
        ring, [[multilinear_polynomial(ring, e, s) for e in row] for row in braid_matrix(word)]
    )


def test_braid_matrix_column_operations_match_matrix_products():
    rng = random.Random(13)
    words = [append_full_twist(ade_braid(parse_ade_label(label))) for label in ("A3", "D5", "E6")]
    words += [
        BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(1, 12))))
        for n in (2, 3, 4, 5)
        for _ in range(5)
    ]
    for word in words:
        ring = augmentation_ring(len(word))
        assert dense_braid_matrix(ring, word) == braid_matrix_by_matmul(ring, word), word


def test_equations_match_the_dense_construction():
    # diag(t^(+-1), 1, .., 1) + the matrix product, built on dense
    # polynomials, against the mask system converted and as printed.
    rng = random.Random(19)
    words = [append_full_twist(ade_braid(parse_ade_label(label))) for label in ("A1", "D4", "E6")]
    words += [BraidWord(1, ()), BraidWord(2, ()), BraidWord(3, (2, 2))]
    words += [
        BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 10))))
        for n in (2, 3, 4, 5)
        for _ in range(8)
    ]
    for word in words:
        n, ring = word.strands, augmentation_ring(len(word))
        product = braid_matrix_by_matmul(ring, word)
        for convention, t_power in (("t", 1), ("t-inverse", -1)):
            dense = tuple(
                (product[i, j] if product is not None else ring.const(int(i == j)))
                + (ring.var("t", t_power) if i == j == 0 else ring.const(int(i == j)))
                for i in range(n)
                for j in range(n)
            )
            system = augmentation_equations(word, convention)
            assert system.polynomials() == dense, (word, convention)
            texts = system_to_json_dict(system)["equations"]
            assert texts == [p.to_text() for p in dense], (word, convention)


def test_braid_matrix_term_budget():
    # sigma_1^s on two strands holds F(s+3) terms (Fibonacci numbers):
    # 17711 at s = 19, and 28657 at s = 20, the first power over the budget.
    matrix = braid_matrix(BraidWord(2, (1,) * 19))
    assert sum(len(matrix[i][j]) for i in range(2) for j in range(2)) == 17711
    with pytest.raises(BudgetExceededError, match="28657 terms after letter 20 of 20"):
        braid_matrix(BraidWord(2, (1,) * 20))


def test_primality_checks():
    word = BraidWord(2, (1, 1))
    system = augmentation_equations(word)
    with pytest.raises(AugmentError):
        count_solutions_bruteforce(system, 4)
    with pytest.raises(AugmentError):
        count_solutions_dp(word, 6)


def test_json_dict_roundtrip_text():
    word = append_full_twist(BraidWord(2, (1, 1, 1)))
    system = augmentation_equations(word)
    data = system_to_json_dict(system)
    assert data["strands"] == 2
    assert data["word"] == [1, 1, 1, 1, 1]
    reparsed = [parse_polynomial(text, augmentation_ring(5)) for text in data["equations"]]
    assert tuple(reparsed) == system.polynomials()


def test_worked_example_diagonal_entry_fingerprints():
    # The published display of this system also shows the (2,2) and (3,3)
    # equations; both reproduce the matrix entries exactly (71 and 164
    # monomials, every coefficient +1), with the diagonal contributing the
    # extra constant term held by the equations here.  Verified against
    # the source displays term by term; frozen as fingerprints.
    word = append_full_twist(WORKED_BETA)
    system = augmentation_equations(word, t_convention="t-inverse")
    for (i, j), n_terms in (((2, 2), 72), ((3, 3), 165)):
        eq = system.equation(i, j)
        assert len(eq) == n_terms
        assert all(c == 1 for c in eq.values())
        assert eq[0] == 1


def test_every_crossing_variable_appears():
    import random

    rng = random.Random(17)
    words = [BraidWord(2, (1, 1, 1)), BraidWord(3, (1, 2, 1, 2)), WORKED_BETA]
    for _ in range(10):
        n = rng.randint(2, 4)
        s = rng.randint(1, 8)
        words.append(BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(s))))
    for word in words:
        system = augmentation_equations(word)
        used = {i for eq in system.equations for mask in eq for i in mask_indices(mask, len(word))}
        assert set(range(len(word))) <= used


@pytest.mark.parametrize("label", ADE_LABELS)
def test_coset_dp_matches_full_matrix_dp_on_ade_links(label):
    word = append_full_twist(ade_braid(parse_ade_label(label)))
    for q in (2, 3):
        if q ** (word.strands**2) <= DP_STATE_BUDGET:
            assert count_solutions_dp(word, q) == count_by_full_matrix_dp(word, q), q


def test_coset_dp_matches_full_matrix_dp_on_two_strands_at_every_prime_to_31():
    for q in (p for p in range(2, 32) if is_prime(p)):
        for s in range(5):
            word = BraidWord(2, (1,) * s)
            assert count_solutions_dp(word, q) == count_by_full_matrix_dp(word, q), (s, q)


def test_coset_dp_matches_full_matrix_dp_on_random_words():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 3)
        s = rng.randint(0, 9) if n > 1 else 0
        word = BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(s)))
        for q in (2, 3, 5, 7) if n < 3 else (2, 3):
            assert count_solutions_dp(word, q) == count_by_full_matrix_dp(word, q), (word, q)


# The (z, t) oracle visits q^s (q - 1) points; A8 at q = 3 takes about 10 s.
ORACLE_CASES = [
    pytest.param(label, q, marks=[pytest.mark.deep] if (label, q) == ("A8", 3) else [])
    for label in ADE_LABELS
    for q in (2, 3)
    if q == 2 or q ** len(append_full_twist(ade_braid(parse_ade_label(label)))) <= 2 * 10**5
]


@pytest.mark.parametrize("label,q", ORACLE_CASES)
def test_bruteforce_matches_point_oracle_on_ade_links(label, q):
    system = augmentation_equations(append_full_twist(ade_braid(parse_ade_label(label))))
    brute_count(system, q)


# The cases within the brute-force budget that the point oracle leaves out.
@pytest.mark.parametrize("label,q", [("D4", 3), ("D5", 3)])
def test_bruteforce_matches_prefix_loop_on_ade_links(label, q):
    system = augmentation_equations(append_full_twist(ade_braid(parse_ade_label(label))))
    brute_count(system, q, points=False)


def test_bruteforce_matches_oracles_on_two_strand_powers_at_every_prime_to_13():
    # The point oracle runs where it visits at most 10^5 points (13^6 * 12
    # would take minutes); the prefix loop and the coset DP, an independent
    # count, check every case, in both t conventions up to q^s = 10^5.
    for q in (p for p in range(2, 14) if is_prime(p)):
        for s in range(7):
            word = BraidWord(2, (1,) * s)
            for convention in T_CONVENTIONS if q**s <= 10**5 else ("t",):
                system = augmentation_equations(word, convention)
                count = brute_count(system, q, points=q**s * (q - 1) <= 10**5)
                assert count == count_solutions_dp(word, q), (s, q)


def test_bruteforce_matches_point_oracle_on_random_words():
    rng = random.Random(23)
    for _ in range(48):
        n = rng.randint(1, 3)
        s = rng.randint(0, 8) if n > 1 else 0
        word = BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(s)))
        for convention in T_CONVENTIONS:
            system = augmentation_equations(word, convention)
            for q in (2, 3, 5):
                if q**s <= 2 * 10**4:
                    brute_count(system, q)


def _hand_built(word: BraidWord, texts: list[str]) -> AugmentationSystem:
    """A system from equation texts, with t as one lone term +-t^(+-1) of
    the first equation; written with -t, that equation is negated."""
    s = len(word)
    ring = augmentation_ring(s)
    equations, t_terms = [], []
    for index, text in enumerate(texts):
        terms = {}
        for exp, coeff in parse_polynomial(text, ring).terms.items():
            if exp[s]:
                t_terms.append((index, exp, coeff))
            else:
                terms[sum(1 << (s - 1 - i) for i, e in enumerate(exp[:s]) if e)] = coeff
        equations.append(terms)
    [(index, exp, t_coeff)] = t_terms
    assert index == 0 and not any(exp[:s]) and exp[s] in (1, -1) and t_coeff in (1, -1), texts
    equations[0] = {mask: t_coeff * coeff for mask, coeff in equations[0].items()}
    convention = "t" if exp[s] == 1 else "t-inverse"
    return AugmentationSystem(word.strands, word, tuple(equations), convention)


def test_bruteforce_enforces_the_sign_law():
    # n = 1, s = 0: t = 1, but the sign law asks for t = (-1)^1 = 4 at q = 5.
    system = _hand_built(BraidWord(1, ()), ["t - 1"])
    message = raised(count_solutions_bruteforce, system, 5)
    assert "violates" in message
    assert message == raised(count_by_prefixes, system, 5) == raised(count_by_points_and_t, system, 5)


def test_bruteforce_with_last_variable_left_free():
    # Unless an equation pins it, every z1 is a candidate.  With t = -z1
    # the solutions take every t in F_q^*, so only q = 2 keeps the sign law
    # t = (-1)^(n+s) = -1; with t = -1 every z1 is a solution.
    word = BraidWord(2, (1,))
    for texts, q, expected in (
        (["t + z1", "0", "0", "0"], 2, 1),
        (["t + 1", "0", "0", "0"], 2, 2),
        (["t + 1", "0", "0", "0"], 5, 5),
        (["-t - 1", "0", "0", "0"], 7, 7),
        (["t + 1 + z1", "z1", "0", "0"], 3, 1),
    ):
        assert brute_count(_hand_built(word, texts), q) == expected, (texts, q)
    # t = 1 breaks the sign law for s = 1, and t = -1 for s = 2.
    for system in (
        _hand_built(word, ["t + z1", "0", "0", "0"]),
        _hand_built(BraidWord(2, (1, 1)), ["t + z2", "0", "0", "0"]),
    ):
        for q in (3, 5):
            message = raised(count_solutions_bruteforce, system, q)
            assert "violates" in message
            assert message == raised(count_by_prefixes, system, q)


@st.composite
def short_words(draw):
    """A word on at most 5 strands with at most 12 letters, the full
    twist appended half the time."""
    n = draw(st.integers(1, 5))
    letters = st.integers(1, max(n - 1, 1))
    word = BraidWord(n, tuple(draw(st.lists(letters, max_size=12 if n > 1 else 0))))
    return append_full_twist(word) if draw(st.booleans()) else word


@given(short_words(), st.sampled_from(T_CONVENTIONS))
@settings(max_examples=200, deadline=None)
def test_a_t_free_equation_holds_the_last_variable(word, convention):
    # The last letter sigma_k puts z_s (bit 0) in column k + 1 >= 2 only.
    # So a t-free equation holds z_s and the (1,1) equation does not:
    # the brute force never meets a built system that leaves z_s free.
    system = augmentation_equations(word, convention)
    if not system.z_count:
        return
    holders = [i for i, eq in enumerate(system.equations) if any(mask & 1 for mask in eq)]
    assert holders and 0 not in holders
    assert {i % word.strands for i in holders} == {word.letters[-1]}


def test_bruteforce_with_negative_and_large_coefficients():
    # n = 2, s = 2: the sign law asks for t = 1.  The (1,1) equation is
    # t - 1 plus a multiple of another equation, so every solution obeys it.
    big = 2**64 + 13
    word = BraidWord(2, (1, 1))
    systems = [
        _hand_built(
            word,
            [f"t - 1 - {3 * big}*z1*z2 + {2 * big}*z2 - {5 * big}", "-3*z1*z2 + 2*z2 - 5", "0", "0"],
        ),
        _hand_built(word, [f"t - 1 + {big}*z1 - {big}*z1*z2", "-z1 + z1*z2", "-7*z2 + 7", "0"]),
    ]
    counts = {}
    for index, system in enumerate(systems):
        for q in (2, 3, 5, 7, 11, 13):
            counts[index, q] = brute_count(system, q)
    # At q = 5 the first system leaves z2 free at z1 = 4; at q = 7 the
    # second one does at z1 = 0.
    assert counts[0, 5] == 4 + 5 and counts[1, 7] == 6 + 7


def test_bruteforce_kernel_compiles_at_the_term_budget():
    # sigma_1^19 on two strands holds 17711 terms, the most TERM_BUDGET
    # admits there.  Its sums are emitted in nested groups: one flat sum of
    # this many terms exceeds the compiler's recursion limit.
    system = augmentation_equations(BraidWord(2, (1,) * 19))
    assert sum(map(len, system.equations)) + 1 == 17711 + 2  # and the lone t term
    assert callable(_bruteforce_kernel(*_compile_system(system), 19))


def test_bruteforce_kernel_is_compiled_once_per_system(monkeypatch):
    compiled = []

    def counting_compile(lines):
        compiled.append(lines)
        return compile_kernel(lines)

    monkeypatch.setattr(augment, "compile_kernel", counting_compile)
    _bruteforce_kernel.cache_clear()
    system = augmentation_equations(append_full_twist(ade_braid(parse_ade_label("A2"))))
    assert [count_solutions_bruteforce(system, q) for q in (2, 3, 2)] == [
        count_by_prefixes(system, q) for q in (2, 3, 2)
    ]
    assert len(compiled) == 1
    # An equal system built again hits the same kernel.
    count_solutions_bruteforce(augmentation_equations(system.word), 5)
    assert len(compiled) == 1


def test_bruteforce_pinned_coefficient_vanishing_at_some_prefixes():
    # n = 2, s = 3: z3 is the last crossing variable, and the sign law asks
    # for t = -1.  The z3-free constraint pins z2, as a + b z2 with b = z1:
    # z1*z2 - z1 leaves z2 free at z1 = 0, z1*z2 + 1 rules z1 = 0 out.
    word = BraidWord(2, (1, 1, 1))
    for texts, count in (
        (["t + 1", "z1*z2 - z1", "0", "0"], lambda q: (2 * q - 1) * q),
        (["t + 1", "z1*z2 + 1", "0", "0"], lambda q: (q - 1) * q),
        (["t + 1", "z1*z2 - z1", "z3 - z2", "0"], lambda q: 2 * q - 1),
        (["t + 1", "z1*z2 + 1", "z3*z1 - z2", "0"], lambda q: q - 1),
        # z2 + 1 holds only z2, pinned before it: it stays a test, and
        # -2 z1 = 0 at z2 = -1 leaves z1 = 0 (or both z1 at q = 2).
        (["t + 1", "z1*z2 - z1", "z1*z3 + z2*z3 - 1", "z2 + 1"], lambda q: 1),
    ):
        system = _hand_built(word, texts)
        for q in (2, 3, 5, 7):
            assert brute_count(system, q) == count(q), (texts, q)
    # t = -z3 takes every value of F_q^*, so the sign law breaks for q > 2,
    # and the message names the same first solution as the prefix loop's.
    for texts in (["t + z3", "z1*z2 - z1", "0", "0"], ["t + z3", "z1*z2 + 1", "0", "0"]):
        system = _hand_built(word, texts)
        assert brute_count(system, 2) > 0
        for q in (3, 5, 7):
            message = raised(count_solutions_bruteforce, system, q)
            assert "violates" in message
            assert message == raised(count_by_prefixes, system, q)


def test_bruteforce_z_s_solver_vanishing_at_some_prefixes():
    # n = 2, s = 3: the sign law asks for t = -1.  Two constraints hold
    # z3; the one with fewer terms, z1*z3 - z1, solves it.  At z1 = 0 it
    # vanishes, z3 runs over F_q, and z2*z3 - z1 - 1 picks z3 = 1/z2: q - 1
    # solutions.  Elsewhere z3 = 1, and z2 = z1 + 1: q - 1 more.
    word = BraidWord(2, (1, 1, 1))
    system = _hand_built(word, ["t + 1 + z1*z3 - z1", "z1*z3 - z1", "z2*z3 - z1 - 1", "0"])
    for q in (2, 3, 5, 7):
        assert brute_count(system, q) == 2 * (q - 1), q
    # t = -z3 takes every value of F_q^* at z1 = 0, so the sign law breaks
    # for q > 2.
    system = _hand_built(word, ["t + z3", "z1*z3 - z1", "z2*z3 - z1 - 1", "0"])
    assert brute_count(system, 2) == 2
    for q in (3, 5, 7):
        assert "violates" in raised(count_solutions_bruteforce, system, q)
        assert "violates" in raised(count_by_prefixes, system, q)


def kernel_source(monkeypatch, word: BraidWord, q: int = 2) -> list[str]:
    """The source lines of the brute-force kernel compiled for ``word``."""
    compiled = []

    def recording_compile(lines):
        compiled.append(lines)
        return compile_kernel(lines)

    monkeypatch.setattr(augment, "compile_kernel", recording_compile)
    _bruteforce_kernel.cache_clear()
    count = count_solutions_bruteforce(augmentation_equations(word), q, budget=10**17)
    assert count == count_solutions_dp(word, q), word
    [lines] = compiled
    return lines


def free_loop_variables(lines: list[str]) -> int:
    """The prefix variables the kernel enumerates: those of its product
    loop and of the inner loops over all of F_q, not the pinned ones."""
    [loop] = [line for line in lines if " in product(" in line]
    inner = [line for line in lines if re.fullmatch(r"\s*for z\d+ in values:", line)]
    return int(loop.split("repeat=")[1].rstrip("):")) + len(inner)


def test_pins_shorten_the_prefix_loop(monkeypatch):
    # On two strands the (2,1) entry is the one z_s-free constraint.
    for s in range(3, 12):
        lines = kernel_source(monkeypatch, append_full_twist(BraidWord(2, (1,) * (s - 2))))
        assert free_loop_variables(lines) == s - 2, s
    for label in ADE_LABELS:
        word = append_full_twist(ade_braid(parse_ade_label(label)))
        assert free_loop_variables(kernel_source(monkeypatch, word)) < len(word) - 1, label


def loop_depth(lines: list[str]) -> int:
    """The deepest nesting of ``for`` statements in the kernel source,
    read with ``ast``: CPython 3.10 to 3.12 compile at most 20, while
    3.13 compiles 21, so compiling the kernel would not show it."""

    def depth(node) -> int:
        below = max((depth(child) for child in ast.iter_child_nodes(node)), default=0)
        return below + isinstance(node, ast.For)

    return depth(ast.parse("\n".join(lines)))


def test_pins_stay_within_the_nesting_cap(monkeypatch):
    # The full twist on 6 strands, s = 30, offers more z_s-free constraints
    # to pin than CPython can nest loops for: the product loop, the pins,
    # the inner loops and z_s's loop nest at most 20 deep.  kernel_source
    # checks the count against the DP at q = 2 and 3.
    word = append_full_twist(BraidWord(6, ()))
    assert len(word) == 30
    for q in (2, 3):
        lines = kernel_source(monkeypatch, word, q)
    assert loop_depth(lines) == 2 + MAX_PINS == 20


@st.composite
def prefix_loop_words(draw):
    """(word, q) on at most 4 strands with at most 2000 prefixes, so that
    the interpreted prefix loop stays quick; the full twist half the time."""
    n = draw(st.integers(1, 4))
    q = draw(st.sampled_from([2, 3, 5, 7]))
    twist = n * (n - 1) if draw(st.booleans()) else 0
    s_max = 1
    while q**s_max <= 2000:
        s_max += 1
    if twist > s_max:
        twist = 0
    letters = st.integers(1, max(n - 1, 1))
    size = s_max - twist if n > 1 else 0
    word = BraidWord(n, tuple(draw(st.lists(letters, max_size=size))))
    return (append_full_twist(word) if twist else word), q


@given(prefix_loop_words(), st.sampled_from(T_CONVENTIONS))
@settings(max_examples=60, deadline=None)
def test_hoisted_kernel_matches_the_prefix_loop(case, convention):
    word, q = case
    system = augmentation_equations(word, convention)
    assert count_solutions_bruteforce(system, q) == count_by_prefixes(system, q), (word, q)


def test_hoisted_coefficients_vanishing_at_some_outer_prefixes(monkeypatch):
    # n = 3, s = 8: the sign law asks for t = -1, and each (1,1) equation
    # is t + 1 plus a multiple of the other equations.  In the first
    # system z5, z3 and z6 are pinned, z1 is the one outer variable and
    # z2, z4, z7 are inner.  The hoisted coefficients -z1, z1 and z1 - 1
    # vanish at some outer prefixes: the pin of z3 (a = -z1, b = z1) then
    # takes all of F_q, the pin of z6 (a = 0, b = (z1 - 1) z4) does so
    # at z1 = 1, and the test z1 z2 z4 - z1 z4, whose variables are all
    # pinned or blocked, passes at z1 = 0 for every inner value.
    word = BraidWord(3, (1,) * 8)
    for texts in (
        ["t + 1 + z1*z3*z8 - z1*z8", "z2*z5 - z1", "z1*z3 - z1", "z1*z4*z6 - z4*z6",
         "z1*z2*z4 - z1*z4", "z2*z8 - z2*z7", "0", "0", "0"],
        ["t + 1", "z1*z4 - z1", "z1*z2*z7 + z1*z7 - z1", "0", "0", "0", "0", "0", "0"],
        ["t + 1 + z1*z7*z8 - z7*z8 + z1*z2 - z2", "z1*z7*z8 - z7*z8 + z1*z2 - z2", "0", "0",
         "0", "0", "0", "0", "0"],
    ):
        system = _hand_built(word, texts)
        compiled = []

        def recording_compile(lines):
            compiled.append(lines)
            return compile_kernel(lines)

        monkeypatch.setattr(augment, "compile_kernel", recording_compile)
        _bruteforce_kernel.cache_clear()
        for q in (2, 3, 5):
            brute_count(system, q, points=q < 5)
        [lines] = compiled
        # The kernel holds inner loops and the coefficients hoisted out of them.
        assert any(re.fullmatch(r"\s*for z\d+ in values:", line) for line in lines), texts
        assert any(re.fullmatch(r"\s*c\d+ = .*", line) for line in lines), texts


def test_free_variables_past_the_nesting_cap(monkeypatch):
    # beta = sigma_4^2 on five strands with the full twist: s = 22, with 16
    # pins and 5 free prefix variables.  The pins and z_s leave room for
    # only 2 of the inner loops, and the other 3 free variables stay in
    # the product: 1 + 16 + 2 + 1 = 20 loops deep.
    word = append_full_twist(BraidWord(5, (4, 4)))
    assert len(word) == 22
    for q in (2, 3, 5):
        lines = kernel_source(monkeypatch, word, q)
    inner = [line for line in lines if re.fullmatch(r"\s*for z\d+ in values:", line)]
    assert loop_depth(lines) == 2 + MAX_PINS and len(inner) == 2
    assert free_loop_variables(lines) == 5


@pytest.mark.parametrize("label,q,expected", [("D4", 5, 676), ("E6", 3, 847)])
def test_bruteforce_matches_dp_past_the_default_budget(label, q, expected):
    # D4 at q = 5 is 5^11 prefixes without pins, about 11 s before them.
    word = append_full_twist(ade_braid(parse_ade_label(label)))
    count = count_solutions_bruteforce(augmentation_equations(word), q, budget=10**12)
    assert count == count_solutions_dp(word, q) == expected


# -- the Bruhat-cell count of twisted knots ---------------------------------------

PRIMES_TO_31 = [p for p in range(2, 32) if is_prime(p)]

# Shared by the tests below: the coset DP on two strands at q = 31 takes
# about a second.
coset_count = functools.lru_cache(maxsize=None)(_count_by_cosets)


def is_knot(word: BraidWord) -> bool:
    return braid_invariants(word).components == 1


def _identity_cell_count(word: BraidWord, q: int) -> int:
    """Oracle: D_e = #{z in F_q^s : B(word)(z) is upper triangular}.

    Write P_k(z) = s_k x_k(z) with x_k(z) upper unipotent, and track the
    Bruhat cell B w B of the partial product as a permutation w of S_n in
    one-line notation, from the identity.  Right multiplication by P_k(z)
    sends B w B into B w s_k B for all q values of z when w s_k > w
    (w[k-1] < w[k]); otherwise 1 value of z goes to B w s_k B and q - 1
    values stay in B w B (Deodhar 1985).
    """
    n = word.strands
    cells = {tuple(range(n)): 1}
    for k in word.letters:
        moved: dict[tuple[int, ...], int] = {}
        for w, count in cells.items():
            ws = w[: k - 1] + (w[k], w[k - 1]) + w[k + 1 :]
            if w[k - 1] < w[k]:
                moved[ws] = moved.get(ws, 0) + q * count
            else:
                moved[ws] = moved.get(ws, 0) + count
                moved[w] = moved.get(w, 0) + (q - 1) * count
        cells = moved
    return cells.get(tuple(range(n)), 0)


KNOT_LABELS = [
    label
    for label in ADE_LABELS
    if is_knot(append_full_twist(ade_braid(parse_ade_label(label))))
]


def test_knot_labels():
    assert KNOT_LABELS == ["A2", "A4", "A6", "A8", "E6", "E8"]


@pytest.mark.parametrize("label", KNOT_LABELS)
def test_twisted_knot_count_matches_cosets_on_ade_knots(label):
    word = append_full_twist(ade_braid(parse_ade_label(label)))
    for q in PRIMES_TO_31:
        if q ** (word.strands**2) <= DP_STATE_BUDGET:
            assert count_solutions_dp(word, q) == coset_count(word, q), q


@pytest.mark.parametrize("s", range(1, 16, 2))
def test_twisted_knot_count_matches_cosets_on_two_strand_powers(s):
    # sigma_1^s ends with Delta^2 = sigma_1^2 from s = 2 on; s = 1 takes
    # the coset DP.
    word = BraidWord(2, (1,) * s)
    for q in PRIMES_TO_31:
        assert count_solutions_dp(word, q) == coset_count(word, q), q


def test_twisted_knot_count_matches_cosets_on_random_knots():
    rng = random.Random(31)
    knots = 0
    while knots < 300:
        n = rng.randint(1, 3)
        s = rng.randint(0, 6) if n > 1 else 0
        beta = BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(s)))
        word = append_full_twist(beta)
        if not is_knot(word):
            continue
        knots += 1
        for q in (2, 3) if n == 3 else (2, 3, 5):
            assert count_solutions_dp(word, q) == _count_by_cosets(word, q), (word, q)


def test_twisted_knot_count_times_its_divisor_is_the_identity_cell_count():
    # The walk over beta from w0 against the walk over beta Delta^2 from
    # the identity: aug (q-1)^(n-1) q^N = D_e, with N = n(n-1)/2, on the
    # unknot (the one knot on one strand) and 300 knots on 2-5 strands.
    rng = random.Random(53)
    knots = {BraidWord(1, ())}
    while len(knots) <= 300:
        n = rng.randint(2, 5)
        beta = BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(n - 1, 3 * n))))
        if is_knot(append_full_twist(beta)):
            knots.add(beta)
    for beta in knots:
        n, word = beta.strands, append_full_twist(beta)
        for q in (2, 3, 5, 7):
            divisor = (q - 1) ** (n - 1) * q ** (n * (n - 1) // 2)
            assert count_solutions_dp(word, q) * divisor == _identity_cell_count(word, q), (
                word,
                q,
            )


def test_identity_cell_count_matches_full_matrix_dp():
    # D_e counts the z with B(z) upper triangular, for every word.
    rng = random.Random(37)
    for _ in range(20):
        n = rng.randint(2, 3)
        word = BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 6))))
        for q in (2, 3):
            upper = 0
            for zs in itertools.product(range(q), repeat=len(word)):
                columns = [[int(i == j) for i in range(n)] for j in range(n)]
                for k, z in zip(word.letters, zs):
                    a, b = columns[k - 1], columns[k]
                    columns[k - 1], columns[k] = b, [(x + z * y) % q for x, y in zip(a, b)]
                upper += all(columns[j][i] == 0 for j in range(n) for i in range(j + 1, n))
            assert _identity_cell_count(word, q) == upper, (word, q)


def test_untwisted_knot_takes_the_coset_dp():
    # A knot without the Delta^2 suffix: D_e = 20 at q = 2 is not divisible
    # by (q-1)^2 q^3 = 8, so the twisted-knot formula does not apply.
    word = BraidWord(3, (2, 1, 1, 1, 1, 1, 2, 2))
    assert is_knot(word)
    assert _identity_cell_count(word, 2) == 20
    assert count_solutions_dp(word, 2) == _count_by_cosets(word, 2)
    assert count_solutions_dp(word, 2) == count_by_full_matrix_dp(word, 2)


def test_twisted_knot_count_at_large_primes():
    # The count of sigma_1^11 (A8 with its full twist) is a polynomial in q
    # of degree at most 11 - 2 = 9: interpolate it from the coset DP at the
    # ten primes up to 29, confirm it at 31 and evaluate it at 10^9 + 7.
    word = append_full_twist(ade_braid(parse_ade_label("A8")))
    points = [(q, coset_count(word, q)) for q in PRIMES_TO_31[:10]]
    coeffs = interpolate_integer_polynomial(points)
    assert coeffs is not None

    def poly(q):
        return sum(int(c) * q**i for i, c in enumerate(coeffs))

    assert count_solutions_dp(word, 31) == poly(31) == 853779465605
    q = 10**9 + 7
    started = time.perf_counter()
    assert count_solutions_dp(word, q) == poly(q)
    assert time.perf_counter() - started < 1.0


def test_twisted_knot_count_is_not_bounded_by_the_coset_budget():
    # E8 at q = 101: the coset DP would need 101^9 states.  The count is
    # recorded from the Bruhat-cell recursion, as a regression value.
    word = append_full_twist(ade_braid(parse_ade_label("E8")))
    with pytest.raises(BudgetExceededError):
        _count_by_cosets(word, 101)
    assert count_solutions_dp(word, 101) == 10829639191632807


def test_twisted_knot_state_budget():
    # sigma_1 .. sigma_9 closes to a knot on 10 strands; 10! = 3628800
    # Bruhat cells exceed the state budget.
    word = append_full_twist(BraidWord(10, tuple(range(1, 10))))
    assert is_knot(word)
    with pytest.raises(BudgetExceededError, match="10!"):
        count_solutions_dp(word, 2)


# -- the Bruhat-cell x torus count of twisted links -------------------------------

LINK_LABELS = [label for label in ADE_LABELS if label not in KNOT_LABELS]


def random_words(seed: int, count: int, strands: tuple[int, int], letters: int):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(*strands)
        yield BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, letters))))


def test_link_labels():
    assert LINK_LABELS == ["A1", "A3", "A5", "A7", "D4", "D5", "D6", "D7", "D8", "E7"]


@pytest.mark.parametrize("label", LINK_LABELS)
def test_twisted_link_count_matches_cosets_on_ade_links(label):
    # Every prime the coset budget admits for A1 and up to 13 for the other
    # two-strand labels; q = 3 on three strands is left to the full matrix
    # DP test above.
    beta = ade_braid(parse_ade_label(label))
    word = append_full_twist(beta)
    for q in PRIMES_TO_31 if label == "A1" else PRIMES_TO_31[:6]:
        if q ** (word.strands**2) <= DP_STATE_BUDGET and (word.strands, q) != (3, 3):
            assert _count_twisted_link(beta, q) == coset_count(word, q), q


def test_twisted_link_count_matches_cosets_on_random_links():
    # q <= 7 on two strands, every prime the coset budget admits on three
    # (q <= 3) and on four (q = 2).
    links = {2: 0, 3: 0, 4: 0}
    for beta in [*random_words(41, 24, (2, 3), 5), *random_words(47, 5, (4, 4), 2)]:
        word = append_full_twist(beta)
        if is_knot(word):
            continue
        links[word.strands] += 1
        for q in PRIMES_TO_31[: {2: 4, 3: 2, 4: 1}[word.strands]]:
            assert count_solutions_dp(word, q) == _count_by_cosets(word, q), (word, q)
    assert min(links.values()) >= 3, links


def test_twisted_link_count_matches_bruteforce_on_ade_links():
    # The cases within 10^6 brute-force work units, a hundredth of its
    # budget, to keep the test short.
    compared = 0
    for label in LINK_LABELS:
        beta = ade_braid(parse_ade_label(label))
        word = append_full_twist(beta)
        system = augmentation_equations(word)
        terms = sum(map(len, system.equations)) + 1  # and the lone t term
        for q in (2, 3, 5):
            if q ** (len(word) - 1) * terms <= 10**6:
                compared += 1
                assert count_solutions_bruteforce(system, q) == _count_twisted_link(beta, q), (
                    label,
                    q,
                )
    assert compared == 11


def test_twisted_link_count_equals_knot_formula_on_knots():
    for label in KNOT_LABELS:
        beta = ade_braid(parse_ade_label(label))
        for q in (2, 3, 5, 7, 11, 13):
            assert _count_twisted_link(beta, q) == _count_twisted_knot(beta, q), (label, q)


def test_torus_cells_at_w0_sum_to_the_bruhat_cell_count():
    # Summed over t, the cell w0 of beta holds the z of beta Delta^2 with
    # B(z) diagonal: D_e / q^N, for every word beta.
    for beta in random_words(43, 200, (2, 4), 6):
        n = beta.strands
        w0 = tuple(range(n - 1, -1, -1))
        for q in (2, 3, 5):
            diagonal = sum(_torus_cells(beta, q).get(w0, {}).values())
            cells = _identity_cell_count(append_full_twist(beta), q)
            assert diagonal * q ** (n * (n - 1) // 2) == cells, (beta, q)


def test_twisted_link_state_budget_boundary():
    # n! (q-1)^(n-1) q <= 10^6: 2 x 700 x 701 on two strands, while 709
    # gives 2 x 708 x 709.  A1 counts q - 1 at every odd prime (checked
    # against the coset DP up to 31 above).
    word = append_full_twist(ade_braid(parse_ade_label("A1")))
    for q in PRIMES_TO_31[1:] + [701]:
        assert count_solutions_dp(word, q) == q - 1, q
    with pytest.raises(BudgetExceededError, match="2! x 708\\^1 x 709 exceeds the DP state budget"):
        count_solutions_dp(word, 709)
    # On three strands 3! x 52^2 x 53 fits and 3! x 58^2 x 59 does not; the
    # D4 count at 53 is a regression value.
    word = append_full_twist(ade_braid(parse_ade_label("D4")))
    assert count_solutions_dp(word, 53) == 8030932
    with pytest.raises(BudgetExceededError, match="DP state budget"):
        count_solutions_dp(word, 59)
