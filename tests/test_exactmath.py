"""Tests for the exact polynomial substrate."""

import heapq
import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import singlink.exactmath as exactmath
from singlink.exactmath import (
    DivisionError,
    PolyMatrix,
    Polynomial,
    PolynomialParseError,
    RingDescriptor,
    RingMismatchError,
    SubstitutionError,
    divide_exact,
    multilinear_polynomial,
    parse_polynomial,
)
from singlink.fqmath import (
    INVERSE_CACHE,
    MR_EXACT_BOUND,
    ExactMathError,
    Inverses,
    PrimalityBoundError,
    compile_kernel,
    hoisted_loops,
    is_prime,
    mask_indices,
    multilinear_product,
    multilinear_text,
)

XY = RingDescriptor(("x", "y"))
X = RingDescriptor(("x",))


def test_additive_inverse_cancels():
    x = XY.var("x")
    assert (x + (-x)).is_zero()


def test_difference_of_squares():
    x = X.var("x")
    assert (x + 1) * (x - 1) == x * x - 1


def test_ring_mismatch_rejected():
    with pytest.raises(RingMismatchError):
        XY.var("x") + X.var("x")


def test_substitute_theta_boundary_equation():
    # substitute(1 + x2*a2 + a1, x2, -1 - x1*a1) = -x1*a1*a2 - a2 + a1 + 1
    ring = RingDescriptor(("x1", "x2", "a1", "a2"))
    x1, x2, a1, a2 = (ring.var(v) for v in ("x1", "x2", "a1", "a2"))
    p = ring.one() + x2 * a2 + a1
    result = p.substitute("x2", -ring.one() - x1 * a1)
    assert result == -(x1 * a1 * a2) - a2 + a1 + 1


def test_substitute_identity_and_annihilation():
    x = X.var("x")
    assert x.substitute("x", x) == x
    assert (x * x).substitute("x", X.zero()).is_zero()


def test_substitute_is_ring_homomorphism():
    ring = RingDescriptor(("x", "y", "z"))
    x, y, z = ring.var("x"), ring.var("y"), ring.var("z")
    a = x * y + z - 2
    b = y * y - x + 1
    r = z * z - y
    assert (a + b).substitute("y", r) == a.substitute("y", r) + b.substitute("y", r)
    assert (a * b).substitute("y", r) == a.substitute("y", r) * b.substitute("y", r)


def test_substitute_rejects_negative_laurent_exponent():
    ring = RingDescriptor(("t", "z"), laurent=frozenset({"t"}))
    p = ring.var("t", -1) + ring.var("z")
    with pytest.raises(SubstitutionError):
        p.substitute("t", ring.one())
    # Positive occurrences only: substitution is allowed even on the
    # Laurent-flagged variable.
    q = ring.var("t") + ring.var("z")
    assert q.substitute("t", ring.zero()) == ring.var("z")


def test_to_text_examples():
    assert X.zero().to_text() == "0"
    x = X.var("x")
    assert (x * x - 1).to_text() == "x^2 - 1"
    ring = RingDescriptor(tuple(f"z{i}" for i in range(1, 14)))
    p = ring.var("z11") + ring.var("z9") * ring.var("z12")
    # Graded lex puts the quadratic term first.
    assert p.to_text() == "z9*z12 + z11"
    assert parse_polynomial(p.to_text(), ring) == p


def test_text_negative_exponent_roundtrip():
    ring = RingDescriptor(("t",), laurent=frozenset({"t"}))
    p = ring.var("t", -1) + 1
    assert p.to_text() == "1 + t^-1"
    assert parse_polynomial(p.to_text(), ring) == p


def test_parse_rejects_bad_input():
    with pytest.raises(PolynomialParseError):
        parse_polynomial("x +", X)
    with pytest.raises(ExactMathError):
        parse_polynomial("w", X)
    with pytest.raises(PolynomialParseError):
        parse_polynomial("x^-1", X)


def test_parse_coefficients_and_signs():
    p = parse_polynomial("-2*x^2 + x - 7", X)
    x = X.var("x")
    assert p == -2 * x * x + x - 7
    assert parse_polynomial("- -3*x", X) == 3 * x


def test_ring_descriptor_validation():
    with pytest.raises(ExactMathError):
        RingDescriptor(("x", "x"))
    with pytest.raises(ExactMathError):
        RingDescriptor(("1x",))
    with pytest.raises(ExactMathError):
        RingDescriptor(("x",), laurent=frozenset({"y"}))
    with pytest.raises(ExactMathError):
        Polynomial(RingDescriptor(("x",)), {(-1,): 1})
    # Coefficients are integers: other values are rejected, not truncated.
    with pytest.raises(ExactMathError):
        X.const(1.5)
    with pytest.raises(ExactMathError):
        Polynomial(X, {(1,): 2.9})
    with pytest.raises(PolynomialParseError):
        parse_polynomial("1/2*x", X)


# -- property tests ---------------------------------------------------------

def polys(ring, max_terms=5, coeff_range=8, max_exp=4):
    exps = st.tuples(*(st.integers(0, max_exp) for _ in range(ring.nvars)))
    coeffs = st.integers(-coeff_range, coeff_range)
    return st.dictionaries(exps, coeffs, max_size=max_terms).map(
        lambda d: Polynomial(ring, d)
    )


RING3 = RingDescriptor(("x", "y", "z"))


@given(polys(RING3), polys(RING3), polys(RING3))
def test_ring_axioms_integers(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(polys(RING3))
def test_text_roundtrip(p):
    assert parse_polynomial(p.to_text(), RING3) == p
    # Terms print in descending graded lex, led by the leading term.
    order = sorted(p.terms, key=_grlex_key_oracle)
    texts = [Polynomial(RING3, {exp: p.terms[exp]}).to_text() for exp in order]
    signed = [f"- {t[1:]}" if t.startswith("-") else f"+ {t}" for t in texts[1:]]
    assert p.to_text() == " ".join(texts[:1] + signed or ["0"])
    if order:
        assert p.leading_term() == (order[0], p.terms[order[0]])


@given(polys(RING3, max_terms=4, max_exp=3), polys(RING3, max_terms=4, max_exp=3))
@settings(max_examples=60)
def test_evaluation_commutes_with_product(a, b):
    q = 7
    point = (2, 5, 3)
    lhs = _evaluate_mod(a * b, point, q)
    rhs = _evaluate_mod(a, point, q) * _evaluate_mod(b, point, q) % q
    assert lhs == rhs


def _evaluate_mod(p, point, q):
    """The value of p in F_q at ``point``, one value per ring variable."""
    return sum(
        c * math.prod(pow(v, e, q) for v, e in zip(point, exp)) for exp, c in p.terms.items()
    ) % q


@given(polys(RING3, max_terms=4, max_exp=3), polys(RING3, max_terms=4, max_exp=3))
@settings(max_examples=60)
def test_exact_division_roundtrip(a, b):
    if b.is_zero():
        with pytest.raises(DivisionError):
            divide_exact(a, b)
    else:
        assert divide_exact(a * b, b) == a


def test_divide_exact_laurent_shift():
    ring = RingDescriptor(("u", "v"), laurent=frozenset({"u", "v"}))
    u, v = ring.var("u"), ring.var("v")
    num = ring.var("u", -1) + v
    q = divide_exact(num * u * v, u * v)
    assert q == num


def test_divide_exact_inexact_raises():
    x = X.var("x")
    with pytest.raises(DivisionError):
        divide_exact(x * x + 1, x + 1)
    with pytest.raises(DivisionError):
        divide_exact(x + x + 1, 2 * x)  # 2x+1 not divisible by 2x over Z


# -- oracles: the tuple-based kernels the packed ones replaced -----------------


def _grlex_key_oracle(exp):
    return (-sum(exp), tuple(-e for e in exp))


def product_oracle(a, b):
    """Schoolbook product over exponent tuples."""
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            exp = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(exp, 0) + c1 * c2
            if s == 0:
                out.pop(exp, None)
            else:
                out[exp] = s
    return Polynomial(a.ring, out)


def divide_oracle(num, den):
    """Leading-term division over exponent tuples, after the monomial shift."""
    if den.is_zero():
        raise DivisionError("division by zero polynomial")
    if num.is_zero():
        return num

    def min_exps(p):
        it = iter(p.terms)
        mins = list(next(it))
        for exp in it:
            for i, e in enumerate(exp):
                if e < mins[i]:
                    mins[i] = e
        return tuple(mins)

    num_shift = min_exps(num)
    den_shift = min_exps(den)
    work = {tuple(e - s for e, s in zip(exp, num_shift)): c for exp, c in num.terms.items()}
    dterms = {tuple(e - s for e, s in zip(exp, den_shift)): c for exp, c in den.terms.items()}
    dlead = min(dterms, key=_grlex_key_oracle)
    dlead_coeff = dterms[dlead]
    quotient = {}
    heap = [(_grlex_key_oracle(exp), exp) for exp in work]
    heapq.heapify(heap)
    while work:
        while True:
            _, wlead = heap[0]
            if wlead in work:
                break
            heapq.heappop(heap)
        wc = work[wlead]
        qexp = tuple(a - b for a, b in zip(wlead, dlead))
        if any(e < 0 for e in qexp):
            raise DivisionError("inexact polynomial division (monomial mismatch)")
        if wc % dlead_coeff != 0:
            raise DivisionError("inexact polynomial division (coefficient mismatch)")
        qc = wc // dlead_coeff
        quotient[qexp] = qc
        for dexp, dc in dterms.items():
            exp = tuple(a + b for a, b in zip(qexp, dexp))
            old = work.get(exp)
            s = (0 if old is None else old) - qc * dc
            if s == 0:
                work.pop(exp, None)
            else:
                if old is None:
                    heapq.heappush(heap, (_grlex_key_oracle(exp), exp))
                work[exp] = s
    shift = tuple(a - b for a, b in zip(num_shift, den_shift))
    result = {tuple(a + b for a, b in zip(exp, shift)): c for exp, c in quotient.items()}
    try:
        return Polynomial(num.ring, result)
    except ExactMathError as exc:
        raise DivisionError(f"quotient leaves the ring: {exc}") from None


def _outcome(divide, num, den):
    try:
        return divide(num, den)
    except DivisionError:
        return DivisionError


# Rings of 1 to 8 variables; in the second of each pair only even-indexed
# variables are Laurent, so a quotient can leave the ring.
LAURENT_RINGS = [
    RingDescriptor(tuple(f"u{i}" for i in range(n)), laurent=frozenset(laurent))
    for n in range(1, 9)
    for laurent in ({f"u{i}" for i in range(n)}, {f"u{i}" for i in range(0, n, 2)})
]


def laurent_polys(ring, min_terms=0, max_terms=5, max_exp=3, coeff_range=6):
    exps = st.tuples(*(
        st.integers(-max_exp if name in ring.laurent else 0, max_exp)
        for name in ring.variables
    ))
    coeffs = st.integers(-coeff_range, coeff_range).filter(bool)
    return st.dictionaries(exps, coeffs, min_size=min_terms, max_size=max_terms).map(
        lambda d: Polynomial(ring, d)
    )


@st.composite
def laurent_pairs(draw, rings=LAURENT_RINGS, **kwargs):
    ring = draw(st.sampled_from(rings))
    return draw(laurent_polys(ring, **kwargs)), draw(laurent_polys(ring, **kwargs))


@given(laurent_pairs())
@settings(max_examples=200)
def test_products_match_the_schoolbook_oracle(pair):
    a, b = pair
    assert a * b == product_oracle(a, b)


@given(laurent_pairs())
@settings(max_examples=200)
def test_division_of_a_product_returns_the_factor(pair):
    a, b = pair
    if b.is_zero():
        return
    assert divide_exact(a * b, b) == a == divide_oracle(a * b, b)


@given(laurent_pairs())
@settings(max_examples=300)
def test_division_matches_the_oracle_on_any_input(pair):
    # Most random pairs are inexact: both raise DivisionError, or both
    # return the same quotient.
    a, b = pair
    assert _outcome(divide_exact, a, b) == _outcome(divide_oracle, a, b)


def packed_divide(num, den):
    """:func:`divide_exact` through the packed path, whatever the divisor."""
    if num.is_zero():
        return num
    quotient = exactmath._packed_quotient(num, den)
    try:
        return Polynomial(num.ring, quotient)
    except ExactMathError:
        raise DivisionError("quotient leaves the ring") from None


@st.composite
def laurent_monomial_pairs(draw):
    """A Laurent polynomial and a one-term divisor c*x^e of its ring."""
    ring = draw(st.sampled_from(LAURENT_RINGS))
    return draw(laurent_polys(ring)), draw(laurent_polys(ring, min_terms=1, max_terms=1))


@given(laurent_monomial_pairs())
@settings(max_examples=300)
def test_one_term_division_matches_the_packed_path(pair):
    a, monomial = pair
    assert divide_exact(a * monomial, monomial) == a == packed_divide(a * monomial, monomial)
    # Inexact coefficients and quotients that leave the ring raise on both.
    assert _outcome(divide_exact, a, monomial) == _outcome(packed_divide, a, monomial)


def test_one_term_division_skips_the_packed_path(monkeypatch):
    def refuse(num, den):
        raise AssertionError("a one-term divisor took the packed path")

    ring = RingDescriptor(("x", "y"), laurent=frozenset({"x", "y"}))
    num, den = parse_polynomial("6*x^2*y - 4*y^-1", ring), parse_polynomial("-2*x*y^3", ring)
    monkeypatch.setattr(exactmath, "_packed_quotient", refuse)
    assert divide_exact(num, den) == parse_polynomial("-3*x*y^-2 + 2*x^-1*y^-4", ring)
    for divisor in ("4*x", "3"):
        with pytest.raises(DivisionError, match="coefficient mismatch"):
            divide_exact(num, parse_polynomial(divisor, ring))
    monkeypatch.undo()
    for divisor in ("4*x", "3"):
        with pytest.raises(DivisionError, match="coefficient mismatch"):
            packed_divide(num, parse_polynomial(divisor, ring))


@pytest.mark.parametrize(
    "num,den",
    [
        # y falls short of the divisor's leading x*y while the degree fits.
        ("x^2 + y^2", "x*y + 1"),
        # x, the most significant field, falls short: a borrow from it
        # would reach the total-degree field.
        ("y^2 + x", "x*y + 1"),
        ("z^3 + x*y", "x*z^2 + y"),
        # Coefficient mismatch, and a quotient that leaves the ring.
        ("3*x + 1", "2*x + 1"),
        ("1", "y"),
    ],
)
def test_inexact_division_raises_in_both_implementations(num, den):
    ring = RingDescriptor(("x", "y", "z"), laurent=frozenset({"x"}))
    num, den = parse_polynomial(num, ring), parse_polynomial(den, ring)
    for divide in (divide_exact, divide_oracle):
        with pytest.raises(DivisionError):
            divide(num, den)


# -- matrices ----------------------------------------------------------------

def test_matrix_product_and_det():
    ring = RingDescriptor(("z",))
    z = ring.var("z")
    one, zero = ring.one(), ring.zero()
    m = PolyMatrix(ring, [[zero, one], [one, z]])
    ident = PolyMatrix(ring, [[one, zero], [zero, one]])
    assert (m @ ident) == m
    assert m.det() == -one
    prod = m @ m
    assert prod[0, 0] == one
    assert prod[1, 1] == z * z + 1


def test_matrix_validation():
    ring = RingDescriptor(("z",))
    with pytest.raises(ExactMathError):
        PolyMatrix(ring, [[ring.one()], [ring.one(), ring.zero()]])
    with pytest.raises(ExactMathError):
        PolyMatrix(ring, [[ring.one()]]).det() and None
        PolyMatrix(ring, [[ring.one(), ring.zero()]]).det()


def _is_prime_by_trial_division(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division_below_2e5():
    for n in range(-3, 200_000):
        assert is_prime(n) == _is_prime_by_trial_division(n), n


def test_is_prime_large_cases():
    # Strong pseudoprimes to bases 2, 3, 5, 7 and to bases 2..37.
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(2**61 - 1)
    assert is_prime(10**18 + 3)
    assert not is_prime((10**9 + 7) * (10**9 + 9))


def test_is_prime_rejects_numbers_past_its_bound():
    # The bound is the least strong pseudoprime to all thirteen bases.
    with pytest.raises(PrimalityBoundError):
        is_prime(MR_EXACT_BOUND)
    assert issubclass(PrimalityBoundError, ValueError)
    # Multiples of a base are still decided at any size.
    assert not is_prime(2 * MR_EXACT_BOUND)


# -- multilinear term maps ----------------------------------------------------------


def random_term_map(rng: random.Random, width: int) -> dict[int, int]:
    """Up to 12 terms, some cancelling to a kept zero coefficient, with
    small and large coefficients of either sign and the constant often."""
    terms: dict[int, int] = {}
    for _ in range(rng.randint(0, 12)):
        mask = 0 if rng.random() < 0.15 else rng.getrandbits(width)
        coeff = rng.choice([1, -1, 2, -3, 10**20 + 1, -(10**20)])
        terms[mask] = terms.get(mask, 0) + coeff
        if rng.random() < 0.2:
            terms[mask] -= terms[mask]  # a term that cancels
    return terms


def test_multilinear_text_matches_dense_to_text():
    rng = random.Random(71)
    cases = [(width, {}) for width in (0, 1, 5)]
    cases += [(width, random_term_map(rng, width)) for width in (0, 1, 2, 3, 7, 70) for _ in range(60)]
    for width, terms in cases:
        names = tuple(f"v{i}" for i in range(1, width + 1))
        ring = RingDescriptor(names + ("t",), laurent=frozenset({"t"}))
        dense = multilinear_polynomial(ring, terms, width)
        assert multilinear_text(terms, names) == dense.to_text(), terms
        # The lone base-point term of an augmentation (1,1) entry.
        for coeff in (1, -1, 2):
            for power, mono in ((1, "t"), (-1, "t^-1")):
                text = multilinear_text(terms, names, (coeff, power, mono))
                assert text == (dense + ring.var("t", power) * coeff).to_text(), (terms, power)


def test_multilinear_text_of_the_zero_map_and_constants():
    names = ("x", "y")
    assert multilinear_text({}, names) == "0"
    assert multilinear_text({0: 0, 3: 0}, names) == "0"
    assert multilinear_text({0: -5}, names) == "-5"
    assert multilinear_text({3: 1, 2: -1, 1: 2, 0: -1}, names) == "x*y - x + 2*y - 1"
    assert multilinear_text({0: 1}, names, (1, 1, "t")) == "t + 1"
    assert multilinear_text({0: 1, 1: 1}, names, (-1, -1, "t^-1")) == "y + 1 - t^-1"


def test_multilinear_product_and_indices_match_dense():
    rng = random.Random(73)
    ring = RingDescriptor(tuple(f"v{i}" for i in range(1, 9)))
    for _ in range(200):
        split = rng.randrange(9)
        low, high = (1 << (8 - split)) - 1, ((1 << split) - 1) << (8 - split)
        a = {mask & high: c for mask, c in random_term_map(rng, 8).items()}
        b = {mask & low: c for mask, c in random_term_map(rng, 8).items()}
        product = multilinear_product(a, b)
        assert multilinear_polynomial(ring, product) == (
            multilinear_polynomial(ring, a) * multilinear_polynomial(ring, b)
        )
    assert mask_indices(0b1011, 4) == (0, 2, 3)
    assert mask_indices(0, 4) == ()
    with pytest.raises(ExactMathError):
        multilinear_polynomial(ring, {1 << 8: 1})


# -- generated loops -------------------------------------------------------------


@st.composite
def hoisting_cases(draw):
    """Multilinear sums over up to 6 variables, some marked as tests; each
    variable outer, enumerated or solved, the levels in a drawn order; and
    a prime q.  A solved variable v gets a sum a + b v of its own, a and b
    over the outer variables and those of earlier levels; without a
    constant term, b vanishes where they all do."""
    nv = draw(st.integers(1, 6))
    roles = draw(st.lists(st.sampled_from("oes"), min_size=nv, max_size=nv))
    order = draw(st.permutations([i for i in range(nv) if roles[i] != "o"]))
    coeffs = st.integers(-3, 3).filter(bool)

    def terms(masks):
        drawn = draw(st.dictionaries(masks, coeffs, max_size=6))
        return [(coeff, mask_indices(mask, nv)) for mask, coeff in drawn.items()]

    tests = draw(st.lists(st.booleans(), max_size=4))
    sums = [(terms(st.integers(0, 2**nv - 1)), test) for test in tests]
    levels = []
    allowed = [i for i in range(nv) if roles[i] == "o"]
    for v in order:
        j = None
        if roles[v] == "s":
            subsets = st.just(0)
            if allowed:
                subsets = st.lists(st.sampled_from(allowed), unique=True).map(
                    lambda indices: sum(1 << (nv - 1 - i) for i in indices)
                )
            a = terms(subsets)
            b = terms(subsets.filter(bool) if allowed and draw(st.booleans()) else subsets)
            j = len(sums)
            sums.append((a + [(c, tuple(sorted(indices + (v,)))) for c, indices in b], False))
        levels.append((v, j))
        allowed.append(v)
    return nv, roles, levels, sums, draw(st.sampled_from([2, 3, 5]))


@given(hoisting_cases())
@settings(max_examples=120, deadline=None)
def test_hoisted_loops_evaluate_every_sum(case):
    nv, roles, levels, sums, q = case
    outer = [i for i in range(nv) if roles[i] == "o"]
    solved = {j for _, j in levels if j is not None}
    lines, pad, rest = hoisted_loops(sums, levels, "v")
    # Every test and solved sum holds in the lines; every other sum is
    # left to the caller, in the coefficients.
    held = [test or j in solved for j, (_, test) in enumerate(sums)]
    assert [r is None for r in rest] == held
    names = "".join(f"v{i}, " for i in range(nv))
    source = [
        "def kernel(q, seen):",
        "    values = range(q)",
        "    inverse = Inverses(q)",
        f"    for {''.join(f'v{i}, ' for i in outer) or '()'} in product(values, "
        f"repeat={len(outer)}):",
        *lines,
        f"{pad}seen.append((({names}), ({''.join(f'{r}, ' for r in rest if r)})))",
    ]
    seen = []
    compile_kernel(source)(q, seen)

    def value(terms, point):
        return sum(coeff * math.prod(point[i] for i in indices) for coeff, indices in terms)

    expected = []
    for point in itertools.product(range(q), repeat=nv):
        if any(h and value(terms, point) % q for (terms, _), h in zip(sums, held)):
            continue
        left = tuple(
            value(terms, point) % q if re.fullmatch(r"r\d+", r) else value(terms, point)
            for (terms, _), r in zip(sums, rest)
            if r
        )
        expected.append((point, left))
    # The values are exact integers, not residues: regrouping is exact.  A
    # sum left as a named residue r<k> reads its value mod q, in range(q).
    assert sorted(seen) == sorted(expected)


def test_inverses_are_exact_and_bounded():
    # Below the cache size every inverse stays; past it the cache starts
    # over, so a huge prime costs one entry per lookup, not a table of q.
    for q in (2, 7, INVERSE_CACHE + 3):  # 4099 is prime
        inverse = Inverses(q)
        for b in range(1, q):
            assert b * inverse[b] % q == 1
            assert len(inverse) <= INVERSE_CACHE
    # INVERSE_CACHE + 2 lookups: the cache started over two lookups ago.
    assert len(inverse) == 2
    q = 10**9 + 7
    inverse = Inverses(q)
    assert [b * inverse[b] % q for b in (2, q - 1, 2)] == [1, 1, 1]
    assert len(inverse) == 2
