"""Augmentation-variety equation systems for (-1)-framed positive braid closures.

For a word with crossings sigma_{k_1} .. sigma_{k_s} on n strands, the
system consists of the n^2 entries of

    diag(t, 1, ..., 1) + P_{k_1}(z_1) P_{k_2}(z_2) ... P_{k_s}(z_s),

where P_k(z) is the identity with the 2x2 block [[0, 1], [1, z]] in rows
and columns k, k+1.  The intended input is beta * Delta^2 for a rainbow
closure braid beta.  A ``t-inverse`` convention replacing diag(t, 1, ..)
by diag(t^-1, 1, ..) is available; t and t^-1 differ by a unit
relabeling, so solution counts agree.

Caveat for multi-component closures: the system is emitted with a single
base-point variable t exactly as in the knot case.  The honest moduli
for an l-component link is a quotient of this variety times (C*)^l by a
torus action; that quotient is out of scope here, so counts for links
are raw variety counts.

Counting oracles: a brute force over the stored equations, which
enumerates z_1..z_{s-1} and solves for the last crossing variable z_s
and for t, and an independent count that never builds the equations.
The latter counts a twisted knot (beta * Delta^2 closing to one
component) by a recursion over the Bruhat cells of S_n, exact for
every prime q, and every other word by a dynamic program over the
distribution of partial matrix products in GL_n(F_q), which advances
one coset a + F_q b of the affected column pair at a time instead of
one z at a time.

The brute force runs as one Python function generated per system, with
every equation unrolled into plain sums of products.  The tests keep an
interpreted loop over term tuples as an oracle, next to a count over
every point (z, t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exactmath import (
    BudgetExceededError,
    Polynomial,
    PolyMatrix,
    RingDescriptor,
    compile_kernel,
    is_prime,
    sum_source,
)
from .links import BraidWord, braid_invariants, half_twist

BRUTE_FORCE_BUDGET = 10**8
DP_STATE_BUDGET = 10**6
# Terms of the symbolic braid matrix.  T(6,7) with the full twist needs
# 12331; T(7,9) needs over 77000 and would take about 20 s.
TERM_BUDGET = 20_000

T_CONVENTIONS = ("t", "t-inverse")


class AugmentError(ValueError):
    pass


def augmentation_ring(s: int) -> RingDescriptor:
    """Z[z_1..z_s, t, t^-1]: one z per crossing plus the Laurent base-point variable."""
    names = tuple(f"z{i}" for i in range(1, s + 1)) + ("t",)
    return RingDescriptor(names, laurent=frozenset({"t"}))


def pk_matrix(ring: RingDescriptor, n: int, k: int, var: str) -> PolyMatrix:
    """The n x n matrix P_k(z): identity except rows/columns k, k+1.

    The exceptional block is [[0, 1], [1, z]]; its determinant is -1 for
    every n and k.
    """
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


@dataclass(frozen=True)
class AugmentationSystem:
    """The n^2 equations cutting out the augmentation variety in C^s x C*."""

    strands: int
    word: BraidWord
    ring: RingDescriptor
    equations: tuple[Polynomial, ...]
    t_convention: str

    @property
    def z_count(self) -> int:
        return len(self.word)

    @property
    def variables(self) -> tuple[str, ...]:
        return self.ring.variables

    def equation(self, i: int, j: int) -> Polynomial:
        """Row-major access, 1-based."""
        return self.equations[(i - 1) * self.strands + (j - 1)]


def braid_matrix(ring: RingDescriptor, word: BraidWord) -> PolyMatrix:
    """B(word) = P_{k_1}(z_1) ... P_{k_s}(z_s), left-to-right.

    Right multiplication by P_k(z) sends the column pair (c_k, c_{k+1})
    to (c_{k+1}, c_k + z c_{k+1}).  z is a fresh variable, so the new
    column holds exactly terms(c_k) + terms(c_{k+1}) terms, and the term
    count after every letter follows from integers alone.  It is checked
    before any polynomial is built: above ``TERM_BUDGET`` the product
    raises :class:`BudgetExceededError`.
    """
    n = word.strands
    if n * n > TERM_BUDGET:
        raise BudgetExceededError(
            f"{n} strands give n^2 = {n * n} equations, over the term budget {TERM_BUDGET}"
        )
    sizes, terms = [1] * n, n  # terms per column and in all
    for pos, k in enumerate(word.letters, start=1):
        sizes[k - 1], sizes[k] = sizes[k], sizes[k - 1] + sizes[k]
        terms += sizes[k - 1]
        if terms > TERM_BUDGET:
            raise BudgetExceededError(
                f"the braid matrix holds {terms} terms after letter {pos} of "
                f"{len(word)}, over the term budget {TERM_BUDGET}"
            )
    one, zero = ring.one(), ring.zero()
    columns = [[one if i == j else zero for i in range(n)] for j in range(n)]
    for pos, k in enumerate(word.letters, start=1):
        z = ring.var(f"z{pos}")
        left, right = columns[k - 1], columns[k]
        columns[k - 1] = right
        columns[k] = [a + z * b for a, b in zip(left, right)]
    return PolyMatrix(ring, zip(*columns))


def augmentation_equations(word: BraidWord, t_convention: str = "t") -> AugmentationSystem:
    """Equations of diag(t, 1, .., 1) + B(word), row-major.

    The word is expected to be the full braid (beta * Delta^2 for rainbow
    closures); no twist is appended here.
    """
    if t_convention not in T_CONVENTIONS:
        raise AugmentError(f"unknown t convention {t_convention!r}")
    n = word.strands
    ring = augmentation_ring(len(word))
    b = braid_matrix(ring, word)
    t_power = 1 if t_convention == "t" else -1
    t_entry = ring.var("t", t_power)
    equations = []
    for i in range(n):
        for j in range(n):
            entry = b[i, j]
            if i == j:
                entry = entry + (t_entry if i == 0 else ring.one())
            equations.append(entry)
    return AugmentationSystem(
        strands=n,
        word=word,
        ring=ring,
        equations=tuple(equations),
        t_convention=t_convention,
    )


def _compile_terms(p: Polynomial, s: int):
    """Precompile for F_q evaluation: (coeff, z-index tuple, t exponent).

    Entries of products of P_k matrices are multilinear in each z, so
    z-exponents are 0/1; z-indices come in increasing order.
    """
    compiled = []
    for exp, coeff in p.terms.items():
        zs = []
        for idx in range(s):
            e = exp[idx]
            if e == 1:
                zs.append(idx)
            elif e != 0:
                raise AugmentError("unexpected exponent in augmentation equation")
        compiled.append((int(coeff), tuple(zs), exp[s]))
    return compiled


def _split_last(terms, s: int):
    """Terms of alpha(z') + beta(z') z_s, z' = (z_1..z_{s-1}): (alpha, beta)."""
    alpha, beta = [], []
    for coeff, zs, _ in terms:
        if zs and zs[-1] == s - 1:
            beta.append((coeff, zs[:-1]))
        else:
            alpha.append((coeff, zs))
    return tuple(alpha), tuple(beta)


def _compile_system(system: AugmentationSystem):
    """The stored equations, split for solving in z_s and t.

    Returns (c, e, entry, constraints): the (1,1) equation is
    c t^e + alpha(z') + beta(z') z_s with c, e in {1, -1} and
    entry = (alpha, beta); constraints holds the (alpha, beta) of every
    other equation, fewest terms first.  t must occur exactly there.
    """
    s = len(system.word)
    compiled = [_compile_terms(p, s) for p in system.equations]
    t_terms = [(index, term) for index, eq in enumerate(compiled) for term in eq if term[2]]
    if len(t_terms) != 1:
        raise AugmentError(f"t occurs in {len(t_terms)} terms, expected exactly one")
    index, (coeff, zs, t_exp) = t_terms[0]
    if index or zs or coeff not in (1, -1) or t_exp not in (1, -1):
        raise AugmentError("t must occur as a lone term +-t^(+-1) of the (1,1) equation")
    entry = _split_last([term for term in compiled[0] if not term[2]], s)
    constraints = sorted(
        (_split_last(eq, s) for eq in compiled[1:]),
        key=lambda split: len(split[0]) + len(split[1]),
    )
    return coeff, t_exp, entry, constraints


def _bruteforce_kernel(t_coeff: int, entry, constraints, s: int):
    """kernel(q, check) -> count: the prefix loop, generated for one system.

    Takes the parts :func:`_compile_system` returns.  The loop runs over
    the prefixes (z0, .., z{s-2}) with every constraint unrolled, fewest
    terms first, into plain sums of products (:func:`exactmath.sum_source`),
    and calls ``check`` on every t^(+-1) value it counts.
    """
    prefix = "".join(f"z{i}, " for i in range(s - 1)) or "()"
    lines = [
        "def kernel(q, check):",
        "    found = 0",
        f"    for {prefix} in product(range(q), repeat={max(s - 1, 0)}):",
        # p is None while z_s is free; the unknot (s = 0) has no z_s.
        f"        p = {'None' if s else 0}",
    ]
    for alpha, beta in constraints:
        if beta:
            lines += [
                f"        a = {sum_source(alpha, 'z')}",
                f"        b = ({sum_source(beta, 'z')}) % q",
                "        if p is None:",
                "            if b:",
                "                p = -a * pow(b, -1, q) % q",
                "            elif a % q:",
                "                continue",
                "        elif (a + b * p) % q:",
                "            continue",
            ]
        elif alpha:
            lines += [f"        if ({sum_source(alpha, 'z')}) % q:", "            continue"]
    # t^(+-1) = -c (alpha + beta z_s); with z_s free and beta != 0 it takes
    # every value of F_q once: q - 1 solutions with distinct t.
    sign = "-" if t_coeff == 1 else ""
    lines += [
        f"        a = {sum_source(entry[0], 'z')}",
        f"        b = ({sum_source(entry[1], 'z')}) % q",
        "        if p is not None:",
        f"            u = {sign}(a + b * p) % q",
        "            if u:",
        "                check(u)",
        "                found += 1",
        "        elif b:",
        "            check(1)",
        "            check(q - 1)",
        "            found += q - 1",
        "        else:",
        f"            u = {sign}a % q",
        "            if u:",
        "                check(u)",
        "                found += q",
        "    return found",
    ]
    return compile_kernel(lines)


def count_solutions_bruteforce(
    system: AugmentationSystem,
    q: int,
    budget: int = BRUTE_FORCE_BUDGET,
) -> int:
    """Exact number of (z, t) in F_q^s x F_q^* solving every equation.

    Every stored equation is alpha(z') + beta(z') z_s in the last crossing
    variable, z' = (z_1..z_{s-1}), and t occurs only as one lone term
    c t^(+-1) of the (1,1) equation.  So only the prefixes z' are
    enumerated.  For each, the t-free equations, fewest terms first, pin
    z_s to -alpha/beta where beta != 0 and rule the prefix out where
    beta = 0 != alpha, with early exit; the (1,1) equation then gives
    t^(+-1) for each surviving z_s, and a nonzero value is one solution.
    The work, at most q^(s-1) times the number of terms, is
    budget-guarded; within the budget the loop runs as Python source
    generated for the system (:func:`_bruteforce_kernel`).  Every solution
    found is checked against the sign law t = (-1)^(n+s).
    """
    if not is_prime(q):
        raise AugmentError(f"{q} is not prime")
    s = len(system.word)
    prefix_length = max(s - 1, 0)
    terms = sum(len(p.terms) for p in system.equations)
    if q**prefix_length * terms > budget:
        raise BudgetExceededError(
            f"q^(s-1) x terms = {q}^{prefix_length} x {terms} exceeds the work budget {budget}"
        )
    t_coeff, t_exp, entry, constraints = _compile_system(system)
    expected_t = (-1) ** (system.strands + s) % q

    def check_sign_law(u: int) -> None:
        t_val = u if t_exp == 1 else pow(u, -1, q)
        if t_val != expected_t:
            raise AugmentError(
                f"solution with t = {t_val} violates t = (-1)^(n+s) = {expected_t}"
            )

    return _bruteforce_kernel(t_coeff, entry, constraints, s)(q, check_sign_law)


def count_solutions_dp(word: BraidWord, q: int) -> int:
    """Independent count of the solutions (z, t), without the equations.

    A twisted knot, a word beta * Delta^2 (the suffix
    :func:`links.append_full_twist` adds) whose closure has one component,
    is counted over Bruhat cells of S_n in :func:`_count_twisted_knot`;
    every other word by the coset dynamic program :func:`_count_by_cosets`
    over GL_n(F_q).  Both agree exactly with
    :func:`count_solutions_bruteforce`.
    """
    if not is_prime(q):
        raise AugmentError(f"{q} is not prime")
    twist = half_twist(word.strands).letters * 2
    if (
        len(word) >= len(twist)
        and word.letters[len(word) - len(twist) :] == twist
        and braid_invariants(word).components == 1
    ):
        return _count_twisted_knot(word, q)
    return _count_by_cosets(word, q)


def _identity_cell_count(word: BraidWord, q: int) -> int:
    """D_e = #{z in F_q^s : B(word)(z) is upper triangular}.

    Write P_k(z) = s_k x_k(z) with x_k(z) upper unipotent, and track the
    Bruhat cell B w B of the partial product as a permutation w of S_n in
    one-line notation.  Right multiplication by P_k(z) sends B w B into
    B w s_k B for all q values of z when w s_k > w (w[k-1] < w[k]);
    otherwise 1 value of z goes to B w s_k B and q - 1 values stay in
    B w B (Deodhar 1985).  So n! states replace the q^(n^2) of GL_n(F_q).
    """
    n = word.strands
    if math.factorial(n) > DP_STATE_BUDGET:
        raise BudgetExceededError(f"n! = {n}! exceeds the DP state budget")
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


def _count_twisted_knot(word: BraidWord, q: int) -> int:
    """aug = D_e / ((q-1)^(n-1) q^(n(n-1)/2)) for a twisted knot beta * Delta^2.

    With N = n(n-1)/2 and D_e from :func:`_identity_cell_count`:

    1. The 2N letters of Delta^2 give B(Delta^2) = v u with v in U^- and
       u in U, and (v, u) is uniform over U^- x U as their z range over
       F_q^(2N).  B(beta) v u is upper triangular iff B(beta) v = b is,
       which pins v for each z of beta with B(beta) in B U^-; B(beta) v u
       = b u is diagonal for exactly one of the q^N values of u.  So
       D_e = q^N #{z : B(z) diagonal}.
    2. For d in the torus, d P_k(z) (s_k d s_k)^-1 = P_k(z d_{k+1}/d_k).
       Letter by letter, z -> z' is a bijection with d B(z) d_w^-1 = B(z'),
       where d_w is d with its entries permuted by the permutation w of
       the word.  So the z with B(z) = D are as many as those with
       B(z) = D d/d_w.  For a knot w is an n-cycle, so d/d_w runs over
       every diagonal of determinant 1, and every diagonal of determinant
       det B = (-1)^s is taken equally often: by #{z : B(z) diagonal}
       / (q-1)^(n-1) values of z.  -diag(t, 1, .., 1) is one of them for
       exactly one t, t = (-1)^(n+s), in either t convention.

    The division is checked to be exact (:class:`AugmentError` if not).
    """
    n = word.strands
    cells = _identity_cell_count(word, q)
    count, rest = divmod(cells, (q - 1) ** (n - 1) * q ** (n * (n - 1) // 2))
    if rest:
        raise AugmentError(
            f"D_e = {cells} is not divisible by (q-1)^(n-1) q^(n(n-1)/2) at q = {q}"
        )
    return count


def _count_by_cosets(word: BraidWord, q: int) -> int:
    """Count via the distribution of partial products in GL_n(F_q).

    Maintains, letter by letter, how many z-prefixes produce each matrix
    value of P_{k_1}(z_1)...P_{k_r}(z_r); the final answer sums the
    multiplicity of -diag(t, 1, .., 1) over t in F_q^*.

    States are stored column-major.  Right-multiplying by P_k(z) sends
    the columns (a, b) at positions k, k+1 to (b, a + z b) and keeps the
    others.  Every partial product is invertible, so b != 0 and the q
    successors of a state depend only on b and the coset a + F_q b; and
    successors of distinct cosets are distinct.  So each letter first
    sums the counts per coset, keyed by its representative with a zero
    where b has its first nonzero entry, then lets every coset assign its
    count to its q successors: O(|states| + |new states|) work per
    letter instead of q |states|.
    """
    n = word.strands
    if q ** (n * n) > DP_STATE_BUDGET:
        raise BudgetExceededError(f"q^(n^2) = {q}^{n*n} exceeds the DP state budget")
    identity = tuple(1 if i == j else 0 for j in range(n) for i in range(n))
    dist = {identity: 1}
    if word.letters:
        # Letters need n >= 2 strands, so the state budget keeps q <= 31.
        inverse = [0] + [pow(v, q - 2, q) for v in range(1, q)]
        # lines[a][b] lists (a + z b) mod q for z = 0, .., q - 1.
        lines = [[tuple((a + z * b) % q for z in range(q)) for b in range(q)] for a in range(q)]
    for k in word.letters:
        lo = (k - 1) * n
        mid, hi = lo + n, lo + 2 * n
        # The key of a coset is its z = 0 successor (b, a - c b).
        cosets: dict[tuple[int, ...], int] = {}
        for state, count in dist.items():
            a, b = state[lo:mid], state[mid:hi]
            i = 0
            while not b[i]:
                i += 1
            c = a[i] * inverse[b[i]] % q
            if c:
                a = tuple((x - c * y) % q for x, y in zip(a, b))
            key = state[:lo] + b + a + state[hi:]
            cosets[key] = cosets.get(key, 0) + count
        dist = {}  # drops the old distribution before the cosets emit
        for key, count in cosets.items():
            head, tail = key[:mid], key[hi:]
            entries = [lines[x][y] for x, y in zip(key[mid:hi], key[lo:mid])]
            for column in zip(*entries):
                dist[head + column + tail] = count
    total = 0
    for t_val in range(1, q):
        # Both conventions sum the same multiset of diagonal targets, and
        # a diagonal target reads the same row- or column-major.
        target = tuple(
            (-(t_val if i == 0 else 1)) % q if i == j else 0
            for i in range(n)
            for j in range(n)
        )
        total += dist.get(target, 0)
    return total


def symbolic_determinant(word: BraidWord) -> Polynomial:
    """det B(word) as an exact polynomial; equals (-1)^s identically."""
    ring = augmentation_ring(len(word))
    return braid_matrix(ring, word).det()


def system_to_json_dict(system: AugmentationSystem) -> dict:
    return {
        "strands": system.strands,
        "word": list(system.word.letters),
        "t_convention": system.t_convention,
        "variables": list(system.variables),
        "equations": [eq.to_text() for eq in system.equations],
    }
