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
The latter walks only beta of a twisted word beta * Delta^2, in
reverse from the cell of w0: a knot (one component) over the Bruhat
cells of S_n, divided by (q-1)^(n-1) at the end, and a link over the
Bruhat cells times the torus (F_q^*)^n, both exact for every prime q.
An untwisted word is counted by a dynamic program over the
distribution of partial matrix products in GL_n(F_q), which advances
one coset a + F_q b of the affected column pair at a time instead of
one z at a time.

The brute force runs as one Python function generated per system, with
every equation unrolled into plain sums of products.  The tests keep an
interpreted loop over term tuples as an oracle, next to a count over
every point (z, t).
"""

from __future__ import annotations

import functools
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
    Every part is a tuple, so the parts key :func:`_bruteforce_kernel`'s
    cache.
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
    constraints = tuple(
        sorted(
            (_split_last(eq, s) for eq in compiled[1:]),
            key=lambda split: len(split[0]) + len(split[1]),
        )
    )
    return coeff, t_exp, entry, constraints


@functools.lru_cache(maxsize=32)
def _bruteforce_kernel(t_coeff: int, entry, constraints, s: int):
    """kernel(q, check) -> count: the prefix loop, generated for one system.

    Takes the parts :func:`_compile_system` returns.  The kernel does not
    depend on q, so a system counted at several primes is compiled once
    (the last 32 systems are kept).  The loop runs over
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

    A twisted word is beta * Delta^2, ending with the suffix that
    :func:`links.append_full_twist` adds.  Its Delta^2 is stripped here,
    and beta alone is walked from the cell of w0: a twisted knot (one
    component) over the Bruhat cells of S_n in :func:`_count_twisted_knot`,
    a twisted link over Bruhat cells times the torus in
    :func:`_count_twisted_link`.  An untwisted word is counted by the coset
    dynamic program :func:`_count_by_cosets` over GL_n(F_q).  All three
    agree exactly with :func:`count_solutions_bruteforce`.
    """
    if not is_prime(q):
        raise AugmentError(f"{q} is not prime")
    n = word.strands
    twist = half_twist(n).letters * 2
    if len(word) < len(twist) or word.letters[len(word) - len(twist) :] != twist:
        return _count_by_cosets(word, q)
    beta = BraidWord(n, word.letters[: len(word) - len(twist)])
    if braid_invariants(word).components == 1:
        return _count_twisted_knot(beta, q)
    return _count_twisted_link(beta, q)


def _count_twisted_knot(beta: BraidWord, q: int) -> int:
    """aug = C(w0) / (q-1)^(n-1) for a twisted knot beta * Delta^2.

    C(w) counts the z of beta with w0 B(beta)^T in U^- w T U^-: the cells
    of :func:`_torus_cells`, walked by its moves with the torus summed
    out.  At an ascent w all q values of z go to w s_k; at a descent 1
    goes to w s_k and q - 1 stay at w.  The cells form an upper set (see
    :func:`_torus_cells`), so each letter visits only the descents w:
    w s_k receives C(w), and w receives q C(w s_k) + (q - 1) C(w).  The
    states are at most n!, held to ``DP_STATE_BUDGET``.

    By :func:`_count_twisted_link`, C(w0, D) = #{z of beta Delta^2 :
    B(z) = D} for every diagonal D, so C(w0) counts the z with B(z)
    diagonal.  For d in the torus, d P_k(z) (s_k d s_k)^-1 = P_k(z
    d_{k+1}/d_k).  Letter by letter, z -> z' is a bijection with d B(z)
    d_w^-1 = B(z'), where d_w is d with its entries permuted by the
    permutation w of the word.  So the z with B(z) = D are as many as
    those with B(z) = D d/d_w.  For a knot w is an n-cycle, so d/d_w runs
    over every diagonal of determinant 1, and every diagonal of
    determinant det B = (-1)^s, s the length of beta Delta^2, is taken
    equally often: by C(w0) / (q-1)^(n-1) values of z.  -diag(t, 1, ..,
    1) is one of them for exactly one t, t = (-1)^(n+s), in either t
    convention.

    The division is checked to be exact (:class:`AugmentError` if not).
    """
    n = beta.strands
    if math.factorial(n) > DP_STATE_BUDGET:
        raise BudgetExceededError(f"n! = {n}! exceeds the DP state budget")
    w0 = tuple(range(n - 1, -1, -1))
    cells = {w0: 1}
    for k in reversed(beta.letters):
        i = k - 1
        moved: dict[tuple[int, ...], int] = {}
        for w, count in cells.items():
            if w[i] < w[i + 1]:
                continue  # moved on the turn of w s_k, a state as well
            ws = w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
            moved[ws] = count
            moved[w] = q * cells.get(ws, 0) + (q - 1) * count
        cells = moved
    count, rest = divmod(cells[w0], (q - 1) ** (n - 1))
    if rest:
        raise AugmentError(f"C(w0) = {cells[w0]} is not divisible by (q-1)^(n-1) at q = {q}")
    return count


def _torus_cells(word: BraidWord, q: int) -> dict[tuple[int, ...], dict[tuple[int, ...], int]]:
    """#{z in F_q^s : w0 B(word)(z)^T in U^- w t U^-}, as cells[w][tau].

    Every g in GL_n(F_q) lies in one cell U^- w T U^- of the Bruhat
    decomposition for lower triangular matrices, with a unique torus
    part t in (F_q^*)^n; w is a permutation in one-line notation (the
    matrix with a 1 in row w[j] of column j), and w0 the longest one.
    Each P_k(z) is symmetric, so B(z)^T = P_{k_s}(z_s) .. P_{k_1}(z_1):
    the letters are walked in reverse, right-multiplying, from the cell
    (w0, 1 .. 1) of w0.

    Write P_k(z) = y_k(z) s_k, with y_k(z) the lower unipotent matrix
    whose (k+1, k) entry is z.  Take M = u w t u' with u, u' in U^-.  The
    (k+1, k) entry is additive on U^-, and the matrices of U^- with a zero
    there form a normal subgroup that s_k normalizes.  So u' y_k(z) =
    y_k(x) v with v in it, and M P_k(z) = u w t P_k(x) (s_k v s_k), where
    x = c + z and c is the (k+1, k) entry of u'.  As z runs over F_q, so
    does x.
      - If w[k-1] < w[k], w y_k w^-1 lies in U^-, and t y_k(x) s_k =
        y_k(x t_{k+1}/t_k) s_k (s_k t s_k): every x goes to
        (w s_k, s_k t s_k).
      - Otherwise x = 0 gives P_k(0) = s_k and the same cell.  For x != 0,
        P_k(x) = x_k(1/x) diag_k(-1/x, x) y_k(1/x) with x_k upper
        unipotent, and w x_k w^-1 lies in U^-: the cell stays at w, with
        t_k -> -t_k/x and t_{k+1} -> x t_{k+1}.  These q - 1 successors
        are the pairs with product -t_k t_{k+1}, one each, so the counts
        are summed per product first.

    t is stored as tau with tau[w[j]] = t_j, so that a move to w s_k
    keeps tau and moves a whole torus dictionary at once.  The cells
    always form an upper set in the Bruhat order: {w0} does, and if
    u <= v then max(u, u s_k) <= max(v, v s_k).  So with an ascent w, its
    successor w s_k is a cell too, and each letter visits only the
    descents w: w s_k receives the torus of w, and w receives q times the
    torus of w s_k plus its own stays.  The states are at most
    n! (q-1)^(n-1), as det M = +-1 fixes the product of t, and each takes
    at most q moves per letter: that product is held to
    ``DP_STATE_BUDGET``.
    """
    n = word.strands
    if math.factorial(n) * (q - 1) ** (n - 1) * q > DP_STATE_BUDGET:
        raise BudgetExceededError(
            f"n! (q-1)^(n-1) q = {n}! x {q - 1}^{n - 1} x {q} exceeds the DP state budget"
        )
    inverse = [0] + [pow(v, q - 2, q) for v in range(1, q)]
    cells = {tuple(range(n - 1, -1, -1)): {(1,) * n: 1}}
    for k in reversed(word.letters):
        i = k - 1
        moved: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
        for w, torus in cells.items():
            if w[i] < w[i + 1]:
                continue  # moved on the turn of w s_k, a state as well
            ws = w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
            moved[ws] = torus
            cell = moved[w] = {tau: q * count for tau, count in cells.get(ws, {}).items()}
            # tau with entry lo replaced by -tau[lo] tau[hi] and entry hi dropped.
            lo, hi = w[i + 1], w[i]
            products: dict[tuple[int, ...], int] = {}
            for tau, count in torus.items():
                key = tau[:lo] + (-tau[lo] * tau[hi] % q,) + tau[lo + 1 : hi] + tau[hi + 1 :]
                products[key] = products.get(key, 0) + count
            for key, count in products.items():
                head, product, mid, tail = key[:lo], key[lo], key[lo + 1 : hi], key[hi:]
                for x in range(1, q):
                    tau = head + (x,) + mid + (product * inverse[x] % q,) + tail
                    cell[tau] = cell.get(tau, 0) + count
        cells = moved
    return cells


def _count_twisted_link(beta: BraidWord, q: int) -> int:
    """aug = sum_t C(w0, -diag(t, 1, .., 1)) for a twisted link beta * Delta^2.

    C is :func:`_torus_cells` of beta, and N = n(n-1)/2.

    1. Delta is a reduced word of w0.  With P_k(z) = s_k x_k(z) and x_k(z)
       upper unipotent, its N values of z run once over w0 U, so the 2N
       letters of Delta^2 give B(Delta^2) = (w0 u w0) u' = v u' with
       (v, u') running once over U^- x U as their z run over F_q^(2N).
    2. So for each z of beta, B(beta) v u' = D has one solution (v, u') if
       B(beta) lies in D U U^- and none otherwise, and the count is
       #{z of beta : B(beta) in D U U^-}, summed over D = -diag(t, 1, ..,
       1).  Transposed and multiplied by w0 on the left, B(beta) = D a b
       with a in U and b in U^- becomes w0 B(beta)^T = (w0 b^T w0) w0 D
       (D^-1 a^T D), which lies in U^- w0 D U^-; every element of that
       cell arises so.

    So C(w0, D) is the count for D, with no division, and Delta^2 is
    never walked.  Unlike :func:`_count_twisted_knot` this needs no torus
    symmetry, so it holds for any number of components.
    """
    n = beta.strands
    w0 = tuple(range(n - 1, -1, -1))
    # tau[w0[j]] = t_j: the base point t_1 sits at index n - 1.
    torus = _torus_cells(beta, q).get(w0, {})
    minus = (q - 1,) * (n - 1)
    return sum(torus.get(minus + (t_val,), 0) for t_val in range(1, q))


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
