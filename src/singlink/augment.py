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
enumerates z_1..z_{s-1} but solves one of them from each of up to
``MAX_PINS`` z_s-free equations, solves z_s from one equation that holds
it, and solves the (1,1) equation for t; and an independent count that
never builds the equations.  The latter walks only beta of a twisted
word beta * Delta^2, in reverse from the cell of w0: a knot (one
component) over the Bruhat cells of S_n, divided by (q-1)^(n-1) at the
end, and a link over the Bruhat cells times the torus (F_q^*)^n, both
exact for every prime q.  An untwisted word is counted by a dynamic
program over the distribution of partial matrix products in GL_n(F_q),
which advances one coset a + F_q b of the affected column pair at a
time instead of one z at a time.

Every entry of the braid matrix is multilinear, since each z enters
through one factor only.  So a system stores each equation as a term map
{bitmask of z's: coefficient} (see :mod:`fqmath`), and leaves out the
lone term t^(+-1) of the (1,1) equation: building, printing and
compiling it take time linear in its terms, not terms times s.  Dense
polynomials are built only for the oracles
(:meth:`AugmentationSystem.polynomials`, :func:`symbolic_determinant`).

The brute force runs as one Python function generated per system, with
every equation unrolled into plain sums of products.  One loop emitter,
:func:`fqmath.hoisted_loops`, nests a loop over each of the last few
free prefix variables, each pinned variable and z_s inside the loop over
the other free variables, and regroups each sum by its monomials in
those, so its coefficients are summed once per outer prefix and folded
in one variable at a time.  Its work guard, q^(s-1) prefixes times the
terms, bounds the work from above: each pinned variable divides the
prefixes actually visited by about q.  The tests keep an interpreted
loop over the stored term maps as an oracle, next to a count over every
point (z, t) of the dense equations.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING

from .fqmath import (
    INNER_LOOPS,
    BudgetExceededError,
    compile_kernel,
    hoisted_loops,
    is_prime,
    mask_indices,
    multilinear_product,
    multilinear_text,
)
from .links import BraidWord, braid_invariants, half_twist
from .records import Record

if TYPE_CHECKING:
    from .exactmath import Polynomial, RingDescriptor

BRUTE_FORCE_BUDGET = 10**8
DP_STATE_BUDGET = 10**6
# Terms of the symbolic braid matrix, which also bound the printed
# equations and the source of the brute-force kernel.  T(6,7) with the
# full twist needs 12331; T(7,9) needs 80060, and `aug --torus 7 9` would
# take about 0.65 s in-process on a 2-vCPU VM with Python 3.11.
TERM_BUDGET = 20_000
# CPython 3.10 to 3.12 compile at most 20 nested loops in one function.
# The brute-force kernel nests one loop per pinned variable, its inner
# loops and z_s's loop inside its prefix loop, so product + pins + inner
# + z_s <= 20 leaves 18 for the pins and the inner loops; the full twist
# on 6 strands alone offers 26 pins.  Pins come first; up to
# fqmath.INNER_LOOPS of the rest are inner loops.
MAX_PINS = 18

T_CONVENTIONS = ("t", "t-inverse")


class AugmentError(ValueError):
    pass


def augmentation_variables(s: int) -> tuple[str, ...]:
    """z_1..z_s, one per crossing, then the base-point variable t."""
    return tuple(f"z{i}" for i in range(1, s + 1)) + ("t",)


def augmentation_ring(s: int) -> RingDescriptor:
    """Z[z_1..z_s, t, t^-1], the dense ring of the oracles."""
    from .exactmath import RingDescriptor

    return RingDescriptor(augmentation_variables(s), laurent=frozenset({"t"}))


class AugmentationSystem(Record):
    """The n^2 equations cutting out the augmentation variety in C^s x C*.

    ``equations`` holds each entry row-major as a multilinear term map
    (:mod:`fqmath`) in z_1..z_s, z_k at bit s - k.  The (1,1) equation
    also holds the lone term t^(+-1), not stored: t for the convention
    "t", t^-1 for "t-inverse".
    """

    __slots__ = ("strands", "word", "equations", "t_convention")

    @property
    def z_count(self) -> int:
        return len(self.word)

    @property
    def variables(self) -> tuple[str, ...]:
        return augmentation_variables(self.z_count)

    @property
    def t_exponent(self) -> int:
        return 1 if self.t_convention == "t" else -1

    def equation(self, i: int, j: int) -> dict[int, int]:
        """Row-major access, 1-based; the lone t term is not in the map."""
        return self.equations[(i - 1) * self.strands + (j - 1)]

    def polynomials(self) -> tuple[Polynomial, ...]:
        """The equations as dense polynomials of :func:`augmentation_ring`."""
        from .exactmath import multilinear_polynomial

        ring = augmentation_ring(self.z_count)
        dense = [multilinear_polynomial(ring, eq, self.z_count) for eq in self.equations]
        dense[0] = dense[0] + ring.var("t", self.t_exponent)
        return tuple(dense)


def braid_matrix(word: BraidWord) -> tuple[tuple[dict[int, int], ...], ...]:
    """B(word) = P_{k_1}(z_1) ... P_{k_s}(z_s), left-to-right, as rows of term maps.

    Right multiplication by P_k(z) sends the column pair (c_k, c_{k+1})
    to (c_{k+1}, c_k + z c_{k+1}).  z is a fresh variable, so no monomial
    of c_k holds it and every monomial of z c_{k+1} does: the new column
    holds exactly terms(c_k) + terms(c_{k+1}) terms, every coefficient
    stays 1, and the term count after every letter follows from integers
    alone.  It is checked before any term is built: above ``TERM_BUDGET``
    the product raises :class:`BudgetExceededError`.
    """
    n, s = word.strands, len(word)
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
    columns = [[{0: 1} if i == j else {} for i in range(n)] for j in range(n)]
    for pos, k in enumerate(word.letters, start=1):
        z = {1 << (s - pos): 1}
        left, right = columns[k - 1], columns[k]
        columns[k - 1] = right
        columns[k] = [{**a, **multilinear_product(z, b)} for a, b in zip(left, right)]
    return tuple(zip(*columns))


def augmentation_equations(word: BraidWord, t_convention: str = "t") -> AugmentationSystem:
    """Equations of diag(t, 1, .., 1) + B(word), row-major.

    The word is expected to be the full braid (beta * Delta^2 for rainbow
    closures); no twist is appended here.
    """
    if t_convention not in T_CONVENTIONS:
        raise AugmentError(f"unknown t convention {t_convention!r}")
    rows = braid_matrix(word)
    for i in range(1, word.strands):
        diagonal = rows[i][i]  # a fresh map; its coefficients are all 1
        diagonal[0] = diagonal.get(0, 0) + 1
    return AugmentationSystem(
        strands=word.strands,
        word=word,
        equations=tuple(entry for row in rows for entry in row),
        t_convention=t_convention,
    )


def _compile_system(system: AugmentationSystem):
    """The stored equations as the sums of :func:`_bruteforce_kernel`.

    Returns (entry, constraints).  Each equation becomes one tuple of
    (coeff, z-index tuple) terms, z_s at index s - 1, with the terms that
    lack z_s first.  entry is the (1,1) equation without its t term, and
    constraints holds every other equation, fewest terms first.  Every
    part is a tuple, so the parts key :func:`_bruteforce_kernel`'s cache.
    """
    s = len(system.word)

    def terms(equation: dict[int, int]):
        ordered = sorted(equation.items(), key=lambda term: term[0] & 1)  # z_s is bit 0
        return tuple((coeff, mask_indices(mask, s)) for mask, coeff in ordered)

    return terms(system.equations[0]), tuple(sorted(map(terms, system.equations[1:]), key=len))


def _choose_pins(constraints, s: int):
    """The z_s-free constraints that each solve one prefix variable.

    Walks ``constraints`` in order (fewest terms first) and gives a
    z_s-free one a pin if it holds a variable that is neither pinned nor
    in an earlier pinned constraint: the highest-index one, z_v.  So every
    other variable of a pinned constraint is free or pinned before it, and
    the pin loops nest in the order of the pins.  Returns {constraint
    index: v}, in that order, at most ``MAX_PINS`` of them.
    """
    pins, blocked = {}, set()
    for index, terms in enumerate(constraints):
        variables = {i for _, indices in terms for i in indices}
        candidates = variables - blocked
        if s - 1 in variables or not candidates:
            continue
        pins[index] = max(candidates)
        blocked |= variables
        if len(pins) == MAX_PINS:
            break
    return pins


@functools.lru_cache(maxsize=32)
def _bruteforce_kernel(entry, constraints, s: int):
    """kernel(q, check) -> count: the prefix loop, generated for one system.

    Takes the parts :func:`_compile_system` returns.  The kernel does not
    depend on q, so a system counted at several primes is compiled once
    (the last 32 systems are kept).  Every equation is multilinear, so a
    z_s-free constraint a + b z_v solves one prefix variable z_v, pinned
    as :func:`_choose_pins` picks: z_v = -a/b where b != 0, the prefix is
    ruled out where b = 0 != a, and z_v runs over F_q where a = b = 0.
    k pins leave about q^(s-1-k) prefixes, and a pinned constraint holds
    by construction.  z_s is solved the same way by the first constraint
    that holds it, fewest terms first; every other constraint is a test.
    Only a hand-built system lacks such a constraint, and then z_s runs
    over F_q like a free variable: the last letter sigma_k of a braid puts
    z_s in column k + 1 >= 2, so some t-free equation holds it.

    The free prefix variables run in one ``product`` loop, but for the
    last ``fqmath.INNER_LOOPS`` of them, which run in nested loops
    inside it.  The loops of the pins, in their order, and of z_s nest
    inside those; the pins come first in the shared budget of
    ``MAX_PINS`` loops inside the ``product`` loop and outside z_s's.
    :func:`fqmath.hoisted_loops` writes every nested loop: it regroups
    every sum by its monomials in the loop variables, with coefficients
    summed once per outer prefix and combined one loop variable at a
    time, and tests a constraint at the first loop that binds all its
    variables.  The body solves the (1,1) entry for t^(+-1), one solution
    per nonzero value, and calls ``check`` on every value counted.
    """
    pins = _choose_pins(constraints, s)
    free = [i for i in range(s - 1) if i not in pins.values()]
    cut = len(free) - min(INNER_LOOPS, len(free), MAX_PINS - len(pins))
    levels = [(v, None) for v in free[cut:]] + [(v, index) for index, v in pins.items()]
    holds_zs = [any(s - 1 in indices for _, indices in terms) for terms in constraints]
    solver = holds_zs.index(True) if True in holds_zs else None
    if s:  # the unknot (s = 0) has no z_s
        levels.append((s - 1, solver))
    sums = [(terms, i not in pins and i != solver) for i, terms in enumerate(constraints)]
    lines = [
        "def kernel(q, check):",
        "    found = 0",
        "    values = range(q)",
        f"    for {''.join(f'z{i}, ' for i in free[:cut]) or '()'} in product(values, "
        f"repeat={cut}):",
    ]
    hoisted, pad, rest = hoisted_loops(sums + [(entry, False)], levels, "z", "        ")
    body = [f"u = -({rest[-1]}) % q", "if u:", "    check(u)", "    found += 1"]
    lines += hoisted + [pad + line for line in body]
    lines.append("    return found")
    return compile_kernel(lines)


def count_solutions_bruteforce(
    system: AugmentationSystem,
    q: int,
    budget: int = BRUTE_FORCE_BUDGET,
) -> int:
    """Exact number of (z, t) in F_q^s x F_q^* solving every equation.

    t occurs only as the lone term t^(+-1) of the (1,1) equation.  Every
    equation is multilinear, so a z_s-free one, a + b z_v, solves one
    prefix variable z_v of z' = (z_1..z_{s-1}): up to ``MAX_PINS`` such
    pins leave about q^(s-1-k) of the q^(s-1) prefixes to enumerate.  The
    t-free equation with the fewest terms that holds z_s solves it, each
    other t-free equation is tested, and the (1,1) equation gives t^(+-1)
    for each solution; a nonzero value is one solution.  The work guard,
    q^(s-1) times the number of terms, is an upper bound on the work;
    within the budget the loop runs as Python source generated for the
    system (:func:`_bruteforce_kernel`).  Every solution found is checked
    against the sign law t = (-1)^(n+s).
    """
    if not is_prime(q):
        raise AugmentError(f"{q} is not prime")
    s = len(system.word)
    prefix_length = max(s - 1, 0)
    terms = sum(map(len, system.equations)) + 1  # and the lone t term
    if q**prefix_length * terms > budget:
        raise BudgetExceededError(
            f"q^(s-1) x terms = {q}^{prefix_length} x {terms} exceeds the work budget {budget}"
        )
    expected_t = (-1) ** (system.strands + s) % q
    t_exp = system.t_exponent

    def check_sign_law(u: int) -> None:
        t_val = u if t_exp == 1 else pow(u, -1, q)
        if t_val != expected_t:
            raise AugmentError(
                f"solution with t = {t_val} violates t = (-1)^(n+s) = {expected_t}"
            )

    return _bruteforce_kernel(*_compile_system(system), s)(q, check_sign_law)


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
    """det B(word) as an exact dense polynomial; equals (-1)^s identically."""
    from .exactmath import PolyMatrix, multilinear_polynomial

    s = len(word)
    ring = augmentation_ring(s)
    rows = [[multilinear_polynomial(ring, entry, s) for entry in row] for row in braid_matrix(word)]
    return PolyMatrix(ring, rows).det()


def system_to_json_dict(system: AugmentationSystem) -> dict:
    names = system.variables
    t_power = system.t_exponent
    lone = (1, t_power, "t" if t_power == 1 else "t^-1")
    return {
        "strands": system.strands,
        "word": list(system.word.letters),
        "t_convention": system.t_convention,
        "variables": list(names),
        # The masks hold the z's alone; the (1,1) equation adds the t term.
        "equations": [
            multilinear_text(eq, names[:-1], lone if index == 0 else None)
            for index, eq in enumerate(system.equations)
        ],
    }
