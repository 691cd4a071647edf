"""The F_q counting toolkit: primality, multilinear term maps and kernel emitters.

Every equation the counters read (braid matrix entries, augmentation and
chain-system equations) is multilinear, and is stored as a term map
{bitmask: integer coefficient}.  This module builds, multiplies and
prints those maps, and writes the Python source of the generated
brute-force kernels that count their F_q points.  Counts reduce the
integer coefficients mod a prime q, which :func:`is_prime` vets.

The dense Laurent ring of the oracles and of seed enumeration lives in
:mod:`exactmath`, which imports the names it shares from here; this
module imports nothing of it, so counting loads no dense algebra.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Mapping


class ExactMathError(ValueError):
    """Base class for the errors of this module and of :mod:`exactmath`."""


class BudgetExceededError(ValueError):
    """A count, product or enumeration outgrew its budget (CLI exit code 3).

    ``cap`` is the exceeded budget where the caller states one.
    """

    def __init__(self, message: str, cap: int | None = None):
        super().__init__(message)
        self.cap = cap


class PrimalityBoundError(ExactMathError):
    """The number is too large for the deterministic primality test."""


# Miller-Rabin with the first thirteen primes as bases is exact below
# 3317044064679887385961981 (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every n < ``MR_EXACT_BOUND``."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= MR_EXACT_BOUND:
        raise PrimalityBoundError(
            f"{n} is too large for the deterministic primality test "
            f"(limit {MR_EXACT_BOUND - 1})"
        )
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _terms_text(terms: Iterable[tuple[int, str]]) -> str:
    """(coeff, monomial text) pairs, in order, as the signed sum ``to_text`` prints.

    A coefficient of magnitude 1 prints only its monomial; a zero one
    prints nothing, and no nonzero terms print "0".
    """
    chunks = []
    for coeff, mono in terms:
        if not coeff:
            continue
        mag = abs(coeff)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if not chunks:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(chunks) or "0"


# -- multilinear term maps ----------------------------------------------------
#
# The augmentation and chain systems are multilinear: every variable has
# exponent 0 or 1 in every term.  They store a polynomial in N variables as
# a term map {mask: coefficient}, with variable i (declared order) at bit
# N-1-i of the mask.  Integer order on masks is then lex order on exponent
# vectors: two distinct masks first differ at their highest differing bit,
# that is at the first variable where their 0/1 exponents differ, and the
# mask with the bit set is both the larger integer and the lex-larger
# vector.  So within one degree (popcount) the integer order of masks is
# graded-lex order, and the key (popcount, mask) orders term maps as
# Polynomial.to_text orders exponent vectors.


def multilinear_key(mask: int) -> tuple[int, int]:
    """Graded-lex sort key of a mask: its degree, then the mask itself."""
    return mask.bit_count(), mask


def mask_indices(mask: int, width: int) -> tuple[int, ...]:
    """The variables of a mask over ``width`` variables, in increasing order.

    These are the index tuples :func:`hoisted_loops` takes.
    """
    indices = []
    top = width - 1
    while mask:  # the highest set bit is the first variable
        bit = mask.bit_length() - 1
        indices.append(top - bit)
        mask ^= 1 << bit
    return tuple(indices)


def multilinear_product(a: Mapping[int, int], b: Mapping[int, int]) -> dict[int, int]:
    """The product of two term maps in disjoint sets of variables.

    No monomial of ``a`` shares a variable with one of ``b``, so each pair
    of terms gives its own mask ``ma | mb`` and no coefficients merge.
    """
    return {ma | mb: ca * cb for ma, ca in a.items() for mb, cb in b.items()}


def multilinear_text(
    terms: Mapping[int, int],
    names: tuple[str, ...],
    lone: tuple[int, int, str] | None = None,
) -> str:
    """``Polynomial.to_text`` of a term map over ``names``, byte for byte.

    ``lone`` is one more term (coeff, degree, monomial text) in a variable
    declared after every name, such as t or t^-1.  On a tie in degree its
    exponent vector is the lex-smaller one, so it prints after every term
    of degree >= its own and before the rest.  Zero coefficients print
    nothing, as the polynomial does not store them.
    """
    width = len(names)
    ordered = sorted(terms, key=multilinear_key, reverse=True)
    pairs = [
        (terms[mask], "*".join([names[i] for i in mask_indices(mask, width)]))
        for mask in ordered
    ]
    if lone is not None:
        coeff, degree, mono = lone
        at = next((i for i, mask in enumerate(ordered) if mask.bit_count() < degree), len(pairs))
        pairs.insert(at, (coeff, mono))
    return _terms_text(pairs)


# -- generated counting kernels -----------------------------------------------

# Terms per parenthesized group of an emitted sum.  Groups of groups keep the
# expression tree about log_64(terms) deep, so a sum of 20000 terms stays far
# inside the compiler's recursion limit.
SUM_CHUNK = 64
# Free variables a generated brute force binds in nested loops of their own
# inside its ``product`` loop, each with the sums hoisted out of it
# (:func:`hoisted_loops`).  Hoisting over every variable made the source
# of an A6 augmentation kernel about twice as long and slower to compile
# than it saved.
INNER_LOOPS = 3
# The indent of the lines :func:`hoisted_loops` writes: the body of a
# kernel's ``product`` loop, inside its ``def``.
LOOP_PAD = " " * 8
# Inverses a kernel's :class:`Inverses` holds before it starts over, so that
# it stays small when q is a huge prime (a tiny system counted at q ~ 10^9).
INVERSE_CACHE = 4096


class Inverses(dict):
    """b -> b^-1 mod q for b != 0, each computed on first use.

    A generated kernel binds one per call as ``inverse`` and solves a
    level by a lookup instead of ``pow(b, -1, q)`` on every iteration.
    It holds at most ``INVERSE_CACHE`` entries, all of them for
    q <= ``INVERSE_CACHE``; past that it is emptied and refilled.
    """

    __slots__ = ("q",)

    def __init__(self, q: int) -> None:
        self.q = q

    def __missing__(self, b: int) -> int:
        if len(self) >= INVERSE_CACHE:
            self.clear()
        inverse = self[b] = pow(b, -1, self.q)
        return inverse


def _scaled(coeff: str, factors: str) -> str:
    # coeff * factors, coeff an integer literal or a name.
    if not factors:
        return coeff
    if coeff == "1":
        return factors
    if coeff == "-1":
        return f"-{factors}"
    return f"{coeff}*{factors}"


def _join_sum(parts: list[str]) -> str:
    while len(parts) > SUM_CHUNK:
        parts = [
            f"({' + '.join(parts[i : i + SUM_CHUNK])})" for i in range(0, len(parts), SUM_CHUNK)
        ]
    return " + ".join(parts) or "0"


def hoisted_loops(sums, levels, name: str):
    """Nested loops over ``levels``, with the sums of ``sums`` hoisted out of them.

    ``sums`` holds (terms, test) pairs, each term (coeff, variable
    indices) with each variable ``name<i>`` at most once.  The outer
    variables, every one not in ``levels``, are bound before these
    lines.  ``levels`` holds (v, j) pairs, one nested loop each, in
    order: with j None, ``for name<v> in values:``; otherwise v runs over
    the solutions of sum j, which must read a + b v with a and b bound
    before the loop (and must not be a test).  Where b != 0 that is
    -a/b, where b = 0 != a the loop is skipped by ``continue``, and where
    a = b = 0 v runs over all of ``values``.  The lines read ``q``,
    ``values`` (``range(q)``) and, for a solved level, ``inverse`` (an
    :class:`Inverses` of q), which the caller binds before them.

    Each sum is regrouped by its monomials m in the level variables:
    every coefficient c_m is one sum over the outer variables, assigned
    once before the first loop.  Binding a level variable v replaces c_m
    and c_{m v} by one coefficient, c_m + v c_{m v}.  A test sum is
    tested, ``if (...) % q: continue``, at the first level that binds all
    its variables, and a solved sum holds by construction.  Coefficients
    are named ``c<k>``, one per distinct sum, and the residue mod q of a
    coefficient b that solves a level is named ``r<k>`` where it first
    does, and read again wherever it is needed after that.

    Returns (lines, pad, rest): the lines indented from ``LOOP_PAD``, the pad
    inside the last loop, and per sum the source of its value there, in
    the coefficients (its residue mod q where one is named), or None for
    a test or solved sum.
    """
    # A monomial in the level variables is keyed by a mask with bit d for
    # the variable of level d.
    bit_of = {v: 1 << d for d, (v, _) in enumerate(levels)}
    blocks = [[] for _ in range(len(levels) + 1)]
    named: dict[str, str] = {}
    reduced: dict[str, str] = {}  # coefficient -> the name of its residue mod q

    def atom(expr: str, depth: int) -> str:
        # An integer literal or a name stands as it is; a sum gets a name,
        # one per distinct sum.  A sum holds a variable of its own level
        # (or of none), so its name is bound wherever it is used again.
        if expr.isidentifier() or expr.lstrip("-").isdigit():
            return expr
        if expr not in named:
            named[expr] = f"c{len(named)}"
            blocks[depth].append(f"{named[expr]} = {expr}")
        return named[expr]

    def test(expr: str, depth: int) -> None:
        blocks[depth] += [f"if ({expr}) % q:", "    continue"]

    states = {}  # per live sum, {monomial in the level variables: coefficient}
    pending = []
    for j, (terms, is_test) in enumerate(sums):
        if is_test and not terms:
            continue
        grouped: dict[int, list[str]] = {}
        for coeff, indices in terms:
            key, outer = 0, []
            for i in indices:
                if i in bit_of:
                    key |= bit_of[i]
                else:
                    outer.append(f"{name}{i}")
            grouped.setdefault(key, []).append(_scaled(f"{coeff:d}", "*".join(outer)))
        if is_test and list(grouped) == [0]:
            test(_join_sum(grouped[0]), 0)  # tested before any coefficient
        else:
            pending.append((j, grouped))
    for j, grouped in pending:
        states[j] = {key: atom(_join_sum(group), 0) for key, group in grouped.items()}
    for depth, (v, solved) in enumerate(levels, start=1):
        bit = bit_of[v]
        if solved is not None:
            state = states.pop(solved)
            a, b = state.get(0, "0"), state.get(bit, "0")
            if b in reduced:  # reduced where it solved an earlier level
                r = residue = reduced[b]
            else:
                r = reduced[b] = f"r{len(reduced)}"
                residue = f"({r} := ({b}) % q)"
            blocks[depth - 1] += [
                f"if not {residue} and {a} % q:",
                "    continue",
                f"values{v} = (-{a} * inverse[{r}] % q,) if {r} else values",
            ]
        combined = {}
        for j, state in states.items():
            if not any(key & bit for key in state):
                continue
            parts: dict[int, list[str]] = {}
            for key, coeff in state.items():
                if key & bit:
                    key ^= bit
                    coeff = _scaled(coeff, f"{name}{v}")
                parts.setdefault(key, []).append(coeff)
            combined[j] = parts
        for j, parts in list(combined.items()):
            if sums[j][1] and list(parts) == [0]:
                test(" + ".join(parts[0]), depth)
                del combined[j], states[j]
        for j, parts in combined.items():
            states[j] = {key: atom(" + ".join(part), depth) for key, part in parts.items()}
    rest: list[str | None] = [None] * len(sums)
    for j, state in states.items():
        value = state.get(0, "0")
        rest[j] = reduced.get(value, value)
    lines, pad = [], LOOP_PAD
    for depth, (v, solved) in enumerate(levels):
        lines += [pad + line for line in blocks[depth]]
        lines.append(f"{pad}for {name}{v} in values{'' if solved is None else v}:")
        pad += "    "
    lines += [pad + line for line in blocks[len(levels)]]
    return lines, pad, rest


def compile_kernel(lines: list[str]):
    """The function ``kernel`` that the generated source lines define.

    Its only globals are ``product`` (``itertools.product``) and
    :class:`Inverses`; callers build the lines from :func:`hoisted_loops`
    and fixed text, never from input text.  The emitted sums hold only
    integer literals, names, ``*``, ``+``, ``-`` and parentheses.
    """
    namespace = {"product": product, "Inverses": Inverses}
    exec(compile("\n".join(lines), "<kernel>", "exec"), namespace)
    return namespace["kernel"]
