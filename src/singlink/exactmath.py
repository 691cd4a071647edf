"""Exact sparse multivariate Laurent polynomial arithmetic.

A polynomial is a map from exponent vectors to nonzero coefficients,
attached to a ring descriptor that fixes the variable names, their order
and which variables are allowed negative exponents (Laurent variables).
Coefficients are Python integers: cluster variables and the dense
equations of the counting oracles all lie over Z.

Canonical form: zero coefficients are never stored, and the printed form
orders terms by graded lex (total degree descending, ties broken
lexicographically by the declared variable order).  Two polynomials are
equal iff their rings and term maps are equal, so canonical forms are
directly comparable and hashable.
"""

from __future__ import annotations

import heapq
import operator
import re
from itertools import compress, repeat
from typing import Iterable, Mapping

from .fqmath import ExactMathError, _terms_text, mask_indices
from .records import Record


class RingMismatchError(ExactMathError):
    pass


class SubstitutionError(ExactMathError):
    pass


class PolynomialParseError(ExactMathError):
    pass


class DivisionError(ExactMathError):
    pass


_VAR_TOKEN = re.compile(r"[A-Za-z][A-Za-z0-9]*\Z")


def _coeff(value) -> int:
    # Integers only: a float or a fraction is rejected, never truncated.
    try:
        return operator.index(value)
    except TypeError:
        raise ExactMathError(f"{value!r} is not an integer coefficient") from None


class RingDescriptor(Record):
    """Ambient ring over Z: ordered variable names and Laurent flags.

    The declared variable order is part of the data: it fixes exponent
    vector layout and the graded-lex term order used for printing.
    ``_index`` maps each name to its position; it is not a field.
    """

    __slots__ = ("variables", "laurent", "_index")

    def __init__(self, variables: tuple[str, ...], laurent: frozenset[str] = frozenset()) -> None:
        super().__init__(tuple(variables), frozenset(laurent))
        variables = self.variables
        if len(set(variables)) != len(variables):
            raise ExactMathError("variable names must be unique")
        for name in variables:
            if not _VAR_TOKEN.match(name):
                raise ExactMathError(f"invalid variable name {name!r}")
        unknown = self.laurent - set(variables)
        if unknown:
            raise ExactMathError(f"Laurent flags for unknown variables {sorted(unknown)}")
        object.__setattr__(self, "_index", {v: i for i, v in enumerate(variables)})

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ExactMathError(f"unknown variable {name!r}") from None

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, value) -> "Polynomial":
        c = _coeff(value)
        if c == 0:
            return Polynomial(self, {})
        return Polynomial(self, {(0,) * self.nvars: c})

    def var(self, name: str, power: int = 1) -> "Polynomial":
        i = self.index(name)
        if power < 0 and name not in self.laurent:
            raise ExactMathError(f"negative exponent on non-Laurent variable {name!r}")
        if power == 0:
            return self.one()
        exp = [0] * self.nvars
        exp[i] = power
        return Polynomial(self, {tuple(exp): 1})


def _grlex_key(exp: tuple[int, ...]):
    # Graded lex key: total degree, then the exponent vector itself (first
    # variable most significant).  Terms print in descending key order.
    return (sum(exp), exp)


def _fast_poly(ring: RingDescriptor, terms: dict) -> "Polynomial":
    # Internal constructor for terms already in canonical form.
    p = object.__new__(Polynomial)
    p.ring = ring
    p.terms = terms
    p._hash = None
    return p


class Polynomial:
    """Immutable sparse Laurent polynomial over a :class:`RingDescriptor`."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: RingDescriptor, terms: Mapping[tuple[int, ...], int]):
        self.ring = ring
        clean = {}
        nv = ring.nvars
        all_laurent = len(ring.laurent) == nv
        for exp, coeff in terms.items():
            if len(exp) != nv:
                raise ExactMathError("exponent vector length does not match ring")
            c = coeff if type(coeff) is int else _coeff(coeff)
            if c == 0:
                continue
            if not all_laurent and min(exp, default=0) < 0:
                for name, e in zip(ring.variables, exp):
                    if e < 0 and name not in ring.laurent:
                        raise ExactMathError(
                            f"negative exponent on non-Laurent variable {name!r}"
                        )
            clean[tuple(exp)] = c
        self.terms = clean
        self._hash = None

    # -- basic structure -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def leading_term(self) -> tuple[tuple[int, ...], int]:
        if not self.terms:
            raise ExactMathError("zero polynomial has no leading term")
        exp = max(self.terms, key=_grlex_key)
        return exp, self.terms[exp]

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ring.variables, frozenset(self.terms.items())))
        return self._hash

    def __repr__(self) -> str:
        return f"Polynomial({self.to_text()!r})"

    # -- arithmetic -------------------------------------------------------

    def _check_ring(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise RingMismatchError("polynomials live in different rings")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = out.get(exp, 0) + c
            if s == 0:
                out.pop(exp, None)
            else:
                out[exp] = s
        return _fast_poly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return _fast_poly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        add = operator.add
        out: dict[tuple[int, ...], int] = {}
        get = out.get
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(map(add, e1, e2))
                s = get(exp, 0) + c1 * c2
                if s == 0:
                    out.pop(exp, None)
                else:
                    out[exp] = s
        return _fast_poly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ExactMathError("polynomial powers must be non-negative integers")
        result = None  # the ring's one until a factor is taken
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return self.ring.one() if result is None else result

    # -- substitution -----------------------------------------------------

    def substitute(self, name: str, replacement: "Polynomial") -> "Polynomial":
        """Replace every occurrence of ``name`` by ``replacement``, exactly expanded.

        Rejected if the variable carries a negative exponent anywhere in
        this polynomial (substituting into t^-1 has no polynomial meaning).
        """
        idx = self.ring.index(name)
        self._check_ring(replacement)
        if any(exp[idx] < 0 for exp in self.terms):
            raise SubstitutionError(
                f"cannot substitute into {name!r}: negative exponents present"
            )
        result = self.ring.zero()
        power_cache: dict[int, Polynomial] = {0: self.ring.one()}
        for exp, coeff in self.terms.items():
            e = exp[idx]
            if e not in power_cache:
                power_cache[e] = replacement ** e
            rest = list(exp)
            rest[idx] = 0
            mono = Polynomial(self.ring, {tuple(rest): coeff})
            result = result + mono * power_cache[e]
        return result

    # -- printing ----------------------------------------------------------

    def _monomial_text(self, exp: tuple[int, ...]) -> str:
        return "*".join(
            name if e == 1 else f"{name}^{e}"
            for name, e in compress(zip(self.ring.variables, exp), exp)
        )

    def to_text(self) -> str:
        """Deterministic serialization; round-trips through :func:`parse_polynomial`."""
        terms = self.terms
        return _terms_text(
            (terms[exp], self._monomial_text(exp))
            for exp in sorted(terms, key=_grlex_key, reverse=True)
        )

    def __str__(self) -> str:
        return self.to_text()


def _pack(terms, low, weights) -> list[int]:
    """Each exponent vector e of ``terms`` as the integer sum_i (e_i - low_i) * weights[i]."""
    mul = operator.mul
    offset = sum(map(mul, low, weights))
    return [sum(map(mul, exp, weights)) - offset for exp in terms]


def _unpack(key: int, shifts, masks):
    return map(operator.and_, map(operator.rshift, repeat(key), shifts), masks)


# -- exact division -------------------------------------------------------


def divide_exact(num: Polynomial, den: Polynomial) -> Polynomial:
    """Exact division ``num / den`` in the Laurent polynomial ring.

    Both arguments are shifted by their per-variable minimum exponents
    into the ordinary polynomial ring, divided by leading-term
    cancellation (graded lex), and the monomial shift is restored.
    Raises :class:`DivisionError` when the quotient does not exist in the
    ring: a leading monomial that the divisor's does not divide, a
    coefficient that its leading coefficient does not divide, or a
    quotient with a negative exponent on a non-Laurent variable.

    The division runs on packed monomials.  After the shift every
    exponent is >= 0, and no term of the running remainder has a larger
    total degree than the shifted dividend, so every exponent is at most
    ``top`` = the largest total degree of either operand.  A monomial is
    one integer: its total degree in the top field, then one field of
    ``width`` = top.bit_length() + 1 bits per variable, variable 0 most
    significant.  Integer order is then graded lex.  The top bit of each
    variable field is a guard: ``(w | guard) - d`` cannot borrow across
    fields, and clears the guard of exactly the fields where w < d.
    """
    if num.ring != den.ring:
        raise RingMismatchError("polynomials live in different rings")
    if den.is_zero():
        raise DivisionError("division by zero polynomial")
    if num.is_zero():
        return num
    # The true per-variable minimum: a Laurent quotient, when it exists,
    # is then an ordinary polynomial.
    num_shift = tuple(map(min, zip(*num.terms)))
    den_shift = tuple(map(min, zip(*den.terms)))
    top = max(
        max(map(sum, num.terms)) - sum(num_shift),
        max(map(sum, den.terms)) - sum(den_shift),
    )
    nv = num.ring.nvars
    width = top.bit_length() + 1
    shifts = range((nv - 1) * width, -1, -width)
    # Weight 2^(nv*width) + 2^shift per variable also sums the total degree.
    weights = [(1 << (nv * width)) + (1 << s) for s in shifts]
    guard = sum(1 << (s + width - 1) for s in shifts)
    work = dict(zip(_pack(num.terms, num_shift, weights), num.terms.values()))
    dterms = list(zip(_pack(den.terms, den_shift, weights), den.terms.values()))
    dlead, dlead_coeff = max(dterms)
    quotient: dict[int, int] = {}
    # Leading terms are extracted through a lazy-deletion max-heap of
    # negated keys: keys whose coefficients have cancelled are skipped.
    heap = [-key for key in work]
    heapq.heapify(heap)
    heappush, heappop = heapq.heappush, heapq.heappop
    while work:
        while -heap[0] not in work:
            heappop(heap)
        wlead = -heap[0]
        diff = (wlead | guard) - dlead
        if diff & guard != guard:
            raise DivisionError("inexact polynomial division (monomial mismatch)")
        qexp = diff ^ guard
        qc = _int_div(work[wlead], dlead_coeff)
        quotient[qexp] = qc
        for dexp, dc in dterms:
            exp = qexp + dexp
            old = work.get(exp)
            s = (0 if old is None else old) - qc * dc
            if s == 0:
                work.pop(exp, None)
            else:
                if old is None:
                    heappush(heap, -exp)
                work[exp] = s
    shift = tuple(map(operator.sub, num_shift, den_shift))
    masks = repeat((1 << (width - 1)) - 1)
    result = {
        tuple(map(operator.add, _unpack(key, shifts, masks), shift)): c
        for key, c in quotient.items()
    }
    try:
        return Polynomial(num.ring, result)
    except ExactMathError as exc:
        raise DivisionError(f"quotient leaves the ring: {exc}") from None


def _int_div(a: int, b: int) -> int:
    if a % b != 0:
        raise DivisionError("inexact polynomial division (coefficient mismatch)")
    return a // b


# -- multilinear term maps as dense polynomials -------------------------------


def multilinear_polynomial(
    ring: RingDescriptor, terms: Mapping[int, int], width: int | None = None
) -> Polynomial:
    """A term map (:mod:`fqmath`) as a dense :class:`Polynomial`, for oracles and tests.

    The masks cover the first ``width`` variables of ``ring`` (all of them
    by default); a mask with a bit beyond them is rejected.
    """
    nv = ring.nvars
    width = nv if width is None else width
    dense = {}
    for mask, coeff in terms.items():
        if mask >> width:
            raise ExactMathError(f"mask {mask:#x} has a bit beyond {width} variables")
        exp = [0] * nv
        for i in mask_indices(mask, width):
            exp[i] = 1
        dense[tuple(exp)] = coeff
    return Polynomial(ring, dense)


# -- parsing ----------------------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z][A-Za-z0-9]*|\^|\*|\+|-)")


def parse_polynomial(text: str, ring: RingDescriptor) -> Polynomial:
    """Parse the polynomial text grammar into canonical form.

    Grammar: ``term (("+"|"-") term)*`` with
    ``term = [coeff "*"] var["^" int] ("*" var["^" int])*``; a bare
    number is also a term.  Exponents may be negative only on Laurent
    variables.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise PolynomialParseError(f"unexpected input at {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()

    i = 0

    def peek():
        return tokens[i] if i < len(tokens) else None

    def take():
        nonlocal i
        tok = tokens[i]
        i += 1
        return tok

    def parse_int() -> int:
        sign = 1
        while peek() in ("+", "-"):
            if take() == "-":
                sign = -sign
        tok = peek()
        if tok is None or not tok.isdigit():
            raise PolynomialParseError("expected integer")
        return sign * int(take())

    def parse_term(sign: int) -> Polynomial:
        coeff = None
        factors: list[tuple[str, int]] = []
        while True:
            tok = peek()
            if tok is None:
                break
            if tok.isdigit():
                value = int(take())
                coeff = value if coeff is None else coeff * value
            elif _VAR_TOKEN.match(tok):
                name = take()
                power = 1
                if peek() == "^":
                    take()
                    power = parse_int()
                factors.append((name, power))
            else:
                raise PolynomialParseError(f"unexpected token {tok!r}")
            if peek() == "*":
                take()
                continue
            break
        if coeff is None and not factors:
            raise PolynomialParseError("empty term")
        result = ring.const(sign if coeff is None else sign * coeff)
        for name, power in factors:
            if power < 0 and name not in ring.laurent:
                raise PolynomialParseError(
                    f"negative exponent on non-Laurent variable {name!r}"
                )
            result = result * ring.var(name, power)
        return result

    total = ring.zero()
    sign = 1
    while peek() in ("+", "-"):
        if take() == "-":
            sign = -sign
    total = total + parse_term(sign)
    while peek() is not None:
        tok = take()
        if tok == "+":
            sign = 1
        elif tok == "-":
            sign = -1
        else:
            raise PolynomialParseError(f"expected '+' or '-', got {tok!r}")
        while peek() in ("+", "-"):
            if take() == "-":
                sign = -sign
        total = total + parse_term(sign)
    return total


# -- polynomial matrices -----------------------------------------------------


class PolyMatrix:
    """Rectangular matrix of polynomials sharing one ring."""

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring: RingDescriptor, entries: Iterable[Iterable[Polynomial]]):
        grid = tuple(tuple(row) for row in entries)
        if not grid or not grid[0]:
            raise ExactMathError("matrix must be non-empty")
        ncols = len(grid[0])
        for row in grid:
            if len(row) != ncols:
                raise ExactMathError("matrix rows must have equal length")
            for entry in row:
                if entry.ring != ring:
                    raise RingMismatchError("matrix entries in different rings")
        self.ring = ring
        self.rows = len(grid)
        self.cols = ncols
        self.entries = grid

    def __getitem__(self, key: tuple[int, int]) -> Polynomial:
        i, j = key
        return self.entries[i][j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.ring == other.ring and self.entries == other.entries

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ExactMathError("matrix shapes do not compose")
        if self.ring != other.ring:
            raise RingMismatchError("matrices in different rings")
        zero = self.ring.zero()
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = zero
                for k in range(self.cols):
                    a = self.entries[i][k]
                    b = other.entries[k][j]
                    if a.is_zero() or b.is_zero():
                        continue
                    acc = acc + a * b
                row.append(acc)
            out.append(row)
        return PolyMatrix(self.ring, out)

    def det(self) -> Polynomial:
        """Determinant by column-subset minor expansion (exact)."""
        if self.rows != self.cols:
            raise ExactMathError("determinant of non-square matrix")
        n = self.rows
        cache: dict[tuple[int, ...], Polynomial] = {(): self.ring.one()}

        def minor(row: int, cols: tuple[int, ...]) -> Polynomial:
            if cols in cache:
                return cache[cols]
            acc = self.ring.zero()
            for pos, col in enumerate(cols):
                entry = self.entries[row][col]
                if entry.is_zero():
                    continue
                rest = cols[:pos] + cols[pos + 1 :]
                sub = minor(row + 1, rest)
                contrib = entry * sub
                acc = acc + (contrib if pos % 2 == 0 else -contrib)
            cache[cols] = acc
            return acc

        return minor(0, tuple(range(n)))
