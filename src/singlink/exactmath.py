"""Exact sparse multivariate Laurent polynomial arithmetic.

A polynomial is a map from exponent vectors to nonzero coefficients,
attached to a ring descriptor that fixes the variable names, their order
and which variables are allowed negative exponents (Laurent variables).
Coefficients are Python integers: every polynomial the pipeline builds
(cluster variables, braid matrix entries, chain-system equations) lies
over Z, and counts over F_q reduce integer coefficients mod q.

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
from dataclasses import dataclass, field
from itertools import compress, repeat
from typing import Iterable, Mapping


class ExactMathError(ValueError):
    """Base class for errors raised by this module."""


class BudgetExceededError(ValueError):
    """A count, product or enumeration outgrew its budget (CLI exit code 3).

    ``cap`` is the exceeded budget where the caller states one.
    """

    def __init__(self, message: str, cap: int | None = None):
        super().__init__(message)
        self.cap = cap


class RingMismatchError(ExactMathError):
    pass


class SubstitutionError(ExactMathError):
    pass


class EvaluationError(ExactMathError):
    pass


class PolynomialParseError(ExactMathError):
    pass


class DivisionError(ExactMathError):
    pass


_VAR_TOKEN = re.compile(r"[A-Za-z][A-Za-z0-9]*\Z")


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


def _coeff(value) -> int:
    # Integers only: a float or a fraction is rejected, never truncated.
    try:
        return operator.index(value)
    except TypeError:
        raise ExactMathError(f"{value!r} is not an integer coefficient") from None


@dataclass(frozen=True)
class RingDescriptor:
    """Ambient ring over Z: ordered variable names and Laurent flags.

    The declared variable order is part of the data: it fixes exponent
    vector layout and the graded-lex term order used for printing.
    """

    variables: tuple[str, ...]
    laurent: frozenset[str] = frozenset()
    _index: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "laurent", frozenset(self.laurent))
        if len(set(self.variables)) != len(self.variables):
            raise ExactMathError("variable names must be unique")
        for name in self.variables:
            if not _VAR_TOKEN.match(name):
                raise ExactMathError(f"invalid variable name {name!r}")
        unknown = self.laurent - set(self.variables)
        if unknown:
            raise ExactMathError(f"Laurent flags for unknown variables {sorted(unknown)}")
        object.__setattr__(self, "_index", {v: i for i, v in enumerate(self.variables)})

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
    # Sort key for descending graded lex: larger total degree first, then
    # lexicographically larger exponent vector (first variable most significant).
    return (-sum(exp), tuple(map(operator.neg, exp)))


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

    def constant_value(self):
        """Coefficient of the constant monomial (0 if absent)."""
        return self.terms.get((0,) * self.ring.nvars, 0)

    def leading_term(self) -> tuple[tuple[int, ...], int]:
        if not self.terms:
            raise ExactMathError("zero polynomial has no leading term")
        exp = min(self.terms, key=_grlex_key)
        return exp, self.terms[exp]

    def variables_used(self) -> set[str]:
        used = set()
        for exp in self.terms:
            for name, e in zip(self.ring.variables, exp):
                if e != 0:
                    used.add(name)
        return used

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
        if len(self.terms) * len(other.terms) > 4096 and self.ring.nvars > 1:
            return _mul_packed(self, other)
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

    # -- substitution, evaluation ------------------------------------------

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

    def evaluate_mod(self, assignment: Mapping[str, int], q: int) -> int:
        """Evaluate in the prime field F_q at the given variable assignment.

        Every variable of the ring must be assigned; Laurent variables must
        get nonzero values (their inverses are needed).
        """
        if not is_prime(q):
            raise EvaluationError(f"modulus {q} is not prime")
        values = []
        for name in self.ring.variables:
            if name not in assignment:
                raise EvaluationError(f"missing assignment for variable {name!r}")
            v = assignment[name] % q
            if v == 0 and name in self.ring.laurent:
                raise EvaluationError(f"Laurent variable {name!r} assigned zero")
            values.append(v)
        total = 0
        for exp, coeff in self.terms.items():
            term = coeff % q
            for v, e in zip(values, exp):
                if e == 0:
                    continue
                if e < 0:
                    if v == 0:
                        raise EvaluationError("zero raised to negative power")
                    term = term * pow(pow(v, q - 2, q), -e, q) % q
                else:
                    term = term * pow(v, e, q) % q
            total = (total + term) % q
        return total

    # -- printing ----------------------------------------------------------

    def _monomial_text(self, exp: tuple[int, ...]) -> str:
        return "*".join(
            name if e == 1 else f"{name}^{e}"
            for name, e in compress(zip(self.ring.variables, exp), exp)
        )

    def to_text(self) -> str:
        """Deterministic serialization; round-trips through :func:`parse_polynomial`."""
        if not self.terms:
            return "0"
        chunks = []
        for exp in sorted(self.terms, key=_grlex_key):
            coeff = self.terms[exp]
            mono = self._monomial_text(exp)
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
        return " ".join(chunks)

    def __str__(self) -> str:
        return self.to_text()


def _exp_box(terms) -> tuple[list[int], list[int]]:
    columns = list(zip(*terms))
    return list(map(min, columns)), list(map(max, columns))


def _pack(terms, low, weights) -> list[int]:
    """Each exponent vector e of ``terms`` as the integer sum_i (e_i - low_i) * weights[i]."""
    mul = operator.mul
    offset = sum(map(mul, low, weights))
    return [sum(map(mul, exp, weights)) - offset for exp in terms]


def _unpack(key: int, shifts, masks):
    return map(operator.and_, map(operator.rshift, repeat(key), shifts), masks)


def _mul_packed(a: Polynomial, b: Polynomial) -> Polynomial:
    """Large-product fast path: exponent vectors packed into single integers.

    Field widths are sized per multiplication from the operands' exponent
    boxes, so packed addition can never carry between fields; the result
    is exactly the schoolbook product.
    """
    sub = operator.sub
    alo, ahi = _exp_box(a.terms)
    blo, bhi = _exp_box(b.terms)
    shifts, masks = [], []
    shift = 0
    for span in map(operator.add, map(sub, ahi, alo), map(sub, bhi, blo)):
        width = max(span.bit_length(), 1)
        shifts.append(shift)
        masks.append((1 << width) - 1)
        shift += width

    weights = [1 << s for s in shifts]
    packed_b = list(zip(_pack(b.terms, blo, weights), b.terms.values()))
    out: dict[int, int] = {}
    get = out.get
    for k1, c1 in zip(_pack(a.terms, alo, weights), a.terms.values()):
        for k2, c2 in packed_b:
            key = k1 + k2
            s = get(key, 0) + c1 * c2
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s

    base = list(map(operator.add, alo, blo))
    result = {
        tuple(map(operator.add, _unpack(key, shifts, masks), base)): coeff
        for key, coeff in out.items()
    }
    return _fast_poly(a.ring, result)


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

    @classmethod
    def identity(cls, ring: RingDescriptor, n: int) -> "PolyMatrix":
        one, zero = ring.one(), ring.zero()
        return cls(ring, [[one if i == j else zero for j in range(n)] for i in range(n)])

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
