"""Moduli equations for simple microlocal sheaves on chain-of-cycles skeleta.

Two generators produce the same n-equation system in the 2n variables
x_1..x_n, a_1..a_n (monodromy trivializations along a chain of n
vanishing cycles):

* the recursion form  x_1 a_1 + 1 = -x_2,  1 + x_j a_j = a_{j-1} x_{j+1}
  (middle),  x_n a_n + 1 = -a_{n-1};
* the wedge form, imposing v_i ^ v_{i+1} = 1 on the vector tuple
  (1,0), (1,0), (-1, x_1), (a_1, x_2), ..., (a_{n-1}, x_n), (a_n, -1)
  for i in [3, n+2] (the leading gauge-fixed vectors contribute no
  equations).

Every equation is normalized to have a positive leading coefficient in
graded lex, which makes the two generators agree as exact polynomial
sets.  For n = 2, eliminating x_2 turns the system into the surface
x*y*z + x - z - 1 = 0 under (x, y, z) = (a_2, x_1, a_1).

Point counting over F_q: the chain count walks the equations left to
right with state (a_j, x_{j+1}).  Its q^2 states lump exactly into six
classes (seven with the unreachable (0, 0)), so the count is a linear
recurrence on six integers: O(n) work for every prime q, with its own
two-class branch in characteristic 2, where 1 = -1.  A budget-guarded
brute force over F_q^(2n) is the independent oracle.  The cyclic open
positroid stratum of Gr(2, n+3), reported alongside for comparison, is
counted in closed form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .exactmath import BudgetExceededError, Polynomial, RingDescriptor, is_prime

BRUTE_FORCE_BUDGET = 10**8
THETA_MAX_N = 1000

THETA_METHODS = ("recursion", "wedge")


class ThetaError(ValueError):
    pass


def theta_ring(n: int) -> RingDescriptor:
    names = tuple(f"x{i}" for i in range(1, n + 1)) + tuple(f"a{i}" for i in range(1, n + 1))
    return RingDescriptor(names)


@dataclass(frozen=True)
class ThetaSystem:
    """n equations in (x_1..x_n, a_1..a_n) describing the sheaf moduli."""

    n: int
    ring: RingDescriptor
    equations: tuple[Polynomial, ...]

    @property
    def variables(self) -> tuple[str, ...]:
        return self.ring.variables


def _sign_normalized(p: Polynomial) -> Polynomial:
    """Flip the global sign so the graded-lex leading coefficient is positive."""
    if p.is_zero():
        return p
    _, lead = p.leading_term()
    return -p if lead < 0 else p


def theta_equations_recursion(n: int) -> ThetaSystem:
    """Boundary and middle trivialization equations, sign-normalized."""
    if n < 2:
        raise ThetaError("the chain system needs n >= 2 (boundary equations collide)")
    ring = theta_ring(n)
    x = [ring.var(f"x{i}") for i in range(1, n + 1)]
    a = [ring.var(f"a{i}") for i in range(1, n + 1)]
    equations = [_sign_normalized(x[0] * a[0] + 1 + x[1])]
    for j in range(2, n):
        equations.append(_sign_normalized(ring.one() + x[j - 1] * a[j - 1] - a[j - 2] * x[j]))
    equations.append(_sign_normalized(x[n - 1] * a[n - 1] + 1 + a[n - 2]))
    return ThetaSystem(n, ring, tuple(equations))


def theta_equations_wedge(n: int) -> ThetaSystem:
    """Consecutive wedge conditions v_i ^ v_{i+1} = 1 on the vector tuple."""
    if n < 2:
        raise ThetaError("the chain system needs n >= 2 (boundary equations collide)")
    ring = theta_ring(n)
    one, zero = ring.one(), ring.zero()
    x = [ring.var(f"x{i}") for i in range(1, n + 1)]
    a = [ring.var(f"a{i}") for i in range(1, n + 1)]
    vectors = [(one, zero), (one, zero), (-one, x[0])]
    for j in range(1, n):
        vectors.append((a[j - 1], x[j]))
    vectors.append((a[n - 1], -one))
    equations = []
    for i in range(2, n + 2):  # 0-based: v_i ^ v_{i+1} for i in [3, n+2]
        (p1, q1), (p2, q2) = vectors[i], vectors[i + 1]
        equations.append(_sign_normalized(p1 * q2 - q1 * p2 - one))
    return ThetaSystem(n, ring, tuple(equations))


def theta_system(n: int, method: str = "recursion") -> ThetaSystem:
    """The chain system by the chosen generator, for 2 <= n <= THETA_MAX_N.

    Every term stores a dense exponent tuple of length 2n, so time and
    memory grow as n^2; larger n raise :class:`BudgetExceededError`.
    """
    if method not in THETA_METHODS:
        raise ThetaError(f"unknown generator {method!r}")
    if n > THETA_MAX_N:
        raise BudgetExceededError(f"n = {n} exceeds the chain-system bound {THETA_MAX_N}")
    return theta_equations_recursion(n) if method == "recursion" else theta_equations_wedge(n)


def _compile_terms(p: Polynomial) -> tuple:
    """Precompile for F_q evaluation: (coeff, ((variable index, exponent), ..))."""
    return tuple(
        (int(coeff), tuple((idx, e) for idx, e in enumerate(exp) if e))
        for exp, coeff in p.terms.items()
    )


def count_theta_points_brute(system: ThetaSystem, q: int, budget: int = BRUTE_FORCE_BUDGET) -> int:
    """Oracle: enumerate F_q^(2n) and test every equation."""
    if not is_prime(q):
        raise ThetaError(f"{q} is not prime")
    nvars = 2 * system.n
    if q**nvars > budget:
        raise BudgetExceededError(f"q^(2n) = {q}^{nvars} exceeds the enumeration budget")
    compiled = [_compile_terms(eq) for eq in system.equations]

    def vanishes(terms, values) -> bool:
        total = 0
        for coeff, factors in terms:
            for idx, e in factors:
                coeff *= values[idx] ** e
            total += coeff
        return total % q == 0

    count = 0
    for values in itertools.product(range(q), repeat=nvars):
        if all(vanishes(terms, values) for terms in compiled):
            count += 1
    return count


def count_theta_points_chain(n: int, q: int) -> int:
    """Exact count via the chain structure of the equations.

    Processing vanishing cycles left to right, the state after step j is
    (a_j, x_{j+1}).  E_1 sends the q^2 choices of (x_1, a_1) to
    x_2 = -1 - x_1 a_1.  A middle equation 1 + x_j a_j = a_{j-1} x_{j+1}
    sends a state (a, x) with x != 0 to (-1/x, 0) and to one state
    (*, x') for every x' != 0; it sends (a, 0) with a != 0 to q states
    (*, 1/a), and (0, 0) to none.  E_n keeps every state with x_n != 0
    once and (-1, 0) with a free a_n.  So the state counts lump exactly
    into classes by x, or by a when x = 0:

        p = (1, 0), m = (-1, 0), r = (a, 0) with a not in {0, 1, -1},
        x1 = (*, 1), xm = (*, -1), xr = (*, x) with x not in {0, 1, -1}.

    With o = q - 3 and s = x1 + xm + xr, a middle step maps

        p, m, r <- xm, x1, xr
        x1, xm, xr <- s + q p, s + q m, o s + q r

    and the count is s + q m: O(n) integer operations for every prime.
    In characteristic 2, 1 = -1, so p = m and x1 = xm are single classes
    and r, xr are empty: a step maps (p, x) <- (x, x + 2 p), and the
    count is x + 2 p.
    """
    if n < 2:
        raise ThetaError("the chain system needs n >= 2")
    if not is_prime(q):
        raise ThetaError(f"{q} is not prime")
    if q == 2:
        p, x = 1, 3
        for _ in range(2, n):
            p, x = x, x + 2 * p
        return x + 2 * p
    o = q - 3
    p, m, r = 1, 1, o
    x1, xm, xr = q - 1, 2 * q - 1, (q - 1) * o
    for _ in range(2, n):
        s = x1 + xm + xr
        p, m, r, x1, xm, xr = xm, x1, xr, s + q * p, s + q * m, o * s + q * r
    return x1 + xm + xr + q * m


def eliminate_x2(system: ThetaSystem) -> Polynomial:
    """For n = 2: substitute x_2 = -1 - x_1 a_1 into the second equation.

    The sign-normalized result equals x*y*z + x - z - 1 under the variable
    relabeling (x, y, z) = (a_2, x_1, a_1).
    """
    if system.n != 2:
        raise ThetaError("elimination shortcut is defined for n = 2")
    ring = system.ring
    x1a1 = ring.var("x1") * ring.var("a1")
    replacement = -ring.one() - x1a1
    return _sign_normalized(system.equations[1].substitute("x2", replacement))


def interpolate_integer_polynomial(points: list[tuple[int, int]]) -> list[Fraction] | None:
    """Coefficients (ascending degree) of the poly through the given points.

    Newton's divided differences over exact rationals; returns None when
    any coefficient fails to be an integer.
    """
    xs = [Fraction(x) for x, _ in points]
    ys = [Fraction(y) for _, y in points]
    m = len(points)
    table = list(ys)
    newton = []
    for level in range(m):
        newton.append(table[0])
        table = [
            (table[i + 1] - table[i]) / (xs[i + 1 + level] - xs[i])
            for i in range(len(table) - 1)
        ]
    # Expand Newton form into monomial coefficients.
    coeffs = [Fraction(0)] * m
    basis = [Fraction(1)] + [Fraction(0)] * (m - 1)
    for level in range(m):
        for i, c in enumerate(basis):
            coeffs[i] += newton[level] * c
        # basis *= (x - xs[level])
        new_basis = [Fraction(0)] * m
        for i, c in enumerate(basis):
            if c == 0:
                continue
            if i + 1 < m:
                new_basis[i + 1] += c
            new_basis[i] -= c * xs[level]
        basis = new_basis
    if any(c.denominator != 1 for c in coeffs):
        return None
    return coeffs


def check_point_count_polynomiality(
    n: int, primes: tuple[int, ...] = (2, 3, 5, 7, 11)
) -> dict:
    """Fit counts over the first deg+1 primes and verify on the rest.

    The interpolation degree is n (the dimension of the chain system);
    returns the counts, integer coefficients, and verification outcome.
    """
    counts = [(q, count_theta_points_chain(n, q)) for q in primes]
    need = n + 1
    if len(counts) < need:
        raise ThetaError(f"need at least {need} primes to interpolate degree {n}")
    coeffs = interpolate_integer_polynomial(counts[:need])
    result = {
        "n": n,
        "counts": counts,
        "degree": n,
        "integer_coefficients": coeffs is not None,
        "verified": False,
    }
    if coeffs is None:
        return result

    def value(q: int) -> int:
        total = Fraction(0)
        for i, c in enumerate(coeffs):
            total += c * q**i
        return int(total)

    result["coefficients"] = [int(c) for c in coeffs]
    result["verified"] = all(value(q) == count for q, count in counts[need:])
    return result


# -- exploratory positroid comparison ----------------------------------------


def count_positroid_points(n: int, q: int) -> int:
    """Points of the cyclic open positroid stratum in Gr(2, n+3) over F_q.

    The stratum is the set of row spans of rank-2 matrices 2 x m, m = n+3,
    whose cyclically consecutive Pluecker minors P_{i,i+1} (indices mod m)
    all vanish nowhere.  Its columns form a closed walk v_1, .., v_m in
    F_q^2 minus 0 with v_i ^ v_{i+1} != 0, and GL_2(F_q) acts freely on
    such walks.  The transfer matrix A of "v ^ w != 0" is J minus one
    all-ones block per line through 0, with eigenvalues q^2 - q (once),
    1 - q (q times) and 0, so the count is

        tr(A^m) / |GL_2(F_q)| = ((q^2 - q)^m + q (1 - q)^m) / ((q^2 - 1)(q^2 - q))
                              = (q - 1)^(n+1) (q^(n+2) + (-1)^(n+1)) / (q + 1).

    Reported alongside the chain count for comparison; the torus-factor
    relation between the two is not asserted.
    """
    if n < 2:
        raise ThetaError("the chain system needs n >= 2")
    if not is_prime(q):
        raise ThetaError(f"{q} is not prime")
    return (q - 1) ** (n + 1) * (q ** (n + 2) + (-1) ** (n + 1)) // (q + 1)


def system_to_json_dict(system: ThetaSystem) -> dict:
    return {
        "n": system.n,
        "variables": list(system.variables),
        "equations": [eq.to_text() for eq in system.equations],
    }
