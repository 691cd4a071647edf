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
two-class branch in characteristic 2, where 1 = -1.  The cyclic open
positroid stratum of Gr(2, n+3), reported alongside for comparison, is
counted in closed form.

The oracles live in :mod:`checks`: the dense polynomials of a system
(``theta_polynomials``), the elimination of x_2 for n = 2, a
budget-guarded brute force over F_q^(2n) and the integer interpolation
of the polynomiality check.  So a counting process compiles none of them.
"""

from __future__ import annotations

from .fqmath import (
    BudgetExceededError,
    is_prime,
    multilinear_key,
    multilinear_product,
    multilinear_text,
)
from .records import Record

THETA_MAX_N = 1000

THETA_METHODS = ("recursion", "wedge")


class ThetaError(ValueError):
    pass


def theta_variables(n: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(1, n + 1)) + tuple(f"a{i}" for i in range(1, n + 1))


class ThetaSystem(Record):
    """n equations in (x_1..x_n, a_1..a_n) describing the sheaf moduli.

    Each equation is a multilinear term map (:mod:`fqmath`) over the 2n
    variables: x_i at bit 2n - i, a_i at bit n - i.
    """

    __slots__ = ("n", "equations")

    @property
    def variables(self) -> tuple[str, ...]:
        return theta_variables(self.n)


def theta_masks(n: int) -> tuple[list[int], list[int]]:
    """The one-bit masks of x_1..x_n and of a_1..a_n."""
    return [1 << (2 * n - i) for i in range(1, n + 1)], [1 << (n - i) for i in range(1, n + 1)]


def sign_normalized(terms: dict[int, int]) -> dict[int, int]:
    """Flip the global sign so the graded-lex leading coefficient is positive."""
    if terms and terms[max(terms, key=multilinear_key)] < 0:
        return {mask: -coeff for mask, coeff in terms.items()}
    return terms


def theta_equations_recursion(n: int) -> ThetaSystem:
    """Boundary and middle trivialization equations, sign-normalized."""
    if n < 2:
        raise ThetaError("the chain system needs n >= 2 (boundary equations collide)")
    x, a = theta_masks(n)
    equations = [sign_normalized({x[0] | a[0]: 1, 0: 1, x[1]: 1})]
    for j in range(2, n):
        equations.append(sign_normalized({0: 1, x[j - 1] | a[j - 1]: 1, a[j - 2] | x[j]: -1}))
    equations.append(sign_normalized({x[n - 1] | a[n - 1]: 1, 0: 1, a[n - 2]: 1}))
    return ThetaSystem(n, tuple(equations))


def _wedge_minus_one(v: tuple[dict, dict], w: tuple[dict, dict]) -> dict[int, int]:
    """v ^ w - 1 = p1 q2 - q1 p2 - 1 for v = (p1, q1), w = (p2, q2).

    Each product pairs entries in disjoint variables.
    """
    (p1, q1), (p2, q2) = v, w
    terms = multilinear_product(p1, q2)
    for mask, coeff in multilinear_product(q1, p2).items():
        terms[mask] = terms.get(mask, 0) - coeff
    terms[0] = terms.get(0, 0) - 1
    return {mask: coeff for mask, coeff in terms.items() if coeff}


def theta_equations_wedge(n: int) -> ThetaSystem:
    """Consecutive wedge conditions v_i ^ v_{i+1} = 1 on the vector tuple."""
    if n < 2:
        raise ThetaError("the chain system needs n >= 2 (boundary equations collide)")
    x, a = ([{mask: 1} for mask in masks] for masks in theta_masks(n))
    one, minus_one, zero = {0: 1}, {0: -1}, {}
    vectors = [(one, zero), (one, zero), (minus_one, x[0])]
    for j in range(1, n):
        vectors.append((a[j - 1], x[j]))
    vectors.append((a[n - 1], minus_one))
    equations = [
        sign_normalized(_wedge_minus_one(vectors[i], vectors[i + 1]))
        for i in range(2, n + 2)  # 0-based: v_i ^ v_{i+1} for i in [3, n+2]
    ]
    return ThetaSystem(n, tuple(equations))


def theta_system(n: int, method: str = "recursion") -> ThetaSystem:
    """The chain system by the chosen generator, for 2 <= n <= THETA_MAX_N.

    Both generators build n equations of at most four terms, each term
    one integer mask, so time and memory grow as n; larger n raise
    :class:`BudgetExceededError`.
    """
    if method not in THETA_METHODS:
        raise ThetaError(f"unknown generator {method!r}")
    if n > THETA_MAX_N:
        raise BudgetExceededError(f"n = {n} exceeds the chain-system bound {THETA_MAX_N}")
    return theta_equations_recursion(n) if method == "recursion" else theta_equations_wedge(n)


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
    names = system.variables
    return {
        "n": system.n,
        "variables": list(names),
        "equations": [multilinear_text(eq, names) for eq in system.equations],
    }
