"""Tests for the chain sheaf-moduli systems and point counts."""

import itertools

import pytest

from singlink.augment import count_solutions_dp
from singlink.exactmath import is_prime, parse_polynomial
from singlink.links import ade_braid, append_full_twist, parse_ade_label
from singlink.sheafmoduli import (
    THETA_MAX_N,
    BudgetExceededError,
    ThetaError,
    check_point_count_polynomiality,
    count_positroid_points,
    count_theta_points_brute,
    count_theta_points_chain,
    eliminate_x2,
    interpolate_integer_polynomial,
    system_to_json_dict,
    theta_equations_recursion,
    theta_equations_wedge,
    theta_system,
)

PRIMES_TO_23 = (2, 3, 5, 7, 11, 13, 17, 19, 23)


def chain_count_by_state_dp(n: int, q: int) -> int:
    """Oracle: the chain walk over all q^2 states (a_j, x_{j+1}), n q^3 work.

    E_1 gives x_2 = -1 - x_1 a_1; a middle equation
    1 + x_j a_j = a_{j-1} x_{j+1} fixes x_{j+1} when a_{j-1} != 0, or
    fixes a_j = -1/x_j and frees x_{j+1} when a_{j-1} = 0; E_n keeps
    x_n != 0 once and (a_{n-1}, x_n) = (-1, 0) with a free a_n.
    """
    inverse = {v: pow(v, q - 2, q) for v in range(1, q)}
    states: dict[tuple[int, int], int] = {}
    for x1 in range(q):
        for a1 in range(q):
            key = (a1, (-1 - x1 * a1) % q)
            states[key] = states.get(key, 0) + 1
    for _ in range(2, n):
        new_states: dict[tuple[int, int], int] = {}
        for (a_prev, x_j), count in states.items():
            if a_prev != 0:
                inv = inverse[a_prev]
                for a_j in range(q):
                    key = (a_j, (1 + x_j * a_j) * inv % q)
                    new_states[key] = new_states.get(key, 0) + count
            elif x_j != 0:
                a_j = (-inverse[x_j]) % q
                for x_next in range(q):
                    key = (a_j, x_next)
                    new_states[key] = new_states.get(key, 0) + count
        states = new_states
    total = 0
    for (a_prev, x_n), count in states.items():
        if x_n != 0:
            total += count
        elif a_prev == q - 1:
            total += count * q
    return total


def grassmannian_point_count(m: int, q: int) -> int:
    """Points of Gr(2, m) over F_q."""
    return (q**m - 1) * (q ** (m - 1) - 1) // ((q**2 - 1) * (q - 1))


def positroid_count_by_enumeration(n: int, q: int) -> int:
    """Oracle: walk every point of Gr(2, n+3) as a row-reduced 2 x (n+3)
    matrix and keep those whose cyclically consecutive minors are all
    nonzero."""
    m = n + 3
    count = 0
    for i in range(m - 1):
        for j in range(i + 1, m):
            free1 = [c for c in range(i + 1, m) if c != j]
            free2 = list(range(j + 1, m))
            for vals1 in itertools.product(range(q), repeat=len(free1)):
                row1 = [0] * m
                row1[i] = 1
                for c, v in zip(free1, vals1):
                    row1[c] = v
                for vals2 in itertools.product(range(q), repeat=len(free2)):
                    row2 = [0] * m
                    row2[j] = 1
                    for c, v in zip(free2, vals2):
                        row2[c] = v
                    ok = True
                    for c in range(m):
                        d = c + 1 if c + 1 < m else 0
                        minor = (row1[c] * row2[d] - row1[d] * row2[c]) % q
                        if minor == 0:
                            ok = False
                            break
                    if ok:
                        count += 1
    return count


def test_recursion_n2():
    system = theta_equations_recursion(2)
    ring = system.ring
    assert system.equations == (
        parse_polynomial("x1*a1 + x2 + 1", ring),
        parse_polynomial("x2*a2 + a1 + 1", ring),
    )


def test_recursion_n3():
    system = theta_equations_recursion(3)
    ring = system.ring
    assert set(system.equations) == {
        parse_polynomial("x1*a1 + x2 + 1", ring),
        parse_polynomial("x2*a2 - a1*x3 + 1", ring),
        parse_polynomial("x3*a3 + a2 + 1", ring),
    }


def test_wedge_matches_recursion_through_n8():
    for n in range(2, 9):
        rec = theta_equations_recursion(n)
        wedge = theta_equations_wedge(n)
        assert rec.equations == wedge.equations
        assert len(rec.equations) == n
        assert len(rec.variables) == 2 * n


def test_n1_rejected():
    for gen in (theta_equations_recursion, theta_equations_wedge):
        with pytest.raises(ThetaError):
            gen(1)
    with pytest.raises(ThetaError):
        theta_system(3, "bogus")


def test_elimination_matches_surface():
    system = theta_equations_recursion(2)
    ring = system.ring
    # (x, y, z) = (a2, x1, a1) sends x*y*z + x - z - 1 to this polynomial.
    assert eliminate_x2(system) == parse_polynomial("x1*a1*a2 + a2 - a1 - 1", ring)


def test_surface_count_f2_is_5_three_ways():
    assert count_theta_points_chain(2, 2) == 5
    assert count_theta_points_brute(theta_equations_recursion(2), 2) == 5
    # Direct triple loop over the eliminated surface x*y*z + x - z - 1.
    count = 0
    for x in range(2):
        for y in range(2):
            for z in range(2):
                if (x * y * z + x - z - 1) % 2 == 0:
                    count += 1
    assert count == 5


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("q", [2, 3, 5])
def test_chain_matches_brute(n, q):
    assert count_theta_points_chain(n, q) == count_theta_points_brute(
        theta_equations_recursion(n), q
    )


def test_n2_counts_are_q_squared_plus_one():
    for q in (2, 3, 5, 7, 11, 13):
        assert count_theta_points_chain(2, q) == q * q + 1


def test_n4_counts_follow_even_chain_pattern():
    for q in (2, 3, 5, 7):
        assert count_theta_points_chain(4, q) == q**4 + q**2 + 1


def test_n3_odd_prime_counts_but_f2_deviates():
    # The odd-characteristic counts sit on q^3 - 1; characteristic 2 does not.
    for q in (3, 5, 7, 11):
        assert count_theta_points_chain(3, q) == q**3 - 1
    assert count_theta_points_chain(3, 2) == 11  # != 2^3 - 1


def test_polynomiality_checker_even_chains():
    for n in (2, 4):
        report = check_point_count_polynomiality(n)
        assert report["integer_coefficients"] and report["verified"], report


def test_interpolation_helper():
    assert interpolate_integer_polynomial([(2, 5), (3, 10), (5, 26)]) == [1, 0, 1]
    assert interpolate_integer_polynomial([(2, 11), (3, 26), (5, 124), (7, 342)]) is None


def test_count_budget_and_primality():
    with pytest.raises(BudgetExceededError):
        count_theta_points_brute(theta_equations_recursion(7), 5)  # 5^14
    with pytest.raises(ThetaError):
        count_theta_points_chain(2, 4)
    with pytest.raises(ThetaError):
        count_theta_points_chain(1, 3)


def test_positroid_counter_smoke():
    # Gr(2, 5) over F_2 has 155 points; the cyclic stratum is a proper
    # nonempty open piece.  Its ratio to the chain count is reported, not
    # asserted.
    total = (2**5 - 1) * (2**4 - 1) // ((4 - 1) * (2 - 1))
    assert total == 155
    stratum = count_positroid_points(2, 2)
    assert 0 < stratum < total
    with pytest.raises(ThetaError):
        count_positroid_points(3, 4)
    with pytest.raises(ThetaError):
        count_positroid_points(1, 3)


def test_positroid_closed_form_matches_enumeration():
    # Every (n, q) whose Gr(2, n+3) has at most 2 * 10^5 points: q = 2 up
    # to n = 7, q = 3 up to n = 4, and n = 2 at q = 5 and 7.
    checked = []
    for q in (p for p in range(2, 100) if is_prime(p)):
        n = 2
        while grassmannian_point_count(n + 3, q) <= 2 * 10**5:
            assert count_positroid_points(n, q) == positroid_count_by_enumeration(n, q), (n, q)
            checked.append((n, q))
            n += 1
    assert len(checked) == 11


def test_positroid_closed_form_matches_transfer_matrix_trace():
    # Closed walks of length m = n + 3 in the graph "v ^ w != 0" on
    # F_q^2 minus 0, counted by powering its adjacency matrix, over |GL_2|.
    for q in (2, 3, 5):
        vectors = [(x, y) for x in range(q) for y in range(q) if (x, y) != (0, 0)]
        adjacency = [
            [1 if (v[0] * w[1] - v[1] * w[0]) % q else 0 for w in vectors] for v in vectors
        ]
        power = adjacency
        gl2 = (q * q - 1) * (q * q - q)
        for m in range(2, 24):
            power = [
                [sum(a * b for a, b in zip(row, col)) for col in zip(*adjacency)]
                for row in power
            ]  # A^m
            trace = sum(power[i][i] for i in range(len(vectors)))
            assert trace % gl2 == 0
            if m >= 5:
                assert count_positroid_points(m - 3, q) == trace // gl2, (m - 3, q)


def test_positroid_n2_is_chain_count_times_torus():
    for q in PRIMES_TO_23 + (101, 10**9 + 7):
        assert count_positroid_points(2, q) == (q - 1) ** 4 * (q * q + 1)


def test_theta_system_is_bounded():
    for method in ("recursion", "wedge"):
        with pytest.raises(BudgetExceededError):
            theta_system(THETA_MAX_N + 1, method)


def test_json_dict():
    system = theta_system(2, "wedge")
    data = system_to_json_dict(system)
    assert data["n"] == 2
    assert data["variables"] == ["x1", "x2", "a1", "a2"]
    reparsed = [parse_polynomial(t, system.ring) for t in data["equations"]]
    assert tuple(reparsed) == system.equations


def test_chain_matches_brute_for_longer_chains():
    for n, q in ((5, 2), (5, 3), (6, 2)):
        assert count_theta_points_chain(n, q) == count_theta_points_brute(
            theta_equations_recursion(n), q
        )


def test_n5_n6_closed_forms():
    # Frozen from chain counts cross-validated against brute force on the
    # affordable (n, q); notably n = 5 is polynomial across q = 2 as well,
    # leaving n = 3 as the lone non-polynomial chain among n <= 6.
    for q in (2, 3, 5, 7, 11, 13):
        assert count_theta_points_chain(5, q) == q**5 + 2 * q**3 - q**2 - 1
        assert count_theta_points_chain(6, q) == q**6 + q**4 + q**2 + 1


@pytest.mark.parametrize("q", PRIMES_TO_23)
def test_chain_matches_state_dp_oracle(q):
    for n in range(2, 15):
        assert count_theta_points_chain(n, q) == chain_count_by_state_dp(n, q), (n, q)


def test_chain_matches_brute_in_small_characteristic():
    for n in range(2, 9):
        assert count_theta_points_chain(n, 2) == count_theta_points_brute(
            theta_equations_recursion(n), 2
        ), n
    for n in range(2, 7):
        assert count_theta_points_chain(n, 3) == count_theta_points_brute(
            theta_equations_recursion(n), 3
        ), n


def test_even_chains_follow_closed_form_at_large_q():
    for n, q in [(n, 101) for n in range(2, 41, 2)] + [(24, 61)]:
        expected = sum(q ** (2 * i) for i in range(n // 2 + 1))
        assert count_theta_points_chain(n, q) == expected, (n, q)


def test_chain_count_against_augmentations_of_a_n():
    """A finding, not a fix: the chain system of theta(n) and the one-t
    augmentation count of A_n with its full twist differ by exactly
    q^((n+1)/2) when n = 1 (mod 4), n >= 5 and q is odd, and agree
    otherwise.  Odd n are 2-component links, even n knots."""
    for n in range(2, 14):
        word = append_full_twist(ade_braid(parse_ade_label(f"A{n}")))
        for q in (2, 3, 5, 7, 11, 13):
            offset = q ** ((n + 1) // 2) if n % 4 == 1 and n >= 5 and q % 2 else 0
            assert count_theta_points_chain(n, q) - count_solutions_dp(word, q) == offset, (n, q)
