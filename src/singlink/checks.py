"""Cross-module validation suite.

Each check exercises one acceptance target and returns a structured
result; the CLI ``check`` subcommand runs them all and reports JSON.
The checks are deterministic (fixed seeds for randomized instances).

Known red check: ``theta_polynomiality`` fails for n = 3 because the
chain system's F_2 point count (11) is incompatible with the polynomial
q^3 - 1 interpolating the odd-prime counts; see the README discussion.
The check is implemented as stated and reports the failure honestly.

The oracles live here, not in the counting modules, so that a counting
process compiles none of them: the augmentation and chain systems as
dense polynomials of :mod:`exactmath`, the symbolic braid determinant,
the elimination of x_2 on term maps, the chain-system brute force over
F_q^(2n) and the integer interpolation of the polynomiality check.  The
tests use them too.
"""

from __future__ import annotations

import random
import time

from . import augment, bricks, cluster, dividecatalog, divides, links, quivers, sheafmoduli
from .exactmath import (
    PolyMatrix,
    Polynomial,
    RingDescriptor,
    multilinear_polynomial,
    parse_polynomial,
)
from .fqmath import (
    INNER_LOOPS,
    BudgetExceededError,
    compile_kernel,
    hoisted_loops,
    is_prime,
    mask_indices,
)
from .quivers import dynkin_tree_edges, graphs_isomorphic

RANDOM_SEED = 20_240_817  # of the randomized instances of every check

SEED_COUNT_TARGETS = {
    "A1": 2, "A2": 5, "A3": 14, "A4": 42, "A5": 132,
    "D4": 50, "D5": 182,
    "B2": 6, "B3": 20, "C3": 20, "G2": 8, "F4": 105,
    "E6": 833,
}
DEEP_SEED_COUNT_TARGETS = {"E7": 4160, "E8": 25080}
SEED_COUNT_CAP = 30_000
THETA_POLYNOMIALITY_NS = (2, 3, 4)
POLYNOMIALITY_PRIMES = (2, 3, 5, 7, 11)
THETA_BRUTE_FORCE_BUDGET = 10**8  # points of F_q^(2n)
UNKNOT_PRIMES = (2, 3, 5, 7, 11, 13)

WORKED_EXAMPLE_BRAID = links.BraidWord(
    4, (2, 1, 3, 2, 1, 3, 2, 1, 3, 1, 2, 3, 1, 2, 3, 1, 2, 1, 3)
)
WORKED_EXAMPLE_EQ11 = (
    "z11 + z9*z12 + z9*z20 + z11*z18*z20 + z9*z12*z18*z20"
    " + z13*z21 + z9*z14*z21 + z11*z15*z21 + z9*z12*z15*z21"
    " + z9*z16*z23 + z11*z17*z23 + z9*z12*z17*z23 + z13*z19*z23"
    " + z9*z14*z19*z23 + z11*z15*z19*z23 + z9*z12*z15*z19*z23"
    " + z23 + t^-1"
)


# -- oracles -------------------------------------------------------------------


def augmentation_ring(s: int) -> RingDescriptor:
    """Z[z_1..z_s, t, t^-1], the dense ring of the augmentation oracles."""
    return RingDescriptor(augment.augmentation_variables(s))


def augmentation_polynomials(system: augment.AugmentationSystem) -> tuple[Polynomial, ...]:
    """The equations as dense polynomials of :func:`augmentation_ring`."""
    ring = augmentation_ring(system.z_count)
    dense = [multilinear_polynomial(ring, eq, system.z_count) for eq in system.equations]
    dense[0] = dense[0] + ring.var("t", system.t_exponent)
    return tuple(dense)


def symbolic_determinant(word: links.BraidWord) -> Polynomial:
    """det B(word) as an exact dense polynomial; equals (-1)^s identically."""
    s = len(word)
    ring = augmentation_ring(s)
    rows = [
        [multilinear_polynomial(ring, entry, s) for entry in row]
        for row in augment.braid_matrix(word)
    ]
    return PolyMatrix(ring, rows).det()


def theta_ring(n: int) -> RingDescriptor:
    """Z[x_1..x_n, a_1..a_n], the dense ring of the chain-system oracles."""
    return RingDescriptor(sheafmoduli.theta_variables(n))


def theta_polynomials(system: sheafmoduli.ThetaSystem) -> tuple[Polynomial, ...]:
    """The equations as dense polynomials of :func:`theta_ring`."""
    ring = theta_ring(system.n)
    return tuple(multilinear_polynomial(ring, eq) for eq in system.equations)


def count_theta_points_brute(system: sheafmoduli.ThetaSystem, q: int) -> int:
    """Oracle: enumerate F_q^(2n) and test every equation.

    The loop runs as Python source generated for the system, in the
    variables v0, .., v{2n-1}: the last ``fqmath.INNER_LOOPS`` in nested
    loops inside one ``product`` loop over the others, every equation
    tested, as one plain sum of products, at the first loop that binds all
    its variables (:func:`fqmath.hoisted_loops`).
    """
    if not is_prime(q):
        raise sheafmoduli.ThetaError(f"{q} is not prime")
    nvars = 2 * system.n
    if q**nvars > THETA_BRUTE_FORCE_BUDGET:
        raise BudgetExceededError(f"q^(2n) = {q}^{nvars} exceeds the enumeration budget")
    cut = max(nvars - INNER_LOOPS, 0)
    sums = [
        ([(coeff, mask_indices(mask, nvars)) for mask, coeff in eq.items()], True)
        for eq in system.equations
    ]
    levels = [(v, None) for v in range(cut, nvars)]
    hoisted, pad, _ = hoisted_loops(sums, levels, "v")
    outer = "".join(f"v{i}, " for i in range(cut)) or "()"
    lines = [
        "def kernel(q):",
        "    count = 0",
        "    values = range(q)",
        f"    for {outer} in product(values, repeat={cut}):",
        *hoisted,
        f"{pad}count += 1",
        "    return count",
    ]
    return compile_kernel(lines)(q)


def eliminate_x2(system: sheafmoduli.ThetaSystem) -> Polynomial:
    """For n = 2: substitute x_2 = -1 - x_1 a_1 into the second equation.

    Each term that holds x_2 becomes its other factors times the
    replacement, which shares no variable with them.  The sign-normalized
    result equals x*y*z + x - z - 1 under the variable relabeling
    (x, y, z) = (a_2, x_1, a_1).
    """
    if system.n != 2:
        raise sheafmoduli.ThetaError("elimination shortcut is defined for n = 2")
    (x1, x2), (a1, _) = sheafmoduli.theta_masks(2)
    replacement = {0: -1, x1 | a1: -1}
    result: dict[int, int] = {}
    for mask, coeff in system.equations[1].items():
        for term, c in (replacement if mask & x2 else {0: 1}).items():
            key = mask & ~x2 | term
            result[key] = result.get(key, 0) + coeff * c
    result = sheafmoduli.sign_normalized({mask: c for mask, c in result.items() if c})
    return multilinear_polynomial(theta_ring(2), result)


def interpolate_integer_polynomial(points: list[tuple[int, int]]) -> list[int] | None:
    """Coefficients (ascending degree) of the poly through the given points,
    or None when it has a coefficient that is not an integer.

    Newton's divided differences in integers: the Newton basis is monic
    over Z, so the coefficients are integers exactly when every divided
    difference is, and the first inexact division returns None.
    """
    xs = [x for x, _ in points]
    m = len(points)
    table = [y for _, y in points]
    newton = []
    for level in range(m):
        newton.append(table[0])
        next_table = []
        for i in range(len(table) - 1):
            quotient, rest = divmod(table[i + 1] - table[i], xs[i + 1 + level] - xs[i])
            if rest:
                return None
            next_table.append(quotient)
        table = next_table
    # Expand the Newton form from the inside out:
    # coeffs = newton[level] + (x - xs[level]) * coeffs.
    coeffs: list[int] = []
    for level in reversed(range(m)):
        shifted = [newton[level], *coeffs]
        for i, c in enumerate(coeffs):
            shifted[i] -= xs[level] * c
        coeffs = shifted
    return coeffs


def check_point_count_polynomiality(n: int) -> dict:
    """Fit counts over the first deg+1 of ``POLYNOMIALITY_PRIMES``; verify on the rest.

    The interpolation degree is n (the dimension of the chain system);
    returns the counts, integer coefficients, and verification outcome.
    """
    counts = [(q, sheafmoduli.count_theta_points_chain(n, q)) for q in POLYNOMIALITY_PRIMES]
    need = n + 1
    if len(counts) < need:
        raise sheafmoduli.ThetaError(f"need at least {need} primes to interpolate degree {n}")
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
        return sum(c * q**i for i, c in enumerate(coeffs))

    result["coefficients"] = coeffs
    result["verified"] = all(value(q) == count for q, count in counts[need:])
    return result


class CheckResult:
    """One check's outcome; mutable, since :func:`run_all_checks` sets ``seconds``."""

    __slots__ = ("name", "passed", "details", "seconds")

    def __init__(
        self, name: str, passed: bool, details: dict | None = None, seconds: float = 0.0
    ) -> None:
        self.name = name
        self.passed = passed
        self.details = {} if details is None else details
        self.seconds = seconds

    def to_json_dict(self) -> dict:
        # Timings stay out of the emitted report: CLI output is
        # byte-for-byte deterministic for fixed inputs and flags.
        return {
            "name": self.name,
            "passed": self.passed,
            "details": self.details,
        }


def check_cable_pair_regressions() -> CheckResult:
    cases = [
        (((3, 2), (7, 2)), ((2, 3), (2, 13))),
        (((3, 2), (10, 3)), ((2, 3), (3, 19))),
    ]
    outcomes = []
    for puiseux, expected in cases:
        got = links.cable_pairs_from_puiseux(links.PuiseuxPairs(puiseux)).pairs
        outcomes.append({"puiseux": puiseux, "expected": expected, "got": got})
    passed = all(o["expected"] == o["got"] for o in outcomes)
    return CheckResult("cable_pair_regressions", passed, {"cases": outcomes})


def check_ade_quiver_shapes() -> CheckResult:
    failures = []
    for text in dividecatalog.CATALOG_LABELS:
        label = links.parse_ade_label(text)
        quiver = bricks.brick_quiver(links.ade_braid(label))
        ok = quiver.rank == label.rank and graphs_isomorphic(
            quiver.rank,
            quiver.arrows,
            label.rank,
            dynkin_tree_edges(label),
        )
        if not ok:
            failures.append(text)
    return CheckResult(
        "ade_quiver_shapes",
        not failures,
        {"labels": list(dividecatalog.CATALOG_LABELS), "failures": failures},
    )


def check_divide_cross_check() -> CheckResult:
    """Catalog divides: mu = rank and intersection quiver = brick quiver shape."""
    rows = []
    for text in dividecatalog.CATALOG_LABELS:
        label = links.parse_ade_label(text)
        divide = dividecatalog.divide_catalog(text)
        mu = divides.milnor_number(divide)
        quiver = divides.acampo_quiver(divide)
        brick = bricks.brick_quiver(links.ade_braid(label))
        iso = quiver.rank == brick.rank and graphs_isomorphic(
            quiver.rank,
            quiver.arrows,
            brick.rank,
            brick.arrows,
        )
        rows.append(
            {
                "label": text,
                "mu": mu,
                "rank": label.rank,
                "quiver_matches_bricks": iso,
                "ok": mu == label.rank and iso,
            }
        )
    return CheckResult(
        "divide_cross_check",
        all(r["ok"] for r in rows),
        {"labels": rows},
    )


def check_seed_counts(deep: bool = False) -> CheckResult:
    targets = dict(SEED_COUNT_TARGETS)
    if deep:
        targets.update(DEEP_SEED_COUNT_TARGETS)
    rows = []
    for text in sorted(targets):
        dynkin = links.parse_dynkin_type(text)
        expected = quivers.expected_seed_count(dynkin)
        enumerated = len(cluster.enumerate_seeds(quivers.initial_matrix(dynkin), cap=SEED_COUNT_CAP))
        rows.append(
            {
                "type": text,
                "target": targets[text],
                "formula": expected,
                "enumerated": enumerated,
                "ok": enumerated == expected == targets[text],
            }
        )
    return CheckResult("seed_counts", all(r["ok"] for r in rows), {"types": rows})


def check_mutation_properties(instances: int = 10_000, walks: int = 1_000) -> CheckResult:
    rng = random.Random(RANDOM_SEED)
    involution_ok = equivariance_ok = True
    for _ in range(instances):
        n = rng.randint(2, 6)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = rng.randint(-2, 2)
                rows[i][j] = v
                rows[j][i] = -v
        matrix = quivers.ExchangeMatrix.from_rows(rows)
        k = rng.randint(1, n)
        if quivers.mutate(quivers.mutate(matrix, k), k) != matrix:
            involution_ok = False
            break
        perm = list(range(n))
        rng.shuffle(perm)
        perm = tuple(perm)
        lhs = quivers.mutate(matrix.permuted(perm), perm[k - 1] + 1)
        rhs = quivers.mutate(matrix, k).permuted(perm)
        if lhs != rhs:
            equivariance_ok = False
            break

    laurent_ok = True
    walk_types = ("A3", "D4", "B3")
    per_type = walks // len(walk_types)
    try:
        for text in walk_types:
            matrix = quivers.initial_matrix(links.parse_dynkin_type(text))
            for _ in range(per_type):
                seed_obj = cluster.initial_seed(matrix)
                for _ in range(rng.randint(1, 12)):
                    seed_obj = cluster.mutate_seed(seed_obj, rng.randint(1, matrix.n))
    except quivers.ClusterError:  # an exchange left a remainder
        laurent_ok = False
    passed = involution_ok and equivariance_ok and laurent_ok
    return CheckResult(
        "mutation_properties",
        passed,
        {
            "instances": instances,
            "walks": per_type * len(walk_types),
            "involution": involution_ok,
            "equivariance": equivariance_ok,
            "laurent": laurent_ok,
        },
    )


def check_worked_example() -> CheckResult:
    word = links.append_full_twist(WORKED_EXAMPLE_BRAID)
    system = augment.augmentation_equations(word, t_convention="t-inverse")
    # Canonical texts are equal exactly when the polynomials are.
    expected = parse_polynomial(WORKED_EXAMPLE_EQ11, augmentation_ring(len(word)))
    structure_ok = len(word) == 31 and len(system.equations) == 16
    eq_ok = augment.system_to_json_dict(system)["equations"][0] == expected.to_text()
    return CheckResult(
        "augmentation_worked_example",
        structure_ok and eq_ok,
        {
            "z_variables": len(word),
            "equations": len(system.equations),
            "first_equation_matches": eq_ok,
        },
    )


def check_augmentation_oracles(words: int = 50) -> CheckResult:
    rng = random.Random(RANDOM_SEED)
    mismatches = []
    det_failures = []
    for index in range(words):
        n = rng.randint(1, 3)
        s = rng.randint(0, 10) if n > 1 else 0
        letters = tuple(rng.randint(1, n - 1) for _ in range(s)) if n > 1 else ()
        word = links.BraidWord(n, letters)
        system = augment.augmentation_equations(word)
        for q in (2, 3):
            brute = augment.count_solutions_bruteforce(system, q)
            dp = augment.count_solutions_dp(word, q)
            if brute != dp:
                mismatches.append({"word": letters, "strands": n, "q": q, "brute": brute, "dp": dp})
        det = symbolic_determinant(word)
        if det != det.ring.const((-1) ** s):
            det_failures.append({"word": letters, "strands": n})
    return CheckResult(
        "augmentation_oracles",
        not mismatches and not det_failures,
        {"words": words, "mismatches": mismatches, "determinant_failures": det_failures},
    )


def check_theta_equivalence() -> CheckResult:
    equiv_ok = all(
        sheafmoduli.theta_equations_recursion(n).equations
        == sheafmoduli.theta_equations_wedge(n).equations
        for n in range(2, 9)
    )
    system = sheafmoduli.theta_equations_recursion(2)
    elim_ok = eliminate_x2(system) == parse_polynomial("x1*a1*a2 + a2 - a1 - 1", theta_ring(2))
    counts = {
        "chain": sheafmoduli.count_theta_points_chain(2, 2),
        "brute": count_theta_points_brute(system, 2),
    }
    count_ok = counts["chain"] == counts["brute"] == 5
    return CheckResult(
        "theta_equivalence",
        equiv_ok and elim_ok and count_ok,
        {"generators_agree_n2_to_n8": equiv_ok, "elimination": elim_ok, "f2_counts": counts},
    )


def check_theta_polynomiality() -> CheckResult:
    rows = []
    for n in THETA_POLYNOMIALITY_NS:
        report = check_point_count_polynomiality(n)
        rows.append(
            {
                "n": n,
                "counts": report["counts"],
                "integer_coefficients": report["integer_coefficients"],
                "verified": report["verified"],
                "ok": report["integer_coefficients"] and report["verified"],
            }
        )
    return CheckResult(
        "theta_polynomiality",
        all(r["ok"] for r in rows),
        {"chains": rows},
    )


def check_unknot_augmentation() -> CheckResult:
    word = links.BraidWord(1, ())
    system = augment.augmentation_equations(word)
    counts = {q: augment.count_solutions_bruteforce(system, q) for q in UNKNOT_PRIMES}
    dp_counts = {q: augment.count_solutions_dp(word, q) for q in UNKNOT_PRIMES}
    passed = all(counts[q] == 1 == dp_counts[q] for q in UNKNOT_PRIMES)
    return CheckResult(
        "unknot_augmentation", passed, {"brute": counts, "dp": dp_counts}
    )


def run_all_checks(deep: bool = False, fast: bool = False) -> list[CheckResult]:
    """The full suite, each result with its ``seconds``; ``fast`` shrinks
    randomized instance counts.  A check that raises fails under its own
    name, with the error as its details, and the suite goes on."""
    instances = 500 if fast else 10_000
    walks = 120 if fast else 1_000
    words = 12 if fast else 50
    suite = (
        ("cable_pair_regressions", check_cable_pair_regressions),
        ("ade_quiver_shapes", check_ade_quiver_shapes),
        ("divide_cross_check", check_divide_cross_check),
        ("seed_counts", lambda: check_seed_counts(deep=deep)),
        ("mutation_properties",
         lambda: check_mutation_properties(instances=instances, walks=walks)),
        ("augmentation_worked_example", check_worked_example),
        ("augmentation_oracles", lambda: check_augmentation_oracles(words=words)),
        ("theta_equivalence", check_theta_equivalence),
        ("theta_polynomiality", check_theta_polynomiality),
        ("unknot_augmentation", check_unknot_augmentation),
    )
    results = []
    for name, run in suite:
        start = time.perf_counter()
        try:
            result = run()
        except ValueError as exc:  # every singlink error, budgets included
            result = CheckResult(name, False, {"error": str(exc)})
        result.seconds = time.perf_counter() - start
        results.append(result)
    return results
