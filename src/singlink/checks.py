"""Cross-module validation suite.

Each check exercises one acceptance target and returns a structured
result; the CLI ``check`` subcommand runs them all and reports JSON.
The checks are deterministic (fixed seeds for randomized instances).

Known red check: ``theta_polynomiality`` fails for n = 3 because the
chain system's F_2 point count (11) is incompatible with the polynomial
q^3 - 1 interpolating the odd-prime counts; see the README discussion.
The check is implemented as stated and reports the failure honestly.
"""

from __future__ import annotations

import random
import time

from . import augment, bricks, cluster, dividecatalog, divides, links, sheafmoduli
from .graphs import dynkin_tree_edges, graphs_isomorphic

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
            dynkin_tree_edges(label.family, label.rank),
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
        dynkin = cluster.parse_dynkin_type(text)
        expected = cluster.expected_seed_count(dynkin)
        enumerated = len(cluster.enumerate_seeds(cluster.initial_matrix(dynkin), cap=SEED_COUNT_CAP))
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
        matrix = cluster.ExchangeMatrix.from_rows(rows)
        k = rng.randint(1, n)
        if cluster.mutate(cluster.mutate(matrix, k), k) != matrix:
            involution_ok = False
            break
        perm = list(range(n))
        rng.shuffle(perm)
        perm = tuple(perm)
        lhs = cluster.mutate(matrix.permuted(perm), perm[k - 1] + 1)
        rhs = cluster.mutate(matrix, k).permuted(perm)
        if lhs != rhs:
            equivariance_ok = False
            break

    laurent_ok = True
    walk_types = ("A3", "D4", "B3")
    per_type = walks // len(walk_types)
    for text in walk_types:
        matrix = cluster.initial_matrix(cluster.parse_dynkin_type(text))
        for _ in range(per_type):
            seed_obj = cluster.initial_seed(matrix)
            for _ in range(rng.randint(1, 12)):
                seed_obj = cluster.mutate_seed(seed_obj, rng.randint(1, matrix.n))
                for var in seed_obj.cluster:
                    if not all(isinstance(c, int) for c in var.terms.values()):
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
    from .exactmath import parse_polynomial

    # Canonical texts are equal exactly when the polynomials are.
    expected = parse_polynomial(WORKED_EXAMPLE_EQ11, augment.augmentation_ring(len(word)))
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
        det = augment.symbolic_determinant(word)
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
    from .exactmath import parse_polynomial

    elim_ok = sheafmoduli.eliminate_x2(system) == parse_polynomial(
        "x1*a1*a2 + a2 - a1 - 1", sheafmoduli.theta_ring(2)
    )
    counts = {
        "chain": sheafmoduli.count_theta_points_chain(2, 2),
        "brute": sheafmoduli.count_theta_points_brute(system, 2),
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
        report = sheafmoduli.check_point_count_polynomiality(n)
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
    randomized instance counts."""
    instances = 500 if fast else 10_000
    walks = 120 if fast else 1_000
    words = 12 if fast else 50
    suite = (
        check_cable_pair_regressions,
        check_ade_quiver_shapes,
        check_divide_cross_check,
        lambda: check_seed_counts(deep=deep),
        lambda: check_mutation_properties(instances=instances, walks=walks),
        check_worked_example,
        lambda: check_augmentation_oracles(words=words),
        check_theta_equivalence,
        check_theta_polynomiality,
        check_unknot_augmentation,
    )
    results = []
    for run in suite:
        start = time.perf_counter()
        result = run()
        result.seconds = time.perf_counter() - start
        results.append(result)
    return results
