"""Acceptance suite: one test per pipeline-level criterion.

Each test prints a `criterion N: PASS/FAIL` line (visible under
`pytest -s` or on failure).  Criterion 9 is a documented red check: the
odd chain n = 3 has F_2 point count 11 while its odd-prime counts sit on
q^3 - 1, so no single integer polynomial fits all five primes.  The test
asserts the criterion as stated and therefore fails; see README and the
test body for the analysis.
"""

import itertools
import time
import types

import pytest

from singlink import checks, cluster, divides


def report(number: int, passed: bool, started: float, detail: str = "") -> None:
    elapsed = time.perf_counter() - started
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number}: {status} ({elapsed:.3f}s) {detail}")


def test_criterion_1_cable_pair_regressions():
    started = time.perf_counter()
    result = checks.check_cable_pair_regressions()
    report(1, result.passed, started, str(result.details["cases"]))
    assert result.passed


def test_criterion_2_ade_brick_quiver_shapes():
    started = time.perf_counter()
    result = checks.check_ade_quiver_shapes()
    report(2, result.passed, started, f"{len(result.details['labels'])} labels")
    assert result.passed


def test_criterion_3_divide_cross_check():
    started = time.perf_counter()
    result = checks.check_divide_cross_check()
    report(3, result.passed, started, f"{len(result.details['labels'])} catalog labels")
    assert result.passed


def test_criterion_4_seed_counts():
    started = time.perf_counter()
    result = checks.check_seed_counts()
    report(4, result.passed, started, f"{len(result.details['types'])} types through E6")
    assert result.passed


@pytest.mark.deep
@pytest.mark.parametrize("text,target", [("E7", 4160), ("E8", 25080)])
def test_criterion_4_deep_seed_counts(text, target):
    started = time.perf_counter()
    dynkin = cluster.parse_dynkin_type(text)
    matrix = cluster.initial_matrix(dynkin)
    enumerated = len(cluster.enumerate_seeds(matrix, cap=checks.SEED_COUNT_CAP))
    ok = enumerated == target == cluster.expected_seed_count(dynkin)
    report(4, ok, started, f"deep {text}: {enumerated}")
    assert ok


def test_criterion_5_mutation_properties():
    started = time.perf_counter()
    result = checks.check_mutation_properties(instances=10_000, walks=1_000)
    report(5, result.passed, started, str(result.details))
    assert result.passed


def test_criterion_6_worked_example_structure():
    started = time.perf_counter()
    result = checks.check_worked_example()
    report(6, result.passed, started, str(result.details))
    assert result.passed


def test_criterion_7_augmentation_oracles():
    started = time.perf_counter()
    result = checks.check_augmentation_oracles(words=50)
    report(7, result.passed, started, f"{result.details['words']} random words")
    assert result.passed


def test_criterion_8_theta_equivalence():
    started = time.perf_counter()
    result = checks.check_theta_equivalence()
    report(8, result.passed, started, str(result.details["f2_counts"]))
    assert result.passed


def test_criterion_9_theta_polynomiality():
    """Asserted as stated for n = 2, 3, 4; n = 3 is a genuine failure.

    Counts (all verified by two independent algorithms, and by hand over
    F_2): n=3 gives 11, 26, 124, 342, 1330 over q = 2, 3, 5, 7, 11.  The
    odd primes lie exactly on q^3 - 1, but 2^3 - 1 = 7 != 11, and the
    unique quartic through all five points has a coefficient of
    denominator 135.  No single integer-coefficient polynomial fits.

    The defect is isolated: n = 2, 4, 5, 6 all fit single integer
    polynomials across every prime tested (see test_sheafmoduli for the
    frozen closed forms), so only the n = 3 clause of this criterion is
    unattainable.
    """
    started = time.perf_counter()
    result = checks.check_theta_polynomiality()
    rows = {r["n"]: r["ok"] for r in result.details["chains"]}
    report(
        9,
        result.passed,
        started,
        f"n=2 {'ok' if rows[2] else 'FAIL'}, n=3 {'ok' if rows[3] else 'FAIL'}, "
        f"n=4 {'ok' if rows[4] else 'FAIL'}",
    )
    assert result.passed, (
        "known defect: the n = 3 chain count over F_2 (11) is incompatible "
        "with the odd-prime polynomial q^3 - 1; see the decisions ledger"
    )


def test_criterion_10_unknot_augmentation():
    started = time.perf_counter()
    result = checks.check_unknot_augmentation()
    report(10, result.passed, started, str(result.details["brute"]))
    assert result.passed


def test_check_machinery_detects_injected_fault(monkeypatch):
    """A corrupted D4 divide (3 crossings, 0 regions) must be flagged."""
    from singlink import dividecatalog
    from singlink.dividecatalog import divide_from_polylines

    strands = []
    for cx in (-10, 0, 10):
        strands.append([(cx - 2, 3), (cx + 2, -3)])
        strands.append([(cx - 2, -3), (cx + 2, 3)])
    corrupted = divide_from_polylines(strands)
    assert corrupted.crossings == 3
    assert divides.milnor_number(corrupted) == 3  # rank of D4 is 4
    catalog = dividecatalog.divide_catalog
    monkeypatch.setattr(
        dividecatalog,
        "divide_catalog",
        lambda label: corrupted if label == "D4" else catalog(label),
    )
    result = checks.check_divide_cross_check()
    assert not result.passed
    flagged = [row for row in result.details["labels"] if not row["ok"]]
    assert [row["label"] for row in flagged] == ["D4"]


def test_run_all_checks_times_each_check_once(monkeypatch):
    # A clock that ticks once per reading: one reading before and one
    # after each check give every result seconds == 1.
    ticks = itertools.count()
    monkeypatch.setattr(checks, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks)))
    results = checks.run_all_checks(fast=True)
    assert [result.seconds for result in results] == [1] * 10
    assert len({result.name for result in results}) == 10
