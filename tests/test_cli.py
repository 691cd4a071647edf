"""CLI behavior: determinism, round-trips, exit codes."""

import argparse
import io
import json
import contextlib
import hashlib
import math
import os
import pathlib
import random
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

from singlink import cli
from singlink.augment import T_CONVENTIONS
from singlink.checks import augmentation_ring, theta_ring
from singlink.dividecatalog import CATALOG_LABELS, divide_catalog
from singlink.exactmath import parse_polynomial
from singlink.fqmath import MR_EXACT_BOUND
from singlink.links import MAX_BRAID, DynkinType, braid_from_text
from singlink.quivers import MAX_RANK, exchange_matrix_from_json, initial_matrix, mutate
from singlink.sheafmoduli import (
    THETA_METHODS,
    count_positroid_points,
    count_theta_points_chain,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_cli(*argv, stdin: str = "") -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    saved_stdin, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), err.getvalue()


def test_link_ade_e8():
    code, out, _ = run_cli("link", "--ade", "E8")
    assert code == 0
    data = json.loads(out)
    assert data["invariants"]["milnor_number"] == 8
    assert data["invariants"]["tb"] == 7
    assert data["invariants"]["components"] == 1


def test_link_torus_3_4():
    code, out, _ = run_cli("link", "--torus", "3", "4")
    data = json.loads(out)
    assert code == 0
    assert data["invariants"]["milnor_number"] == 6
    assert data["invariants"]["components"] == 1


def test_link_single_crossing_braid():
    code, out, _ = run_cli("link", "--braid", "1", "--strands", "2")
    data = json.loads(out)
    assert code == 0
    assert data["invariants"]["components"] == 1
    assert data["invariants"]["tb"] == -1


def test_link_puiseux_torus_and_warning():
    code, out, _ = run_cli("link", "--puiseux", "3,2")
    data = json.loads(out)
    assert code == 0
    assert data["cable_pairs"] == [[2, 3]]
    assert data["braid"]["strands"] == 2
    # Non-algebraic cable input is a warning, not an error.
    code, out, _ = run_cli("link", "--puiseux", "3,2 7,2")
    data = json.loads(out)
    assert code == 0 and data["algebraic"] is True


def test_link_puiseux_bad_pair_is_usage_error():
    code, out, err = run_cli("link", "--puiseux", "3,2,1")
    assert code == 2
    assert out == ""
    assert "'3,2,1'" in err and "N,M" in err
    assert "Traceback" not in err and "unpack" not in err


def test_link_puiseux_pair_with_a_common_factor_is_usage_error():
    # (4, 2) is the exponent 2 of a smooth branch, not a characteristic pair.
    for text, pair in (("4,2", "(4, 2)"), ("4,2 9,2", "(4, 2)"), ("3,2 8,2", "(8, 2)")):
        code, out, err = run_cli("link", "--puiseux", text)
        assert (code, out) == (2, ""), text
        assert err == f"error: Puiseux pair {pair} is not characteristic: gcd = 2 > 1\n", text


def test_aug_threads_flag_is_gone():
    code, _, err = run_cli("aug", "--ade", "A1", "--count-fq", "2", "--threads", "2")
    assert code == 2
    assert "--threads" in err


def test_theta_count_with_huge_prime_modulus():
    q = 10**18 + 3
    code, out, _ = run_cli("theta", "--n", "4", "--count-fq", str(q))
    assert code == 0
    assert json.loads(out)["count"] == {"q": q, "solutions": q**4 + q**2 + 1}
    code, _, err = run_cli("theta", "--n", "4", "--count-fq", str(MR_EXACT_BOUND))
    assert code == 2
    assert "too large" in err and "Traceback" not in err


def test_theta_budget_flag_is_gone():
    code, _, err = run_cli("theta", "--n", "3", "--count-fq", "5", "--positroid",
                           "--budget", "10")
    assert code == 2
    assert "--budget" in err


def test_theta_positroid_without_a_count_is_a_usage_error():
    code, out, err = run_cli("theta", "--n", "3", "--positroid")
    assert code == 2
    assert out == ""
    assert "--positroid" in err and "--count-fq" in err and "Traceback" not in err


def test_equations_dir_without_pipeline_is_a_usage_error(tmp_path):
    directory = tmp_path / "equations"
    code, out, err = run_cli("link", "--ade", "A2", "--equations-dir", str(directory))
    assert code == 2
    assert out == ""
    assert "--equations-dir" in err and "--pipeline" in err and "Traceback" not in err
    assert not directory.exists()


def test_aug_budget_below_one_is_a_usage_error():
    for budget in ("0", "-5"):
        code, out, err = run_cli("aug", "--ade", "A2", "--count-fq", "3", "--budget", budget)
        assert (code, out, err) == (2, "", "error: budget must be at least 1\n"), budget
    code, out, _ = run_cli("aug", "--ade", "A1", "--count-fq", "2", "--budget", "1000")
    assert code == 0


def test_aug_budget_without_a_brute_force_is_a_usage_error():
    message = (
        "error: --budget bounds the brute-force count: it needs --count-fq Q and --method brute\n"
    )
    for extra in ([], ["--count-fq", "3", "--method", "dp"]):
        code, out, err = run_cli("aug", "--ade", "A1", *extra, "--budget", "5")
        assert (code, out, err) == (2, "", message), extra


def test_theta_counts_past_the_int_text_limit_print():
    # CPython 3.10.7 and later refuse to write an int of more than 4300
    # digits as text; the CLI lifts that limit while it formats output
    # and restores it afterwards.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for n, q, extra in ((1000, 20011, ["--positroid"]), (700, 1000000007, [])):
        code, out, err = run_cli("theta", "--n", str(n), "--count-fq", str(q), *extra)
        assert (code, err) == (0, ""), (n, q)
        count = json.loads(out, parse_int=lambda text: text)["count"]
        with cli._big_int_text():
            solutions = str(count_theta_points_chain(n, q))
            if extra:
                stratum = str(count_positroid_points(n, q))
                assert count["positroid_ratio"] == f"{stratum}/{solutions}"
        assert len(solutions) > 4300 and count["solutions"] == solutions
        assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit


# Each argument vector, as `main` runs it, must read as it does through the
# parser of every subcommand: help, usage and error messages included.
PARSER_ARGVS = [
    ["--help"],
    ["-h"],
    [],
    ["bogus"],
    ["--", "aug"],
    *([name, "--help"] for name in cli.COMMAND_NAMES),
    ["classify", "--type", "E6", "--cap", "10"],
    ["seeds", "--type", "A3", "--summary", "extra"],
    ["link", "--torus", "3", "4", "--bogus"],
    ["theta", "--n", "x", "extra"],
    ["aug", "--method", "Brute"],
    ["theta"],
    ["mutate", "--type", "A2"],
    ["theta", "--n", "3", "--count", "5"],
    ["aug", "--ade", "A2", "--count-fq", "x"],
    ["quiver", "--format", "svg", "--ade", "A1"],
]


def test_one_command_parser_reads_as_the_full_parser(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    one = [run_cli(*argv) for argv in PARSER_ARGVS]
    # With no command name known, every argv takes the full parser.
    monkeypatch.setattr(cli, "COMMAND_NAMES", ())
    full = [run_cli(*argv) for argv in PARSER_ARGVS]
    for argv, lazy, every in zip(PARSER_ARGVS, one, full):
        assert lazy == every, argv
    # The list reaches help, usage errors and a run.
    assert {code for code, _, _ in full} == {0, 2}


def test_main_builds_only_the_parser_it_runs(monkeypatch):
    built, parsers = [], []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        parsers.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    def counting(name, add_arguments):
        def add(parser):
            built.append(name)
            add_arguments(parser)

        return add

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(
        cli,
        "COMMANDS",
        tuple((name, text, counting(name, add), run) for name, text, add, run in cli.COMMANDS),
    )
    assert run_cli("theta", "--n", "2")[0] == 0
    assert (built, parsers) == (["theta"], ["singlink theta"])
    built.clear()
    cli.build_parser()
    assert built == list(cli.COMMAND_NAMES)


def test_theta_positroid_count_at_large_n_and_q():
    n, q = 40, 101
    code, out, _ = run_cli("theta", "--n", str(n), "--count-fq", str(q), "--positroid")
    assert code == 0
    stratum = json.loads(out)["count"]["positroid"]
    assert stratum == (q - 1) ** (n + 1) * (q ** (n + 2) + (-1) ** (n + 1)) // (q + 1)


def test_theta_chain_length_is_bounded():
    code, out, err = run_cli("theta", "--n", "1001")
    assert code == 3
    assert out == ""
    assert "budget exceeded" in err and "1000" in err and "Traceback" not in err


def test_theta_at_its_bound_takes_linear_time():
    # n = 1000 equations of at most four one-mask terms each.
    run_cli("theta", "--n", "2")  # imports the layer
    for method in THETA_METHODS:
        started = time.perf_counter()
        code, out, _ = run_cli("theta", "--n", "1000", "--method", method)
        assert time.perf_counter() - started < 0.1, method
        assert code == 0 and len(json.loads(out)["equations"]) == 1000


def test_aug_at_38_strands_is_fast_and_small():
    # The full twist on 38 strands has 1406 letters and 19019 terms, the
    # most strands the term budget admits for the empty braid.
    run_cli("aug", "--braid", "", "--strands", "2")  # imports the layers
    started = time.perf_counter()
    code, out, _ = run_cli("aug", "--braid", "", "--strands", "38")
    assert time.perf_counter() - started < 0.5
    assert code == 0 and len(json.loads(out)["equations"]) == 38 * 38
    # The peak of the fresh process is its VmHWM: ru_maxrss would keep the
    # resident set of this test process, which the child is forked from.
    script = (
        "import sys\n"
        "from singlink import cli\n"
        "code = cli.main(['aug', '--braid', '', '--strands', '38'])\n"
        "status = open('/proc/self/status').read()\n"
        "print(code, status.split('VmHWM:')[1].split()[0], file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    code, peak_kb = map(int, done.stderr.split())
    assert code == 0
    assert peak_kb < 40 * 1024, f"peak {peak_kb} kB"


def test_theta_and_aug_build_no_dense_polynomial(monkeypatch):
    # Both systems are printed from their bitmask terms alone.  The
    # counters see every Polynomial: the public constructor and the
    # internal one that arithmetic uses.
    from singlink import exactmath

    built = []
    init, fast = exactmath.Polynomial.__init__, exactmath._fast_poly

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    def counting_fast(*args):
        built.append(args)
        return fast(*args)

    monkeypatch.setattr(exactmath.Polynomial, "__init__", counting_init)
    monkeypatch.setattr(exactmath, "_fast_poly", counting_fast)
    for argv in (
        ("theta", "--n", "1000"),
        ("theta", "--n", "1000", "--method", "wedge"),
        ("aug", "--torus", "4", "7"),
    ):
        assert run_cli(*argv)[0] == 0, argv
    assert built == []
    # The counters do count: the seeds of A2 are dense polynomials.
    assert run_cli("seeds", "--type", "A2")[0] == 0
    assert built


def test_link_pipeline_report():
    code, out, _ = run_cli("link", "--ade", "A3", "--pipeline")
    data = json.loads(out)
    assert code == 0
    assert data["classification"] == {"type": "A3", "finite": True, "seeds": 14}
    assert data["seed_count"] == {"enumerated": 14, "expected": 14}
    assert data["divide"]["milnor_number"] == 3


@pytest.mark.parametrize(
    "argv,digest",
    [
        (
            ("link", "--ade", "E6", "--pipeline"),
            "d895d7ecd6f8f39bce778e7f0b342e996f6da4f4872b14e437f07df1383b0053",
        ),
        (
            ("link", "--torus", "3", "4", "--pipeline"),
            "3bd162e32d8338dd4c1e8d718b7daa3b63047d09e3b699fa967362b3a070c948",
        ),
    ],
)
def test_pipeline_counts_seeds_without_laurent_algebra(monkeypatch, argv, digest):
    # The pipeline's seed count comes from the integer c-vector search: with
    # the Laurent search and its division disabled, the output is still the
    # one recorded (stdout sha256, as in bench/expected.json).
    from singlink import cluster

    def refuse(*args, **kwargs):
        raise AssertionError("the pipeline must not run the Laurent seed search")

    monkeypatch.setattr(cluster, "enumerate_seeds", refuse)
    monkeypatch.setattr(cluster, "divide_exact", refuse)
    code, out, err = run_cli(*argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["seed_count"] == {"enumerated": 833, "expected": 833}
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_link_pipeline_with_an_empty_brick_quiver():
    # One letter per generator: a valid positive braid whose brick quiver
    # has no vertices, so there is no exchange matrix to classify.
    for text, strands in (("1", "2"), ("1 2", "3")):
        code, plain, _ = run_cli("link", "--braid", text, "--strands", strands)
        code_p, out, err = run_cli("link", "--braid", text, "--strands", strands, "--pipeline")
        assert (code, code_p, err) == (0, 0, "")
        data = json.loads(out)
        assert data["brick_quiver"] == {"bricks": [], "arrows": []}
        assert "classification" not in data
        assert {k: data[k] for k in ("input", "braid", "invariants")} == json.loads(plain)


def test_cli_output_is_deterministic():
    for argv in (
        ("link", "--ade", "D5"),
        ("quiver", "--ade", "E6"),
        ("theta", "--n", "3", "--count-fq", "3"),
        ("aug", "--ade", "A1", "--count-fq", "2"),
    ):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first == second
        assert first[0] == 0


def test_braid_roundtrip_through_link_json():
    code, out, _ = run_cli("link", "--braid", "1 1 2 1 1 2", "--strands", "3")
    data = json.loads(out)
    braid = braid_from_text(" ".join(str(k) for k in data["braid"]["letters"]), data["braid"]["strands"])
    assert braid.letters == (1, 1, 2, 1, 1, 2)


def test_quiver_json_and_dot():
    code, out, _ = run_cli("quiver", "--ade", "D4")
    data = json.loads(out)
    assert len(data["bricks"]) == 4
    code, out, _ = run_cli("quiver", "--ade", "D4", "--format", "dot")
    assert out.startswith("digraph")


def test_quiver_from_divide_label():
    code, out, _ = run_cli("quiver", "--divide-label", "E7")
    data = json.loads(out)
    assert data["crossings"] == 4 and data["regions"] == 3


def test_quiver_from_divide_file(tmp_path):
    path = tmp_path / "divide.json"
    path.write_text(json.dumps(divide_catalog("A2").to_json_dict()))
    code, out, _ = run_cli("quiver", "--divide", str(path))
    data = json.loads(out)
    assert data == {"crossings": 1, "regions": 1, "arrows": [[0, 1]]}


def test_quiver_takes_exactly_one_source(tmp_path):
    path = tmp_path / "divide.json"
    path.write_text(json.dumps(divide_catalog("A2").to_json_dict()))
    for argv in (
        ("--divide-label", "A2", "--ade", "E8"),
        ("--divide-label", "A2", "--divide", str(path)),
        ("--divide", str(path), "--torus", "2", "3"),
        ("--ade", "A2", "--braid", "1 1"),
        (),
    ):
        code, out, err = run_cli("quiver", *argv)
        assert (code, out) == (2, ""), argv
        assert err == (
            "error: choose exactly one of --ade / --torus / --puiseux / --braid"
            " / --divide / --divide-label\n"
        ), argv


def test_matrix_file_is_closed(tmp_path):
    # -X dev reports a file left for the garbage collector to close.
    path = tmp_path / "m.json"
    path.write_text(json.dumps(initial_matrix(DynkinType("A", 2)).to_json_dict()))
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "singlink.cli", "classify", "--matrix", str(path)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"type": "A2", "seeds": 5}
    assert "ResourceWarning" not in done.stderr


def test_mutate_roundtrip_and_involution():
    code, out, _ = run_cli("mutate", "--type", "D4", "--at", "2")
    once = exchange_matrix_from_json(json.loads(out))
    code, out, _ = run_cli("mutate", "--type", "D4", "--at", "2", "2")
    twice = exchange_matrix_from_json(json.loads(out))
    assert once != twice
    code, out2, _ = run_cli("mutate", "--type", "D4", "--at", "")
    # empty --at is a usage error from argparse (exit 2)
    assert code == 2


def test_classify_output_schema():
    code, out, _ = run_cli("classify", "--type", "E6")
    assert json.loads(out) == {"type": "E6", "seeds": 833}
    code, out, _ = run_cli("classify", "--matrix", "-")
    assert code == 2  # stdin empty -> parse error


def test_classify_infinite():
    import json as j

    markov = {"entries": [[0, 2, -2], [-2, 0, 2], [2, -2, 0]], "symmetrizer": [1, 1, 1]}
    import tempfile, os

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as handle:
        j.dump(markov, handle)
        path = handle.name
    try:
        code, out, _ = run_cli("classify", "--matrix", path)
        assert json.loads(out) == {"type": None, "seeds": None}
    finally:
        os.unlink(path)


@pytest.mark.parametrize(
    "text", ["a_3", "A__3", " b3 ", "A٣", pytest.param("A" + "0" * 5000 + "3", id="A0..03")]
)
def test_type_and_ade_flags_share_one_label_grammar(text):
    # One pattern reads both flags, any decimal digit included (the fourth
    # label ends in an Arabic-Indic three) and leading zeros dropped before
    # int() reads the rest; --ade then takes only A, D and E.
    family = text.strip()[0].upper()
    code, out, err = run_cli("classify", "--type", text)
    assert (code, err) == (0, "")
    assert json.loads(out)["type"] == f"{family}3"
    code, out, err = run_cli("classify", "--ade", text)
    if family == "B":
        assert (code, out, err) == (2, "", "error: not an ADE family: 'B'\n")
    else:
        assert (code, err) == (0, "")
        assert json.loads(out)["type"] == "A3"


def test_superscript_rank_is_a_parse_error():
    # A superscript two, and more than 6 digits after leading zeros, which
    # int() would refuse past CPython's digit limit.
    for text in ("A²", "A" + "9" * 5000):
        for flag in ("--type", "--ade"):
            code, out, err = run_cli("classify", flag, text)
            assert (code, out) == (2, "")
            assert err == f"error: cannot parse Dynkin type {text!r}\n"


def test_malformed_matrix_json_is_a_usage_error():
    for text in (
        '{"entrie": [[0]]}',
        '{"entries": 5}',
        "[1, 2]",
        '{"entries": [[0,1],[-1,0]], "symmetrizer": 3}',
        '{"entries": [[0, null], [0, 0]]}',
        '{"entries": [[0, 1.5], [-1.5, 0]]}',
    ):
        for command in (["classify"], ["seeds", "--summary"], ["mutate", "--at", "1"]):
            code, out, err = run_cli(*command, "--matrix", "-", stdin=text)
            assert (code, out) == (2, ""), (command, text)
            assert err.startswith("error: ") and "Traceback" not in err


def test_malformed_divide_json_is_a_usage_error(tmp_path):
    path = tmp_path / "divide.json"
    for text in (
        "{}",
        "[1]",
        '{"crossings": 0, "strands": [{"closed": false}], "boundary_order": [[0, 0], [0, 1]]}',
        '{"crossings": 0, "strands": [{"passages": []}], "boundary_order": [[0, 0], [0, 1]]}',
        '{"crossings": "0", "strands": [], "boundary_order": []}',
        '{"crossings": 0, "strands": 5, "boundary_order": []}',
        '{"crossings": 0, "strands": [[]], "boundary_order": []}',
        '{"crossings": 1, "strands": [{"closed": true, "passages": [[0, 1, 2]]}],'
        ' "boundary_order": []}',
        '{"crossings": 0, "strands": [{"closed": false, "passages": []}], "boundary_order": [0]}',
    ):
        path.write_text(text)
        code, out, err = run_cli("quiver", "--divide", str(path))
        assert (code, out) == (2, ""), text
        assert err.startswith("error: ") and "Traceback" not in err


def test_exchange_matrix_rank_is_bounded():
    # A rank just above the bound exits 3 before any n x n matrix is built,
    # from a type, an ADE brick quiver, a pipeline or matrix JSON.
    over = f"A{MAX_RANK + 1}"
    path = [[0] * (MAX_RANK + 1) for _ in range(MAX_RANK + 1)]
    for i in range(MAX_RANK):
        path[i][i + 1], path[i + 1][i] = 1, -1
    message = f"budget exceeded: rank {MAX_RANK + 1} exceeds the exchange matrix rank bound"
    for argv, stdin in (
        (["classify", "--type", over], ""),
        (["classify", "--ade", over], ""),
        (["seeds", "--type", over, "--summary"], ""),
        (["mutate", "--type", over, "--at", "1"], ""),
        (["link", "--ade", over, "--pipeline"], ""),
        (["classify", "--matrix", "-"], json.dumps({"entries": path})),
    ):
        code, out, err = run_cli(*argv, stdin=stdin)
        assert (code, out) == (3, ""), argv
        assert err.startswith(message), argv
    code, out, _ = run_cli("classify", "--type", f"A{MAX_RANK}")
    assert code == 0 and json.loads(out)["type"] == f"A{MAX_RANK}"


def test_ade_rank_is_checked_before_the_brick_quiver(monkeypatch):
    # A brick quiver has one brick per repeat of a letter, so a rank over the
    # bound exits 3, in well under a second, before the quiver is built: an
    # ADE label's rank, or the 89,700 bricks of T(300, 301).
    from singlink import bricks

    def refuse(braid):
        raise AssertionError("the brick quiver was built")

    monkeypatch.setattr(bricks, "brick_quiver", refuse)
    over = f"A{MAX_RANK + 1}"
    for argv, rank in (
        (("classify", "--ade", over), MAX_RANK + 1),
        (("seeds", "--ade", over), MAX_RANK + 1),
        (("mutate", "--ade", over, "--at", "1"), MAX_RANK + 1),
        (("link", "--ade", over, "--pipeline"), MAX_RANK + 1),
        (("link", "--torus", "300", "301", "--pipeline"), 89700),
    ):
        started = time.perf_counter()
        code, out, err = run_cli(*argv)
        assert time.perf_counter() - started < 0.5, argv
        assert (code, out) == (3, ""), argv
        assert err.startswith(f"budget exceeded: rank {rank} exceeds the exchange matrix"), argv


def test_classify_cap_flag_is_gone():
    code, _, err = run_cli("classify", "--type", "E6", "--cap", "10")
    assert code == 2
    assert "--cap" in err


def test_classify_cyclic_e7_matrices_from_stdin():
    rng = random.Random(7)
    for _ in range(3):
        matrix = initial_matrix(DynkinType("E", 7))
        for _ in range(12):
            matrix = mutate(matrix, rng.randint(1, 7))
        code, out, _ = run_cli("classify", "--matrix", "-", stdin=json.dumps(matrix.to_json_dict()))
        assert code == 0
        assert json.loads(out) == {"seeds": 4160, "type": "E7"}


def test_torus_pipelines_classify_quickly():
    for a, b in ((3, 7), (4, 5), (4, 4)):
        started = time.perf_counter()
        code, out, _ = run_cli("link", "--torus", str(a), str(b), "--pipeline")
        assert time.perf_counter() - started < 2.0
        assert code == 0
        assert json.loads(out)["classification"] == {"type": None, "finite": False}
    started = time.perf_counter()
    code, out, _ = run_cli("link", "--torus", "3", "5", "--pipeline")
    assert time.perf_counter() - started < 2.0
    assert code == 0
    assert json.loads(out)["classification"] == {"type": "E8", "finite": True, "seeds": 25080}


def test_aug_symbolic_product_term_budget():
    # T(6,7) with the full twist, 12331 terms, is the largest torus word
    # within the budget; the words below pass it and stop at once.
    code, _, err = run_cli("aug", "--torus", "6", "7")
    assert code == 0 and err == ""
    for argv in (
        ("aug", "--torus", "7", "9"),
        ("aug", "--torus", "8", "11"),
        ("aug", "--braid", " ".join(["1"] * 40), "--strands", "2"),
    ):
        started = time.perf_counter()
        code, out, err = run_cli(*argv)
        assert time.perf_counter() - started < 5.0, argv
        assert code == 3 and out == ""
        assert "term budget 20000" in err and "Traceback" not in err


def test_aug_term_budget_is_counted_before_the_product():
    # n strands give n^2 equations and, with the full twist, at least n^2
    # terms: 142 strands are over the budget before the twist is built.
    for argv in (
        ("aug", "--braid", "", "--strands", "142", "--no-full-twist"),
        ("aug", "--braid", "", "--strands", "142"),
    ):
        code, out, err = run_cli(*argv)
        assert (code, out) == (3, ""), argv
        assert err == (
            "budget exceeded: 142 strands give n^2 = 20164 equations, "
            "over the term budget 20000\n"
        )
    # The term count follows from integers, so a long word stops at once.
    for argv in (("aug", "--torus", "2", "4000"), ("aug", "--braid", "", "--strands", "141")):
        started = time.perf_counter()
        code, out, err = run_cli(*argv)
        assert time.perf_counter() - started < 2.0, argv
        assert (code, out) == (3, ""), argv
        assert "terms after letter" in err and "term budget 20000" in err


def test_braid_size_is_bounded():
    # One letter or strand over the bound exits 3 before the word, its
    # strand list or its brick quiver is built.
    message = f"exceeds the braid bound {MAX_BRAID}\n"
    for argv in (
        ("link", "--torus", "2", str(MAX_BRAID + 1)),
        ("link", "--torus", str(MAX_BRAID + 1), "2"),
        ("link", "--puiseux", f"{MAX_BRAID + 1},2"),
        ("link", "--ade", f"D{MAX_BRAID - 1}"),
        ("classify", "--ade", f"A{MAX_BRAID}"),
        ("quiver", "--ade", f"A{MAX_BRAID}"),
        ("link", "--braid", "1", "--strands", str(MAX_BRAID + 1)),
        ("aug", "--braid", "", "--strands", str(MAX_BRAID + 1)),
        # The full twist on 317 strands has 317 * 316 = 100172 letters.
        ("aug", "--braid", "", "--strands", "317"),
    ):
        started = time.perf_counter()
        code, out, err = run_cli(*argv)
        assert time.perf_counter() - started < 1.0, argv
        assert (code, out) == (3, ""), argv
        assert err.startswith("budget exceeded: a braid word of ") and err.endswith(message), argv


def test_seeds_full_dump_parses():
    code, out, _ = run_cli("seeds", "--type", "A2")
    data = json.loads(out)
    assert data["count"] == 5
    ring = None
    from singlink.cluster import initial_cluster_ring

    ring = initial_cluster_ring(2)
    for seed in data["seeds"]:
        for text in seed["cluster"]:
            parse_polynomial(text, ring)  # must round-trip


def test_seeds_dump_renders_each_cluster_variable_once(monkeypatch):
    from singlink.cluster import enumerate_seeds
    from singlink.exactmath import Polynomial

    matrix = initial_matrix(DynkinType("A", 3))
    expected = {
        "count": 14,
        "initial_matrix": matrix.to_json_dict(),
        "seeds": [
            {
                "matrix": seed.matrix.to_json_dict(),
                "cluster": [var.to_text() for var in seed.cluster],
            }
            for seed in enumerate_seeds(matrix)
        ],
    }
    calls = []
    original = Polynomial.to_text

    def counted(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Polynomial, "to_text", counted)
    code, out, _ = run_cli("seeds", "--type", "A3")
    assert code == 0
    assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"
    # A3 has 9 cluster variables (3 initial, 6 more) in 14 seeds of 3.
    assert len(calls) == 9
    assert len(set(map(original, calls))) == 9


def test_seeds_cap_budget_exit():
    code, _, err = run_cli("seeds", "--type", "E6", "--cap", "10")
    assert code == 3
    assert "budget" in err


def test_seeds_cap_errors_and_exit_codes():
    # The pre-check that both seed searches share: its messages and codes.
    for summary in (["--summary"], []):
        code, out, err = run_cli("seeds", "--type", "A2", "--cap", "0", *summary)
        assert (code, out, err) == (2, "", "error: cap must be at least 1\n")
        code, out, err = run_cli("seeds", "--type", "E6", "--cap", "832", *summary)
        assert (code, out, err) == (3, "", "budget exceeded: more than 832 seeds reached\n")


def test_seeds_of_infinite_type_exit_at_once():
    # Kronecker, Markov, a 3-weighted edge and affine-type rank 3: a search
    # up to the default cap would take far past 30 s, so classification
    # has to stop them first.
    for rows in (
        [[0, 2], [-2, 0]],
        [[0, 2, -2], [-2, 0, 2], [2, -2, 0]],
        [[0, 3], [-3, 0]],
        [[0, 1, 0], [-1, 0, 3], [0, -3, 0]],
    ):
        for summary in (["--summary"], []):
            started = time.perf_counter()
            code, out, err = run_cli(
                "seeds", "--matrix", "-", *summary, stdin=json.dumps({"entries": rows})
            )
            assert time.perf_counter() - started < 2.0, rows
            assert (code, out) == (3, "")
            assert err == "budget exceeded: more than 2000 seeds reached\n"


def test_aug_json_schema_and_roundtrip():
    code, out, _ = run_cli("aug", "--ade", "A2", "--t-convention", "t-inverse")
    data = json.loads(out)
    assert data["strands"] == 2
    assert data["word"] == [1, 1, 1, 1, 1]
    assert data["variables"][-1] == "t"
    assert len(data["equations"]) == 4
    ring = augmentation_ring(5)
    for text in data["equations"]:
        parse_polynomial(text, ring)


def test_aug_counts_agree_between_methods():
    brute = json.loads(run_cli("aug", "--ade", "A2", "--count-fq", "3")[1])
    dp = json.loads(run_cli("aug", "--ade", "A2", "--count-fq", "3", "--method", "dp")[1])
    assert brute["count"]["solutions"] == dp["count"]["solutions"]


def test_aug_dp_counts_twisted_knots_past_the_coset_budget():
    code, out, _ = run_cli("aug", "--ade", "E8", "--count-fq", "101", "--method", "dp")
    assert code == 0
    assert json.loads(out)["count"] == {"q": 101, "method": "dp", "solutions": 10829639191632807}
    # D4 closes to a 3-component link, counted over Bruhat cells times the
    # torus: 3! x 6^2 x 7 moves per letter fit the DP state budget at q = 7,
    # and 3! x 100^2 x 101 do not at q = 101.
    code, out, _ = run_cli("aug", "--ade", "D4", "--count-fq", "7", "--method", "dp")
    assert code == 0
    assert json.loads(out)["count"] == {"q": 7, "method": "dp", "solutions": 2598}
    code, out, err = run_cli("aug", "--ade", "D4", "--count-fq", "101", "--method", "dp")
    assert code == 3 and out == ""
    assert "DP state budget" in err


def test_aug_dp_counts_a_nine_strand_twisted_knot_quickly():
    # T(9, 4) is a knot on 9 strands, 9! Bruhat cells, as the fuzz test's
    # long torus braids can draw it.  Only beta is walked, not Delta^2.
    started = time.perf_counter()
    code, out, _ = run_cli("aug", "--torus", "9", "4", "--count-fq", "3", "--method", "dp")
    assert code == 0
    assert json.loads(out)["count"] == {"q": 3, "method": "dp", "solutions": 334069986943}
    assert time.perf_counter() - started < 2.0


def test_aug_budget_exit_code():
    code, _, err = run_cli(
        "aug", "--braid", "1 1 1 1 1 1 1 1", "--strands", "2", "--no-full-twist",
        "--count-fq", "13", "--budget", "1000",
    )
    assert code == 3


def test_aug_brute_force_at_a_huge_prime_with_one_crossing():
    # s = 1 leaves no prefix to enumerate, so q ~ 10^9 costs one solved
    # level: nothing of length q is built.
    started = time.perf_counter()
    code, out, err = run_cli(
        "aug", "--braid", "1", "--strands", "2", "--no-full-twist", "--count-fq", "1000000007"
    )
    assert time.perf_counter() - started < 2.0
    assert (code, err) == (0, "")
    assert out == (
        "{\n"
        '  "count": {\n'
        '    "method": "brute",\n'
        '    "q": 1000000007,\n'
        '    "solutions": 0\n'
        "  },\n"
        '  "equations": [\n'
        '    "t",\n'
        '    "1",\n'
        '    "1",\n'
        '    "z1 + 1"\n'
        "  ],\n"
        '  "strands": 2,\n'
        '  "t_convention": "t",\n'
        '  "variables": [\n'
        '    "z1",\n'
        '    "t"\n'
        "  ],\n"
        '  "word": [\n'
        "    1\n"
        "  ]\n"
        "}\n"
    )


def test_aug_brute_force_work_budget():
    # A6 with the full twist: s = 9 crossings and 146 equation terms.
    started = time.perf_counter()
    code, out, err = run_cli("aug", "--ade", "A6", "--count-fq", "7")
    assert code == 3 and out == ""
    assert "7^8 x 146" in err and "work budget" in err
    assert time.perf_counter() - started < 2.0
    code, out, _ = run_cli("aug", "--ade", "A6", "--count-fq", "5", "--budget", str(5**8 * 146 - 1))
    assert code == 3 and out == ""


def test_aug_brute_force_on_the_six_strand_full_twist():
    # s = 30 offers 26 pins, more than one kernel can nest loops for.
    code, out, err = run_cli(
        "aug", "--braid", "", "--strands", "6", "--count-fq", "2", "--budget", "10000000000000"
    )
    assert code == 0 and "Traceback" not in err
    assert json.loads(out)["count"] == {"q": 2, "method": "brute", "solutions": 1}


def test_count_fq_zero_is_a_usage_error():
    for argv in (
        ("aug", "--ade", "A2", "--count-fq", "0"),
        ("theta", "--n", "3", "--count-fq", "0"),
    ):
        code, out, err = run_cli(*argv)
        assert code == 2 and out == ""
        assert "0 is not prime" in err


def test_theta_wedge_and_counts():
    code, out, _ = run_cli("theta", "--n", "4", "--method", "wedge", "--count-fq", "3")
    data = json.loads(out)
    assert code == 0
    assert data["count"]["solutions"] == 3**4 + 3**2 + 1
    ring = theta_ring(4)
    for text in data["equations"]:
        parse_polynomial(text, ring)


def test_theta_usage_error():
    code, _, err = run_cli("theta", "--n", "1")
    assert code == 2


def test_check_fast_reports_known_failure():
    code, out, _ = run_cli("check", "--fast")
    data = json.loads(out)
    assert code == 1  # theta_polynomiality n=3 is a documented red check
    by_name = {c["name"]: c for c in data["checks"]}
    assert not by_name["theta_polynomiality"]["passed"]
    failing_rows = [r for r in by_name["theta_polynomiality"]["details"]["chains"] if not r["ok"]]
    assert [r["n"] for r in failing_rows] == [3]
    others = [c for c in data["checks"] if c["name"] != "theta_polynomiality"]
    assert all(c["passed"] for c in others)


def test_usage_error_exit_code():
    code, _, err = run_cli("link", "--ade", "A2", "--torus", "2", "3")
    assert code == 2
    code, _, err = run_cli("link", "--ade", "Q9")
    assert code == 2


def test_pipeline_equation_files(tmp_path):
    code, out, _ = run_cli(
        "link", "--ade", "A2", "--pipeline", "--equations-dir", str(tmp_path)
    )
    data = json.loads(out)
    assert code == 0
    paths = data["equation_files"]
    assert len(paths) == 2  # augmentation system and chain system
    aug_data = json.loads(pathlib.Path(paths[0]).read_text())
    assert len(aug_data["equations"]) == 4
    ring = augmentation_ring(5)
    for text in aug_data["equations"]:
        parse_polynomial(text, ring)
    theta_data = json.loads(pathlib.Path(paths[1]).read_text())
    assert theta_data["n"] == 2


def test_check_output_is_deterministic():
    first = run_cli("check", "--fast")
    second = run_cli("check", "--fast")
    assert first == second


# -- fuzzing the exit-code contract ---------------------------------------------

FUZZ_SECONDS = 5.0

# Mostly valid values, with a few that each input check must reject.
_small = st.integers(-1, 5)
_labels = st.sampled_from(
    [f"A{n}" for n in range(9)] + [f"D{n}" for n in range(2, 9)] + ["E6", "E7", "E8", "E9", "X1"]
    + [""]
)
_braid_text = st.lists(
    st.sampled_from(["1", "1", "2", "2", "3", "0", "-1", "x", "1,2"]), max_size=6
).map(" ".join)
_puiseux_text = st.lists(
    st.sampled_from(["3,2", "5,2", "7,2", "10,3", "2,3", "1,1", "0,2", "3", "2,3,1", "a,b"]),
    max_size=3,
).map(" ".join)


_long_torus = st.tuples(st.integers(2, 9), st.integers(2, 12)).map(
    lambda ab: ["--torus", str(ab[0]), str(ab[1])]
)


def _braid_forms(puiseux: bool) -> list:
    forms = [
        _labels.map(lambda label: ["--ade", label]),
        st.tuples(_small, _small).map(lambda ab: ["--torus", str(ab[0]), str(ab[1])]),
        _braid_text.map(lambda text: ["--braid", text]),
    ]
    if puiseux:
        forms.append(_puiseux_text.map(lambda text: ["--puiseux", text]))
    return forms


@st.composite
def _braid_inputs(draw, puiseux: bool) -> list[str]:
    """One braid input form, sometimes with --strands; rarely none or two."""
    form = st.one_of(_braid_forms(puiseux))
    argv = draw(form) if draw(st.integers(0, 9)) else []
    if not draw(st.integers(0, 9)):
        argv += draw(form)
    if draw(st.booleans()):
        argv += ["--strands", str(draw(st.integers(-1, 3)))]
    return argv


def _flag(draw, flag: str, values) -> list[str]:
    """[flag, value] or, half the time, nothing."""
    return [flag, str(draw(values))] if draw(st.booleans()) else []


@st.composite
def _matrix_json(draw) -> str:
    """A small integer matrix: arbitrary, skew-symmetric, or skew-symmetrizable."""
    n = draw(st.integers(0, 5))
    rows = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]
    payload = {"entries": rows}
    kind = draw(st.sampled_from(["any", "skew", "symmetrizable"]))
    if kind != "any":
        sym = [draw(st.integers(1, 3)) if kind == "symmetrizable" else 1 for _ in range(n)]
        for i in range(n):
            rows[i][i] = 0
            for j in range(i):
                # b_ij = k d_j / g and b_ji = -k d_i / g give d_i b_ij = -d_j b_ji.
                k, g = rows[i][j], math.gcd(sym[i], sym[j])
                rows[i][j], rows[j][i] = k * sym[j] // g, -k * sym[i] // g
        payload["symmetrizer"] = sym
    elif draw(st.booleans()):
        payload["symmetrizer"] = [draw(st.integers(-1, 3)) for _ in range(n)]
    return json.dumps(payload)


# Parsed on each draw, so that no two places in a document share a list.
_JSON_VALUES = st.sampled_from(
    ["null", "true", "-1", "0", "1", "2", "4", "2.5", '"x"', "[]", "[0]", "[0, 0, 0]", "{}"]
).map(json.loads)


@st.composite
def _divide_json(draw) -> str:
    """A catalog divide, often with entries somewhere in it dropped or replaced."""
    if not draw(st.integers(0, 9)):
        return json.dumps(draw(_JSON_VALUES))
    data = divide_catalog(draw(st.sampled_from(CATALOG_LABELS))).to_json_dict()
    node = data
    while draw(st.booleans()) and node:
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        if isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
            node = node[key]
        elif isinstance(node, dict) and draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(_JSON_VALUES)
    return json.dumps(data)


# Stands for the file that test_cli_fuzz_exit_codes writes the text on stdin to.
DIVIDE_FILE = "<divide file>"


@st.composite
def _cli_args(draw) -> tuple[list[str], str]:
    """An argument vector and the text on stdin."""
    command = draw(
        st.sampled_from(["aug", "theta", "link", "classify", "seeds", "mutate", "quiver"])
    )
    if command == "classify":
        return ["classify", "--matrix", "-"], draw(_matrix_json())
    if command == "mutate":
        at = [str(k) for k in draw(st.lists(st.integers(-1, 6), min_size=1, max_size=4))]
        return ["mutate", "--matrix", "-", "--at", *at], draw(_matrix_json())
    if command == "quiver":
        return ["quiver", "--divide", DIVIDE_FILE], draw(_divide_json())
    if command == "seeds":
        argv = ["seeds", "--matrix", "-"] + (["--summary"] if draw(st.booleans()) else [])
        return argv + _flag(draw, "--cap", st.integers(1, 2000)), draw(_matrix_json())
    return draw(_argv(command)), ""


# Invalid values of the choice options, drawn now and then.
_BAD_CHOICES = ["", "T", "t_inverse", "wedges", "Brute", "none"]
_CHOICES = {
    "aug": {"--method": ("brute", "dp"), "--t-convention": T_CONVENTIONS},
    "theta": {"--method": THETA_METHODS},
}


def _choice(valid) -> st.SearchStrategy:
    return st.one_of(st.sampled_from(valid), st.sampled_from(_BAD_CHOICES))


def _bad_choice(argv: list[str]) -> bool:
    """True if argv gives a choice option a value outside its choices."""
    choices = _CHOICES.get(argv[0], {})
    return any(
        flag in choices and value not in choices[flag] for flag, value in zip(argv, argv[1:])
    )


@st.composite
def _argv(draw, command: str) -> list[str]:
    if command == "theta":
        argv = ["theta", "--n", str(draw(st.integers(-2, 60)))]
        argv += _flag(draw, "--count-fq", st.integers(-3, 13))
        argv += _flag(draw, "--method", _choice(THETA_METHODS))
        return argv + (["--positroid"] if draw(st.booleans()) else [])
    if command == "link":
        argv = ["link", *draw(_braid_inputs(puiseux=True))]
        return argv + (["--pipeline"] if draw(st.booleans()) else [])
    # The slowest aug inputs here take about 2 s: T(9, 5) with --method dp,
    # a knot walked over the 9! Bruhat cells.  The F_2 DP on four strands,
    # which holds 2^16 states, takes about 1 s.  Longer torus words up to
    # T(9, 12) end at the term budget (exit 3) in well under a second.
    braid = st.one_of(_braid_inputs(puiseux=False), _long_torus)
    method = _flag(draw, "--method", _choice(_CHOICES["aug"]["--method"]))
    q = st.integers(-3, 13)
    # Always bounded: at most 10^6 work units of brute force.
    budget = st.integers(-1, 10**6)
    if method == ["--method", "dp"]:
        # Large primes reach the Bruhat-cell count of twisted knots and the
        # state budgets of twisted links and of untwisted words.
        q = st.one_of(q, st.sampled_from([101, 10007, 1000000007]))
    count = None
    if method in ([], ["--method", "brute"]):
        # The brute force, the default, often on small ADE links at a prime
        # and the largest budget, so that its generated kernel runs; the
        # other half of its counts are absent, invalid or prime as below.
        small = st.sampled_from(["A1", "A2", "A3", "A4", "D4", "E6"])
        braid = st.one_of(small.map(lambda label: ["--ade", label]), braid)
        if draw(st.booleans()):
            count = ["--count-fq", str(draw(st.sampled_from([2, 3, 5, 7, 11, 13])))]
        budget = st.one_of(st.just(10**6), budget)
    if count is None:
        count = _flag(draw, "--count-fq", q)
    argv = ["aug", *draw(braid), *count, *method]
    argv += _flag(draw, "--t-convention", _choice(T_CONVENTIONS))
    argv += ["--no-full-twist"] if draw(st.booleans()) else []
    # --budget is a usage error unless the brute force runs.
    if count and method in ([], ["--method", "brute"]):
        argv += ["--budget", str(draw(budget))]
    return argv


@given(_cli_args())
@settings(max_examples=100, deadline=None)
def test_cli_fuzz_exit_codes(case):
    argv, stdin = case
    with tempfile.TemporaryDirectory() as directory:
        path = pathlib.Path(directory, "divide.json")
        path.write_text(stdin)
        argv = [str(path) if arg == DIVIDE_FILE else arg for arg in argv]
        started = time.perf_counter()
        code, _, err = run_cli(*argv, stdin=stdin)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err
    assert time.perf_counter() - started < FUZZ_SECONDS, argv
    if _bad_choice(argv):
        assert code == 2, (argv, code)


@given(st.one_of(_braid_inputs(puiseux=True), _braid_text.map(lambda text: ["--braid", text])))
@settings(max_examples=100, deadline=None)
def test_link_pipeline_succeeds_wherever_link_does(braid_input):
    code, _, _ = run_cli("link", *braid_input)
    if code == 0:
        code, _, err = run_cli("link", *braid_input, "--pipeline")
        assert code in (0, 3), (braid_input, code, err)
