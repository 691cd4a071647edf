"""Fixed task lists of the three benchmark workloads, and their oracles.

A task is one ``singlink`` argument vector, optionally with text fed to
stdin.  Every task carries the checks its output must pass: the exit code
and stdout digest recorded in ``expected.json``, plus independent oracles
where they are cheap.  Nothing here imports ``singlink``: the oracles are
written from the mathematics, not from the program under test.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# A task that runs longer than this is stopped and counted as failed.
DEADLINE_S = 30.0

ADE_LABELS = [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(3, 9)] + ["E6", "E7", "E8"]

# Literal seed-count targets (Fomin-Zelevinsky), independent of the closed form.
SEED_COUNT_TARGETS = {
    "A5": 132, "B3": 20, "C3": 20, "G2": 8, "D5": 182, "F4": 105, "D6": 672,
    "E6": 833, "E7": 4160,
}

# Cyclic E7-class matrices per session pass, from random mutation walks.
E7_WALKS = 3
E7_WALK_LENGTH = 12

# `link --torus 4 5 --pipeline` does not finish within the deadline at the
# commit this benchmark was written against: `cluster.canonical_form`
# enumerates the product of factorials of the vertex-invariant groups,
# about 0.35 s per matrix on this input.  It is kept out of the scored
# passes; the self-test checks that it misses a short deadline.
KNOWN_FAILURES = [
    {
        "argv": ["link", "--torus", "4", "5", "--pipeline"],
        "cause": "cluster.canonical_form enumerates the product of factorials of the "
        "vertex-invariant groups, about 0.35 s per matrix on this input",
    },
]


# -- closed forms used as oracles ----------------------------------------------


def _exponents(family: str, rank: int) -> tuple[list[int], int]:
    if family == "A":
        return list(range(1, rank + 1)), rank + 1
    if family in "BC":
        return list(range(1, 2 * rank, 2)), 2 * rank
    if family == "D":
        return list(range(1, 2 * rank - 2, 2)) + [rank - 1], 2 * rank - 2
    table = {
        ("E", 6): ([1, 4, 5, 7, 8, 11], 12),
        ("E", 7): ([1, 5, 7, 9, 11, 13, 17], 18),
        ("E", 8): ([1, 7, 11, 13, 17, 19, 23, 29], 30),
        ("F", 4): ([1, 5, 7, 11], 12),
        ("G", 2): ([1, 5], 6),
    }
    return table[(family, rank)]


def closed_form_seed_count(label: str) -> int:
    """Number of seeds of a finite cluster algebra: prod (h + e + 1) / (e + 1)."""
    exps, h = _exponents(label[0], int(label[1:]))
    count = Fraction(1)
    for e in exps:
        count *= Fraction(h + e + 1, e + 1)
    return int(count)


def even_chain_count(n: int, q: int) -> int:
    """Chain-system point count for even n: sum over i <= n/2 of q^(2i)."""
    return sum(q ** (2 * i) for i in range(n // 2 + 1))


def _finite_label(label: str) -> str:
    return "A3" if label == "D3" else label


# -- random E7-class matrices ----------------------------------------------------


def e7_initial_rows() -> list[list[int]]:
    """Alternating orientation of the E7 diagram 1-2-3-4-5-6 with 7 on 3."""
    n = 7
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)]
    rows = [[0] * n for _ in range(n)]
    for i, j in edges:
        # Vertices 0, 2 and 4 are sources: a bipartite (acyclic) orientation.
        src, dst = (i, j) if i in (0, 2, 4) else (j, i)
        rows[src][dst] = 1
        rows[dst][src] = -1
    return rows


def mutate_rows(rows: list[list[int]], k: int) -> list[list[int]]:
    """Fomin-Zelevinsky matrix mutation at 0-based index k (skew-symmetric)."""
    n = len(rows)
    out = [row[:] for row in rows]
    for i in range(n):
        for j in range(n):
            if i == k or j == k:
                out[i][j] = -rows[i][j]
            else:
                bik, bkj = rows[i][k], rows[k][j]
                out[i][j] = rows[i][j] + (abs(bik) * bkj + bik * abs(bkj)) // 2
    return out


def _is_acyclic(rows: list[list[int]]) -> bool:
    n = len(rows)
    indegree = [sum(1 for i in range(n) if rows[i][j] > 0) for j in range(n)]
    ready = [j for j in range(n) if indegree[j] == 0]
    seen = 0
    while ready:
        i = ready.pop()
        seen += 1
        for j in range(n):
            if rows[i][j] > 0:
                indegree[j] -= 1
                if indegree[j] == 0:
                    ready.append(j)
    return seen == n


def random_e7_matrices(rng: random.Random, count: int) -> list[list[list[int]]]:
    """Distinct cyclic matrices in the E7 mutation class, by random walks."""
    found: list[list[list[int]]] = []
    while len(found) < count:
        rows = e7_initial_rows()
        previous = -1
        for _ in range(E7_WALK_LENGTH):
            k = rng.choice([v for v in range(7) if v != previous])
            rows = mutate_rows(rows, k)
            previous = k
        if not _is_acyclic(rows) and rows not in found:
            found.append(rows)
    return found


# -- task lists -----------------------------------------------------------------


def _task(argv: list[str], oracle: tuple | None = None, stdin: str | None = None) -> dict:
    return {"argv": argv, "stdin": stdin, "oracle": oracle}


def task_id(task: dict) -> str:
    return " ".join(task["argv"])


def _seeds_tasks() -> list[dict]:
    tasks = [
        _task(["seeds", "--type", t, "--summary"], ("seed_count", t))
        for t in ("A5", "B3", "C3", "G2", "D5", "F4", "D6")
    ]
    tasks.append(_task(["seeds", "--type", "E7", "--summary", "--cap", "5000"], ("seed_count", "E7")))
    tasks.append(_task(["seeds", "--type", "E6"], ("seed_count", "E6")))
    return tasks


def _fq_tasks() -> list[dict]:
    tasks = [
        _task(["theta", "--n", str(n), "--count-fq", str(q)], ("even_chain", n, q))
        for n, q in ((24, 61), (6, 101), (2, 7), (4, 11), (8, 13))
    ]
    tasks.append(_task(["theta", "--n", "3", "--count-fq", "5", "--positroid"]))
    for label in ("A6", "D4", "E8"):
        q = "23" if label == "A6" else "3"
        tasks.append(_task(["aug", "--ade", label, "--count-fq", q, "--method", "dp"]))
    for method in ("brute", "dp"):
        tasks.append(
            _task(["aug", "--ade", "A4", "--count-fq", "5", "--method", method], ("brute_equals_dp",))
        )
    tasks.append(_task(["aug", "--ade", "A6", "--count-fq", "3", "--method", "brute"]))
    tasks.append(_task(["aug", "--ade", "D4", "--count-fq", "2", "--method", "brute"]))
    return tasks


def _session_fixed_tasks() -> list[dict]:
    tasks = []
    for label in ADE_LABELS:
        tasks.append(_task(["link", "--ade", label], ("milnor", label)))
        tasks.append(_task(["link", "--ade", label, "--pipeline"], ("ade_pipeline", label)))
        tasks.append(_task(["quiver", "--ade", label]))
        tasks.append(_task(["quiver", "--divide-label", label]))
    for a, b in ((2, 3), (2, 5), (2, 7), (2, 9), (3, 7), (4, 5), (5, 6)):
        tasks.append(_task(["link", "--torus", str(a), str(b)]))
    for pairs in ("3,2", "5,2", "3,2 7,2", "3,2 10,3", "3,2 7,2 15,2"):
        tasks.append(_task(["link", "--puiseux", pairs]))
    # T(3,5) and T(4,4) are left out: 10 s and 14 s, they would leave
    # one pass per run.
    tasks.append(_task(["link", "--torus", "3", "4", "--pipeline"], ("torus_class", "E6")))
    tasks.append(_task(["quiver", "--ade", "E8", "--format", "dot"]))
    tasks.append(_task(["quiver", "--divide-label", "E8", "--format", "text"]))
    for label in ("A6", "D5", "E7"):
        tasks.append(_task(["classify", "--ade", label], ("classify", _finite_label(label))))
    tasks.append(_task(["mutate", "--type", "E8", "--at", *map(str, range(1, 9))]))
    tasks.append(_task(["mutate", "--ade", "D6", "--at", "2", "4"]))
    for label in ("A2", "A3", "D4", "E6", "E8"):
        tasks.append(_task(["aug", "--ade", label]))
    tasks.append(_task(["aug", "--torus", "4", "7"]))
    tasks.append(_task(["aug", "--torus", "3", "4", "--no-full-twist"]))
    tasks.append(_task(["aug", "--braid", "1 1 1", "--strands", "2", "--t-convention", "t-inverse"]))
    for n in (10, 50, 100, 200, 400):
        tasks.append(_task(["theta", "--n", str(n), "--method", "recursion"]))
    for n in (10, 50, 100, 200, 400):
        tasks.append(_task(["theta", "--n", str(n), "--method", "wedge"]))
    tasks.append(_task(["check", "--fast"], ("check_fast",)))
    return tasks


def _session_tasks(rng: random.Random) -> list[dict]:
    tasks = _session_fixed_tasks()
    for rows in random_e7_matrices(rng, E7_WALKS):
        text = json.dumps({"entries": rows, "symmetrizer": [1] * 7})
        tasks.append(_task(["classify", "--matrix", "-"], ("classify", "E7"), stdin=text))
    return tasks


WORKLOADS = ("seeds", "fq_count", "session")


def build_tasks(workload: str, seed: int, pass_index: int) -> list[dict]:
    """The task list of one pass; only `session` draws on the seed."""
    if workload == "seeds":
        return _seeds_tasks()
    if workload == "fq_count":
        return _fq_tasks()
    if workload == "session":
        return _session_tasks(random.Random(f"{seed}:{pass_index}"))
    raise ValueError(f"unknown workload {workload!r}")


def all_fixed_tasks() -> list[dict]:
    """Every task whose input does not depend on the seed (digest recorded)."""
    return _seeds_tasks() + _fq_tasks() + _session_fixed_tasks()


# -- checking ---------------------------------------------------------------------


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def _oracle_error(oracle: tuple, payload: dict) -> str | None:
    kind = oracle[0]
    if kind == "seed_count":
        label = oracle[1]
        want = closed_form_seed_count(label)
        if want != SEED_COUNT_TARGETS[label]:
            return f"closed form {want} != target {SEED_COUNT_TARGETS[label]}"
        if payload["count"] != want or ("seeds" in payload and len(payload["seeds"]) != want):
            return f"seed count {payload['count']} != {want}"
    elif kind == "even_chain":
        _, n, q = oracle
        got = payload["count"]["solutions"]
        if got != even_chain_count(n, q):
            return f"chain count {got} != {even_chain_count(n, q)}"
    elif kind == "milnor":
        rank = int(oracle[1][1:])
        if payload["invariants"]["milnor_number"] != rank:
            return f"milnor number != {rank}"
    elif kind == "ade_pipeline":
        label = _finite_label(oracle[1])
        want = closed_form_seed_count(label)
        cls = payload["classification"]
        if cls.get("type") != label or cls.get("seeds") != want:
            return f"classification {cls} != {label}"
        if "seed_count" in payload and payload["seed_count"]["enumerated"] != want:
            return f"enumerated {payload['seed_count']['enumerated']} seeds, not {want}"
    elif kind == "torus_class":
        cls = payload["classification"]
        if cls.get("type") != oracle[1] or cls.get("seeds") != closed_form_seed_count(oracle[1]):
            return f"classification {cls} != {oracle[1]}"
    elif kind == "classify":
        want = {"seeds": closed_form_seed_count(oracle[1]), "type": oracle[1]}
        if payload != want:
            return f"classification {payload} != {want}"
    elif kind == "check_fast":
        red = [c["name"] for c in payload["checks"] if not c["passed"]]
        if payload["passed"] or red != ["theta_polynomiality"]:
            return f"failing checks {red}, expected only theta_polynomiality (criterion 9)"
    return None


def check_outcome(task: dict, outcome: dict, expected: dict) -> str | None:
    """Why a task's outcome is wrong, or None when it passes every check."""
    if outcome["deadline_missed"]:
        return f"missed the {outcome['deadline_s']} s deadline"
    want_exit = 1 if task["oracle"] == ("check_fast",) else 0
    if outcome["exit"] != want_exit:
        return f"exit {outcome['exit']} != {want_exit}: {outcome['stderr'][-200:]}"
    record = expected.get(task_id(task))
    if record is not None:
        if record["exit"] != outcome["exit"] or record["digest"] != digest(outcome["stdout"]):
            return "stdout digest differs from the recorded one"
    elif task["stdin"] is None:
        return "no recorded digest for this task"
    if task["oracle"] is not None:
        try:
            return _oracle_error(task["oracle"], json.loads(outcome["stdout"]))
        except (ValueError, KeyError, TypeError) as exc:
            return f"oracle could not read the output: {exc!r}"
    return None


def check_pair_oracles(tasks: list[dict], outcomes: list[dict]) -> list[str]:
    """Oracles across tasks of one pass: brute force equals DP on A4 at q = 5."""
    counts = []
    for task, outcome in zip(tasks, outcomes):
        if task["oracle"] == ("brute_equals_dp",) and outcome["exit"] == 0:
            counts.append(json.loads(outcome["stdout"])["count"]["solutions"])
    if len(counts) == 2 and counts[0] != counts[1]:
        return [f"aug A4 q=5: brute {counts[0]} != dp {counts[1]}"]
    return []
