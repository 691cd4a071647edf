"""Short self-test of the benchmark machinery.

Run from the root of a checkout:

    python3 bench/selftest.py

It runs one tiny task per workload through the same pass runner, checks
that every metric named in BENCHMARK.json prints with its unit in both
modes, and checks that a corrupted digest, a forced deadline miss and the
recorded known failure each count as failed.  Exits 0 when all hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys

import run
import workloads

TINY = {
    "seeds": ["seeds", "--type", "B3", "--summary"],
    "fq_count": ["theta", "--n", "2", "--count-fq", "7"],
    "session": ["link", "--ade", "A2"],
}
# Short enough for the known failure, long enough for the tiny tasks.
SHORT_DEADLINE_S = 2.0


def tiny_task(workload: str) -> dict:
    return next(t for t in workloads.build_tasks(workload, 1, 0) if t["argv"] == TINY[workload])


def tiny_run(workload: str, trace: bool, expected: dict | None = None,
             deadline_s: float = workloads.DEADLINE_S, task: dict | None = None) -> dict:
    """Two untraced (and, with `trace`, one traced) passes of a single task."""
    bench_run = run.Run(workload, 1, 0, deadline_s=deadline_s, expected=expected)
    task = task or tiny_task(workload)
    for _ in range(2):
        bench_run.run_pass(trace=False, tasks=[task])
    if trace:
        bench_run.run_pass(trace=True, tasks=[task])
    bench_run.probe(1)
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        if trace:
            result = run.report(bench_run, bench_run.per_layer(), dict(run.PER_LAYER))
        else:
            result = run.report(bench_run, bench_run.end_to_end(), dict(run.END_TO_END),
                                bench_run.diagnostics())
    result["printed"] = printed.getvalue()
    return result


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []

    def expect(condition: bool, message: str) -> None:
        print(("ok   " if condition else "FAIL ") + message)
        if not condition:
            problems.append(message)

    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json lists the workloads run.py knows")
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        expect([(m["name"], m["unit"]) for m in spec[key]] == list(table),
               f"BENCHMARK.json {key} names and units match run.py")

    for workload in workloads.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = tiny_run(workload, trace)
            names = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            printed = dict(names, failed_frac="ratio", **({} if trace else dict(run.DIAGNOSTICS)))
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload} trace={int(trace)}: tiny task passes its checks")
            expect(got == names, f"{workload} trace={int(trace)}: every {key} metric with its unit")
            expect(all(re.search(rf"^{re.escape(n)} = \S+ {re.escape(u)}$", result["printed"], re.M)
                       for n, u in printed.items()),
                   f"{workload} trace={int(trace)}: every metric printed by name")

    task = tiny_task("session")
    corrupted = {workloads.task_id(task): {"exit": 0, "digest": "0" * 64}}
    result = tiny_run("session", False, expected=corrupted)
    expect(result["failed"] == 2 and "failed_frac = 1.000000" in result["printed"],
           "a corrupted digest counts in failed_frac")

    result = tiny_run("seeds", False, deadline_s=1e-4,
                      task=dict(tiny_task("seeds"), argv=["seeds", "--type", "E6", "--summary"]))
    expect(result["failed"] == 2 and "missed the" in result["printed"],
           "a forced deadline miss counts in failed_frac")

    known = {"argv": workloads.KNOWN_FAILURES[0]["argv"], "stdin": None, "oracle": None}
    result = tiny_run("session", False, deadline_s=SHORT_DEADLINE_S, task=known)
    expect(result["failed"] == 2 and "missed the" in result["printed"],
           f"{workloads.task_id(known)} misses a {SHORT_DEADLINE_S} s deadline")

    print("self-test " + ("passed" if not problems else f"failed: {len(problems)} problem(s)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
