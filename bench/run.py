"""Fixed-workload benchmark of the singlink CLI.

Run from the root of a checkout:

    python3 bench/run.py --workload seeds --seed 1 --seconds 36 --trace 0

Each pass runs the workload's task list in a fresh interpreter
(``bench/child.py``), in-process through ``singlink.cli.main``, one task
at a time.  Passes repeat until ``--seconds`` is used up (at least one).
Every output is checked against its recorded digest and oracles.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.

End-to-end times are in reference seconds (see ``child.py``): raw times
scaled by the speed of a fixed reference loop timed in the same process,
so that the drift of a shared virtual CPU cancels out.  Raw times are
printed alongside.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD = Path(__file__).resolve().with_name("child.py")

SETUP_SAMPLES = 12  # set-up probes per run, at least
PROBES_PER_PASS = 3
CHILD_TIMEOUT_S = 150

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
# Printed by name, not in the result JSON: raw times carry the machine's
# drift; per-task quantiles of the 9- and 13-task lists of `seeds` and
# `fq_count` jump between the times of neighbouring tasks (see README);
# and `failed_frac` is 0 on a correct run.
DIAGNOSTICS = [
    ("wall_raw_s", "s"), ("setup_raw_s", "s"), ("task_p50_ms", "ms"), ("task_p90_ms", "ms"),
]

CHECK_NAMES = [
    "cable_pair_regressions", "ade_quiver_shapes", "divide_cross_check", "seed_counts",
    "mutation_properties", "augmentation_worked_example", "augmentation_oracles",
    "theta_equivalence", "theta_polynomiality", "unknot_augmentation",
]

# Spans reported as <name>_s (inclusive time) and <name>_calls.
TIMED_SPANS = [
    "exactmath.divide_exact", "exactmath.poly_mul", "exactmath.polymatrix_matmul",
    "exactmath.to_text", "links.braid_invariants", "bricks.brick_quiver",
    "divides.trace_faces", "divides.acampo_quiver", "dividecatalog.divide_catalog",
    "cluster.enumerate_seeds", "cluster.mutate", "cluster.is_finite_type",
    "cluster.canonical_form", "augment.augmentation_equations", "augment.count_solutions_dp",
    "augment.count_solutions_bruteforce", "sheafmoduli.theta_system",
    "sheafmoduli.count_theta_points_chain", "sheafmoduli.count_positroid_points",
]

PER_LAYER = (
    [("cli.main_s", "s"), ("cli.self_s", "s"), ("cli.stdout_bytes", "bytes")]
    + [(f"{span}{suffix}", unit)
       for span in TIMED_SPANS for suffix, unit in (("_s", "s"), ("_calls", "count"))]
    + [("cluster.seeds_found", "count"), ("cluster.enum_mutations", "count"),
       ("cluster.enum_divisions", "count"), ("cluster.exchange_memo_hit_ratio", "ratio"),
       ("augment.brute_points", "points_computed")]
    + [(f"checks.{name}_s", "s") for name in CHECK_NAMES]
    + [("checks.failed", "count"), ("process.cpu_s", "s"), ("trace.wall_s", "s"),
       ("trace.overhead_s", "s"), ("trace.unattributed_s", "s"),
       ("trace.attributed_share", "ratio")]
)


class BenchError(RuntimeError):
    pass


def spawn(tasks: list[dict] | None, seed: int, trace: bool = False,
          trace_path: str | None = None, deadline_s: float = workloads.DEADLINE_S) -> dict:
    """Run one child interpreter; `tasks=None` only measures set-up."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(seed % 2**32))
    request = {
        "tasks": None if tasks is None else [{"argv": t["argv"], "stdin": t["stdin"]} for t in tasks],
        "trace": trace,
        "trace_path": trace_path,
        "deadline_s": deadline_s,
    }
    request["launched"] = time.monotonic()
    with subprocess.Popen(
        [sys.executable, str(CHILD)], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env=env, cwd=ROOT,
    ) as proc:
        try:
            out, err = proc.communicate(json.dumps(request).encode(), timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"a pass ran longer than {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"pass process exited {proc.returncode}: {err.decode()[-2000:]}")
    result = json.loads(out)
    if not Path(result["module"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"singlink was imported from {result['module']}, not from {SRC}")
    return result


def check_pass(tasks: list[dict], result: dict, expected: dict) -> list[str]:
    """Failure messages for one pass; one per failed task."""
    failures = []
    for task, outcome in zip(tasks, result["outcomes"]):
        why = workloads.check_outcome(task, outcome, expected)
        if why is not None:
            failures.append(f"{workloads.task_id(task)}: {why}")
    failures += workloads.check_pair_oracles(tasks, result["outcomes"])
    return failures


class Run:
    """State of one benchmark run: passes, set-up probes and failures."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 deadline_s: float = workloads.DEADLINE_S, expected: dict | None = None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline_s = deadline_s
        self.expected = workloads.load_expected() if expected is None else expected
        self.setup: list[dict] = []  # set-up probes and pass processes
        self.passes: list[dict] = []  # untraced
        self.traced: list[dict] = []
        self.attempted = 0
        self.failures: list[str] = []

    def probe(self, count: int) -> None:
        for _ in range(count):
            self.setup.append(spawn(None, self.seed))

    def run_pass(self, trace: bool, tasks: list[dict] | None = None) -> dict:
        index = len(self.passes) + len(self.traced)
        if tasks is None:
            tasks = workloads.build_tasks(self.workload, self.seed, index)
        trace_path = None
        if trace:
            OUT.mkdir(exist_ok=True)
            trace_path = str(OUT / f"spans-{self.workload}-{self.seed}-{index}.jsonl")
        result = spawn(tasks, self.seed, trace, trace_path, self.deadline_s)
        self.attempted += len(tasks)
        self.failures += check_pass(tasks, result, self.expected)
        (self.traced if trace else self.passes).append(result)
        if not trace:
            self.setup.append(result)
        return result

    def measure(self, trace: bool) -> None:
        """Passes while the next one fits in the time; traced runs alternate both kinds."""
        spawn(None, self.seed)  # warm-up: byte-compiles a fresh checkout
        start = time.monotonic()
        while True:
            self.probe(PROBES_PER_PASS)
            self.run_pass(trace=False)
            if trace:
                self.run_pass(trace=True)
            walls = [r["wall_s"] for r in self.passes + self.traced]
            per_round = statistics.median(walls) * (2 if trace else 1)
            if time.monotonic() - start + per_round > self.seconds:
                break
        self.probe(max(0, SETUP_SAMPLES - len(self.setup)))

    def end_to_end(self) -> dict:
        return {
            "wall_s": statistics.median(r["wall_ref_s"] for r in self.passes),
            "setup_s": statistics.median(s["setup_ref_s"] for s in self.setup),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in self.passes),
        }

    def diagnostics(self) -> dict:
        """Printed, not gated: raw times and per-task latency quantiles.

        Latencies are in reference milliseconds, pooled over the untraced passes.
        """
        latencies = [o["ref_seconds"] * 1000 for r in self.passes for o in r["outcomes"]]
        return {
            "wall_raw_s": statistics.median(r["wall_s"] for r in self.passes),
            "setup_raw_s": statistics.median(s["setup_s"] for s in self.setup),
            "task_p50_ms": statistics.median(latencies),
            "task_p90_ms": statistics.quantiles(latencies, n=10)[8],
        }

    def per_layer(self) -> dict:
        rows = [layer_metrics(r) for r in self.traced]
        metrics = {name: statistics.median_low(row[name] for row in rows) for name in rows[0]}
        untraced_wall = statistics.median(r["wall_s"] for r in self.passes)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
        metrics["process.cpu_s"] = statistics.median(r["cpu_s"] for r in self.passes)
        return {name: metrics[name] for name, _ in PER_LAYER}


def layer_metrics(result: dict) -> dict:
    """Per-layer numbers of one traced pass."""
    trace = result["trace"]
    total, self_s, calls, counts = trace["total_s"], trace["self_s"], trace["calls"], trace["counts"]
    wall = result["wall_s"]
    m = {
        "cli.main_s": total.get("cli.main", 0.0),
        "cli.self_s": self_s.get("cli.main", 0.0),
        "cli.stdout_bytes": sum(len(o["stdout"].encode()) for o in result["outcomes"]),
    }
    for span in TIMED_SPANS:
        m[f"{span}_s"] = total.get(span, 0.0)
        m[f"{span}_calls"] = calls.get(span, 0)
    m.update(counts)
    mutations, divisions = counts["cluster.enum_mutations"], counts["cluster.enum_divisions"]
    # Base: exchanges attempted inside enumerate_seeds; a memo hit skips the division.
    m["cluster.exchange_memo_hit_ratio"] = 1 - divisions / mutations if mutations else 0.0
    for name in CHECK_NAMES:
        m[f"checks.{name}_s"] = trace["check_seconds"].get(name, 0.0)
    m["checks.failed"] = trace["checks_failed"]
    # Time not inside any named layer span: the CLI's own work plus the
    # harness between tasks.
    unattributed = wall - m["cli.main_s"] + m["cli.self_s"]
    m["trace.wall_s"] = wall
    m["trace.unattributed_s"] = unattributed
    m["trace.attributed_share"] = 1 - unattributed / wall
    return m


def report(run: Run, metrics: dict, units: dict, printed: dict | None = None) -> dict:
    """Print every metric by name; return the result object (`metrics` only)."""
    failed = len(run.failures)
    for message in run.failures:
        print(f"FAILED {message}")
    samples = sum(len(r["outcomes"]) for r in run.passes)
    print(f"# {run.workload} seed={run.seed}: {len(run.passes)} untraced and {len(run.traced)} "
          f"traced passes, {samples} untraced task samples, {len(run.setup)} set-up samples, "
          f"{failed} of {run.attempted} tasks failed")
    print(f"failed_frac = {failed / run.attempted:.6f} ratio")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for name, value in (printed or {}).items():
        print(f"{name} = {value:.6g} {dict(DIAGNOSTICS)[name]}")
    return {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "singlink" / "cli.py").is_file():
        print(f"error: no singlink sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    try:
        run = Run(args.workload, args.seed, args.seconds)
        run.measure(trace=bool(args.trace))
        if args.trace:
            result = report(run, run.per_layer(), dict(PER_LAYER))
        else:
            result = report(run, run.end_to_end(), dict(END_TO_END), run.diagnostics())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
