"""Record the exit code and stdout digest of every fixed benchmark task.

Run from the root of a checkout whose CLI output is the reference:

    python3 bench/record_expected.py

It rewrites ``bench/expected.json``.  The CLI output is meant to stay
byte-for-byte identical, so re-record only when a change alters it on
purpose, and say so.  Oracle failures are printed and abort the recording.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    tasks = workloads.all_fixed_tasks()
    result = run.spawn(tasks, seed=0)
    expected = {
        workloads.task_id(task): {"exit": o["exit"], "digest": workloads.digest(o["stdout"])}
        for task, o in zip(tasks, result["outcomes"])
    }
    failures = run.check_pass(tasks, result, expected)
    for message in failures:
        print(f"FAILED {message}", file=sys.stderr)
    if failures:
        return 1
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(expected)} tasks in {workloads.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
