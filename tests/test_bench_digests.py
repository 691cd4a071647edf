"""Every fixed benchmark task prints exactly the output recorded for it.

bench/expected.json holds the exit code and stdout sha256 of each task of
`bench/workloads.all_fixed_tasks()`.  The CLI output must stay byte-for-byte
identical, and without this test only a benchmark run would notice a
reordered term or a changed number.  The test only reads `bench/`.
"""

import contextlib
import importlib.util
import io
import pathlib
import sys

import pytest

from singlink import cli

WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
EXPECTED = workloads.load_expected()


def _params():
    for task in workloads.all_fixed_tasks():
        yield pytest.param(task, id=workloads.task_id(task))


def _run(task: dict) -> tuple[int, str]:
    out = io.StringIO()
    saved_stdin, sys.stdin = sys.stdin, io.StringIO(task["stdin"] or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(task["argv"])
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue()


@pytest.mark.parametrize("task", _params())
def test_stdout_matches_recorded_digest(task):
    record = EXPECTED[workloads.task_id(task)]
    code, stdout = _run(task)
    assert (code, workloads.digest(stdout)) == (record["exit"], record["digest"])
