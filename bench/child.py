"""One benchmark pass in a fresh interpreter.

Reads a JSON request on stdin: ``{"launched": <monotonic time of spawn>,
"tasks": [...], "trace": bool, "trace_path": str, "deadline_s": float}``,
or ``"tasks": null`` for a set-up probe.  Imports ``singlink.cli`` and builds its parser (the
set-up a CLI user pays on every command), then runs each task in-process
through ``singlink.cli.main`` with stdout and stderr captured.  Writes one
JSON result object to stdout.

Times are reported twice: raw, and in reference seconds.  The speed of a
shared virtual CPU drifts by tens of percent within seconds, so the pass
process times a fixed pure-Python reference loop after every task and, in
untraced passes, every ``SAMPLE_PERIOD_S`` while a task runs (from a timer
signal; the sampling time is left out of the task's time).  A task's
reference time is its raw time divided by the mean loop time sampled from
``WINDOW_S`` before it starts to ``WINDOW_S`` after it ends, times
``REF_LOOP_S``: the time it would take on a machine where the loop always
takes ``REF_LOOP_S``.  Set-up time is scaled the same way, by the loop
timed ``SETUP_LOOPS`` times right after set-up.  The loop's code lives
here, not in ``singlink``, so a change to the program cannot change it.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import statistics
import sys
import time
import traceback

REF_LOOP_ITERATIONS = 20000
# Nominal time of the reference loop: about its median on the 2-vCPU Intel
# Xeon (2.1 GHz) virtual machine the benchmark was written on, so that
# reference seconds read close to seconds there.
REF_LOOP_S = 0.0032
SAMPLE_PERIOD_S = 0.1
WINDOW_S = 0.25
SETUP_LOOPS = 5


class DeadlineExceeded(BaseException):
    """Raised by the timer handler; a BaseException so no handler eats it."""


def reference_loop() -> float:
    """Seconds taken by a fixed piece of pure-Python work."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(REF_LOOP_ITERATIONS):
        total += i * i % 7
        table[i & 255] = total
    return time.perf_counter() - start


class Clock:
    """Task timer: samples the reference loop and enforces the deadline."""

    def __init__(self, deadline_s: float, sample: bool):
        self.deadline_s = deadline_s
        self.sample = sample
        self.samples: list[tuple[float, float]] = []  # (when, loop seconds)
        self.active = False
        signal.signal(signal.SIGALRM, self._on_alarm)
        self.take_sample()

    def take_sample(self) -> None:
        loop_s = reference_loop()
        self.samples.append((time.perf_counter(), loop_s))

    def _on_alarm(self, signum, frame) -> None:
        if not self.active:
            return
        if self.sample:
            entered = time.perf_counter()
            self.take_sample()
            self.paused += time.perf_counter() - entered
            if time.perf_counter() - self.start - self.paused < self.deadline_s:
                return
        self.active = False
        raise DeadlineExceeded

    def begin(self) -> None:
        self.paused = 0.0
        self.active = True
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        else:
            signal.setitimer(signal.ITIMER_REAL, self.deadline_s)
        self.start = time.perf_counter()

    def end(self) -> tuple[float, float, float]:
        """Start, stop and raw seconds of the task just ended."""
        stop = time.perf_counter()
        self.active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.take_sample()
        return self.start, stop, stop - self.start - self.paused

    def reference_seconds(self, start: float, stop: float, raw: float) -> float:
        window = [s for t, s in self.samples if start - WINDOW_S <= t <= stop + WINDOW_S]
        return raw / statistics.fmean(window) * REF_LOOP_S


def run_task(cli, task: dict, clock: Clock) -> dict:
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    if task["stdin"] is not None:
        sys.stdin = io.StringIO(task["stdin"])
    missed = False
    clock.begin()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(task["argv"])
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a traceback fails this task, not the pass
                traceback.print_exc()
                code = None
    except DeadlineExceeded:
        code, missed = None, True
    finally:
        start, stop, raw = clock.end()
        sys.stdin = stdin
    return {
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "seconds": raw,
        "span": (start, stop),
        "deadline_missed": missed,
        "deadline_s": clock.deadline_s,
    }


def main() -> None:
    request = json.loads(sys.stdin.read())
    from singlink import cli

    cli.build_parser()
    setup_s = time.monotonic() - request["launched"]
    loop_s = statistics.fmean(reference_loop() for _ in range(SETUP_LOOPS))
    result = {
        "setup_s": setup_s,
        "setup_ref_s": setup_s / loop_s * REF_LOOP_S,
        "module": cli.__file__,
    }
    if request["tasks"] is not None:
        tracer = None
        if request["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        clock = Clock(request["deadline_s"], sample=not request["trace"])
        cpu0 = time.process_time()
        outcomes = [run_task(cli, task, clock) for task in request["tasks"]]
        result["cpu_s"] = time.process_time() - cpu0
        for outcome in outcomes:
            outcome["ref_seconds"] = clock.reference_seconds(*outcome.pop("span"), outcome["seconds"])
        result["wall_s"] = sum(o["seconds"] for o in outcomes)
        result["wall_ref_s"] = sum(o["ref_seconds"] for o in outcomes)
        result["outcomes"] = outcomes
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
            result["trace"] = tracer.summary()
            tracer.write(request["trace_path"])
    sys.stdout.write(json.dumps(result))


if __name__ == "__main__":
    main()
