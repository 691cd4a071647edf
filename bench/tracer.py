"""Per-layer spans taken from outside the program.

`Tracer.install` rebinds public functions of each ``singlink`` module, at
the binding their callers look up, with wrappers that time each call.
Calls of the frequent arithmetic functions (``HOT``) are only counted and
timed; every other call is kept in memory as a span (name, start, end,
parent) and written out as JSON lines when the pass ends.
"""

from __future__ import annotations

import json
import time

from singlink import (
    augment, bricks, cli, cluster, dividecatalog, divides, exactmath, links, sheafmoduli,
)

# (owner, attribute, span name).  Module attributes are the bindings their
# callers use: `cluster.divide_exact` is the name `enumerate_seeds` calls.
TARGETS = [
    (cli, "main", "cli.main"),
    (cli, "run_all_checks", "checks.run_all_checks"),
    (exactmath.Polynomial, "__mul__", "exactmath.poly_mul"),
    (exactmath.Polynomial, "__rmul__", "exactmath.poly_mul"),
    (exactmath.Polynomial, "to_text", "exactmath.to_text"),
    (exactmath.PolyMatrix, "__matmul__", "exactmath.polymatrix_matmul"),
    (cluster, "divide_exact", "exactmath.divide_exact"),
    (links, "braid_invariants", "links.braid_invariants"),
    (bricks, "brick_quiver", "bricks.brick_quiver"),
    (divides, "trace_faces", "divides.trace_faces"),
    (divides, "acampo_quiver", "divides.acampo_quiver"),
    (dividecatalog, "divide_catalog", "dividecatalog.divide_catalog"),
    (cluster, "enumerate_seeds", "cluster.enumerate_seeds"),
    (cluster, "mutate", "cluster.mutate"),
    (cluster, "is_finite_type", "cluster.is_finite_type"),
    (cluster, "canonical_form", "cluster.canonical_form"),
    (augment, "augmentation_equations", "augment.augmentation_equations"),
    (augment, "count_solutions_dp", "augment.count_solutions_dp"),
    (augment, "count_solutions_bruteforce", "augment.count_solutions_bruteforce"),
    (sheafmoduli, "theta_system", "sheafmoduli.theta_system"),
    (sheafmoduli, "count_theta_points_chain", "sheafmoduli.count_theta_points_chain"),
    (sheafmoduli, "count_positroid_points", "sheafmoduli.count_positroid_points"),
]

HOT = {
    "exactmath.poly_mul", "exactmath.to_text", "exactmath.polymatrix_matmul",
    "exactmath.divide_exact", "cluster.mutate", "cluster.canonical_form",
}

ENUMERATION = "cluster.enumerate_seeds"


class Frame:
    __slots__ = ("name", "span_id", "child_s")

    def __init__(self, name: str, span_id: int | None):
        self.name = name
        self.span_id = span_id
        self.child_s = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self.stack = [Frame("root", None)]
        self.active: dict[str, int] = {}  # open frames per name (recursion guard)
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts = {"cluster.seeds_found": 0, "augment.brute_points": 0,
                       "cluster.enum_mutations": 0, "cluster.enum_divisions": 0}
        self.check_seconds: dict[str, float] = {}
        self.checks_failed = 0
        self.saved: list[tuple] = []

    # -- wrapping ---------------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            self.saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()

    def _wrap(self, func, name: str):
        tracer = self
        record = name not in HOT
        observe = _OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1]
            span_id = len(tracer.spans) if record else None
            if record:
                tracer.spans.append(None)  # reserve the id; filled on exit
            frame = Frame(name, span_id)
            tracer.stack.append(frame)
            tracer.active[name] = tracer.active.get(name, 0) + 1
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.active[name] -= 1
                tracer._close(frame, parent, start, end)
            if observe is not None:
                observe(tracer, args, result)
            return result

        wrapper.__name__ = getattr(func, "__name__", name)
        wrapper.__doc__ = func.__doc__
        return wrapper

    def _close(self, frame: Frame, parent: Frame, start: float, end: float) -> None:
        name = frame.name
        duration = end - start
        parent.child_s += duration
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame.child_s
        if self.active[name] == 0:
            self.total_s[name] = self.total_s.get(name, 0.0) + duration
        if frame.span_id is not None:
            parent_id = next(
                (f.span_id for f in reversed(self.stack) if f.span_id is not None), None
            )
            self.spans[frame.span_id] = (frame.span_id, name, start, end, parent_id)
        if self.active.get(ENUMERATION) and name in ("cluster.mutate", "exactmath.divide_exact"):
            key = "cluster.enum_mutations" if name == "cluster.mutate" else "cluster.enum_divisions"
            self.counts[key] += 1

    # -- output -----------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "total_s": self.total_s,
            "self_s": self.self_s,
            "calls": self.calls,
            "counts": self.counts,
            "check_seconds": self.check_seconds,
            "checks_failed": self.checks_failed,
        }

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for span_id, name, start, end, parent_id in self.spans:
                handle.write(json.dumps(
                    {"id": span_id, "name": name, "start": start, "end": end, "parent": parent_id}
                ) + "\n")


# -- counters read from arguments and results -------------------------------------


def _observe_seeds(tracer: Tracer, args, result) -> None:
    tracer.counts["cluster.seeds_found"] += len(result)


def _observe_brute(tracer: Tracer, args, result) -> None:
    system, q = args[0], args[1]
    # Points the brute force visits: every z in F_q^s and every nonzero t.
    tracer.counts["augment.brute_points"] += q ** system.z_count * (q - 1)


def _observe_checks(tracer: Tracer, args, result) -> None:
    for check in result:
        tracer.check_seconds[check.name] = tracer.check_seconds.get(check.name, 0.0) + check.seconds
        tracer.checks_failed += not check.passed


_OBSERVERS = {
    "cluster.enumerate_seeds": _observe_seeds,
    "augment.count_solutions_bruteforce": _observe_brute,
    "checks.run_all_checks": _observe_checks,
}
