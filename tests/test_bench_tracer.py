"""The benchmark tracer (bench/tracer.py) rebinds program functions by name.

`Tracer.install` raises KeyError on a name that no longer exists, so a
renamed or deleted target would only show up in `bench/run.py --trace 1`.
This test reads the tracer's target list and fails first.
"""

import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_exists():
    tracer = _load_tracer()
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in tracer.TARGETS
        if attr not in owner.__dict__
    ]
    assert not missing, missing
    # It times canonical_form and is_finite_type through cluster, which
    # imports them from quivers: aliases, not stale copies.
    from singlink import cluster, quivers

    assert cluster.canonical_form is quivers.canonical_form
    assert cluster.is_finite_type is quivers.is_finite_type
