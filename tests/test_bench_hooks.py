"""The benchmark's tracer must still find every name it wraps.

bench/tracer.py replaces library functions and a few methods by timing
wrappers when a benchmark runs with --trace 1; it looks the methods up by
name, so renaming or deleting one of them would break the traced run.
This test installs the tracer in-process, checks that a traced call is
recorded and counted, and restores every original.
"""

import importlib.util
from pathlib import Path

import zonotutte.exact_linalg as exact_linalg
import zonotutte.tutte_core as tutte_core
from zonotutte import VectorList

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("zonotutte_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    originals = (
        tutte_core.multiplicity_tutte,
        exact_linalg.hnf_insert,
        exact_linalg.IntMatrix.__dict__["from_columns"],
    )
    tracer = load_tracer().Tracer()
    try:
        tracer.install()
        X = VectorList(2, [(3, 0), (0, 2), (1, 1)])
        assert tutte_core.multiplicity_tutte(X).generators is X
        exact_linalg.IntMatrix.from_columns(X.vectors, 2)
        calls, _, _ = tracer.totals()
        assert calls["tutte_core.multiplicity_tutte"] == 1
        assert calls["exact_linalg.IntMatrix.from_columns"] == 1
        assert tracer.counters["tutte_core.sublists"] == 8
    finally:
        tracer.uninstall()
    assert (
        tutte_core.multiplicity_tutte,
        exact_linalg.hnf_insert,
        exact_linalg.IntMatrix.__dict__["from_columns"],
    ) == originals
