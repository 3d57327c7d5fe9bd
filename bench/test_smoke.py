"""Smoke test of the benchmark: one tiny op per workload, untraced and traced.

    python3 -m pytest -q bench/test_smoke.py

It keeps the harness from rotting; it measures nothing.
"""

import json
import random
import sys

import pytest

import run
from tracer import Tracer
from workloads import ROOT, SRC, WORKLOADS

sys.path.insert(0, str(SRC))


def test_printed_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    imports = dict.fromkeys(("cli.interp_start_ms", "cli.import.numpy_ms", "cli.import.zonotutte_ms"), 1.0)
    layers = run.layer_metrics(Tracer(), 1, imports, 0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layers.items()}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_one_tiny_op(name):
    workload = WORKLOADS[name]
    pool = workload.build_pool(random.Random(f"{name}:{run.DEFAULT_SEED}"))
    op = pool[0]  # the smallest list shape of the pool
    plain = run.make_executor(workload)(op)
    tracer = Tracer()
    if workload.in_process:
        tracer.install()
    try:
        traced = run.make_executor(workload, tracer)(op)
    finally:
        tracer.uninstall()
    failed, reasons = run.check_records(pool, [(0, plain), (0, traced)], None)
    assert failed == 0, reasons
    calls, _, _ = tracer.totals()
    assert calls["cli.main"] == 1
    assert tracer.counters["tutte_core.sublists"] >= 2 ** len(op.vectors)


def test_refuses_to_run_without_sources(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "tutte-small", "--seconds", "1"]) == 2
