"""zonotutte benchmark: closed loop, one client, one op at a time.

    python3 bench/run.py --workload tutte-small --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload in turn

Run from the root of a source checkout; the program is imported from
``src`` (in-process workloads) or started as ``python -m zonotutte`` with
PYTHONPATH=src (cli-calls).  The seed builds each workload's pool of ops
(workloads.py); a run takes ops from it until --seconds have passed and
the current cycle of list shapes is complete, then checks every output
(checks.py) outside the timed region.

--trace 0 prints the end-to-end metrics.  --trace 1 runs untraced for half
the time, then replays the workload's first traced_ops ops under the
tracer (tracer.py) and prints the per-layer metrics; counts are per run
(those traced ops, the same for a given seed) and per op, times per op.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Full records, with run metadata, go to
.bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import BENCH_DIR, ROOT, SRC, WORKLOADS, child_env, run_in_process, run_subprocess

DEFAULT_SEED = 1
OUT_DIR = ROOT / ".bench_out"
DIGESTS = BENCH_DIR / "digests.json"
SETUP_REPEATS = 7
IMPORT_REPEATS = 5
# Every workload completes 60 to 160 ops in a 20-second run on a 2-core
# x86 VM, so the 75th percentile is the highest of 50/75/90/95/99 with at
# least ten samples beyond it.  Fixed, because a percentile that moved
# with the op count would move the metric with it.
TAIL_PERCENTILE = 75

END_TO_END = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

TRACED_CALLS = (
    "tutte_core.multiplicity_tutte",
    "tutte_core.classical_tutte",
    "tutte_core.dilation_identity_sides",
    "exact_linalg.smith_normal_form",
    "exact_linalg.rank",
    "exact_linalg.IntMatrix.from_columns",
    "ehrhart.ehrhart_via_independent_sets",
    "geometry_oracle.zonotope_hrep",
    "geometry_oracle.closed_open_counts",
    "geometry_oracle.brute_force_count",
)
TRACED_SELF = (
    "tutte_core.multiplicity_tutte",
    "tutte_core.classical_tutte",
    "exact_linalg.smith_normal_form",
    "exact_linalg.rank",
    "exact_linalg.IntMatrix.from_columns",
    "polynomials.expand_shifted_basis",
    "polynomials.taylor_shift",
    "polynomials.evaluate",
    "ehrhart.ehrhart_via_independent_sets",
    "ehrhart.ehrhart_summary",
    "geometry_oracle.zonotope_hrep",
    "geometry_oracle.closed_open_counts",
    "cli.main",
)
TRACED_COUNTS = (
    "tutte_core.sublists",
    "ehrhart.independent_candidates",
    "geometry_oracle.facets",
    "geometry_oracle.box_points",
)


# ---------------------------------------------------------------------------
# Run metadata and start-up measurements


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def metadata() -> dict:
    import numpy
    import zonotutte

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "zonotutte": zonotutte.__version__,
        "commit": git_commit(),
        "platform": platform.platform(),
        "loadavg_start": os.getloadavg(),
    }


def measure_setup(env: dict) -> float:
    """Median seconds from spawning an interpreter to `import zonotutte.cli`
    returning in it.  One unmeasured start first writes the bytecode cache,
    which users pay once, not per call."""
    code = "import sys, zonotutte.cli; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    times = []
    for _ in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, env=env, cwd=ROOT
        )
        line = proc.stdout.readline()
        times.append(time.perf_counter() - t0)
        proc.stdout.close()
        if proc.wait() != 0 or line != b"ready\n":
            raise RuntimeError("import zonotutte.cli failed in a fresh interpreter")
    return statistics.median(times[1:])


def measure_imports(env: dict) -> dict[str, float]:
    """Bare interpreter start, and numpy's and zonotutte.cli's cumulative
    import times from python -X importtime (medians, ms)."""
    start, numpy_ms, zonotutte_ms = [], [], []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True)
        start.append((time.perf_counter() - t0) * 1e3)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import zonotutte.cli"],
            env=env, cwd=ROOT, check=True, capture_output=True, text=True,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e3)
        numpy_ms.append(cumulative.get("numpy", 0.0))
        zonotutte_ms.append(cumulative.get("zonotutte.cli", 0.0))
    return {
        "cli.interp_start_ms": statistics.median(start),
        "cli.import.numpy_ms": statistics.median(numpy_ms),
        "cli.import.zonotutte_ms": statistics.median(zonotutte_ms),
    }


# ---------------------------------------------------------------------------
# The closed loop


def run_ops(execute, pool, *, cycle=1, seconds=None, count=None):
    """Run ops from the start of the pool, wrapping around, until `count`
    ops have run, or until `seconds` have passed and the current shape
    cycle is complete.  Whole cycles keep the mix of list shapes, and with
    it the latency percentiles, the same in every run.  Returns
    [(pool index, Result)] and the wall seconds of the loop."""
    records = []
    t0 = time.perf_counter()
    while True:
        index = len(records) % len(pool)
        records.append((index, execute(pool[index])))
        wall = time.perf_counter() - t0
        if len(records) == count:
            return records, wall
        if seconds is not None and wall >= seconds and len(records) % cycle == 0:
            return records, wall


def make_executor(workload, tracer=None):
    if workload.in_process:
        import zonotutte.cli

        if tracer is None:
            return lambda op: run_in_process(zonotutte.cli.main, op)

        def traced(op):
            tracer.op_id += 1
            return run_in_process(zonotutte.cli.main, op)

        return traced

    env = child_env()
    if tracer is None:
        return lambda op: run_subprocess([sys.executable, "-m", "zonotutte"], op, env)

    from tracer import SPAN_MARKER

    command = [sys.executable, str(BENCH_DIR / "traced_cli.py")]

    def traced_child(op):
        tracer.op_id += 1
        result = run_subprocess(command, op, env)
        kept = []
        for line in result.stderr.splitlines(keepends=True):
            if line.startswith(SPAN_MARKER):
                tracer.merge(json.loads(line[len(SPAN_MARKER):]), tracer.op_id)
            else:
                kept.append(line)
        result.stderr = "".join(kept)
        return result

    return traced_child


# ---------------------------------------------------------------------------
# Checks and metrics


def check_records(pool, records, digests) -> tuple[int, list[str]]:
    """Count failed ops: a wrong report, a report whose bytes differ from
    an earlier run of the same op (or, on the default seed, from the
    recorded digest), an unexpected exit code, a traceback or a timeout."""
    from checks import check, reference_ehrhart

    first: dict[int, bytes] = {}
    verdicts: dict[tuple, str | None] = {}
    references: dict[int, tuple] = {}

    def reference(index: int) -> tuple:
        if index not in references:
            references[index] = reference_ehrhart(pool[index])
        return references[index]

    failed, reasons = 0, []
    for index, result in records:
        first.setdefault(index, result.stdout)
        if result.stdout != first[index]:
            reason = "report bytes changed between runs of the op"
        elif digests is not None and digest(result.stdout) != digests[index]:
            reason = "report bytes differ from the recorded digest"
        else:
            key = (index, result.rc, result.stdout, result.stderr)
            if key not in verdicts:
                try:
                    verdicts[key] = check(pool[index], result, lambda: reference(index))
                except Exception as exc:  # the reference route failed: count it, keep checking
                    verdicts[key] = f"reference check raised {exc!r}"
            reason = verdicts[key]
        if reason is not None:
            failed += 1
            reasons.append(f"op {index} {' '.join(pool[index].argv)}: {reason}")
    return failed, reasons


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(records, wall, failed, setup_s, peak_rss_kib) -> tuple[dict, dict]:
    latencies = [r.seconds for _, r in records]
    tail = percentile(latencies, TAIL_PERCENTILE)
    values = {
        "ops_per_s": (len(records) - failed) / wall,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_kib / 1024,
    }
    tail_info = {
        "percentile": TAIL_PERCENTILE,
        "samples": len(latencies),
        "beyond": sum(1 for x in latencies if x > tail),
    }
    return values, tail_info


def layer_metrics(tracer, n_ops: int, imports: dict, overhead_pct: float) -> dict:
    """Per-layer metrics of one traced pass of n_ops ops: name -> (value, unit)."""
    from tracer import LAYERS

    calls, self_ns, incl_ns = tracer.totals()
    counters = tracer.counters
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS[1:]:
        ns = sum(v for k, v in self_ns.items() if k.startswith(layer + "."))
        out[f"{layer}.self_ms"] = (ns / 1e6 / n_ops, "ms/op")
    for name in TRACED_CALLS:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.calls_per_op"] = (calls[name] / n_ops, "count/op")
    for name in TRACED_SELF:
        out[f"{name}.self_ms"] = (self_ns[name] / 1e6 / n_ops, "ms/op")
    for name in TRACED_COUNTS:
        out[name] = (counters[name], "count")
        out[f"{name}_per_op"] = (counters[name] / n_ops, "count/op")
    sublists = counters["tutte_core.sublists"]
    tutte_ns = incl_ns["tutte_core.multiplicity_tutte"] + incl_ns["tutte_core.classical_tutte"]
    out["tutte_core.us_per_sublist"] = (tutte_ns / 1e3 / sublists if sublists else 0.0, "us")
    box = counters["geometry_oracle.box_points"]
    closed = counters["geometry_oracle.closed_points"]
    out["geometry_oracle.box_hit_ratio"] = (closed / box if box else 0.0, "ratio")
    for name, value in imports.items():
        out[name] = (value, "ms")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    out["trace.spans"] = (len(tracer.start), "count")
    return out


# ---------------------------------------------------------------------------
# One workload


def digest(report: bytes) -> str:
    return hashlib.sha256(report).hexdigest()[:16]


def load_digests(workload: str, seed: int, pool_size: int):
    if seed != DEFAULT_SEED or not DIGESTS.is_file():
        return None
    recorded = json.loads(DIGESTS.read_text()).get(workload)
    return recorded if recorded is not None and len(recorded) == pool_size else None


def record_digests(workload) -> int:
    """Run the default seed's whole pool once and store its report digests."""
    pool = workload.build_pool(random.Random(f"{workload.name}:{DEFAULT_SEED}"))
    records, _ = run_ops(make_executor(workload), pool, count=len(pool))
    failed, reasons = check_records(pool, records, None)
    if failed:
        print("error: digests not recorded, failed ops:", *reasons[:5], sep="\n  ", file=sys.stderr)
        return 1
    data = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    data[workload.name] = [digest(result.stdout) for _, result in records]
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(pool)} report digests for {workload.name}")
    return 0


def tracing_overhead_pct(untraced, traced) -> float:
    """Traced over untraced time of the same ops, minus 1, in percent."""
    first = {}
    for index, result in untraced:
        first.setdefault(index, result.seconds)
    common = [(first[i], r.seconds) for i, r in traced if i in first]
    return (sum(t for _, t in common) / sum(u for u, _ in common) - 1) * 100


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    meta = metadata()
    pool = workload.build_pool(random.Random(f"{workload.name}:{args.seed}"))
    env = child_env()
    summary = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
               "seconds": args.seconds, "pool_size": len(pool)}
    execute = make_executor(workload)

    if args.trace == 0:
        setup_s = measure_setup(env)
        if workload.in_process:
            execute(pool[0])  # warm-up, not counted
        records, wall = run_ops(execute, pool, cycle=workload.cycle, seconds=args.seconds)
        usage = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
        peak_rss_kib = resource.getrusage(usage).ru_maxrss
    else:
        from tracer import Tracer

        imports = measure_imports(env)
        if workload.in_process:
            execute(pool[0])
        untraced, _ = run_ops(execute, pool, cycle=workload.cycle, seconds=args.seconds / 2)
        tracer = Tracer()
        if workload.in_process:
            tracer.install()
        try:
            traced, _ = run_ops(make_executor(workload, tracer), pool, count=workload.traced_ops)
        finally:
            tracer.uninstall()
        records = untraced + traced
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{workload.name}-seed{args.seed}.csv.gz")
        layers = layer_metrics(tracer, len(traced), imports, tracing_overhead_pct(untraced, traced))

    digests = load_digests(workload.name, args.seed, len(pool))
    failed, reasons = check_records(pool, records, digests)
    meta["loadavg_end"] = os.getloadavg()
    summary.update(meta=meta, attempted=len(records), failed=failed,
                   failed_ratio=failed / len(records), failures=reasons[:20],
                   digest_checked=digests is not None)

    print(f"# {workload.name} seed {args.seed} trace {args.trace}: {len(records)} ops "
          f"from a pool of {len(pool)}, commit {meta['commit']}, nproc {meta['nproc']}, "
          f"load {meta['loadavg_start'][0]:.2f}->{meta['loadavg_end'][0]:.2f}")
    for reason in reasons[:5]:
        print(f"# FAILED {reason}")
    if args.trace == 0:
        values, tail = end_to_end(records, wall, failed, setup_s, peak_rss_kib)
        metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}
        summary["tail"] = tail
        print(f"#   {'failed_ratio':<14} {failed / len(records):<22} failed/attempted "
              f"({failed} of {len(records)})")
        for name, (value, unit) in metrics.items():
            extra = ""
            if name == "op_tail_ms":
                extra = f" (p{tail['percentile']} of {tail['samples']} ops, {tail['beyond']} beyond)"
            print(f"#   {name:<14} {value:<22.6g} {unit}{extra}")
    else:
        metrics = layers
        for name, (value, unit) in metrics.items():
            print(f"#   {name:<48} {value:<16.6g} {unit}")
    summary["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1) + "\n"
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": summary["metrics"],
    }))
    return 0


# ---------------------------------------------------------------------------
# Every workload


def run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    runs = []
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
        runs.append(json.loads(
            (OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json").read_text()
        ))
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1) + "\n")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: write every run's full record here")
    parser.add_argument(
        "--record-digests",
        action="store_true",
        help="run the default seed's whole pool once and store its report digests "
        "(only when report bytes are meant to change)",
    )
    args = parser.parse_args(argv)
    if not (SRC / "zonotutte" / "cli.py").is_file():
        print(f"error: no zonotutte sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_digests:
        names = WORKLOADS if args.workload == "all" else [args.workload]
        return max(record_digests(WORKLOADS[name]) for name in names)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
