"""One benchmark process: set up a workload, then time or trace passes.

Started by ``run.py`` in a fresh interpreter with a scrubbed
environment; not meant to be run by hand.  Modes:

* ``--mode build``: compile and load the batch kernel into
  ``REPRO_NATIVE_DIR`` and import every workload's modules, so later
  processes load rather than compile;
* ``--mode setup``: set up the workload and print the monotonic clock
  (the parent subtracts its spawn time to get ``setup_s``);
* ``--mode measure``: untimed set-up, then passes for ``--seconds``;
* ``--mode trace``: as ``measure`` at one job, then one traced pass.

The last line of standard output is a JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import cases
import layers
from spans import Tracer


def _load_kernel() -> bool:
    from repro import native

    return native.batch_core() is not None


def _pass(case, jobs: int, tracer=None) -> dict:
    """One timed pass from a cold start, reduced to a small record so no
    pass's outputs stay alive (and in memory) during the next."""
    cases.cold_caches()
    gc.collect()
    case.tracer = tracer
    try:
        start = time.perf_counter()
        out = case.run(jobs)
        wall = time.perf_counter() - start
    finally:
        case.tracer = None
    check = case.check(out)
    return {
        "wall": wall,
        "work": case.work(out),
        "attempted": check.attempted,
        "failed": check.failed,
        "problems": check.problems,
        "digest": case.digest(out),
        "results": case.results(out),
        "counters": case.counters(out),
    }


def _passes(case, jobs: int, seconds: float) -> list:
    """Passes until the next one would overrun ``seconds`` (at least one)."""
    records = []
    begin = time.perf_counter()
    while True:
        records.append(_pass(case, jobs))
        elapsed = time.perf_counter() - begin
        if elapsed + statistics.median(r["wall"] for r in records) > seconds:
            return records


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def _summarize(case, records: list) -> dict:
    """Checks, work, digests and simulated results over passes."""
    digests = sorted({r["digest"] for r in records})
    problems = [p for r in records for p in r["problems"]]
    if len(digests) != 1:
        problems.append(f"passes disagree: digests {digests}")
    return {
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "problems": problems[:20],
        "digest": records[0]["digest"],
        "deterministic": len(digests) == 1,
        "walls": [r["wall"] for r in records],
        "work_per_s": statistics.median(r["work"] / r["wall"] for r in records),
        "work": records[0]["work"],
        "work_unit": case.work_unit,
        "results": records[0]["results"],
    }


def _traced_pass(case, root: Path, workload: str, seed: int):
    tracer = Tracer()
    found = layers.install(tracer)
    try:
        record = _pass(case, 1, tracer)
    finally:
        tracer.unpatch()
    table, covered = tracer.summary()
    spans_path = tracer.write(
        root / ".bench_build" / "spans" / f"{workload}-seed{seed}.npz"
    )
    return record, table, covered, found, spans_path, len(tracer)


def _trace(case, root: Path, workload: str, seed: int, seconds: float, kernel: bool) -> dict:
    """Untraced passes at one job (the overhead baseline), one pass at the
    workload's own job count where that differs, then one traced pass;
    returns the summary with every per-layer metric."""
    counters = {"native.kernel_loaded": float(kernel)}
    records = _passes(case, 1, seconds)
    untraced = statistics.median(r["wall"] for r in records)
    if case.jobs != 1:
        # One pass at the workload's own job count, for the sweep's
        # parallel efficiency: serial sweep wall / (jobs × parallel wall).
        parallel = _pass(case, case.jobs)
        counters["experiments.stats.parallel_efficiency"] = records[0]["counters"][
            "experiments.stats.sweep_s"
        ] / (case.jobs * parallel["counters"]["experiments.stats.sweep_s"])
        records.append(parallel)
    # Table-cache counters of the last untraced pass, which ran at the
    # workload's own job count (each pass starts them from zero).
    opt = cases.optable_counters()
    traced, table, covered, found, spans_path, span_count = _traced_pass(
        case, root, workload, seed
    )
    wall = traced["wall"]
    summary = _summarize(case, records + [traced])
    metrics = layers.per_layer(table, covered, wall)
    metrics.update(counters)
    metrics.update(traced["counters"])
    metrics.update(summary.pop("results"))
    lookups = opt["l1_hits"] + opt["l1_misses"]
    metrics.update(
        {
            "sim.optables.l1_lookups": lookups,
            "sim.optables.l1_hit_ratio": opt["l1_hits"] / lookups if lookups else 0.0,
            "sim.optables.builds": opt["builds"],
            "sim.optables.l2_hits": opt["l2_hits"],
            "sim.optables.l3_hits": opt["l3_hits"],
            "trace_overhead_pct": 100.0 * (wall / untraced - 1.0),
            "trace.spans": float(span_count),
        }
    )
    cells = metrics.get("sim.trace.cells", 0.0)
    if cells:
        metrics["sim.trace.dedup_ratio"] = (
            metrics["sim.trace.generate_arrays.calls"] / cells
        )
    files = metrics.get("analysis.files", 0.0)
    if files:
        metrics["analysis.callgraph.analyze_module.calls_per_file"] = (
            metrics["analysis.callgraph.analyze_module.calls"] / files
        )
    summary.update(
        {
            "per_layer": metrics,
            "traced_wall_s": wall,
            "untraced_wall_s": untraced,
            "missing_targets": sorted(t for t, ok in found.items() if not ok),
            "spans_file": str(spans_path.relative_to(root)),
            "layers": [
                [
                    layer.name,
                    metrics[f"share.{layer.name}"],
                    layer.predicted.get(workload),
                    layer.moves,
                    layer.no_effect,
                ]
                for layer in layers.LAYERS
            ],
            "largest_layer": layers.largest_layer(metrics),
            "predicted_largest": layers.predicted_largest(workload),
        }
    )
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("build", "setup", "measure", "trace"))
    parser.add_argument("--workload", choices=sorted(cases.CASES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    root = Path.cwd()

    if args.mode == "build":
        for case_type in cases.CASES.values():
            case_type(root, args.seed)
        print(json.dumps({"kernel_loaded": _load_kernel()}))
        return 0

    case = cases.CASES[args.workload](root, args.seed)
    kernel = _load_kernel()
    if args.mode == "setup":
        print(json.dumps({"ready": time.monotonic()}))
        return 0

    if args.mode == "measure":
        summary = _summarize(case, _passes(case, case.jobs, args.seconds))
        summary["peak_rss_mb"] = _peak_rss_mb()
        print(json.dumps(summary))
        return 0

    print(json.dumps(_trace(case, root, args.workload, args.seed, args.seconds, kernel)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
