"""Speed of the event-driven cycle tier (not a paper artefact).

Three layers are measured and pinned:

* the event-driven pipeline — wakeup scoreboard, cycle skipping, and
  the load-release heap must beat the seed's per-cycle scalar scan by
  a wide margin on a large multi-Slice trace, with bit-identical
  results (the :class:`PipelineResult`, every per-Slice counter, and
  the memory-hierarchy statistics);
* the compiled trace decoder — same micro-op sequence, same RNG
  state afterwards, faster: ``generate`` at least holds its own, and
  ``generate_arrays`` (the batch tier's entry) is several times the
  scalar reference;
* the sharded tier-agreement sweep — job count must never change
  results, and on multi-core boxes more jobs must not be slower.

Wall-clock numbers are persisted to ``BENCH_CYCLE.json`` so runs can
be compared across commits.
"""

import os
import time

import pytest

from repro import native, perf
from repro.arch.counters import CounterKind
from repro.arch.vcore import VCoreConfig
from repro.experiments.scenarios import tier_agreement_grid
from repro.experiments.stats import record_bench_cycle
from repro.sim.pipeline import MultiSlicePipeline
from repro.sim.soa import TraceArrays
from repro.sim.trace import TraceGenerator
from repro.workloads.phase import Phase

PHASE = Phase(
    name="bench.cycle",
    instructions_m=10,
    ilp=3.5,
    mem_refs_per_inst=0.3,
    l1_miss_rate=0.15,
    working_set=((256, 0.6), (2048, 0.9)),
    branch_fraction=0.15,
    mispredict_rate=0.05,
)

TRACE_OPS = 60_000
CONFIG = VCoreConfig(slices=8, l2_kb=512)


def _snapshot(pipeline, result):
    counters = [
        {kind.value: c.value(kind) for kind in CounterKind}
        for c in pipeline.counters
    ]
    return result, counters, pipeline.memory.stats()


@pytest.mark.benchmark(group="cycle")
def test_event_driven_pipeline_speedup(benchmark, announce):
    """Event-driven run >= 3x faster than the scalar scan, bit-identical."""
    trace = TraceGenerator(PHASE, seed=0).generate(TRACE_OPS)

    with perf.fast_paths(False):
        pipeline = MultiSlicePipeline(CONFIG)
        start = time.perf_counter()
        result = pipeline.run(trace)
        reference_s = time.perf_counter() - start
        reference = _snapshot(pipeline, result)

    def fast_run():
        pipeline = MultiSlicePipeline(CONFIG)
        start = time.perf_counter()
        result = pipeline.run(trace)
        return time.perf_counter() - start, _snapshot(pipeline, result)

    with perf.fast_paths(True):
        fast_run()  # warm caches outside the timed region
        fast_s, fast = benchmark.pedantic(fast_run, rounds=1, iterations=1)
    speedup = reference_s / fast_s

    announce(f"\n=== Cycle tier: {TRACE_OPS} ops on {CONFIG} ===")
    announce(f"scalar scan:   {reference_s:6.3f} s")
    announce(f"event-driven:  {fast_s:6.3f} s")
    announce(f"speedup:       {speedup:6.1f}x")

    record_bench_cycle(
        "pipeline",
        {
            "trace_ops": TRACE_OPS,
            "config": str(CONFIG),
            "reference_seconds": round(reference_s, 4),
            "fast_seconds": round(fast_s, 4),
            "speedup": round(speedup, 1),
        },
    )
    assert fast == reference
    # Conservative floor; typically ~12x on this trace.
    assert speedup >= 3.0


@pytest.mark.benchmark(group="cycle")
def test_trace_generator_speedup(benchmark, announce):
    """Decoded generation: same ops, same RNG state, not slower."""

    def generate():
        generator = TraceGenerator(PHASE, seed=0)
        start = time.perf_counter()
        ops = generator.generate(TRACE_OPS)
        return time.perf_counter() - start, ops, generator.rng.getstate()

    with perf.fast_paths(False):
        reference_s, reference_ops, reference_state = generate()
    with perf.fast_paths(True):
        generate()  # warm numpy dispatch outside the timed region
        fast_s, fast_ops, fast_state = benchmark.pedantic(
            generate, rounds=1, iterations=1
        )
    speedup = reference_s / fast_s

    announce(f"\n=== Trace generator: {TRACE_OPS} ops ===")
    announce(f"scalar loop:  {reference_s * 1e3:8.1f} ms")
    announce(f"decoded:      {fast_s * 1e3:8.1f} ms")
    announce(f"speedup:      {speedup:8.2f}x")

    record_bench_cycle(
        "trace_generator",
        {
            "trace_ops": TRACE_OPS,
            "reference_seconds": round(reference_s, 4),
            "fast_seconds": round(fast_s, 4),
            "speedup": round(speedup, 2),
        },
    )
    assert fast_ops == reference_ops
    assert fast_state == reference_state
    # ``to_ops`` validates every MicroOp, so the win here is modest;
    # the floor only guards against regressing below the scalar loop.
    assert speedup >= 0.75


@pytest.mark.benchmark(group="cycle")
def test_trace_arrays_speedup(benchmark, announce):
    """Compiled column decode >= 4x ``from_ops`` over the reference."""
    if native.batch_core() is None:
        pytest.skip(f"native batch core unavailable: {native.batch_core_error()}")

    def generate(produce):
        generator = TraceGenerator(PHASE, seed=0)
        start = time.perf_counter()
        arrays = produce(generator)
        elapsed = time.perf_counter() - start
        state = (
            generator._pc,
            list(generator._hot_blocks),
            list(generator._sweep_position),
            dict(generator._branch_bias),
            dict(generator._branch_target),
            generator.rng.getstate(),
        )
        return elapsed, arrays, state

    def from_reference(generator):
        return TraceArrays.from_ops(generator.generate(TRACE_OPS))

    def decoded(generator):
        return generator.generate_arrays(TRACE_OPS)

    with perf.fast_paths(False):
        reference_s, reference, reference_state = generate(from_reference)
    generate(decoded)  # load the kernel outside the timed region
    fast_s, fast, fast_state = benchmark.pedantic(
        generate, args=(decoded,), rounds=1, iterations=1
    )
    speedup = reference_s / fast_s

    announce(f"\n=== Trace columns: {TRACE_OPS} ops ===")
    announce(f"from_ops(reference): {reference_s * 1e3:8.1f} ms")
    announce(f"compiled decoder:    {fast_s * 1e3:8.1f} ms")
    announce(f"speedup:             {speedup:8.1f}x")

    record_bench_cycle(
        "trace_arrays",
        {
            "trace_ops": TRACE_OPS,
            "reference_seconds": round(reference_s, 4),
            "fast_seconds": round(fast_s, 4),
            "speedup": round(speedup, 1),
        },
    )
    for name in (
        "kinds",
        "sources",
        "dests",
        "addresses",
        "mispredicted",
        "code_addresses",
        "taken",
        "branch_targets",
    ):
        assert getattr(fast, name).shape == getattr(reference, name).shape
        assert (getattr(fast, name) == getattr(reference, name)).all(), name
    assert fast_state == reference_state
    # Typically ~10x; the floor leaves room for a loaded host.
    assert speedup >= 4.0


@pytest.mark.benchmark(group="cycle")
def test_batch_tier_throughput(benchmark, announce):
    """Struct-of-arrays batch tier >= 8x the per-cell dispatch path.

    Full tier-agreement grid, jobs=1 on both sides so the comparison
    is pure engine speed: batched lockstep stepping through the
    compiled kernel versus one object-pipeline run per cell.  Results
    must be bit-identical; the ``cells_per_second`` series lands in
    ``BENCH_CYCLE.json``.
    """
    if native.batch_core() is None:
        pytest.skip(f"native batch core unavailable: {native.batch_core_error()}")

    per_cell, per_cell_timing = tier_agreement_grid(jobs=1, batch=False)

    tier_agreement_grid(jobs=1, batch=True)  # warm outside the timed region
    batched, batched_timing = benchmark.pedantic(
        lambda: tier_agreement_grid(jobs=1, batch=True),
        rounds=1,
        iterations=1,
    )
    speedup = (
        batched_timing["cells_per_second"]
        / per_cell_timing["cells_per_second"]
    )

    announce(f"\n=== Batch tier ({batched_timing['cells']} cells) ===")
    announce(f"per-cell:  {per_cell_timing['cells_per_second']:8.1f} cells/s")
    announce(f"batched:   {batched_timing['cells_per_second']:8.1f} cells/s")
    announce(f"speedup:   {speedup:8.1f}x")

    record_bench_cycle(
        "batch_tier",
        {
            "cells_per_second": {
                "per_cell": per_cell_timing["cells_per_second"],
                "batched": batched_timing["cells_per_second"],
            },
            "per_cell": per_cell_timing,
            "batched": batched_timing,
            "speedup": round(speedup, 1),
        },
    )
    assert batched == per_cell
    # Typically ~9.5x on one core; the floor is the PR's acceptance bar.
    assert speedup >= 8.0


@pytest.mark.benchmark(group="cycle")
def test_tier_sweep_sharding(benchmark, announce):
    """Job count is invisible in the results, visible in the clock."""
    apps = ("apache", "mcf")

    serial, serial_timing = tier_agreement_grid(
        app_names=apps, instructions=6000, jobs=1
    )
    jobs = max(2, min(4, os.cpu_count() or 1))
    parallel, parallel_timing = benchmark.pedantic(
        lambda: tier_agreement_grid(app_names=apps, instructions=6000, jobs=jobs),
        rounds=1,
        iterations=1,
    )

    announce(f"\n=== Tier-agreement sweep ({serial_timing['cells']} cells) ===")
    announce(f"serial (jobs=1):   {serial_timing['wall_seconds']:6.3f} s")
    announce(f"parallel (jobs={jobs}): {parallel_timing['wall_seconds']:6.3f} s")

    record_bench_cycle(
        "tier_sweep",
        {
            "serial": serial_timing,
            "parallel": parallel_timing,
        },
    )
    assert list(serial) == list(parallel)
    assert serial == parallel
    if (os.cpu_count() or 1) >= 2:
        # With real cores available the pool must pay for itself; the
        # generous factor absorbs process start-up on small grids.
        assert parallel_timing["wall_seconds"] < serial_timing["wall_seconds"] * 1.2
