"""The layers the traced run attributes wall time to, and the
prediction of which end-to-end metric each should move.

Each layer lists the public calls the traced run wraps (span name →
the attribute the caller looks up).  ``moves`` names the end-to-end
metric a speed-up of the layer should move, ``predicted`` the share of
traced wall time measured when the benchmark was defined (on a 2-core
host, from profiles of the same workloads), and ``no_effect`` the
workloads where the prediction is no change.  README.md shows the same
table; later changes cite a layer by its name here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class Layer:
    name: str
    spans: Tuple[Tuple[str, str], ...]
    moves: str
    predicted: Mapping[str, float]
    no_effect: Tuple[str, ...]


LAYERS: Tuple[Layer, ...] = (
    Layer(
        "arch.fabric",
        (
            ("arch.fabric.allocate", "repro.arch.fabric:Fabric.allocate"),
            ("arch.fabric.release", "repro.arch.fabric:Fabric.release"),
            (
                "arch.fabric.try_allocate_exact",
                "repro.arch.fabric:Fabric.try_allocate_exact",
            ),
            ("arch.fabric.defragment", "repro.arch.fabric:Fabric.defragment"),
        ),
        moves="work_per_s on service",
        predicted={"service": 0.53},
        no_effect=("paper", "tiers", "lint"),
    ),
    Layer(
        "runtime",
        (
            ("runtime.cash.step", "repro.runtime.cash:CASHRuntime.step"),
            (
                "runtime.optimizer.envelope",
                "repro.runtime.optimizer:LearnedPoints.envelope",
            ),
            (
                "runtime.optimizer.solve_two_config",
                "repro.runtime.optimizer:solve_two_config",
            ),
            (
                "runtime.qlearning.observe",
                "repro.runtime.qlearning:SpeedupLearner.observe",
            ),
            ("runtime.kalman.update", "repro.runtime.kalman:KalmanEstimator.update"),
        ),
        moves="work_per_s on paper and service",
        predicted={"paper": 0.31, "service": 0.19},
        no_effect=("tiers", "lint"),
    ),
    Layer(
        "sim.optables",
        (("sim.optables.lookup", "repro.sim.optables:operating_point_table"),),
        moves="work_per_s on service and paper; setup_s",
        predicted={"service": 0.07},
        no_effect=("tiers", "lint"),
    ),
    Layer(
        "cloud",
        (
            ("cloud.traffic.generate", "repro.cloud.traffic:generate_traffic"),
            (
                "cloud.admission.request",
                "repro.cloud.admission:AdmissionController.request",
            ),
            ("cloud.service.run", "repro.cloud.service:ServiceEngine.run"),
        ),
        moves="work_per_s on service",
        predicted={},
        no_effect=("paper", "tiers", "lint"),
    ),
    Layer(
        "baselines",
        (
            (
                "baselines.convex.decide",
                "repro.baselines.convex:ConvexOptimizationAllocator.decide",
            ),
            ("baselines.oracle.decide", "repro.baselines.oracle:OracleAllocator.decide"),
            ("baselines.race.decide", "repro.baselines.race:RaceToIdleAllocator.decide"),
        ),
        moves="work_per_s on paper",
        predicted={"paper": 0.05},
        no_effect=("service", "tiers", "lint"),
    ),
    Layer(
        "experiments.harness",
        (
            # The throughput simulator's true_points is a per-phase memo
            # hit (hundreds of thousands of calls, each shorter than a
            # span's own cost); only the latency simulator's, which
            # builds points every interval, is timed.
            (
                "experiments.harness.true_points",
                "repro.experiments.harness:LatencySimulator.true_points",
            ),
            ("experiments.harness.run", "repro.experiments.harness:ThroughputSimulator.run"),
            ("experiments.harness.run", "repro.experiments.harness:LatencySimulator.run"),
        ),
        moves="work_per_s on paper",
        predicted={"paper": 0.11},
        no_effect=("service", "tiers", "lint"),
    ),
    Layer(
        "experiments.stats",
        (
            ("experiments.stats.run_cell", "repro.experiments.stats:run_cell"),
            (
                "experiments.scenarios.run_app_with_allocator",
                "repro.experiments.scenarios:run_app_with_allocator",
            ),
        ),
        moves="work_per_s on paper",
        predicted={},
        no_effect=("service", "lint"),
    ),
    Layer(
        "sim.trace",
        (
            ("sim.trace.generate_arrays", "repro.sim.trace:TraceGenerator.generate_arrays"),
            ("sim.trace.generate", "repro.sim.trace:TraceGenerator.generate"),
        ),
        moves="work_per_s on tiers",
        predicted={"tiers": 0.60},
        no_effect=("paper", "service", "lint"),
    ),
    Layer(
        "sim.batchpipe",
        (
            ("sim.batchpipe.run_batch", "repro.sim.batchpipe:run_batch"),
            ("sim.pipeline.run", "repro.sim.pipeline:MultiSlicePipeline.run"),
        ),
        moves="work_per_s on tiers",
        predicted={"tiers": 0.40},
        no_effect=("paper", "service", "lint"),
    ),
    Layer(
        "sim.perfmodel",
        (
            ("sim.perfmodel.ipc", "repro.sim.perfmodel:PerformanceModel.ipc"),
            ("sim.perfmodel.ipc_grid", "repro.sim.perfmodel:PerformanceModel.ipc_grid"),
        ),
        moves="work_per_s on tiers and paper (small)",
        predicted={},
        no_effect=("lint",),
    ),
    Layer(
        "analysis",
        (
            ("analysis.load_contexts", "repro.analysis.core:load_contexts"),
            (
                "analysis.callgraph.analyze_module",
                "repro.analysis.callgraph:analyze_module",
            ),
            (
                "analysis.callgraph.resolve",
                "repro.analysis.callgraph:ProgramGraph.resolve",
            ),
            ("analysis.dataflow.view", "repro.analysis.dataflow:dataflow_view"),
        ),
        moves="work_per_s on lint",
        predicted={"lint": 0.80},  # the program rules alone
        no_effect=("paper", "service", "tiers"),
    ),
)

#: Spans the lint workload records itself (not patched): one per rule,
#: and one around all whole-program rules; the analysis layer owns them.
RULE_SPAN_PREFIX = "analysis.rule."
PROGRAM_RULES_SPAN = "analysis.program_rules"


def layer_of(span_name: str) -> Optional[str]:
    if span_name.startswith(RULE_SPAN_PREFIX) or span_name == PROGRAM_RULES_SPAN:
        return "analysis"
    for layer in LAYERS:
        if any(span_name == name for name, _ in layer.spans):
            return layer.name
    return None


def install(tracer) -> Dict[str, bool]:
    """Patch every layer call into ``tracer``; target → found."""
    return {
        target: tracer.patch(name, target)
        for layer in LAYERS
        for name, target in layer.spans
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(
    table: Mapping[str, Mapping[str, object]],
    covered: float,
    wall: float,
) -> Dict[str, float]:
    """Per-layer metrics from a traced pass's span table.

    Shares are self time over the traced pass's wall time, so they add
    up to the covered fraction; the rest is ``share.unattributed``.
    """

    def get(name: str, field: str) -> float:
        entry = table.get(name)
        return float(entry[field]) if entry is not None else 0.0

    def quantile(name: str, q: float) -> float:
        entry = table.get(name)
        if entry is None or not len(entry["durations"]):
            return 0.0
        return float(np.quantile(entry["durations"], q))

    metrics: Dict[str, float] = {}
    allocate_calls = get("arch.fabric.allocate", "calls")
    metrics.update(
        {
            "arch.fabric.allocate.calls": allocate_calls,
            "arch.fabric.allocate.s": get("arch.fabric.allocate", "s"),
            "arch.fabric.allocate.us_per_call": 1e6
            * _ratio(get("arch.fabric.allocate", "s"), allocate_calls),
            "arch.fabric.allocate.fail_ratio": _ratio(
                get("arch.fabric.allocate", "failed"), allocate_calls
            ),
            "arch.fabric.release.s": get("arch.fabric.release", "s"),
            "arch.fabric.try_allocate_exact.s": get(
                "arch.fabric.try_allocate_exact", "s"
            ),
            "arch.fabric.defragment.calls": get("arch.fabric.defragment", "calls"),
            "runtime.cash.step.calls": get("runtime.cash.step", "calls"),
            "runtime.cash.step.s": get("runtime.cash.step", "s"),
            "runtime.cash.step.self_s": get("runtime.cash.step", "self_s"),
            "runtime.optimizer.envelope.calls": get(
                "runtime.optimizer.envelope", "calls"
            ),
            "runtime.optimizer.envelope.s": get("runtime.optimizer.envelope", "s"),
            "runtime.optimizer.solve_two_config.s": get(
                "runtime.optimizer.solve_two_config", "s"
            ),
            "runtime.qlearning.observe.s": get("runtime.qlearning.observe", "s"),
            "runtime.kalman.update.s": get("runtime.kalman.update", "s"),
            "sim.optables.lookup.calls": get("sim.optables.lookup", "calls"),
            "sim.optables.lookup.s": get("sim.optables.lookup", "s"),
            "cloud.traffic.generate.s": get("cloud.traffic.generate", "s"),
            "cloud.admission.request.calls": get("cloud.admission.request", "calls"),
            "cloud.admission.request.s": get("cloud.admission.request", "s"),
            "cloud.service.self_s": get("cloud.service.run", "self_s"),
            "baselines.convex.decide.s": get("baselines.convex.decide", "s"),
            "baselines.oracle.decide.s": get("baselines.oracle.decide", "s"),
            "experiments.harness.true_points.s": get(
                "experiments.harness.true_points", "s"
            ),
            "experiments.harness.run.self_s": get("experiments.harness.run", "self_s"),
            "experiments.stats.run_cell.p50_s": quantile(
                "experiments.stats.run_cell", 0.5
            ),
            "experiments.stats.run_cell.p90_s": quantile(
                "experiments.stats.run_cell", 0.9
            ),
            "sim.trace.generate_arrays.calls": get("sim.trace.generate_arrays", "calls"),
            "sim.trace.generate_arrays.s": get("sim.trace.generate_arrays", "s"),
            "sim.batchpipe.run_batch.s": get("sim.batchpipe.run_batch", "s"),
            "sim.perfmodel.ipc.calls": get("sim.perfmodel.ipc", "calls"),
            "sim.perfmodel.ipc.s": get("sim.perfmodel.ipc", "s"),
            "analysis.load_contexts.s": get("analysis.load_contexts", "s"),
            "analysis.program_rules.s": get("analysis.program_rules", "s"),
            "analysis.program_rules.share": _ratio(
                get("analysis.program_rules", "s"), wall
            ),
            "analysis.callgraph.analyze_module.calls": get(
                "analysis.callgraph.analyze_module", "calls"
            ),
            "analysis.callgraph.resolve.calls": get(
                "analysis.callgraph.resolve", "calls"
            ),
            "analysis.callgraph.resolve.s": get("analysis.callgraph.resolve", "s"),
            "analysis.dataflow.view.s": get("analysis.dataflow.view", "s"),
        }
    )
    for name, entry in table.items():
        if name.startswith(RULE_SPAN_PREFIX):
            metrics[f"{name}.s"] = float(entry["s"])

    shares: Dict[str, float] = {layer.name: 0.0 for layer in LAYERS}
    for name, entry in table.items():
        layer = layer_of(name)
        if layer is not None:
            shares[layer] += float(entry["self_s"])
    for layer, seconds in shares.items():
        metrics[f"share.{layer}"] = _ratio(seconds, wall)
    metrics["share.unattributed"] = _ratio(max(wall - covered, 0.0), wall)
    return metrics


def largest_layer(metrics: Mapping[str, float]) -> str:
    return max(
        (layer.name for layer in LAYERS),
        key=lambda name: metrics.get(f"share.{name}", 0.0),
    )


def predicted_largest(workload: str) -> Optional[str]:
    candidates = [
        (layer.predicted[workload], layer.name)
        for layer in LAYERS
        if workload in layer.predicted
    ]
    return max(candidates)[1] if candidates else None
