"""Race-to-idle (Sections II-B, VI-C).

Race-to-idle is assumed to have prior knowledge of the application: it
knows the lowest-cost configuration that meets the QoS requirement in
the *worst case*, allocates that virtual core for every phase, and —
when a phase finishes early — idles until the next deadline.  Following
the paper's optimistic assumptions, idling is instantaneous and free.
The result is zero QoS violations at a cost the paper measures at
1.78× optimal (Table III): every easy phase still rents the worst-case
machine while it is busy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro import perf
from repro.arch.cost import CostModel, DEFAULT_COST_MODEL
from repro.arch.vcore import ConfigurationSpace, VCoreConfig, DEFAULT_CONFIG_SPACE
from repro.runtime.optimizer import (
    ConfigPoint,
    Schedule,
    ScheduleEntry,
    IDLE_POINT,
)
from repro.sim.perfmodel import PerformanceModel
from repro.workloads.phase import PhasedApplication


def worst_case_config(
    app: PhasedApplication,
    qos_goal: float,
    model: PerformanceModel,
    space: ConfigurationSpace = DEFAULT_CONFIG_SPACE,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    candidates: Optional[Sequence[VCoreConfig]] = None,
) -> VCoreConfig:
    """Cheapest configuration meeting the QoS goal in every phase.

    For throughput applications the goal is an IPC floor.  If no
    configuration satisfies every phase, the fastest-in-the-worst-phase
    configuration is returned (the best a static allocation can do).
    """
    if qos_goal <= 0:
        raise ValueError(f"qos_goal must be positive, got {qos_goal}")
    pool = list(candidates) if candidates is not None else list(space)
    if not pool:
        raise ValueError("no candidate configurations")
    feasible = [
        config
        for config in pool
        if all(model.ipc(phase, config) >= qos_goal for phase in app.phases)
    ]
    if feasible:
        return min(feasible, key=lambda c: c.cost_rate(cost_model))
    return max(
        pool,
        key=lambda c: min(model.ipc(phase, c) for phase in app.phases),
    )


@dataclass
class RaceToIdleAllocator:
    """Statically allocate the worst-case virtual core; idle when ahead.

    For throughput workloads each interval owes ``qos_goal`` of work per
    cycle; running the worst-case configuration at its (true) delivered
    QoS finishes that work in a ``qos_goal / qos`` fraction of the
    interval and idles — free — for the remainder.  Server (latency)
    workloads cannot race ahead of unarrived requests, so the
    configuration is simply held for the whole interval
    (``can_idle=False``), which is how Fig. 9 shows race-to-idle as a
    flat, maximal cost line.
    """

    config: VCoreConfig
    qos_goal: float
    cost_model: CostModel = DEFAULT_COST_MODEL
    can_idle: bool = True
    name: str = "Race to Idle"

    def __post_init__(self) -> None:
        if self.qos_goal <= 0:
            raise ValueError(f"qos_goal must be positive, got {self.qos_goal}")

    def decide(
        self,
        measurement: Optional[object],
        true_points: Sequence[ConfigPoint],
    ) -> Schedule:
        point_of = getattr(true_points, "point_of", None)
        if perf.FAST and point_of is not None:
            # First-wins lookup: the point the scan below would find.
            point = point_of(self.config)
        else:
            point = next(
                (p for p in true_points if p.config == self.config), None
            )
        if point is None:
            raise ValueError(
                f"worst-case config {self.config} missing from true points"
            )
        if not self.can_idle or point.speedup <= 0:
            return Schedule(entries=(ScheduleEntry(point, 1.0),))
        busy_fraction = min(self.qos_goal / point.speedup, 1.0)
        if busy_fraction >= 1.0:
            return Schedule(entries=(ScheduleEntry(point, 1.0),))
        return Schedule(
            entries=(
                ScheduleEntry(point, busy_fraction),
                ScheduleEntry(IDLE_POINT, 1.0 - busy_fraction),
            )
        )
