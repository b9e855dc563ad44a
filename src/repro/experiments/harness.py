"""Closed-loop evaluation harness on the fast SSim tier.

The harness advances an application interval by interval.  Each
interval it asks the allocator for a schedule (one or two configuration
legs plus idle), executes the legs against the analytic performance
model — crossing phase boundaries exactly, charging reconfiguration
stalls, and accruing rental cost — then reports the measured QoS (with
measurement noise) back to the allocator.  This mirrors the paper's
methodology of sampling performance 1000 times per application and
recording total cost and QoS violations (Section VI-C).

Cost convention: the paper's "Cost ($)" magnitudes (Table III, Figs. 7
and 10) correspond to one hour of sustained execution at the measured
average $/hour rate, so :attr:`RunResult.cost_dollars` is the
time-weighted mean cost rate × 1 hour.

A run's per-interval trace is kept as columns (:class:`IntervalTrace`),
not as a list of record objects: sweeps send results between
processes, and a few flat buffers pickle, transfer and unpickle at a
small fraction of the cost of a thousand-record object graph.  The
run-level aggregates read the columns directly; the
:class:`IntervalRecord` view is decoded only when asked for.
"""

from __future__ import annotations

import math
import random
import zlib
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

import numpy as np

from repro import perf
from repro.arch.cost import CostModel, DEFAULT_COST_MODEL
from repro.arch.reconfig import ReconfigCostModel, DEFAULT_RECONFIG_COSTS
from repro.arch.vcore import ConfigurationSpace, VCoreConfig, DEFAULT_CONFIG_SPACE
from repro.runtime.cash import (
    CASHRuntime,
    LegObservation,
    QoSMeasurement,
    RuntimeDecision,
)
from repro.runtime.optimizer import ConfigPoint, Schedule, ScheduleEntry
from repro.sim.optables import OperatingPointTable, operating_point_table
from repro.sim.perfmodel import PerformanceModel, DEFAULT_PERF_MODEL
from repro.workloads.phase import Phase, PhasedApplication
from repro.workloads.requests import OscillatingLoad, RequestTrace


class Allocator(Protocol):
    """What the harness requires of a resource allocator."""

    name: str

    def decide(
        self,
        measurement: Optional[QoSMeasurement],
        true_points: Sequence[ConfigPoint],
    ) -> Schedule:
        """Return the schedule for the next interval.

        ``measurement`` is the previous interval's observed QoS (None on
        the first interval).  ``true_points`` are the ground-truth
        operating points for the *current* conditions; only omniscient
        allocators (oracle, race-to-idle) may use them — feedback
        allocators must rely on ``measurement`` alone.
        """


def qos_target_for(
    app: PhasedApplication,
    model: PerformanceModel = DEFAULT_PERF_MODEL,
    space: ConfigurationSpace = DEFAULT_CONFIG_SPACE,
    margin: float = 0.88,
) -> float:
    """The paper's throughput QoS rule (Section VI-C).

    "The highest worst case IPC": the largest IPC achievable in every
    phase — i.e. the worst phase's best IPC — backed off by ``margin``
    so that a non-trivial set of configurations can meet it.
    """
    if not 0.0 < margin <= 1.0:
        raise ValueError(f"margin must be in (0, 1], got {margin}")
    if perf.FAST:
        # max_qos over the memoized table is the same set of floats the
        # scalar double loop maximizes (the vectorized kernel is
        # bit-identical), so the target is unchanged.
        worst_case_best = min(
            operating_point_table(phase, model, space).max_qos
            for phase in app.phases
        )
    else:
        worst_case_best = min(
            max(model.ipc(phase, config) for config in space)
            for phase in app.phases
        )
    return worst_case_best * margin


@dataclass(frozen=True)
class IntervalRecord:
    """Everything observed in one control interval."""

    index: int
    start_cycle: float
    phase_name: str
    schedule: Schedule
    true_qos: float
    measured_qos: float
    active_qos: float
    cost_rate: float
    violated: bool
    reconfig_cycles: int
    cycles: float = 0.0
    request_rate: float = 0.0

    @property
    def configs(self) -> List[VCoreConfig]:
        return self.schedule.configs()


class IntervalTrace:
    """The per-interval records of one run, stored as columns.

    Scalars sit in typed arrays (floats in ``array('d')``, counters in
    ``array('q')``, flags in ``bytearray``); phase names and
    configurations are interned in small tables and referenced by
    index; schedules become per-leg columns (configuration index or -1
    for idle, speedup, cost rate, fraction) plus a leg count and a
    saturation flag per interval.  :meth:`records` decodes records
    equal to the ones appended.  Pickling ships a single compressed
    buffer in native byte order (float columns byte-transposed first,
    which lets the compressor find their shared sign and exponent
    bytes).
    """

    _FLOATS = (
        "start_cycle",
        "true_qos",
        "measured_qos",
        "active_qos",
        "cost_rate",
        "cycles",
        "request_rate",
    )
    _LEG_FLOATS = ("leg_speedup", "leg_cost_rate", "leg_fraction")
    _INTS = (
        ("index", "q"),
        ("reconfig_cycles", "q"),
        ("phase", "i"),
        ("legs", "i"),
        ("leg_config", "i"),
    )
    _FLAGS = ("violated", "saturated")

    __slots__ = (
        _FLOATS
        + _LEG_FLOATS
        + tuple(name for name, _ in _INTS)
        + _FLAGS
        + ("phase_names", "configs", "_phase_ids", "_config_ids")
    )

    def __init__(
        self,
        phase_names: Sequence[str] = (),
        configs: Sequence[VCoreConfig] = (),
    ) -> None:
        for name in self._FLOATS + self._LEG_FLOATS:
            setattr(self, name, array("d"))
        for name, code in self._INTS:
            setattr(self, name, array(code))
        for name in self._FLAGS:
            setattr(self, name, bytearray())
        self.phase_names: List[str] = list(phase_names)
        self.configs: List[VCoreConfig] = list(configs)
        self._phase_ids = {name: at for at, name in enumerate(self.phase_names)}
        self._config_ids = {config: at for at, config in enumerate(self.configs)}

    def append(
        self,
        index: int,
        start_cycle: float,
        phase_name: str,
        schedule: Schedule,
        true_qos: float,
        measured_qos: float,
        active_qos: float,
        cost_rate: float,
        violated: bool,
        reconfig_cycles: int,
        cycles: float = 0.0,
        request_rate: float = 0.0,
    ) -> None:
        """Add one interval (the fields of :class:`IntervalRecord`)."""
        self.index.append(index)
        self.start_cycle.append(start_cycle)
        phase = self._phase_ids.get(phase_name)
        if phase is None:
            phase = self._phase_ids[phase_name] = len(self.phase_names)
            self.phase_names.append(phase_name)
        self.phase.append(phase)
        self.true_qos.append(true_qos)
        self.measured_qos.append(measured_qos)
        self.active_qos.append(active_qos)
        self.cost_rate.append(cost_rate)
        self.violated.append(violated)
        self.reconfig_cycles.append(reconfig_cycles)
        self.cycles.append(cycles)
        self.request_rate.append(request_rate)
        entries = schedule.entries
        self.legs.append(len(entries))
        self.saturated.append(schedule.saturated)
        config_ids = self._config_ids
        for entry in entries:
            point = entry.point
            config = point.config
            if config is None:
                self.leg_config.append(-1)
            else:
                at = config_ids.get(config)
                if at is None:
                    at = config_ids[config] = len(self.configs)
                    self.configs.append(config)
                self.leg_config.append(at)
            self.leg_speedup.append(point.speedup)
            self.leg_cost_rate.append(point.cost_rate)
            self.leg_fraction.append(entry.fraction)

    def __len__(self) -> int:
        return len(self.index)

    def records(self) -> List[IntervalRecord]:
        """Decode every interval into an :class:`IntervalRecord`."""
        configs = self.configs
        names = self.phase_names
        leg_config = self.leg_config
        leg_speedup = self.leg_speedup
        leg_cost_rate = self.leg_cost_rate
        leg_fraction = self.leg_fraction
        records: List[IntervalRecord] = []
        leg = 0
        for at in range(len(self.index)):
            stop = leg + self.legs[at]
            entries = []
            for position in range(leg, stop):
                config_at = leg_config[position]
                entries.append(
                    ScheduleEntry(
                        ConfigPoint(
                            config=configs[config_at] if config_at >= 0 else None,
                            speedup=leg_speedup[position],
                            cost_rate=leg_cost_rate[position],
                        ),
                        leg_fraction[position],
                    )
                )
            leg = stop
            records.append(
                IntervalRecord(
                    index=self.index[at],
                    start_cycle=self.start_cycle[at],
                    phase_name=names[self.phase[at]],
                    schedule=Schedule(
                        entries=tuple(entries),
                        saturated=bool(self.saturated[at]),
                    ),
                    true_qos=self.true_qos[at],
                    measured_qos=self.measured_qos[at],
                    active_qos=self.active_qos[at],
                    cost_rate=self.cost_rate[at],
                    violated=bool(self.violated[at]),
                    reconfig_cycles=self.reconfig_cycles[at],
                    cycles=self.cycles[at],
                    request_rate=self.request_rate[at],
                )
            )
        return records

    def _columns(self) -> Iterator[object]:
        for name in self._FLOATS + self._LEG_FLOATS:
            yield getattr(self, name)
        for name, _ in self._INTS:
            yield getattr(self, name)
        for name in self._FLAGS:
            yield getattr(self, name)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalTrace):
            return NotImplemented
        return (
            self.phase_names == other.phase_names
            and self.configs == other.configs
            and all(
                mine == theirs
                for mine, theirs in zip(self._columns(), other._columns())
            )
        )

    def __reduce__(self) -> tuple:
        floats = np.concatenate(
            [
                np.frombuffer(getattr(self, name), dtype=np.float64)
                for name in self._FLOATS + self._LEG_FLOATS
            ]
        )
        parts = [floats.view(np.uint8).reshape(-1, 8).T.tobytes()]
        parts.extend(bytes(getattr(self, name)) for name, _ in self._INTS)
        parts.extend(bytes(getattr(self, name)) for name in self._FLAGS)
        payload = zlib.compress(b"".join(parts), 1)
        return (
            _unpack_trace,
            (
                tuple(self.phase_names),
                tuple(self.configs),
                len(self.index),
                len(self.leg_config),
                payload,
            ),
        )


def _unpack_trace(
    phase_names: Tuple[str, ...],
    configs: Tuple[VCoreConfig, ...],
    intervals: int,
    legs: int,
    payload: bytes,
) -> IntervalTrace:
    """Rebuild an :class:`IntervalTrace` from its pickled buffer."""
    trace = IntervalTrace(phase_names, configs)
    data = zlib.decompress(payload)
    sizes = [intervals] * len(IntervalTrace._FLOATS) + [legs] * len(
        IntervalTrace._LEG_FLOATS
    )
    width = sum(sizes)
    floats = (
        np.frombuffer(data, dtype=np.uint8, count=8 * width)
        .reshape(8, width)
        .T.copy()
        .view(np.float64)
        .ravel()
    )
    cursor = 0
    for name, size in zip(
        IntervalTrace._FLOATS + IntervalTrace._LEG_FLOATS, sizes
    ):
        getattr(trace, name).frombytes(floats[cursor : cursor + size].tobytes())
        cursor += size
    offset = 8 * width
    for name, _ in IntervalTrace._INTS:
        column = getattr(trace, name)
        size = (legs if name == "leg_config" else intervals) * column.itemsize
        column.frombytes(data[offset : offset + size])
        offset += size
    for name in IntervalTrace._FLAGS:
        getattr(trace, name).extend(data[offset : offset + intervals])
        offset += intervals
    return trace


@dataclass
class RunResult:
    """Aggregate outcome of one allocator on one application.

    The aggregates read the trace's columns with the same left-to-right
    sums the record view would give; :attr:`records` decodes a fresh
    list on every read, so read it once outside a loop.
    """

    app_name: str
    allocator_name: str
    qos_goal: float
    interval_cycles: float
    trace: IntervalTrace

    @property
    def records(self) -> List[IntervalRecord]:
        return self.trace.records()

    @property
    def num_intervals(self) -> int:
        return len(self.trace)

    @property
    def mean_cost_rate(self) -> float:
        """Time-weighted average $/hour over the run."""
        if not len(self.trace):
            return 0.0
        return sum(self.trace.cost_rate) / len(self.trace)

    @property
    def cost_dollars(self) -> float:
        """Cost of one hour of sustained execution (paper's convention)."""
        return self.mean_cost_rate

    @property
    def violation_rate(self) -> float:
        if not len(self.trace):
            return 0.0
        return sum(self.trace.violated) / len(self.trace)

    @property
    def violation_percent(self) -> float:
        return 100.0 * self.violation_rate

    def cost_rate_series(self) -> List[float]:
        return list(self.trace.cost_rate)

    def normalized_performance_series(self) -> List[float]:
        """Delivered QoS normalized to the goal, per interval.

        Race-to-idle intervals report their *active* (busy-time) QoS,
        matching how Fig. 2 plots race-to-idle above the QoS line.
        """
        return [
            (active if active > 0 else true) / self.qos_goal
            for active, true in zip(self.trace.active_qos, self.trace.true_qos)
        ]

    def time_axis_mcycles(self) -> List[float]:
        return [start / 1e6 for start in self.trace.start_cycle]


class _PhaseWalker:
    """Advances an application's instruction stream through its phases."""

    def __init__(self, app: PhasedApplication) -> None:
        self.app = app
        self.offset = 0.0  # instructions into the (wrapping) app
        # Cumulative phase end offsets, accumulated in the same
        # left-to-right order as the scalar scan so the bisect fast path
        # sees bit-identical boundary values.
        ends: List[float] = []
        cursor = 0.0
        for phase in app.phases:
            ends.append(cursor + phase.instructions)
            cursor += phase.instructions
        self._phase_ends = ends

    def current_phase(self) -> Tuple[int, Phase]:
        return self.app.phase_at_instruction(self.offset)

    def run_cycles(
        self,
        cycles: float,
        ipc_of: Callable[[Phase], float],
        stop_at_boundary: bool = False,
    ) -> Tuple[float, float, bool]:
        """Execute up to ``cycles``; returns (instructions, cycles_used,
        crossed_boundary).

        Crosses phase boundaries exactly: within a phase the IPC is
        constant, so the walker advances to whichever comes first — the
        end of the leg or the end of the phase.  With
        ``stop_at_boundary`` the walker returns at the first phase
        boundary, letting the harness end the control interval there
        (so no sampling interval mixes two phases).
        """
        if cycles < 0:
            raise ValueError(f"cycles must be non-negative, got {cycles}")
        executed = 0.0
        used = 0.0
        remaining = cycles
        guard = 0
        while remaining > 1e-9:
            guard += 1
            if guard > 10_000:  # pragma: no cover - defensive
                raise RuntimeError("phase walker failed to converge")
            _, phase = self.current_phase()
            ipc = ipc_of(phase)
            if ipc <= 0:
                used += remaining
                remaining = 0.0
                break
            instructions_left = self._instructions_left_in_phase()
            cycles_to_boundary = instructions_left / ipc
            step = min(remaining, cycles_to_boundary)
            self.offset += ipc * step
            executed += ipc * step
            used += step
            remaining -= step
            if stop_at_boundary and step == cycles_to_boundary:
                # Nudge across the boundary so the next query sees the
                # new phase, then report the crossing.
                self.offset += 1e-6
                return executed, used, True
        return executed, used, False

    def _instructions_left_in_phase(self) -> float:
        total = self.app.total_instructions
        offset = self.offset % total
        if perf.FAST:
            index = bisect_right(self._phase_ends, offset)
            if index < len(self._phase_ends):
                return self._phase_ends[index] - offset
            return self.app.phases[-1].instructions
        cursor = 0.0
        for phase in self.app.phases:
            if offset < cursor + phase.instructions:
                return cursor + phase.instructions - offset
            cursor += phase.instructions
        return self.app.phases[-1].instructions


class ThroughputSimulator:
    """Closed-loop simulation for throughput-QoS applications."""

    def __init__(
        self,
        app: PhasedApplication,
        qos_goal: float,
        model: PerformanceModel = DEFAULT_PERF_MODEL,
        space: ConfigurationSpace = DEFAULT_CONFIG_SPACE,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        reconfig_costs: ReconfigCostModel = DEFAULT_RECONFIG_COSTS,
        interval_cycles: float = 1.0e6,
        noise_std_frac: float = 0.02,
        violation_margin: float = 0.03,
        seed: int = 0,
    ) -> None:
        if app.qos_kind != "throughput":
            raise ValueError(
                f"{app.name} is a {app.qos_kind} application; use "
                "LatencySimulator"
            )
        if qos_goal <= 0:
            raise ValueError(f"qos_goal must be positive, got {qos_goal}")
        if interval_cycles <= 0:
            raise ValueError(
                f"interval_cycles must be positive, got {interval_cycles}"
            )
        if noise_std_frac < 0:
            raise ValueError(
                f"noise_std_frac must be non-negative, got {noise_std_frac}"
            )
        if not 0.0 <= violation_margin < 1.0:
            raise ValueError(
                f"violation_margin must be in [0, 1), got {violation_margin}"
            )
        self.app = app
        self.qos_goal = qos_goal
        self.model = model
        self.space = space
        self.cost_model = cost_model
        self.reconfig_costs = reconfig_costs
        self.interval_cycles = interval_cycles
        self.noise_std_frac = noise_std_frac
        self.violation_margin = violation_margin
        self.seed = seed
        self._points_cache: Dict[str, Sequence[ConfigPoint]] = {}

    def true_points(self, phase: Phase) -> Sequence[ConfigPoint]:
        cached = self._points_cache.get(phase.name)
        if cached is not None:
            return cached
        if perf.FAST:
            # The shared table carries the same points (bit-identical
            # speedups, same order) plus O(1) IPC lookup and a memoized
            # envelope for the oracle's per-interval LP.
            points: Sequence[ConfigPoint] = operating_point_table(
                phase, self.model, self.space, self.cost_model
            )
        else:
            points = [
                ConfigPoint(
                    config=config,
                    speedup=self.model.ipc(phase, config),
                    cost_rate=config.cost_rate(self.cost_model),
                )
                for config in self.space
            ]
        self._points_cache[phase.name] = points
        return points

    def _ipc_of(self, phase: Phase, config: VCoreConfig) -> float:
        """Model IPC, served from the operating-point table when fast."""
        if perf.FAST:
            table = self.true_points(phase)
            if isinstance(table, OperatingPointTable):
                ipc = table.get_ipc(config)
                if ipc is not None:
                    return ipc
        return self.model.ipc(phase, config)

    def run(
        self,
        allocator: Allocator,
        intervals: int = 1000,
        warmup_intervals: int = 0,
    ) -> RunResult:
        """Run ``intervals`` recorded samples, after an optional warmup.

        Warmup intervals execute identically (the allocator sees them
        and learns from them) but are not recorded — the paper's
        1000-sample measurements describe steady-state operation, after
        the runtime has seen the application's phases at least once.
        """
        if intervals <= 0:
            raise ValueError(f"intervals must be positive, got {intervals}")
        if warmup_intervals < 0:
            raise ValueError(
                f"warmup_intervals must be non-negative, got {warmup_intervals}"
            )
        rng = random.Random(self.seed)
        walker = _PhaseWalker(self.app)
        trace = IntervalTrace()
        measurement: Optional[QoSMeasurement] = None
        current_config: Optional[VCoreConfig] = None
        cycle = 0.0
        for index in range(-warmup_intervals, intervals):
            _, phase = walker.current_phase()
            points = self.true_points(phase)
            schedule = allocator.decide(measurement, points)
            (
                true_qos,
                active_qos,
                cost_rate,
                legs,
                reconfig_cycles,
                current_config,
                actual_cycles,
            ) = self._execute(schedule, walker, current_config, rng)
            measured = self._noisy(true_qos, rng)
            violated = true_qos < self.qos_goal * (1.0 - self.violation_margin)
            if index >= 0:
                trace.append(
                    index,
                    cycle,
                    phase.name,
                    schedule,
                    true_qos,
                    measured,
                    active_qos,
                    cost_rate,
                    violated,
                    reconfig_cycles,
                    cycles=actual_cycles,
                )
                cycle += actual_cycles
            measurement = QoSMeasurement(
                overall_qos=measured,
                legs=tuple(legs),
                signature=self._signature(phase, rng),
            )
        return RunResult(
            app_name=self.app.name,
            allocator_name=allocator.name,
            qos_goal=self.qos_goal,
            interval_cycles=self.interval_cycles,
            trace=trace,
        )

    def _signature(self, phase: Phase, rng: random.Random) -> Tuple[float, ...]:
        """Configuration-independent counter fingerprint of a phase.

        The CASH runtime can read cache-miss and branch-mispredict
        counters on any Slice over the Runtime Interface Network
        (Section III-B2); per committed instruction these rates are
        properties of the workload, not of the virtual-core shape, so
        they identify *which* phase is executing.  Reported with the
        same measurement noise as QoS.
        """
        return (
            self._noisy(phase.mem_refs_per_inst, rng),
            self._noisy(phase.l1_miss_rate, rng),
            self._noisy(phase.mispredict_rate, rng),
        )

    def _noisy(self, value: float, rng: random.Random) -> float:
        if self.noise_std_frac <= 0.0:
            return value
        return max(value * (1.0 + rng.gauss(0.0, self.noise_std_frac)), 0.0)

    def _execute(
        self,
        schedule: Schedule,
        walker: _PhaseWalker,
        current_config: Optional[VCoreConfig],
        rng: random.Random,
    ) -> Tuple[
        float,
        float,
        float,
        List[LegObservation],
        int,
        Optional[VCoreConfig],
        float,
    ]:
        """Run one interval's schedule; truncate it at a phase boundary.

        Ending the interval at phase boundaries keeps every sample
        within a single phase, mirroring the paper's per-phase oracle
        construction (Section V-C) — no sample mixes two phases, so
        violations reflect allocation decisions, not sampling artefacts.
        """
        total_instructions = 0.0
        elapsed = 0.0
        busy_cycles = 0.0
        busy_instructions = 0.0
        dollars_time = 0.0  # Σ rate × cycles, normalized at the end
        legs: List[LegObservation] = []
        reconfig_total = 0
        crossed = False
        for entry in schedule.entries:
            if crossed:
                break
            leg_cycles = entry.fraction * self.interval_cycles
            if leg_cycles <= 0:
                continue
            if entry.point.is_idle:
                elapsed += leg_cycles
                legs.append(
                    LegObservation(config=None, fraction=entry.fraction, qos=0.0)
                )
                continue
            config = entry.point.config
            stall = 0
            if current_config is not None and config != current_config:
                stall = self.reconfig_costs.transition_cycles(
                    current_config, config
                )
                stall = min(stall, int(leg_cycles))
            current_config = config
            productive = leg_cycles - stall
            executed, used, crossed = walker.run_cycles(
                productive,
                lambda phase, config=config: self._ipc_of(phase, config),
                stop_at_boundary=True,
            )
            leg_total = used + stall
            elapsed += leg_total
            total_instructions += executed
            busy_cycles += leg_total
            busy_instructions += executed
            reconfig_total += stall
            dollars_time += config.cost_rate(self.cost_model) * leg_total
            leg_qos = executed / leg_total if leg_total > 0 else 0.0
            legs.append(
                LegObservation(
                    config=config,
                    fraction=entry.fraction,
                    qos=self._noisy(leg_qos, rng),
                )
            )
        elapsed = max(elapsed, 1.0)
        true_qos = total_instructions / elapsed
        active_qos = busy_instructions / busy_cycles if busy_cycles > 0 else 0.0
        cost_rate = dollars_time / elapsed
        return (
            true_qos,
            active_qos,
            cost_rate,
            legs,
            reconfig_total,
            current_config,
            elapsed,
        )


class _RatePoints:
    """The latency simulator's ground truth at one request rate, built
    only where it is read.

    A ``Sequence[ConfigPoint]`` over one phase's (config, capacity,
    cost rate) entries.  CASH and the convex baseline never read their
    ``true_points``, race-to-idle looks up one point (:meth:`point_of`)
    and the oracle iterates them all.  Every point is ``capacity /
    required``, the division the scalar ``qos_of`` performs.
    """

    __slots__ = ("_entries", "_index", "_required", "_points")

    def __init__(
        self,
        entries: List[Tuple[VCoreConfig, float, float]],
        index: Dict[VCoreConfig, int],
        required: float,
    ) -> None:
        self._entries = entries
        self._index = index
        self._required = required
        self._points: Optional[List[ConfigPoint]] = None

    def _all(self) -> List[ConfigPoint]:
        points = self._points
        if points is None:
            required = self._required
            points = self._points = [
                ConfigPoint(config=config, speedup=capacity / required, cost_rate=rate)
                for config, capacity, rate in self._entries
            ]
        return points

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[ConfigPoint]:
        return iter(self._all())

    def __getitem__(self, index):
        return self._all()[index]

    def point_of(self, config: VCoreConfig) -> Optional[ConfigPoint]:
        """The first point for ``config``, or None if absent."""
        at = self._index.get(config)
        if at is None:
            return None
        config, capacity, rate = self._entries[at]
        return ConfigPoint(
            config=config, speedup=capacity / self._required, cost_rate=rate
        )


class CASHAllocator:
    """Adapter presenting :class:`CASHRuntime` as a harness allocator."""

    name = "CASH"

    def __init__(
        self,
        configs: Sequence[VCoreConfig],
        qos_goal: float,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        base_config: Optional[VCoreConfig] = None,
        guard_band: float = 0.03,
        initial_base_qos: Optional[float] = None,
        seed: int = 0,
        **runtime_kwargs: object,
    ) -> None:
        if not 0.0 <= guard_band < 1.0:
            raise ValueError(f"guard_band must be in [0, 1), got {guard_band}")
        configs = list(configs)
        if base_config is None:
            base_config = min(configs, key=lambda c: (c.slices, c.l2_kb))
        if initial_base_qos is None:
            # The runtime starts with a conservative guess and lets the
            # Kalman filter converge (Section IV-B: base speed is never
            # measured directly).
            initial_base_qos = qos_goal / 2.0
        self.runtime = CASHRuntime(
            configs=configs,
            cost_rates=[c.cost_rate(cost_model) for c in configs],
            qos_goal=qos_goal * (1.0 + guard_band),
            base_config=base_config,
            initial_base_qos=initial_base_qos,
            seed=seed,
            **runtime_kwargs,
        )

    def decide(
        self,
        measurement: Optional[QoSMeasurement],
        true_points: Sequence[ConfigPoint],
    ) -> Schedule:
        # The CASH runtime never touches the true points: it acts only
        # on remote performance-counter feedback.
        decision = self.runtime.step(measurement)
        return decision.schedule


class LatencySimulator:
    """Closed-loop simulation for latency-QoS (server) applications.

    QoS is normalized inverse latency: ``q = target_latency / latency``,
    so the goal is 1.0 and higher is better — the same "higher is
    better" convention every allocator already speaks.  Request service
    follows an M/M/1-style model: service time is the per-request
    instruction count over the configuration's IPC, inflated by
    ``1/(1-ρ)`` queueing as utilization ρ rises with the request rate.
    Idle legs are executed on the cheapest configuration — a server can
    never fully vacate while requests may arrive.
    """

    LATENCY_CAP_FACTOR = 10.0

    # QoS metric: *capacity margin*.  The M/M/1 latency constraint
    # ``(1/μ)/(1 − λ/μ) ≤ L`` rearranges to ``μ ≥ λ + 1/L`` — linear in
    # the service capacity μ.  Defining q = μ / (λ + 1/L) therefore
    # makes q = 1 exactly the latency target, keeps "higher is better",
    # and — crucially — makes time-sharing linear in q, so the Eqn.-5
    # LP and its two-configuration solutions are exact for servers too.

    def __init__(
        self,
        app: PhasedApplication,
        load: OscillatingLoad | RequestTrace,
        target_latency_cycles: float,
        model: PerformanceModel = DEFAULT_PERF_MODEL,
        space: ConfigurationSpace = DEFAULT_CONFIG_SPACE,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        reconfig_costs: ReconfigCostModel = DEFAULT_RECONFIG_COSTS,
        interval_cycles: float = 1.0e7,
        cycles_per_second: float = 1.0e8,
        noise_std_frac: float = 0.02,
        violation_margin: float = 0.03,
        seed: int = 0,
    ) -> None:
        if app.qos_kind != "latency":
            raise ValueError(
                f"{app.name} is a {app.qos_kind} application; use "
                "ThroughputSimulator"
            )
        if target_latency_cycles <= 0:
            raise ValueError(
                f"target_latency_cycles must be positive, "
                f"got {target_latency_cycles}"
            )
        if cycles_per_second <= 0:
            raise ValueError(
                f"cycles_per_second must be positive, got {cycles_per_second}"
            )
        self.app = app
        self.load = load
        self.target_latency = target_latency_cycles
        self.model = model
        self.space = space
        self.cost_model = cost_model
        self.reconfig_costs = reconfig_costs
        self.interval_cycles = interval_cycles
        self.cycles_per_second = cycles_per_second
        self.noise_std_frac = noise_std_frac
        self.violation_margin = violation_margin
        self.seed = seed
        self._cheapest = min(space, key=lambda c: c.cost_rate(cost_model))
        # Per-phase (config, capacity, cost_rate) triples and their
        # first-wins config index: the request rate only scales the
        # capacity margin, so this part of ``true_points`` is
        # rate-independent and cacheable.
        self._capacity_cache: Dict[
            str,
            Tuple[List[Tuple[VCoreConfig, float, float]], Dict[VCoreConfig, int]],
        ] = {}

    def _ipc_of(self, phase: Phase, config: VCoreConfig) -> float:
        """Model IPC, served from the operating-point table when fast."""
        if perf.FAST:
            ipc = operating_point_table(
                phase, self.model, self.space, self.cost_model
            ).get_ipc(config)
            if ipc is not None:
                return ipc
        return self.model.ipc(phase, config)

    def _capacity_entries(
        self, phase: Phase
    ) -> Tuple[List[Tuple[VCoreConfig, float, float]], Dict[VCoreConfig, int]]:
        cached = self._capacity_cache.get(phase.name)
        if cached is None:
            table = operating_point_table(
                phase, self.model, self.space, self.cost_model
            )
            per_request = self.app.instructions_per_request
            entries = [
                (point.config, point.speedup / per_request, point.cost_rate)
                for point in table
            ]
            index: Dict[VCoreConfig, int] = {}
            for at, (config, _, _) in enumerate(entries):
                index.setdefault(config, at)
            cached = self._capacity_cache[phase.name] = (entries, index)
        return cached

    def service_capacity(self, phase: Phase, config: VCoreConfig) -> float:
        """Requests per cycle the configuration can serve in ``phase``."""
        return self._ipc_of(phase, config) / self.app.instructions_per_request

    def required_capacity(self, rate_per_second: float) -> float:
        """Capacity (requests/cycle) needed to hold the latency target."""
        arrivals = rate_per_second / self.cycles_per_second
        return arrivals + 1.0 / self.target_latency

    def latency_cycles(
        self, phase: Phase, config: VCoreConfig, rate_per_second: float
    ) -> float:
        """Mean request latency under the M/M/1-style model."""
        capacity = self.service_capacity(phase, config)
        arrivals = rate_per_second / self.cycles_per_second
        cap = self.LATENCY_CAP_FACTOR * self.target_latency
        if capacity <= arrivals:
            return cap
        return min(1.0 / (capacity - arrivals), cap)

    def qos_of(
        self, phase: Phase, config: VCoreConfig, rate_per_second: float
    ) -> float:
        """Capacity margin (goal = 1.0 ⇔ latency exactly at target)."""
        return self.service_capacity(phase, config) / self.required_capacity(
            rate_per_second
        )

    def true_points(
        self, phase: Phase, rate_per_second: float
    ) -> Sequence[ConfigPoint]:
        if perf.FAST:
            # capacity / required is the same division the scalar
            # ``qos_of`` performs, on the same capacity value, so each
            # point is bit-identical; a point is built only when an
            # allocator reads it.
            entries, index = self._capacity_entries(phase)
            return _RatePoints(
                entries, index, self.required_capacity(rate_per_second)
            )
        return [
            ConfigPoint(
                config=config,
                speedup=self.qos_of(phase, config, rate_per_second),
                cost_rate=config.cost_rate(self.cost_model),
            )
            for config in self.space
        ]

    def run(self, allocator: Allocator, intervals: int = 1000) -> RunResult:
        if intervals <= 0:
            raise ValueError(f"intervals must be positive, got {intervals}")
        rng = random.Random(self.seed)
        walker = _PhaseWalker(self.app)
        trace = IntervalTrace()
        measurement: Optional[QoSMeasurement] = None
        current_config: Optional[VCoreConfig] = None
        cycle = 0.0
        previous_rate: Optional[float] = None
        for index in range(intervals):
            _, phase = walker.current_phase()
            rate = self.load.rate_at(cycle)
            if measurement is not None and previous_rate is not None:
                # The runtime reads arrival counters at decision time,
                # so it knows how the capacity requirement moved.
                measurement = replace(
                    measurement,
                    goal_scale=self.required_capacity(rate)
                    / self.required_capacity(previous_rate),
                )
            previous_rate = rate
            points = self.true_points(phase, rate)
            schedule = allocator.decide(measurement, points)
            cost_rate = 0.0
            legs: List[LegObservation] = []
            reconfig_total = 0
            capacity = 0.0  # requests per cycle the schedule can serve
            for entry in schedule.entries:
                if entry.fraction <= 0:
                    continue
                config = (
                    entry.point.config
                    if not entry.point.is_idle
                    else self._cheapest
                )
                stall = 0
                if current_config is not None and config != current_config:
                    stall = self.reconfig_costs.transition_cycles(
                        current_config, config
                    )
                current_config = config
                leg_cycles = entry.fraction * self.interval_cycles
                stall_penalty = min(stall / max(leg_cycles, 1.0), 0.5)
                ipc = self._ipc_of(phase, config)
                service_rate = ipc / self.app.instructions_per_request
                capacity += entry.fraction * service_rate * (1.0 - stall_penalty)
                leg_qos = self.qos_of(phase, config, rate) * (1.0 - stall_penalty)
                cost_rate += config.cost_rate(self.cost_model) * entry.fraction
                reconfig_total += stall
                legs.append(
                    LegObservation(
                        config=entry.point.config,
                        fraction=entry.fraction,
                        qos=self._noisy(leg_qos, rng),
                    )
                )
            # Fluid model of the time-shared interval: requests arrive
            # continuously, so the schedule's average service capacity
            # is what bounds latency.  Time spent idle (or in slow
            # legs) does not average away — it stretches every queued
            # request.  The capacity-margin QoS makes this exact.
            total_qos = capacity / self.required_capacity(rate)
            # Advance the request-mix phase walker by the work actually
            # served this interval.
            served_rate = rate / self.cycles_per_second  # requests/cycle
            instructions = (
                served_rate
                * self.interval_cycles
                * self.app.instructions_per_request
            )
            walker.offset += instructions
            measured = self._noisy(total_qos, rng)
            violated = total_qos < 1.0 - self.violation_margin
            trace.append(
                index,
                cycle,
                phase.name,
                schedule,
                total_qos,
                measured,
                total_qos,
                cost_rate,
                violated,
                reconfig_total,
                request_rate=rate,
            )
            measurement = QoSMeasurement(
                overall_qos=measured,
                legs=tuple(legs),
                signature=(
                    self._noisy(phase.mem_refs_per_inst, rng),
                    self._noisy(phase.l1_miss_rate, rng),
                    self._noisy(phase.mispredict_rate, rng),
                ),
            )
            cycle += self.interval_cycles
        return RunResult(
            app_name=self.app.name,
            allocator_name=allocator.name,
            qos_goal=1.0,
            interval_cycles=self.interval_cycles,
            trace=trace,
        )

    def _noisy(self, value: float, rng: random.Random) -> float:
        if self.noise_std_frac <= 0.0:
            return value
        return max(value * (1.0 + rng.gauss(0.0, self.noise_std_frac)), 0.0)
