"""The CASH runtime loop (Algorithm 1).

Each control interval the runtime:

1. reads the delivered QoS q(t) (synthesized from remote performance
   counters over the Runtime Interface Network);
2. updates the Kalman estimate b̂(t) of base speed (Eqn. 3–4);
3. computes the speedup demand s(t) with the deadbeat controller,
   substituting b̂(t) for b (Eqn. 2);
4. solves for the over/under schedule using *learned* speedup
   estimates (Eqn. 6), occasionally exploring a stale configuration;
5. runs ``over`` for t_over and ``under`` for t_under;
6. folds the observed QoS of each leg into the speedup estimates
   (Eqn. 7).

The loop is O(1) per iteration — no search over the configuration
space — which is what makes the measured runtime overhead of ~1000–2000
cycles per iteration possible (Section VI-A).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import perf
from repro.arch.vcore import VCoreConfig
from repro.runtime.controller import DeadbeatController
from repro.runtime.kalman import KalmanEstimator, PhaseChangeDetector
from repro.runtime.optimizer import (
    ConfigPoint,
    LearningOptimizer,
    Schedule,
    ScheduleEntry,
    IDLE_POINT,
)
from repro.runtime.qlearning import ExplorationPolicy, SpeedupLearner


@dataclass(frozen=True)
class LegObservation:
    """Measured QoS for one executed schedule leg."""

    config: Optional[VCoreConfig]
    fraction: float
    qos: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0 + 1e-12:
            raise ValueError(f"fraction must be in [0, 1], got {self.fraction}")
        if self.qos < 0:
            raise ValueError(f"qos must be non-negative, got {self.qos}")


@dataclass(frozen=True)
class QoSMeasurement:
    """What the hardware reports for the previous control interval.

    ``signature`` carries configuration-independent workload
    fingerprints read from the performance-counter network (Section
    III-B2 lists cache miss rate and branch miss-predict rate among the
    counters the runtime can query) — the runtime uses them to
    recognize *which* phase it entered, not just that one changed.
    """

    overall_qos: float
    legs: Tuple[LegObservation, ...] = ()
    signature: Tuple[float, ...] = ()
    goal_scale: float = 1.0
    """For load-normalized QoS metrics (server capacity margin): the
    factor by which the normalization changed since the previous
    measurement.  The runtime observes arrival rates through its
    counters, so this is measured, not oracular — it lets the learner
    renormalize every estimate instead of waiting to re-visit each
    configuration as the load drifts."""

    def __post_init__(self) -> None:
        if self.overall_qos < 0:
            raise ValueError(
                f"overall_qos must be non-negative, got {self.overall_qos}"
            )


@dataclass(frozen=True)
class RuntimeDecision:
    """The runtime's output for one interval."""

    schedule: Schedule
    speedup_demand: float
    base_estimate: float
    explored: Optional[VCoreConfig] = None
    phase_change: bool = False


class CASHRuntime:
    """Controller + Estimator + LearningOptimizer, per Algorithm 1."""

    def __init__(
        self,
        configs: Sequence[VCoreConfig],
        cost_rates: Sequence[float],
        qos_goal: float,
        base_config: VCoreConfig,
        initial_base_qos: float,
        alpha: float = 0.3,
        process_variance: float = 1e-4,
        measurement_variance: float = 1e-3,
        phase_threshold: float = 0.2,
        epsilon: float = 0.15,
        seed: int = 0,
        explore: bool = True,
        controller_gain: float = 0.6,
        phase_memory: bool = True,
        learner_factory: Optional[type] = None,
    ) -> None:
        if qos_goal <= 0:
            raise ValueError(f"qos_goal must be positive, got {qos_goal}")
        self.configs = list(configs)
        self.qos_goal = qos_goal
        self.base_config = base_config
        # The control law runs in raw QoS units: Eqn. 2 multiplied
        # through by b is q_target(t) = q_target(t-1) + e(t), an
        # identity when b̂ is exact — but it keeps estimator transients
        # out of the control loop (dividing by b̂ and multiplying back
        # only injects estimation noise).  The speedup demand s(t)
        # reported in decisions is q_target / b̂, recovering the paper's
        # quantity.
        self.controller = DeadbeatController(
            qos_goal=qos_goal,
            base_qos=1.0,
            gain=controller_gain,
            max_speedup=1e12,
        )
        self.estimator = KalmanEstimator(
            initial_base=initial_base_qos,
            process_variance=process_variance,
            measurement_variance=measurement_variance,
        )
        self.detector = PhaseChangeDetector(
            self.estimator, threshold=phase_threshold
        )
        learner_cls = learner_factory if learner_factory else SpeedupLearner
        self.learner = learner_cls(
            configs=configs,
            base_config=base_config,
            base_qos=initial_base_qos,
            alpha=alpha,
            phase_memory=phase_memory,
        )
        self.optimizer = LearningOptimizer(
            configs=configs, cost_rates=cost_rates
        )
        # Incremental view of the learner's operating points: patched
        # in place as estimates change instead of being rebuilt (with
        # its lower envelope) from fresh dicts every interval.
        self.learned_points = self.optimizer.learned_points(self.learner)
        # First occurrence wins, matching ``self.configs.index(...)``.
        self._cost_rate_of: Dict[VCoreConfig, float] = {}
        for config, rate in zip(self.configs, cost_rates):
            self._cost_rate_of.setdefault(config, rate)
        self._initial_epsilon = epsilon if explore else 0.0
        self._reopen_epsilon = min(0.10, self._initial_epsilon)
        self.exploration = ExplorationPolicy(
            self.learner,
            epsilon=self._initial_epsilon,
            epsilon_floor=0.01 if explore else 0.0,
            decay=0.97,
            rng=random.Random(seed),
            cost_rates={
                config: rate for config, rate in zip(self.configs, cost_rates)
            },
        )
        self._last_schedule: Optional[Schedule] = None
        self._applied_speedup = qos_goal / initial_base_qos
        # Signature-based phase detection state: the reference counter
        # signature of the current phase, the confirmation streak, and
        # the base-speed estimate recorded when the phase was entered.
        self._signature_ref: Optional[Tuple[float, ...]] = None
        self._signature_streak = 0
        self._phase_entry_base = initial_base_qos
        self.decisions: List[RuntimeDecision] = []

    @property
    def last_schedule(self) -> Optional[Schedule]:
        return self._last_schedule

    def _phase_changed(self, measurement: QoSMeasurement) -> bool:
        """Detect a phase change from the counter signature.

        The base-speed estimate random-walks slightly even inside a
        stable phase (it is identified only through the learned
        schedule), so using it alone both fires spuriously and misses
        phases that happen to share a base speed.  The counter
        signature — memory intensity and branch mispredict rate, read
        over the Runtime Interface Network — changes decisively at real
        phase boundaries and is configuration-independent, so it is the
        trigger; the Kalman level remains the bank-matching key.  Two
        consecutive out-of-band signatures confirm a change.  Without a
        signature (degraded monitoring), the Kalman drift detector is
        the fallback.
        """
        kalman_change = self.detector.observe()
        if not measurement.signature:
            return kalman_change is not None
        if self._signature_ref is None:
            self._signature_ref = measurement.signature
            return False
        moved = not SpeedupLearner._signatures_match(
            self._signature_ref, measurement.signature, tolerance=0.10
        )
        if moved:
            # Counter noise is ~2% against a 10% band (a 5σ event), so
            # a single out-of-band signature is already decisive — and
            # reacting immediately means the triggering interval's
            # observations are credited to the *new* phase's table.
            self._signature_ref = measurement.signature
            self._signature_streak = 0
            return True
        return False

    def _absorb_measurement(self, measurement: QoSMeasurement) -> bool:
        """Steps 1–2 and 6 of Algorithm 1 (estimation + learning)."""
        self.estimator.update(measurement.overall_qos, self._applied_speedup)
        # Physical floor: base speed cannot be below the larger of the
        # measured QoS and the goal, divided by the largest speedup any
        # virtual core could provide (the goal is achievable, so some
        # configuration delivers it); without this a run of optimistic
        # schedule estimates can walk the filter into a collapse it
        # cannot recover from (the estimate only enters the innovation
        # multiplied by s).
        floor = max(measurement.overall_qos, self.qos_goal) / 64.0
        if self.estimator.estimate < floor:
            self.estimator.reset(floor)
        # Sentinel: goal_scale is exactly 1.0 iff the QoS normalization
        # did not change this interval (the simulator computes it as a
        # ratio of identical values); any other value is a real rescale.
        if measurement.goal_scale > 0 and measurement.goal_scale != 1.0:  # lint: allow(float-eq)
            # Known change in the QoS normalization (e.g. request rate
            # moved): every configuration's margin scales by the same
            # measured factor.
            self.learner.rescale_on_phase_change(1.0 / measurement.goal_scale)
        changed = self._phase_changed(measurement)
        if changed and self._phase_entry_base > 0:
            recalled = self.learner.on_phase_change(
                self._phase_entry_base,
                self.estimator.estimate,
                signature=measurement.signature,
                anchor_qos=min(
                    max(measurement.overall_qos, 0.25 * self.qos_goal),
                    self.qos_goal,
                ),
            )
            self._phase_entry_base = self.estimator.estimate
            if not recalled:
                # A genuinely new phase: re-open exploration so the
                # learner maps its (possibly non-convex) landscape.
                self.exploration.epsilon = max(
                    self.exploration.epsilon, self._reopen_epsilon
                )
        self.learner.set_base_qos(self.estimator.estimate)
        for leg in measurement.legs:
            if leg.config is not None and leg.fraction > 0:
                self.learner.observe(leg.config, leg.qos)
        return changed

    def _build_schedule(
        self, target_qos: float, speedup_demand: float
    ) -> Tuple[Schedule, Optional[VCoreConfig]]:
        """Steps 4–5: the two-configuration schedule plus exploration.

        Eqn. 5 is solved exactly on the learned estimates; LP theory
        guarantees the optimum has at most two non-zero legs (the
        ``over``/``under`` structure of Eqn. 6).  The solve runs in raw
        QoS units — Eqn. 5 is homogeneous in s, so the schedule is the
        same as in speedup units, but the learned landscape stays
        decoupled from base-estimate transients.  When the demand
        exceeds every learned estimate the schedule clamps to the
        believed-fastest configuration (``saturated``).
        """
        if perf.FAST:
            # Fast path: the incremental LearnedPoints view (with its
            # cached envelope) replaces per-step dict materialization.
            # Identical floats flow through an identical solve.
            points = self.learned_points

            def solve(target: float) -> Tuple[float, Schedule]:
                return self.optimizer.optimal_cost_points(points, target)

            def fallback(target: float) -> Schedule:
                return self.optimizer.schedule_points(points, target)

            believed_max = points.max_qos()
        else:
            # Reference path: the seed's work profile — fresh estimate
            # dicts, point lists and hulls on every solve.
            estimates = self.learner.qos_estimates()

            def solve(target: float) -> Tuple[float, Schedule]:
                return self.optimizer.optimal_cost(estimates, target)

            def fallback(target: float) -> Schedule:
                return self.optimizer.schedule(estimates, target)

            believed_max = max(estimates.values(), default=0.0)
        try:
            _, schedule = solve(target_qos)
        except ValueError:
            schedule = fallback(target_qos)
        if schedule.saturated:
            # The demand exceeds every *believed* QoS.  Trusting the
            # estimates here is a trap: a pessimistically-wrong estimate
            # is never scheduled and therefore never corrected.  Some of
            # the time, split the quantum between the believed-fastest
            # configuration and the highest-potential (UCB) candidate —
            # this is how the learning escapes local optima (Section IV,
            # "prevents the system from getting trapped in local
            # optima").  Probing only probabilistically matters: if
            # every saturated interval probed, the probes themselves
            # would hold QoS down and keep the controller saturated — a
            # self-sustaining cycle.
            best_believed = believed_max
            # The bonus scale must reflect what success would look like
            # (the target), not the possibly-crushed estimates.
            scale = max(best_believed, target_qos)
            fastest = max(
                schedule.active_entries,
                key=lambda e: e.point.speedup,
                default=None,
            )
            candidate = self.learner.ucb_candidate(
                scale=scale,
                exclude=fastest.point.config if fastest else None,
            )
            # Probe only when the candidate's optimistic potential
            # exceeds the best *believed* QoS — i.e. the probe could
            # plausibly improve on what the runtime is already doing.
            # (Gating on the target instead would re-create the trap:
            # with a crushed table, nothing clears the target, so
            # nothing would ever be re-measured.)
            probe_now = (
                self.exploration.rng.random() < 0.3
                and self.learner.ucb_potential(candidate, scale=scale)
                > best_believed
            )
            if (
                probe_now
                and fastest is not None
                and candidate != fastest.point.config
            ):
                probe = ConfigPoint(
                    config=candidate,
                    speedup=self.learner.qos_estimate(candidate),
                    cost_rate=self._cost_rate_of[candidate],
                )
                schedule = Schedule(
                    entries=(
                        ScheduleEntry(probe, 0.5),
                        ScheduleEntry(fastest.point, 0.5),
                    ),
                    saturated=True,
                )
                return schedule, candidate
        explore_fraction = 0.15
        boosted = target_qos / (1.0 - explore_fraction)
        has_slack = believed_max >= boosted
        explored = (
            self.exploration.maybe_explore(speedup_demand) if has_slack else None
        )
        if explored is not None:
            # Dedicate a bounded slice of the quantum to the
            # exploration candidate.  The exploit remainder is re-solved
            # for a boosted target so QoS is met even if the candidate
            # delivers *nothing* — exploration must never be the cause
            # of a violation, only of (bounded) extra cost.  When no
            # configuration has that much slack (a tight phase), the
            # runtime does not explore at all.
            try:
                _, exploit = solve(boosted)
            except ValueError:
                exploit = fallback(boosted)
            point = ConfigPoint(
                config=explored,
                speedup=self.learner.qos_estimate(explored),
                cost_rate=self._cost_rate_of[explored],
            )
            entries = [ScheduleEntry(point, explore_fraction)] + [
                ScheduleEntry(e.point, e.fraction * (1.0 - explore_fraction))
                for e in exploit.entries
            ]
            schedule = Schedule(
                entries=tuple(entries), saturated=exploit.saturated
            )
        return schedule, explored

    def step(self, measurement: Optional[QoSMeasurement] = None) -> RuntimeDecision:
        """One iteration of Algorithm 1; returns the schedule to apply."""
        phase_change = False
        if measurement is not None:
            phase_change = self._absorb_measurement(measurement)
        base = self.estimator.estimate
        if phase_change:
            # The integrator state corrected the *previous* phase's
            # model bias; carrying it into a new phase only delays
            # convergence.  Restart at the goal (the deadbeat response
            # to the phase then happens through e(t) directly).
            self.controller.reset(self.qos_goal)
        # Anti-windup: targeting more QoS than ~the believed-fastest
        # configuration can deliver only winds the integrator up.  The
        # clamp never drops below the goal itself: if the whole table
        # is (wrongly) pessimistic, the unmet goal is exactly the
        # pressure that keeps the saturation probes searching.
        # Under FAST the refreshed point view already holds its keys in
        # sorted order; the reference rescans every estimate.
        max_qhat = (
            self.learned_points.max_qos()
            if perf.FAST
            else max(self.learner.qos_estimates().values())
        )
        max_useful = max(1.05 * max_qhat, self.qos_goal)
        last = self.decisions[-1] if self.decisions else None
        if phase_change:
            # The measurement straddled a phase boundary; integrating it
            # would poison the freshly-reset integrator.  Start the new
            # phase at the goal and let its first clean measurement
            # drive the controller.
            target_qos = self.controller.speedup
        elif last is not None and last.explored is not None:
            # The previous interval's QoS was intentionally distorted
            # (an exploration leg plus a boosted exploit remainder);
            # integrating it would swing the demand.  Hold the target
            # and let the next clean measurement drive the controller.
            target_qos = self.controller.speedup
        else:
            target_qos = self.controller.update(
                measurement.overall_qos
                if measurement is not None
                else self.qos_goal,
                base_estimate=1.0,
                max_useful_speedup=max_useful,
            )
        speedup_demand = target_qos / base
        schedule, explored = self._build_schedule(target_qos, speedup_demand)
        self._last_schedule = schedule
        # What the runtime believes it applied — used as s(t-1) in the
        # next Kalman update.  Schedule entries carry raw QoS estimates,
        # so dividing by the base estimate recovers the speedup.
        self._applied_speedup = max(schedule.average_speedup / base, 1e-9)
        decision = RuntimeDecision(
            schedule=schedule,
            speedup_demand=speedup_demand,
            base_estimate=base,
            explored=explored,
            phase_change=phase_change,
        )
        self.decisions.append(decision)
        return decision

    def instruction_count_estimate(self, num_slices: int = 1) -> int:
        """Model of Algorithm 1's per-iteration instruction count.

        Used by the runtime-overhead microbenchmark (Section VI-A): the
        loop body is a fixed sequence of scalar arithmetic (Kalman and
        controller updates), two argmin/argmax scans bounded by the
        bracketing candidates the over/under rule actually inspects,
        and bookkeeping stores.  The count is not application-dependent.
        """
        if num_slices <= 0:
            raise ValueError(f"num_slices must be positive, got {num_slices}")
        kalman_ops = 60
        controller_ops = 25
        optimizer_ops = 30 + 6 * min(len(self.configs), 64)
        learning_ops = 40
        bookkeeping = 80
        return (
            kalman_ops + controller_ops + optimizer_ops + learning_ops + bookkeeping
        )
