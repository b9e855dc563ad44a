"""Race-to-idle (Sections II-B, VI-C)."""

import pytest

from repro import perf
from repro.arch.cost import DEFAULT_COST_MODEL
from repro.arch.vcore import DEFAULT_CONFIG_SPACE, VCoreConfig
from repro.baselines.heterogeneous import BIG_CONFIG, LITTLE_CONFIG
from repro.baselines.oracle import phase_points
from repro.runtime.optimizer import ConfigPoint
from repro.baselines.race import RaceToIdleAllocator, worst_case_config
from repro.experiments.scenarios import make_latency_simulator
from repro.sim.optables import OperatingPointTable
from repro.sim.perfmodel import DEFAULT_PERF_MODEL
from repro.workloads.apps import get_app, make_x264


class TestWorstCaseConfig:
    def test_meets_goal_in_every_phase(self):
        app = make_x264()
        goal = 0.7
        config = worst_case_config(app, goal, DEFAULT_PERF_MODEL)
        for phase in app.phases:
            assert DEFAULT_PERF_MODEL.ipc(phase, config) >= goal

    def test_is_cheapest_feasible(self):
        app = make_x264()
        goal = 0.7
        config = worst_case_config(app, goal, DEFAULT_PERF_MODEL)
        for candidate in DEFAULT_CONFIG_SPACE:
            if all(
                DEFAULT_PERF_MODEL.ipc(phase, candidate) >= goal
                for phase in app.phases
            ):
                assert config.cost_rate(DEFAULT_COST_MODEL) <= (
                    candidate.cost_rate(DEFAULT_COST_MODEL) + 1e-12
                )

    def test_infeasible_goal_falls_back_to_best_worst_phase(self):
        app = make_x264()
        config = worst_case_config(app, 50.0, DEFAULT_PERF_MODEL)
        assert config in DEFAULT_CONFIG_SPACE

    def test_restricted_candidates(self):
        app = make_x264()
        config = worst_case_config(
            app, 0.7, DEFAULT_PERF_MODEL,
            candidates=[LITTLE_CONFIG, BIG_CONFIG],
        )
        assert config in (LITTLE_CONFIG, BIG_CONFIG)

    def test_rejects_bad_goal(self):
        with pytest.raises(ValueError):
            worst_case_config(make_x264(), 0.0, DEFAULT_PERF_MODEL)


class TestRaceToIdleAllocator:
    def _points(self, phase_index=0):
        return phase_points(make_x264().phases[phase_index], DEFAULT_PERF_MODEL)

    def test_races_then_idles(self):
        app = make_x264()
        goal = 0.7
        config = worst_case_config(app, goal, DEFAULT_PERF_MODEL)
        allocator = RaceToIdleAllocator(config=config, qos_goal=goal)
        schedule = allocator.decide(None, self._points())
        assert schedule.entries[0].point.config == config
        assert schedule.entries[-1].point.is_idle
        # Work delivered equals the goal exactly.
        assert schedule.average_speedup == pytest.approx(goal)

    def test_busy_fraction_is_goal_over_speed(self):
        app = make_x264()
        goal = 0.7
        config = worst_case_config(app, goal, DEFAULT_PERF_MODEL)
        allocator = RaceToIdleAllocator(config=config, qos_goal=goal)
        points = self._points()
        true_speed = next(p.speedup for p in points if p.config == config)
        schedule = allocator.decide(None, points)
        assert schedule.entries[0].fraction == pytest.approx(goal / true_speed)

    def test_cannot_idle_holds_config_full_time(self):
        """Servers can't race ahead of unarrived requests (Fig. 9)."""
        config = worst_case_config(make_x264(), 0.7, DEFAULT_PERF_MODEL)
        allocator = RaceToIdleAllocator(
            config=config, qos_goal=0.7, can_idle=False
        )
        schedule = allocator.decide(None, self._points())
        assert len(schedule.entries) == 1
        assert schedule.entries[0].fraction == 1.0

    def test_slow_phase_runs_full_interval(self):
        """If the config barely meets (or misses) the goal this phase,
        there is nothing to idle."""
        allocator = RaceToIdleAllocator(
            config=VCoreConfig(1, 64), qos_goal=10.0
        )
        schedule = allocator.decide(None, self._points())
        assert schedule.entries[0].fraction == 1.0

    def test_missing_config_rejected(self):
        allocator = RaceToIdleAllocator(
            config=VCoreConfig(8, 8192), qos_goal=0.5
        )
        points = [p for p in self._points() if p.config != VCoreConfig(8, 8192)]
        with pytest.raises(ValueError):
            allocator.decide(None, points)

    def test_rejects_bad_goal(self):
        with pytest.raises(ValueError):
            RaceToIdleAllocator(config=VCoreConfig(1, 64), qos_goal=0.0)


class TestPointLookup:
    """Under FAST race-to-idle looks its point up in O(1); the lookup
    finds the point the front-to-back scan (the reference) finds."""

    @staticmethod
    def _sources():
        sim = make_latency_simulator(get_app("apache"))
        phase = sim.app.phases[0]
        with perf.fast_paths(True):
            yield phase_points(make_x264().phases[2], DEFAULT_PERF_MODEL)
            yield sim.true_points(phase, 640.0)

    @pytest.mark.parametrize("config", [VCoreConfig(1, 64), VCoreConfig(4, 512), VCoreConfig(8, 4096)])
    def test_lookup_matches_scan(self, config):
        allocator = RaceToIdleAllocator(config=config, qos_goal=0.5)
        for points in self._sources():
            with perf.fast_paths(True):
                fast = allocator.decide(None, points)
            with perf.fast_paths(False):
                reference = allocator.decide(None, points)
            assert fast == reference

    def test_first_point_wins(self):
        config = VCoreConfig(2, 128)
        first = ConfigPoint(config=config, speedup=1.0, cost_rate=0.5)
        second = ConfigPoint(config=config, speedup=2.0, cost_rate=0.5)
        table = OperatingPointTable((first, second)).seal()
        assert table.point_of(config) is first
        assert table.point_of(VCoreConfig(1, 64)) is None

    def test_missing_config_rejected_in_both_modes(self):
        allocator = RaceToIdleAllocator(config=VCoreConfig(8, 8192), qos_goal=0.5)
        table = OperatingPointTable(
            tuple(p for p in self._points() if p.config != VCoreConfig(8, 8192))
        )
        for fast in (True, False):
            with perf.fast_paths(fast):
                with pytest.raises(ValueError, match="missing from true points"):
                    allocator.decide(None, table)

    @staticmethod
    def _points():
        return phase_points(make_x264().phases[0], DEFAULT_PERF_MODEL)


class TestLatencyGroundTruth:
    """The latency simulator builds its true points only where read,
    and each one is the scalar construction's float."""

    @pytest.mark.parametrize("rate", [100.0, 800.0, 1350.0])
    def test_points_match_scalar_construction(self, rate):
        sim = make_latency_simulator(get_app("apache"))
        for phase in sim.app.phases:
            with perf.fast_paths(True):
                view = sim.true_points(phase, rate)
                lazily = [view.point_of(p.config) for p in view]
                listed = list(view)
            with perf.fast_paths(False):
                reference = sim.true_points(phase, rate)
            assert len(view) == len(reference)
            assert listed == reference
            assert lazily == reference
            assert view[3] == reference[3]
            assert view.point_of(VCoreConfig(3, 192)) is None
