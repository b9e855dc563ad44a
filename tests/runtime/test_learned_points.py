"""Incremental learned-point view vs from-scratch reconstruction.

``LearnedPoints`` patches only the entries whose Q-learning estimates
moved and caches the lower hull against the learner's version counter.
These tests drive a learner through arbitrary interleaved update
sequences (observations, phase changes, global rescales, bank recalls)
and after every step compare the incremental view — points, hull and
envelope — with a from-scratch rebuild through the seed code path.
"""

import random
from array import array
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from repro import native, perf
from repro.arch.cost import DEFAULT_COST_MODEL
from repro.arch.vcore import VCoreConfig
from repro.runtime.optimizer import (
    ConfigPoint,
    IDLE_POINT,
    LearningOptimizer,
    _lower_hull,
    _lower_hull_presorted,
    compute_envelope,
    lower_envelope_cost,
)
from repro.runtime.qlearning import SpeedupLearner

CONFIGS = [
    VCoreConfig(1, 64),
    VCoreConfig(1, 512),
    VCoreConfig(2, 128),
    VCoreConfig(4, 512),
    VCoreConfig(4, 4096),
    VCoreConfig(8, 1024),
    VCoreConfig(8, 4096),
]
BASE = CONFIGS[0]
COST_RATES = [c.cost_rate(DEFAULT_COST_MODEL) for c in CONFIGS]


def make_view():
    learner = SpeedupLearner(configs=CONFIGS, base_config=BASE, base_qos=1.0)
    optimizer = LearningOptimizer(configs=CONFIGS, cost_rates=COST_RATES)
    return learner, optimizer, optimizer.learned_points(learner)


def scratch_points(learner):
    """The seed construction: fresh dict, fresh ConfigPoint list."""
    estimates = learner.qos_estimates()
    return [
        ConfigPoint(config=c, speedup=estimates[c], cost_rate=rate)
        for c, rate in zip(CONFIGS, COST_RATES)
    ]


def assert_view_matches_scratch(view, learner):
    fresh = scratch_points(learner)
    assert view.points() == fresh
    hull, best_at = view.envelope(IDLE_POINT)
    fresh_hull, fresh_best = compute_envelope(fresh, IDLE_POINT)
    # The cached envelope is published frozen (tuple hull, read-only
    # best_at view); contents must still match the scratch build.
    assert list(hull) == fresh_hull
    # The incremental view resolves owners for hull vertices only —
    # exactly the keys the two-config LP ever looks up.
    for vertex in hull:
        assert best_at[vertex] == fresh_best[vertex]
    # And through the public hull entry point used by the LP solver.
    assert list(hull) == _lower_hull(
        [(p.speedup, p.cost_rate) for p in fresh] + [
            (IDLE_POINT.speedup, IDLE_POINT.cost_rate)
        ]
    )


# One symbolic action per step; hypothesis explores interleavings.
ACTIONS = st.lists(
    st.tuples(
        st.sampled_from(["observe", "rescale", "phase", "recall"]),
        st.integers(0, len(CONFIGS) - 1),
        st.floats(0.2, 6.0),
    ),
    min_size=1,
    max_size=40,
)


def apply_action(learner, action):
    kind, config_index, value = action
    if kind == "observe":
        learner.observe(CONFIGS[config_index], value)
    elif kind == "rescale":
        learner.rescale_on_phase_change(max(value, 0.25))
    elif kind == "phase":
        learner.on_phase_change(1.0, value, signature=(value,))
    else:  # revisit an earlier level: may recall a bank entry
        learner.on_phase_change(value, 1.0, signature=(1.0,))


class TestIncrementalEnvelope:
    @given(actions=ACTIONS)
    @settings(max_examples=50, deadline=None)
    def test_matches_scratch_after_arbitrary_updates(self, actions):
        learner, _, view = make_view()
        for action in actions:
            apply_action(learner, action)
            assert_view_matches_scratch(view, learner)

    @given(actions=ACTIONS)
    @settings(max_examples=25, deadline=None)
    def test_matches_scratch_when_read_only_at_end(self, actions):
        # Reads between updates change which incremental path runs
        # (change-log deltas vs full rebuild); reading only at the end
        # must give the same answer.
        learner, _, view = make_view()
        for action in actions:
            apply_action(learner, action)
        assert_view_matches_scratch(view, learner)

    def test_change_log_overflow_falls_back_to_full_rebuild(self):
        learner, _, view = make_view()
        view.points()  # pin a version, then overflow the bounded log
        rng = random.Random(7)
        for _ in range(SpeedupLearner.CHANGE_LOG_LIMIT + 50):
            learner.observe(rng.choice(CONFIGS), rng.uniform(0.2, 6.0))
        assert learner.changes_since(0) is None
        assert_view_matches_scratch(view, learner)

    def test_solver_agrees_with_seed_path(self):
        learner, optimizer, view = make_view()
        rng = random.Random(3)
        for _ in range(60):
            learner.observe(rng.choice(CONFIGS), rng.uniform(0.2, 6.0))
            target = rng.uniform(0.1, 3.0)
            estimates = learner.qos_estimates()
            try:
                expected = optimizer.optimal_cost(estimates, target)
            except ValueError:
                with pytest.raises(ValueError):
                    optimizer.optimal_cost_points(view, target)
                continue
            assert optimizer.optimal_cost_points(view, target) == expected
            assert optimizer.schedule_points(view, target) == (
                optimizer.schedule(estimates, target)
            )

    def test_reference_mode_rebuilds_every_read(self):
        learner, _, view = make_view()
        with perf.fast_paths(False):
            first = view.points()
            learner.observe(CONFIGS[2], 4.2)
            second = view.points()
        assert first is not second
        assert second == scratch_points(learner)

    def test_envelope_cache_reuse_without_updates(self):
        learner, _, view = make_view()
        learner.observe(CONFIGS[3], 2.5)
        assert view.envelope(IDLE_POINT) is view.envelope(IDLE_POINT)
        learner.observe(CONFIGS[3], 2.8)
        assert_view_matches_scratch(view, learner)


# Integer-grid keys make duplicate keys, collinear runs and ties at
# both ends of the sorted list common; the zero-cost configuration
# observed at zero QoS puts a point on the idle key itself.
GRID_CONFIGS = [VCoreConfig(slices, 64 * banks) for slices in (1, 2, 4) for banks in (1, 2, 4, 8)]
GRID_COSTS = [0.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 4.0, 4.0, 5.0, 6.0, 6.0]
OTHER_IDLE = ConfigPoint(config=None, speedup=0.0, cost_rate=0.5)

GRID_ACTIONS = st.lists(
    st.tuples(
        st.sampled_from(["observe", "observe", "observe", "rescale", "phase", "recall"]),
        st.integers(0, len(GRID_CONFIGS) - 1),
        st.integers(0, 6),
        st.booleans(),
    ),
    min_size=1,
    max_size=60,
)


def apply_grid_action(learner, action):
    kind, config_index, value, _ = action
    if kind == "observe":
        learner.observe(GRID_CONFIGS[config_index], float(value))
    elif kind == "rescale":
        learner.rescale_on_phase_change(2.0 if value % 2 else 0.5)
    elif kind == "phase":
        learner.on_phase_change(1.0, 1.0 + value, signature=(float(value),))
    else:
        learner.on_phase_change(1.0 + value, 1.0, signature=(1.0,))


def assert_envelope_matches_scalar(view, idle):
    hull, best_at = view.envelope(idle)
    fresh_hull, fresh_best = compute_envelope(view.points(), idle)
    assert hull == tuple(fresh_hull)
    assert dict(best_at) == {vertex: fresh_best[vertex] for vertex in hull}


class TestEnvelopeOnGrid:
    """The incrementally kept envelope against a scratch build, on
    keys full of duplicates, collinear runs and ties."""

    @given(actions=GRID_ACTIONS)
    @settings(max_examples=150, deadline=None)
    def test_envelope_matches_scratch(self, actions):
        learner = SpeedupLearner(
            configs=GRID_CONFIGS, base_config=GRID_CONFIGS[0], base_qos=1.0
        )
        view = LearningOptimizer(
            configs=GRID_CONFIGS, cost_rates=GRID_COSTS
        ).learned_points(learner)
        for action in actions:
            apply_grid_action(learner, action)
            # Mostly the runtime's idle; now and then another one.
            idle = OTHER_IDLE if action[3] and action[2] == 3 else IDLE_POINT
            assert_envelope_matches_scalar(view, idle)

    def test_idle_present_and_absent(self):
        learner = SpeedupLearner(
            configs=GRID_CONFIGS, base_config=GRID_CONFIGS[0], base_qos=1.0
        )
        view = LearningOptimizer(
            configs=GRID_CONFIGS, cost_rates=GRID_COSTS
        ).learned_points(learner)
        assert_envelope_matches_scalar(view, IDLE_POINT)
        learner.observe(GRID_CONFIGS[0], 0.0)  # a point on the idle key
        view.points()
        assert (0.0, 0.0) in view._key_positions
        hull, best_at = view.envelope(IDLE_POINT)
        assert best_at[(0.0, 0.0)].config == GRID_CONFIGS[0]
        assert_envelope_matches_scalar(view, IDLE_POINT)
        learner.observe(GRID_CONFIGS[0], 3.0)  # and off it again
        view.points()
        assert (0.0, 0.0) not in view._key_positions
        assert_envelope_matches_scalar(view, IDLE_POINT)


def compiled_core():
    core = native.batch_core()
    if core is None:
        pytest.skip(f"native core unavailable: {native.batch_core_error()}")
    return core


COORDINATES = st.one_of(
    st.integers(0, 6).map(float),
    st.floats(0.0, 8.0, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1e-308, 1.0 / 3.0, 2.0 / 3.0, 1e300]),
)


class TestCompiledChain:
    """Under FAST the envelope's chain runs in the compiled kernel; it
    keeps exactly the keys ``_lower_hull_presorted`` keeps."""

    @given(points=st.lists(st.tuples(COORDINATES, COORDINATES), max_size=70))
    @settings(max_examples=300, deadline=None)
    def test_compiled_chain_matches_python(self, points):
        core = compiled_core()
        keys = sorted(set(points))
        flat = array("d", chain.from_iterable(keys))
        assert [keys[at] for at in core.lower_hull(flat)] == _lower_hull_presorted(keys)

    @given(actions=GRID_ACTIONS)
    @settings(max_examples=60, deadline=None)
    def test_envelope_identical_with_and_without_the_kernel(self, actions):
        compiled_core()

        def envelopes(flag):
            native.set_native_enabled(flag)
            try:
                learner = SpeedupLearner(
                    configs=GRID_CONFIGS, base_config=GRID_CONFIGS[0], base_qos=1.0
                )
                view = LearningOptimizer(
                    configs=GRID_CONFIGS, cost_rates=GRID_COSTS
                ).learned_points(learner)
                seen = []
                for action in actions:
                    apply_grid_action(learner, action)
                    for idle in (IDLE_POINT, OTHER_IDLE):
                        hull, best_at = view.envelope(idle)
                        seen.append((hull, dict(best_at)))
                return seen
            finally:
                native.set_native_enabled(True)

        assert envelopes(True) == envelopes(False)


class TestLearnerChangeTracking:
    def test_version_advances_on_estimate_change(self):
        learner = SpeedupLearner(
            configs=CONFIGS, base_config=BASE, base_qos=1.0
        )
        before = learner.estimates_version
        learner.observe(CONFIGS[1], 3.0)
        assert learner.estimates_version == before + 1
        assert learner.changes_since(before) == [CONFIGS[1]]

    def test_noop_observation_does_not_advance(self):
        learner = SpeedupLearner(
            configs=CONFIGS, base_config=BASE, base_qos=1.0
        )
        learner.observe(CONFIGS[1], 3.0)
        version = learner.estimates_version
        learner.observe(CONFIGS[1], 3.0)  # estimate already exactly 3.0
        assert learner.estimates_version == version
        assert learner.changes_since(version) == []

    def test_phase_change_signals_full_rebuild(self):
        learner = SpeedupLearner(
            configs=CONFIGS, base_config=BASE, base_qos=1.0
        )
        version = learner.estimates_version
        learner.on_phase_change(1.0, 2.0, signature=(2.0,))
        assert learner.changes_since(version) is None

    def test_max_qos_estimate_tracks_dict_max(self):
        learner = SpeedupLearner(
            configs=CONFIGS, base_config=BASE, base_qos=1.0
        )
        rng = random.Random(11)
        for _ in range(30):
            learner.observe(rng.choice(CONFIGS), rng.uniform(0.2, 6.0))
            assert learner.max_qos_estimate() == pytest.approx(
                max(learner.qos_estimates().values()), abs=0.0
            )
