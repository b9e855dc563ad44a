"""Run results carry their per-interval trace as columns.

A :class:`~repro.experiments.harness.RunResult` must survive a pickle
round trip unchanged (sweeps ship results between processes), its
aggregates must be the very floats the record view gives — read from
the columns, without decoding a single record — and its pickle must
stay a small fraction of the object graph it replaces.
"""

import pickle

import pytest

from repro import perf
from repro.experiments import harness
from repro.experiments.scenarios import run_app_with_allocator

#: Bytes of a pickled 1 000-interval x264/CASH result when results
#: carried a list of :class:`IntervalRecord` objects.
RECORD_LIST_PICKLE_BYTES = 237_653


@pytest.fixture(scope="module")
def x264_cash():
    return run_app_with_allocator("x264", "cash", intervals=1000, seed=0)


@pytest.fixture(scope="module")
def small_runs():
    # Throughput and latency simulators; idle legs (race), saturated
    # and exploring schedules (CASH), the oracle's envelope legs.
    return [
        run_app_with_allocator(app, kind, intervals=80, seed=2)
        for app, kind in (
            ("x264", "race"),
            ("x264", "optimal"),
            ("mcf", "cash"),
            ("apache", "cash"),
            ("apache", "race"),
            ("apache", "convex"),
        )
    ]


def record_aggregates(run):
    records = run.records
    return (
        len(records),
        sum(r.cost_rate for r in records) / len(records),
        sum(r.violated for r in records) / len(records),
        [r.cost_rate for r in records],
        [
            (r.active_qos if r.active_qos > 0 else r.true_qos) / run.qos_goal
            for r in records
        ],
        [r.start_cycle / 1e6 for r in records],
    )


class TestRoundTrip:
    def test_result_equals_its_pickle(self, x264_cash, small_runs):
        for run in [x264_cash, *small_runs]:
            clone = pickle.loads(pickle.dumps(run, protocol=pickle.HIGHEST_PROTOCOL))
            assert clone == run
            assert clone.records == run.records

    def test_records_decode_to_what_was_appended(self):
        schedules = [
            run.records[0].schedule
            for run in (
                run_app_with_allocator("x264", kind, intervals=5, seed=0)
                for kind in ("race", "optimal", "cash")
            )
        ]
        trace = harness.IntervalTrace()
        expected = []
        for index, schedule in enumerate(schedules):
            record = harness.IntervalRecord(
                index=index,
                start_cycle=2.5e5 * index,
                phase_name=f"p{index % 2}",
                schedule=schedule,
                true_qos=0.5 + index,
                measured_qos=-0.0,
                active_qos=0.25,
                cost_rate=1.0 / 3.0,
                violated=bool(index % 2),
                reconfig_cycles=7 * index,
                cycles=2.5e5,
                request_rate=float(index),
            )
            trace.append(
                record.index,
                record.start_cycle,
                record.phase_name,
                record.schedule,
                record.true_qos,
                record.measured_qos,
                record.active_qos,
                record.cost_rate,
                record.violated,
                record.reconfig_cycles,
                cycles=record.cycles,
                request_rate=record.request_rate,
            )
            expected.append(record)
        assert trace.records() == expected
        assert pickle.loads(pickle.dumps(trace)).records() == expected

    def test_fast_and_reference_results_are_equal(self):
        with perf.fast_paths(True):
            fast = run_app_with_allocator("apache", "race", intervals=40, seed=1)
        with perf.fast_paths(False):
            reference = run_app_with_allocator("apache", "race", intervals=40, seed=1)
        assert fast == reference


class TestAggregates:
    def test_aggregates_come_from_columns(self, x264_cash, small_runs, monkeypatch):
        runs = [x264_cash, *small_runs]
        expected = [record_aggregates(run) for run in runs]

        def no_decoding(self):
            raise AssertionError("an aggregate decoded the records")

        monkeypatch.setattr(harness.IntervalTrace, "records", no_decoding)
        for run, (count, mean, violation, costs, perf_series, axis) in zip(
            runs, expected
        ):
            assert run.num_intervals == count
            assert run.mean_cost_rate == mean
            assert run.cost_dollars == mean
            assert run.violation_rate == violation
            assert run.violation_percent == 100.0 * violation
            assert run.cost_rate_series() == costs
            assert run.normalized_performance_series() == perf_series
            assert run.time_axis_mcycles() == axis


class TestPickleSize:
    def test_x264_cash_pickle_is_a_quarter_of_the_record_list(self, x264_cash):
        size = len(pickle.dumps(x264_cash, protocol=pickle.HIGHEST_PROTOCOL))
        assert size <= 0.25 * RECORD_LIST_PICKLE_BYTES
