"""The fast engine is an optimization, never a model change.

Every cell here is run twice — fast paths on (vectorized kernel,
memoized tables, incremental envelopes) and off (the seed's scalar
reference paths) — and must produce *identical* results, record for
record.  Likewise the sweep executor: job count must be invisible in
the outputs, sanitized or not.
"""

import pytest

from repro import perf
from repro.analysis import sanitize
from repro.experiments.scenarios import (
    compare_allocators,
    run_app_with_allocator,
)
from repro.experiments.stats import (
    CellSpec,
    run_across_seeds,
    run_cells,
    seed_stability_report,
)
from repro.sim.optables import cache_clear, cache_info

# One throughput app, one latency app, one phase-heavy app; all four
# allocator kinds are exercised across the cells.
CELLS = (
    ("x264", "cash"),
    ("x264", "optimal"),
    ("x264", "race"),
    ("x264", "convex"),
    ("apache", "cash"),
    ("mcf", "cash"),
)


@pytest.fixture(autouse=True)
def restore_fast_paths():
    yield
    perf.set_fast_paths(True)


class TestFastVsReference:
    @pytest.mark.parametrize("app_name,kind", CELLS)
    def test_cell_outputs_identical(self, app_name, kind):
        with perf.fast_paths(True):
            fast = run_app_with_allocator(app_name, kind, intervals=60, seed=0)
        with perf.fast_paths(False):
            reference = run_app_with_allocator(
                app_name, kind, intervals=60, seed=0
            )
        assert fast.mean_cost_rate == reference.mean_cost_rate
        assert fast.cost_dollars == reference.cost_dollars
        assert fast.violation_percent == reference.violation_percent
        assert fast.records == reference.records

    def test_nondefault_seed_identical(self):
        with perf.fast_paths(True):
            fast = run_app_with_allocator("x264", "cash", intervals=60, seed=3)
        with perf.fast_paths(False):
            reference = run_app_with_allocator(
                "x264", "cash", intervals=60, seed=3
            )
        assert fast.records == reference.records


class TestParallelVsSerial:
    SPECS = tuple(
        CellSpec(app_name=app, kind=kind, intervals=40, seed=seed)
        for app, kind in (("x264", "cash"), ("hmmer", "optimal"))
        for seed in (0, 1)
    )

    def test_run_cells_order_and_results(self):
        serial = run_cells(self.SPECS, jobs=1)
        parallel = run_cells(self.SPECS, jobs=2)
        assert len(serial) == len(self.SPECS)
        for left, right in zip(serial, parallel):
            assert left.app_name == right.app_name
            assert left.mean_cost_rate == right.mean_cost_rate
            assert left.violation_percent == right.violation_percent
            assert left.records == right.records

    def test_run_across_seeds_identical(self):
        serial = run_across_seeds(
            "x264", "cash", seeds=(0, 1), intervals=40, jobs=1
        )
        parallel = run_across_seeds(
            "x264", "cash", seeds=(0, 1), intervals=40, jobs=2
        )
        assert serial == parallel

    def test_seed_stability_report_identical(self):
        serial = seed_stability_report(
            ["x264"], seeds=(0, 1), intervals=40, jobs=1
        )
        parallel = seed_stability_report(
            ["x264"], seeds=(0, 1), intervals=40, jobs=2
        )
        assert serial == parallel

    def test_compare_allocators_identical(self):
        serial = compare_allocators(
            app_names=["x264"], intervals=40, jobs=1
        )
        parallel = compare_allocators(
            app_names=["x264"], intervals=40, jobs=2
        )
        assert serial.keys() == parallel.keys()
        for label in serial:
            for app_name in serial[label]:
                left = serial[label][app_name]
                right = parallel[label][app_name]
                assert left.mean_cost_rate == right.mean_cost_rate
                assert left.records == right.records

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            run_cells(self.SPECS, jobs=0)


class TestSweepVsReference:
    """A FAST sweep at any job count reproduces the serial scalar
    reference record for record; with fast paths off the table cache
    is never consulted."""

    SPECS = tuple(
        CellSpec(app_name=app, kind=kind, intervals=30, seed=seed)
        for app, kind, seed in (
            ("x264", "cash", 0),
            ("x264", "optimal", 1),
            ("apache", "cash", 0),
        )
    )

    @pytest.fixture(scope="class")
    def reference(self):
        with perf.fast_paths(False):
            return run_cells(self.SPECS, jobs=1)

    @staticmethod
    def assert_identical(results, reference):
        assert len(results) == len(reference)
        for left, right in zip(results, reference):
            assert left.app_name == right.app_name
            assert left.mean_cost_rate == right.mean_cost_rate
            assert left.cost_dollars == right.cost_dollars
            assert left.violation_percent == right.violation_percent
            assert left.records == right.records

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_fast_sweep_matches(self, jobs, reference):
        cache_clear()
        with perf.fast_paths(True):
            self.assert_identical(run_cells(self.SPECS, jobs=jobs), reference)

    def test_sanitized_sweep_matches(self, reference):
        cache_clear()
        with perf.fast_paths(True), sanitize.sanitized(True):
            self.assert_identical(run_cells(self.SPECS, jobs=4), reference)

    def test_fast_off_leaves_cache_empty(self, reference):
        cache_clear()
        with perf.fast_paths(False):
            self.assert_identical(run_cells(self.SPECS, jobs=1), reference)
        assert cache_info()["size"] == 0
