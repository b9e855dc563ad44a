"""Multi-seed statistics and the sweep executor."""

import os

import pytest

from repro.experiments.stats import CellSpec, Summary, run_across_seeds, run_cells


class TestSummary:
    def test_mean_and_std(self):
        summary = Summary(values=(1.0, 2.0, 3.0))
        assert summary.mean == pytest.approx(2.0)
        assert summary.std == pytest.approx(1.0)
        assert summary.min == 1.0 and summary.max == 3.0

    def test_single_value_has_zero_std(self):
        assert Summary(values=(5.0,)).std == 0.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Summary(values=())

    def test_str(self):
        assert "±" in str(Summary(values=(1.0, 2.0)))


class TestRunAcrossSeeds:
    def test_collects_all_seeds(self):
        result = run_across_seeds("hmmer", "optimal", seeds=(0, 1), intervals=40)
        assert result.seeds == (0, 1)
        assert len(result.cost.values) == 2

    def test_oracle_is_seed_stable(self):
        """The oracle's decisions don't depend on measurement noise, so
        costs across seeds differ only through noise in execution —
        which the oracle's true-point planning ignores entirely."""
        result = run_across_seeds(
            "hmmer", "optimal", seeds=(0, 1, 2), intervals=60
        )
        assert result.cost.std / result.cost.mean < 0.02

    def test_cash_seed_spread_is_bounded(self):
        result = run_across_seeds("bzip", "cash", seeds=(0, 1), intervals=300)
        assert result.cost.std / result.cost.mean < 0.30

    def test_rejects_empty_seeds(self):
        with pytest.raises(ValueError):
            run_across_seeds("hmmer", "optimal", seeds=())


class TestSummaryMedian:
    def test_odd_count(self):
        assert Summary(values=(3.0, 1.0, 2.0)).median == 2.0

    def test_even_count_averages_middle_two(self):
        assert Summary(values=(4.0, 1.0, 3.0, 2.0)).median == 2.5

    def test_single_value(self):
        assert Summary(values=(7.0,)).median == 7.0

    def test_robust_to_outlier_unlike_mean(self):
        summary = Summary(values=(1.0, 1.0, 1.0, 100.0))
        assert summary.median == 1.0
        assert summary.mean > 20.0


class TestSummaryCoercion:
    def test_accepts_list_and_freezes_to_tuple(self):
        summary = Summary(values=[1.0, 2.0])
        assert summary.values == (1.0, 2.0)
        assert isinstance(summary.values, tuple)

    def test_accepts_generator(self):
        summary = Summary(values=(v for v in (1.0, 2.0, 3.0)))
        assert summary.mean == 2.0

    def test_hashable_after_coercion(self):
        assert hash(Summary(values=[1.0, 2.0])) == hash(Summary(values=(1.0, 2.0)))


class TestRunCellsSharesNothing:
    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="no /dev/shm on this host"
    )
    def test_parallel_sweep_leaves_dev_shm_unchanged(self):
        # Pool workers keep private table caches: a sweep must not
        # create (or leave behind) any shared-memory segment.
        specs = [
            CellSpec(app_name=app, kind="cash", intervals=20, seed=seed)
            for app in ("x264", "apache")
            for seed in (0, 1)
        ]
        before = sorted(os.listdir("/dev/shm"))
        results = run_cells(specs, jobs=2)
        assert len(results) == len(specs)
        assert sorted(os.listdir("/dev/shm")) == before
