"""Export figure/table data as tab-separated files.

Each function regenerates one paper artefact and writes the plottable
series to a ``.tsv`` under an output directory — the file a plotting
script (or a spreadsheet) would consume to redraw the paper's charts.
Used by the ``python -m repro export`` CLI command.
"""

from __future__ import annotations

import os
from typing import Dict, List, Mapping, Optional, Sequence

from repro.arch.vcore import DEFAULT_CONFIG_SPACE
from repro.experiments.harness import RunResult
from repro.experiments.scenarios import (
    apache_timeseries,
    compare_allocators,
    compare_architectures,
    geometric_mean,
    x264_timeseries,
)
from repro.sim.perfmodel import DEFAULT_PERF_MODEL
from repro.workloads.apps import make_x264


def _write_rows(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> str:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as handle:
        handle.write("\t".join(str(h) for h in header) + "\n")
        for row in rows:
            handle.write("\t".join(str(value) for value in row) + "\n")
    return path


def export_fig1(outdir: str) -> List[str]:
    """Per-phase IPC grids for x264 (one file per phase + a summary)."""
    app = make_x264()
    space = DEFAULT_CONFIG_SPACE
    paths = []
    summary_rows = []
    for index, phase in enumerate(app.phases, start=1):
        grid = DEFAULT_PERF_MODEL.ipc_grid(phase, space)
        rows = []
        for i, slices in enumerate(space.slice_counts):
            for j, l2_kb in enumerate(space.l2_sizes_kb):
                rows.append((slices, l2_kb, f"{grid[i, j]:.5f}"))
        paths.append(
            _write_rows(
                os.path.join(outdir, f"fig1_phase{index:02d}.tsv"),
                ("slices", "l2_kb", "ipc"),
                rows,
            )
        )
        best, best_ipc = DEFAULT_PERF_MODEL.best_config(phase, space)
        maxima = DEFAULT_PERF_MODEL.local_maxima(phase, space)
        summary_rows.append(
            (
                index,
                str(best),
                f"{best_ipc:.4f}",
                len([c for c in maxima if c != best]),
            )
        )
    paths.append(
        _write_rows(
            os.path.join(outdir, "fig1_summary.tsv"),
            ("phase", "optimum", "ipc", "distinct_local_optima"),
            summary_rows,
        )
    )
    return paths


def _export_timeseries(
    results: Mapping[str, RunResult], path: str, cycle_scale: float
) -> str:
    names = list(results)
    any_run = next(iter(results.values()))
    header = ["cycles"] + [
        f"{name.replace(' ', '_')}_{column}"
        for name in names
        for column in ("cost_rate", "normalized_perf")
    ]
    rows = []
    series = {name: results[name].normalized_performance_series() for name in names}
    costs = {name: results[name].cost_rate_series() for name in names}
    starts = [record.start_cycle for record in any_run.records]
    for i in range(any_run.num_intervals):
        row = [f"{starts[i] / cycle_scale:.3f}"]
        for name in names:
            index = min(i, results[name].num_intervals - 1)
            row.append(f"{costs[name][index]:.6f}")
            row.append(f"{series[name][index]:.4f}")
        rows.append(row)
    return _write_rows(path, header, rows)


def export_fig2_fig8(outdir: str, intervals: int = 900) -> List[str]:
    results = x264_timeseries(intervals=intervals)
    return [
        _export_timeseries(
            results, os.path.join(outdir, "fig8_x264_timeseries.tsv"), 1e6
        )
    ]


def export_fig9(outdir: str, intervals: int = 448) -> List[str]:
    results = apache_timeseries(intervals=intervals)
    path = os.path.join(outdir, "fig9_apache_timeseries.tsv")
    names = list(results)
    any_run = next(iter(results.values()))
    header = ["ten_mcycles", "request_rate"] + [
        f"{name.replace(' ', '_')}_{column}"
        for name in names
        for column in ("cost_rate", "qos")
    ]
    rows = []
    records = {name: results[name].records for name in names}
    for i in range(any_run.num_intervals):
        first = records[names[0]][i]
        row = [f"{first.start_cycle / 1e7:.2f}", f"{first.request_rate:.0f}"]
        for name in names:
            row.append(f"{records[name][i].cost_rate:.6f}")
            row.append(f"{records[name][i].true_qos:.4f}")
        rows.append(row)
    return [_write_rows(path, header, rows)]


def _export_per_app(
    results: Mapping[str, Mapping[str, RunResult]], path: str
) -> str:
    names = list(results)
    apps = sorted({app for runs in results.values() for app in runs})
    header = ["app"] + [
        f"{name.replace(' ', '_')}_{column}"
        for name in names
        for column in ("cost", "violation_pct")
    ]
    rows = []
    for app in apps:
        row = [app]
        for name in names:
            run = results[name][app]
            row.append(f"{run.cost_dollars:.6f}")
            row.append(f"{run.violation_percent:.2f}")
        rows.append(row)
    geo_row = ["geomean"]
    for name in names:
        geo = geometric_mean([r.cost_dollars for r in results[name].values()])
        mean_viol = sum(
            r.violation_percent for r in results[name].values()
        ) / len(results[name])
        geo_row.append(f"{geo:.6f}")
        geo_row.append(f"{mean_viol:.2f}")
    rows.append(geo_row)
    return _write_rows(path, header, rows)


def export_fig7_tab3(outdir: str, intervals: int = 1000) -> List[str]:
    results = compare_allocators(intervals=intervals)
    return [
        _export_per_app(results, os.path.join(outdir, "fig7_tab3_allocators.tsv"))
    ]


def export_fig10(outdir: str, intervals: int = 1000) -> List[str]:
    results = compare_architectures(intervals=intervals)
    return [
        _export_per_app(results, os.path.join(outdir, "fig10_architectures.tsv"))
    ]


EXPORTERS = {
    "fig1": export_fig1,
    "fig2": export_fig2_fig8,
    "fig8": export_fig2_fig8,
    "fig9": export_fig9,
    "fig7": export_fig7_tab3,
    "tab3": export_fig7_tab3,
    "fig10": export_fig10,
}


def export_all(outdir: str) -> List[str]:
    """Regenerate every artefact's data files."""
    paths: List[str] = []
    for name in ("fig1", "fig8", "fig9", "fig7", "fig10"):
        paths.extend(EXPORTERS[name](outdir))
    return paths
