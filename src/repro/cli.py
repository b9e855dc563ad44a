"""Command-line interface: regenerate the paper's results from a shell.

Usage::

    python -m repro list
    python -m repro run --app x264 --allocator cash --intervals 1000
    python -m repro figure tab3 --jobs 4
    python -m repro figure multitenant --jobs 4
    python -m repro figure service --jobs 4
    python -m repro figure tiers --jobs 4
    python -m repro sweep --seeds 0 1 2 --jobs 8
    python -m repro export --outdir data/
    python -m repro overheads
    python -m repro lint --format json

``figure`` prints the artefact's rows; ``export`` writes plottable
``.tsv`` series; ``sweep`` runs the full (app × allocator × seed) grid
in parallel and records the timing in ``BENCH_PERF.json``.  Cells are
independently seeded, so ``--jobs`` never changes any result.
``lint`` runs the domain-aware static-analysis suite
(:mod:`repro.analysis`) — including the whole-program shared-state
rules and the hot-path performance rules scoped to the FAST-engine
hot set — and gates against the committed baseline; ``--format
github`` emits GitHub Actions ``::error`` annotations for CI,
``--rules`` lists every registered rule with its scope, and
``--hot-report`` ranks hot functions by loop depth × findings.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments.report import cost_table, per_app_table, timeseries_table
from repro.experiments.scenarios import (
    ALLOCATOR_KINDS,
    apache_timeseries,
    compare_allocators,
    compare_architectures,
    run_app_with_allocator,
    x264_timeseries,
)
from repro.workloads.apps import APP_NAMES

FIGURES = (
    "fig1",
    "fig2",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "tab3",
    "sec6a",
    "multitenant",
    "service",
    "tiers",
)


def _cmd_list(_args: argparse.Namespace) -> int:
    print("applications:")
    for name in APP_NAMES:
        print(f"  {name}")
    print("allocators:")
    for kind, label in ALLOCATOR_KINDS:
        print(f"  {kind:<8} ({label})")
    print("figures/tables:", ", ".join(FIGURES))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    result = run_app_with_allocator(
        args.app, args.allocator, intervals=args.intervals, seed=args.seed
    )
    print(
        f"{result.app_name} / {result.allocator_name}: "
        f"${result.cost_dollars:.4f}/hr at "
        f"{result.violation_percent:.1f}% QoS violations "
        f"({result.num_intervals} intervals, goal {result.qos_goal:.3f})"
    )
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    name = args.name
    if name == "fig1":
        from repro.arch.vcore import DEFAULT_CONFIG_SPACE
        from repro.sim.perfmodel import DEFAULT_PERF_MODEL
        from repro.workloads.apps import make_x264

        app = make_x264()
        for index, phase in enumerate(app.phases, start=1):
            best, ipc = DEFAULT_PERF_MODEL.best_config(phase, DEFAULT_CONFIG_SPACE)
            maxima = DEFAULT_PERF_MODEL.local_maxima(phase, DEFAULT_CONFIG_SPACE)
            distinct = len([c for c in maxima if c != best])
            print(
                f"phase {index:>2}: optimum {str(best):>9} ipc {ipc:5.2f} "
                f"distinct local optima {distinct}"
            )
    elif name in ("fig2", "fig8"):
        print(timeseries_table(x264_timeseries(intervals=args.intervals or 220)))
    elif name == "fig9":
        results = apache_timeseries(intervals=args.intervals or 112)
        print(timeseries_table(results, stride=8))
    elif name in ("fig7", "tab3"):
        results = compare_allocators(
            intervals=args.intervals or 1000, jobs=args.jobs
        )
        print(cost_table(results))
        print()
        print(per_app_table(results))
    elif name == "fig10":
        results = compare_architectures(
            intervals=args.intervals or 1000, jobs=args.jobs
        )
        print(per_app_table(results))
    elif name == "multitenant":
        from repro.experiments.report import provider_table
        from repro.experiments.scenarios import multitenant_grid
        from repro.experiments.stats import record_bench_cloud

        reports, timing = multitenant_grid(
            intervals=args.intervals or 300, jobs=args.jobs
        )
        print(provider_table(reports))
        path = record_bench_cloud("multitenant_figure", timing)
        print(
            f"{timing['cells']} provider cells in "
            f"{timing['wall_seconds']:.2f}s with {timing['jobs']} job(s); "
            f"timing recorded in {path}"
        )
    elif name == "service":
        from repro.experiments.report import service_table
        from repro.experiments.scenarios import service_grid
        from repro.experiments.stats import record_bench_cloud

        reports, timing = service_grid(
            horizon=args.intervals or 2000, jobs=args.jobs
        )
        print(service_table(reports))
        path = record_bench_cloud("service_figure", timing)
        print(
            f"{timing['cells']} service cells covering "
            f"{timing['tenant_intervals']} tenant-intervals in "
            f"{timing['wall_seconds']:.2f}s with {timing['jobs']} job(s) "
            f"({timing['tenant_intervals_per_second']} tenant-intervals/s); "
            f"timing recorded in {path}"
        )
    elif name == "tiers":
        from repro.experiments.report import tier_table
        from repro.experiments.scenarios import tier_agreement_grid
        from repro.experiments.stats import record_bench_cycle

        results, timing = tier_agreement_grid(
            instructions=args.intervals or 4000,
            jobs=args.jobs,
            batch=args.batch,
        )
        print(tier_table(results))
        path = record_bench_cycle("tiers_figure", timing)
        print(
            f"{timing['cells']} tier cells x {timing['instructions']} ops in "
            f"{timing['wall_seconds']:.2f}s with {timing['jobs']} job(s); "
            f"timing recorded in {path}"
        )
    elif name == "sec6a":
        return _cmd_overheads(args)
    else:  # pragma: no cover - argparse restricts choices
        print(f"unknown figure {name!r}", file=sys.stderr)
        return 2
    return 0


def _cmd_overheads(_args: argparse.Namespace) -> int:
    from repro.arch.reconfig import DEFAULT_RECONFIG_COSTS
    from repro.sim.ssim import SSim

    costs = DEFAULT_RECONFIG_COSTS
    print(f"Slice expansion:           {costs.slice_expand_cycles()} cycles (paper ~15)")
    print(f"Slice contraction (worst): {costs.slice_shrink_cycles()} cycles (paper <= 79)")
    print(f"L2 bank flush (worst):     {costs.l2_bank_flush_cycles()} cycles (paper 8000, rounded)")
    ssim = SSim()
    for slices, paper in ((1, 2000), (2, 1100), (3, 977)):
        cycles = ssim.runtime_iteration_cycles(slices=slices)
        print(
            f"runtime iteration, {slices} Slice(s): {cycles:.0f} cycles "
            f"(paper ~{paper})"
        )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.stats import record_bench_perf, sweep

    apps = args.apps or list(APP_NAMES)
    kinds = args.allocators or [kind for kind, _ in ALLOCATOR_KINDS]
    results, timing = sweep(
        apps,
        kinds,
        seeds=args.seeds,
        intervals=args.intervals,
        jobs=args.jobs,
    )
    labels = dict(ALLOCATOR_KINDS)
    for kind in kinds:
        print(f"{labels.get(kind, kind)}:")
        for app_name in apps:
            cell = results[kind][app_name]
            print(
                f"  {app_name:<10} cost {cell.cost} $/hr"
                f"  [median {cell.cost.median:.4f}]"
                f"  violations {cell.violation_percent} %"
            )
    print(
        f"{timing['cells']} cells x {timing['intervals']} intervals in "
        f"{timing['wall_seconds']:.2f}s with {timing['jobs']} job(s) "
        f"({timing['cells_per_second']:.2f} cells/s)"
    )
    path = record_bench_perf("sweep", timing, path=args.bench_out)
    print(f"timing recorded in {path}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run_lint

    return run_lint(args)


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.experiments.figures import EXPORTERS, export_all

    if args.name:
        paths = EXPORTERS[args.name](args.outdir)
    else:
        paths = export_all(args.outdir)
    for path in paths:
        print(path)
    return 0


def _job_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"jobs must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce CASH (ISCA 2016): figures, tables, runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list applications, allocators, figures")

    run_parser = sub.add_parser("run", help="run one (app, allocator) cell")
    run_parser.add_argument("--app", choices=APP_NAMES, required=True)
    run_parser.add_argument(
        "--allocator",
        choices=[kind for kind, _ in ALLOCATOR_KINDS],
        default="cash",
    )
    run_parser.add_argument("--intervals", type=int, default=1000)
    run_parser.add_argument("--seed", type=int, default=0)

    figure_parser = sub.add_parser("figure", help="print a paper artefact")
    figure_parser.add_argument("name", choices=FIGURES)
    figure_parser.add_argument("--intervals", type=int, default=None)
    figure_parser.add_argument(
        "--jobs",
        type=_job_count,
        default=1,
        help=(
            "worker processes for multi-cell figures "
            "(fig7/tab3/fig10/multitenant/service/tiers)"
        ),
    )

    sweep_parser = sub.add_parser(
        "sweep", help="parallel (app x allocator x seed) grid with timing"
    )
    sweep_parser.add_argument(
        "--apps", nargs="+", choices=APP_NAMES, default=None
    )
    sweep_parser.add_argument(
        "--allocators",
        nargs="+",
        choices=[kind for kind, _ in ALLOCATOR_KINDS],
        default=None,
    )
    sweep_parser.add_argument("--seeds", nargs="+", type=int, default=[0, 1, 2])
    sweep_parser.add_argument("--intervals", type=int, default=1000)
    sweep_parser.add_argument(
        "--jobs",
        type=_job_count,
        default=None,
        help="worker processes (default: all CPUs)",
    )
    sweep_parser.add_argument("--bench-out", default="BENCH_PERF.json")
    figure_parser.add_argument(
        "--batch",
        action=argparse.BooleanOptionalAction,
        default=True,
        help=(
            "advance tier cells in lockstep through the "
            "struct-of-arrays batch tier (tiers figure only); "
            "--no-batch dispatches each cell singly"
        ),
    )

    sub.add_parser("overheads", help="Section VI-A overhead microbenchmarks")

    lint_parser = sub.add_parser(
        "lint",
        help="domain-aware static analysis with a findings baseline "
        "(--rules lists rules; --hot-report ranks hot functions)",
    )
    from repro.analysis.cli import add_lint_arguments

    add_lint_arguments(lint_parser)

    export_parser = sub.add_parser("export", help="write .tsv data files")
    export_parser.add_argument("--outdir", default="data")
    export_parser.add_argument(
        "--name",
        choices=sorted(
            set(FIGURES) - {"fig2", "sec6a", "multitenant", "service", "tiers"}
        ),
        default=None,
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "run": _cmd_run,
        "figure": _cmd_figure,
        "sweep": _cmd_sweep,
        "overheads": _cmd_overheads,
        "export": _cmd_export,
        "lint": _cmd_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
