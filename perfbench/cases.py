"""The four benchmark workloads, built from a seed and run through the
public API of ``repro``.

Each case turns the workload seed into inputs once (``__init__``, part
of set-up), then runs one *pass* — a fixed batch of simulated work —
per :meth:`run`.  It also knows how to check a pass's outputs, how
much work a pass did, and how to digest its simulated outputs so two
commits can be compared bit for bit.

Operations, for ``attempted``/``failed``: a cell for ``paper``,
``service`` and ``tiers``; a scanned file for ``lint``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import statistics
import time
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Tuple

#: Table III ratios to Optimal reported by the paper.
PAPER_TAB3_RATIOS = {
    "Convex Optimization": 1.23,
    "Race to Idle": 1.78,
    "CASH": 1.03,
}


def _digest(lines: Sequence[str]) -> str:
    hasher = hashlib.sha256()
    for line in lines:
        hasher.update(line.encode())
        hasher.update(b"\n")
    return hasher.hexdigest()[:24]


def _geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Check:
    """Counts operations and the ones whose output check failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def optable_counters() -> Dict[str, float]:
    """Fleet-wide operating-point cache counters (public stats)."""
    from repro.sim import optables

    stats = optables.optable_cache_stats()
    fleet = stats.get("fleet") or stats.get("local") or {}
    l1 = stats.get("l1", {})
    return {
        "l1_hits": float(fleet.get("l1_hits", l1.get("hits", 0))),
        "l1_misses": float(fleet.get("l1_misses", l1.get("misses", 0))),
        "builds": float(fleet.get("builds", l1.get("misses", 0))),
        "l2_hits": float(fleet.get("l2_hits", 0)),
        "l3_hits": float(fleet.get("l3_hits", 0)),
    }


def cold_caches() -> None:
    """Drop the process's operating-point tables (and the shared store,
    where the code under test still has one) so each pass starts from
    the same cold state a fresh ``repro`` command has."""
    from repro.sim import optables

    optables.cache_clear()
    try:
        from repro.sim import optstore
    except ImportError:
        return
    optstore.destroy()
    optstore.reset_counters()


class Case:
    """One workload.  ``run(jobs)`` does one pass and returns its outputs;
    ``check``, ``work``, ``digest``, ``results`` (simulated metrics) and
    ``counters`` (per-layer counts from public stats) read them.  A
    traced pass sets ``tracer`` so the case can open spans of its own.
    """

    jobs = 1
    tracer = None

    def span(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def results(self, out) -> Dict[str, float]:
        return {}

    def counters(self, out) -> Dict[str, float]:
        return {}


class Paper(Case):
    """Table III / Fig. 7, Fig. 10, Figs. 2/8/9, Fig. 1 and Sec. VI-A at
    paper parameters; the sweeps fan out over ``jobs`` workers."""

    name = "paper"
    jobs = 2
    work_unit = "simulated intervals"
    intervals = 1000

    def __init__(self, root: Path, seed: int) -> None:
        from repro.experiments import scenarios
        from repro.sim.ssim import SSim

        self.scenarios = scenarios
        self.seed = seed
        self.ssim = SSim()

    def run(self, jobs: int) -> Dict[str, object]:
        from repro.arch.vcore import DEFAULT_CONFIG_SPACE
        from repro.sim.perfmodel import DEFAULT_PERF_MODEL
        from repro.workloads.apps import make_x264

        sc = self.scenarios
        start = time.perf_counter()
        tab3 = sc.compare_allocators(intervals=self.intervals, seed=self.seed, jobs=jobs)
        fig10 = sc.compare_architectures(
            intervals=self.intervals, seed=self.seed, jobs=jobs
        )
        sweep_s = time.perf_counter() - start
        timeseries = {
            "fig2_fig8": sc.x264_timeseries(seed=self.seed),
            "fig9": sc.apache_timeseries(seed=self.seed),
        }
        fig1 = []
        for phase in make_x264().phases:
            best, ipc = DEFAULT_PERF_MODEL.best_config(phase, DEFAULT_CONFIG_SPACE)
            maxima = DEFAULT_PERF_MODEL.local_maxima(phase, DEFAULT_CONFIG_SPACE)
            fig1.append((str(best), ipc, len([c for c in maxima if c != best])))
        sec6a = [self.ssim.runtime_iteration_cycles(slices=k) for k in (1, 2, 3)]
        return {
            "tab3": tab3,
            "fig10": fig10,
            "timeseries": timeseries,
            "fig1": fig1,
            "sec6a": sec6a,
            "sweep_s": sweep_s,
        }

    def _tables(self, out) -> List[Tuple[str, int, Mapping]]:
        """(artefact, requested intervals, label → app → RunResult)."""
        ts = out["timeseries"]
        return [
            ("tab3", self.intervals, out["tab3"]),
            ("fig10", self.intervals, out["fig10"]),
            ("fig2_fig8", 220, {label: {"x264": r} for label, r in ts["fig2_fig8"].items()}),
            ("fig9", 112, {label: {"apache": r} for label, r in ts["fig9"].items()}),
        ]

    def check(self, out) -> Check:
        check = Check()
        tab3 = out["tab3"]
        for artefact, requested, table in self._tables(out):
            for label, runs in table.items():
                for app, run in runs.items():
                    costs_ok = (
                        math.isfinite(run.cost_dollars)
                        and run.cost_dollars > 0
                        and all(
                            math.isfinite(r.cost_rate) and r.cost_rate >= 0
                            for r in run.records
                        )
                    )
                    ok = run.num_intervals == requested and costs_ok
                    if artefact == "tab3" and label in ("Optimal", "Race to Idle"):
                        ok = ok and run.violation_percent == 0.0
                    if artefact == "tab3" and label == "Race to Idle":
                        ok = ok and run.cost_dollars >= tab3["Optimal"][app].cost_dollars
                    check.op(ok, f"{artefact} {label} {app}")
        check.op(
            all(ipc > 0 and maxima >= 0 for _, ipc, maxima in out["fig1"]), "fig1"
        )
        check.op(all(c > 0 for c in out["sec6a"]), "sec6a")
        return check

    def work(self, out) -> float:
        return float(
            sum(
                run.num_intervals
                for _, _, table in self._tables(out)
                for runs in table.values()
                for run in runs.values()
            )
        )

    def digest(self, out) -> str:
        lines = []
        for artefact, _, table in self._tables(out):
            for label, runs in table.items():
                for app, run in runs.items():
                    lines.append(f"{artefact}|{label}|{app}")
                    lines.extend(
                        repr((r.index, r.phase_name, r.cost_rate, r.true_qos,
                              r.measured_qos, r.violated, r.reconfig_cycles))
                        for r in run.records
                    )
        lines.extend(repr(row) for row in out["fig1"])
        lines.append(repr(out["sec6a"]))
        return _digest(lines)

    def results(self, out) -> Dict[str, float]:
        tab3 = out["tab3"]
        geo = {
            label: _geomean([run.cost_dollars for run in runs.values()])
            for label, runs in tab3.items()
        }
        ratios = {label: geo[label] / geo["Optimal"] for label in PAPER_TAB3_RATIOS}
        cash = list(tab3["CASH"].values())
        return {
            "cash_cost_vs_optimal": ratios["CASH"],
            "cash_violation_pct": sum(r.violation_percent for r in cash) / len(cash),
            "tab3_ratio_err": sum(
                abs(ratios[label] - paper) for label, paper in PAPER_TAB3_RATIOS.items()
            )
            / len(PAPER_TAB3_RATIOS),
        }

    def counters(self, out) -> Dict[str, float]:
        return {"experiments.stats.sweep_s": out["sweep_s"]}


class Service(Case):
    """Open-loop churn cells of the event-driven service tier, in the
    diurnal and flash-crowd shape of ``service_grid``.  A pass runs
    ``cells`` independent cells whose traffic seeds derive from the
    workload seed, so one pass averages over many tenant populations."""

    name = "service"
    work_unit = "tenant-intervals"
    cells = 4
    tenants = 1024
    horizon = 1000
    fabric = 24
    overcommit = 2.0

    def __init__(self, root: Path, seed: int) -> None:
        from repro.arch.fabric import Fabric
        from repro.cloud import service, traffic

        self.fabric_type = Fabric
        self.traffic = traffic
        self.service = service
        horizon = self.horizon
        self.specs = [
            traffic.TrafficSpec(
                tenants=self.tenants,
                horizon=horizon,
                seed=seed * self.cells + cell,
                activity=0.15,
                lifetime_min=max(horizon / 16.0, 1.0),
                diurnal_period=max(horizon // 2, 1),
                diurnal_amplitude=0.5,
                flash_crowds=2,
                flash_duration=max(horizon // 50, 1),
                flash_boost=4.0,
            )
            for cell in range(self.cells)
        ]

    def run(self, jobs: int):
        reports = []
        for spec in self.specs:
            engine = self.service.ServiceEngine(
                self.traffic.generate_traffic(spec),
                fabric=self.fabric_type(width=self.fabric, height=self.fabric),
                overcommit=self.overcommit,
            )
            reports.append(engine.run())
        return reports

    def check(self, reports) -> Check:
        check = Check()
        for index, report in enumerate(reports):
            check.op(
                report.admitted + report.rejected == self.tenants
                and 0.0 <= report.mean_utilization <= 1.0,
                f"service cell {index}",
            )
        return check

    def work(self, reports) -> float:
        return float(sum(report.tenant_intervals for report in reports))

    def digest(self, reports) -> str:
        lines = []
        for report in reports:
            lines.append(
                repr((report.intervals, report.admitted, report.rejected,
                      report.tenant_intervals, report.active_steps,
                      report.decide_steps, report.utilization_tile_intervals,
                      report.fabric_tiles, report.defragmentations))
            )
            for tenant_id in sorted(report.accounts):
                account = report.accounts[tenant_id]
                lines.append(
                    repr((tenant_id, account.active_intervals, account.violations,
                          account.dollars_time, account.waiting_intervals,
                          account.footprint_tiles))
                )
        return _digest(lines)

    def results(self, reports) -> Dict[str, float]:
        return {
            "service_violation_pct": statistics.mean(
                r.mean_violation_percent for r in reports
            ),
            "service_utilization": statistics.mean(r.mean_utilization for r in reports),
        }

    def counters(self, reports) -> Dict[str, float]:
        def total(field: str) -> float:
            return float(sum(getattr(report, field) for report in reports))

        active = total("active_steps")
        return {
            "cloud.service.active_steps": active,
            "cloud.service.decide_steps": total("decide_steps"),
            "cloud.service.decide_ratio": total("decide_steps") / active if active else 0.0,
            "cloud.service.admitted": total("admitted"),
            "cloud.service.rejected": total("rejected"),
            "cloud.service.defragmentations": total("defragmentations"),
        }


class Tiers(Case):
    """The cycle-tier agreement grid through the batch tier: every phase
    of x264/apache/mcf on the 1S/64KB…8S/512KB ladder."""

    name = "tiers"
    work_unit = "simulated micro-ops"
    instructions = 40_000

    def __init__(self, root: Path, seed: int) -> None:
        from repro.experiments import scenarios

        self.scenarios = scenarios
        self.seed = seed

    def run(self, jobs: int):
        results, _ = self.scenarios.tier_agreement_grid(
            instructions=self.instructions, seed=self.seed, jobs=jobs, batch=True
        )
        return results

    def check(self, results) -> Check:
        check = Check()
        for key, cell in results.items():
            check.op(
                cell.pipeline.instructions == self.instructions
                and cell.measured_ipc > 0
                and cell.predicted_ipc > 0,
                f"tier cell {key}",
            )
        return check

    def work(self, results) -> float:
        return float(len(results) * self.instructions)

    def digest(self, results) -> str:
        lines = []
        for (app, phase, config), cell in results.items():
            p = cell.pipeline
            lines.append(
                repr((app, phase, str(config), p.cycles, p.instructions, p.l1_hits,
                      p.l2_hits, p.l2_misses, p.mispredicts, p.l1i_misses,
                      cell.predicted_ipc))
            )
        return _digest(lines)

    def results(self, results) -> Dict[str, float]:
        errors = [cell.relative_error for cell in results.values()]
        return {"tier_ipc_err": sum(errors) / len(errors)}

    def counters(self, results) -> Dict[str, float]:
        return {"sim.trace.cells": float(len(results))}


class Lint(Case):
    """The full analyzer — every rule in ``ALL_RULES`` — over the
    checkout's own ``src/``, gated on the committed lint baseline.  The
    input is the code under test, so the seed changes nothing."""

    name = "lint"
    work_unit = "source lines"

    def __init__(self, root: Path, seed: int) -> None:
        from repro import analysis
        from repro.analysis import baseline, core

        self.root = root
        self.rules = list(analysis.ALL_RULES)
        self.core = core
        self.baseline = baseline
        self.paths = [root / "src"]
        pin = root / "SCHEMA_FINGERPRINTS.json"
        for rule in self.rules:
            if hasattr(rule, "pin_path"):
                rule.pin_path = pin

    def run(self, jobs: int):
        core = self.core
        contexts, findings = core.load_contexts(self.paths, root=self.root)
        program = [r for r in self.rules if getattr(r, "whole_program", False)]
        for rule in self.rules:
            if rule not in program:
                with self.span(f"analysis.rule.{rule.id}"):
                    for context in contexts:
                        findings.extend(core.check_file(context, [rule]))
        with self.span("analysis.program_rules"):
            for rule in program:
                with self.span(f"analysis.rule.{rule.id}"):
                    findings.extend(core.check_program(contexts, [rule]))
        findings.sort(key=lambda finding: finding.sort_key)
        diff = self.baseline.diff_against_baseline(
            findings, self.root / "LINT_BASELINE.json"
        )
        return {
            "files": [c.display_path for c in contexts],
            "parse_errors": sum(1 for f in findings if f.rule == "parse-error"),
            "lines": sum(len(c.lines) for c in contexts),
            "findings": findings,
            "new": diff.new,
        }

    def check(self, out) -> Check:
        check = Check()
        dirty = {finding.path for finding in out["new"]}
        for path in out["files"]:
            check.op(path not in dirty, f"lint {path}")
        for _ in range(out["parse_errors"]):
            check.op(False, "lint parse error")
        return check

    def work(self, out) -> float:
        return float(out["lines"])

    def digest(self, out) -> str:
        return _digest(
            [json.dumps(
                [f.path, f.line, f.column, f.rule, f.message], sort_keys=True
            ) for f in out["findings"]]
        )

    def counters(self, out) -> Dict[str, float]:
        return {"analysis.files": float(len(out["files"]))}


CASES = {case.name: case for case in (Paper, Service, Tiers, Lint)}
