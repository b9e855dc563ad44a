"""The repo benchmark: one workload at one seed, timed or traced.

    python3 perfbench/run.py --workload paper --seed 0 --seconds 25 --trace 0

Run from the root of a checkout.  Each run builds the compiled batch
kernel into ``.bench_build/native`` (a no-op once built), measures
set-up time in fresh interpreters, then runs the workload in one more
fresh interpreter with ``REPRO_*`` variables removed from its
environment.  ``--trace 0`` times passes and reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` adds one traced pass at
one job and reports the per-layer metrics.  Human-readable lines come
first; the last line of standard output is the JSON result.  See
README.md for the workloads, metrics and predictions.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKLOADS = ("paper", "service", "tiers", "lint")
SETUP_PROBES = 5
DEADLINE_S = 175.0

#: Workload-specific names for the readable lines, beside the generic
#: end-to-end metrics: (name, unit, better, kind).
NAMED = {
    "paper": (
        ("artefact_wall_s", "s", "lower", "host"),
        ("cash_cost_vs_optimal", "ratio", "lower", "sim"),
        ("cash_violation_pct", "%", "lower", "sim"),
        ("tab3_ratio_err", "ratio", "lower", "sim"),
    ),
    "service": (
        ("tenant_intervals_per_s", "1/s", "higher", "host"),
        ("service_violation_pct", "%", "lower", "sim"),
        ("service_utilization", "ratio", "higher", "sim"),
    ),
    "tiers": (
        ("sim_ops_per_s", "ops/s", "higher", "host"),
        ("tier_ipc_err", "ratio", "lower", "sim"),
    ),
    "lint": (("lint_kloc_per_s", "kloc/s", "higher", "host"),),
}


class BenchError(RuntimeError):
    pass


def _env(root: Path) -> dict:
    build = root / ".bench_build"
    (build / "tmp").mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(root / "src"),
        REPRO_NATIVE_DIR=str(build / "native"),
        TMPDIR=str(build / "tmp"),
    )
    return env


def _shm_segments() -> set:
    try:
        return {path.name for path in Path("/dev/shm").glob("cashopt-*")}
    except OSError:
        return set()


def _worker(root: Path, env: dict, deadline: float, *args: str) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting " + " ".join(args))
    # A process group of its own, so a timeout also stops its pool workers.
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=remaining)
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"worker timed out: {' '.join(args)}") from exc
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed ({proc.returncode}): {' '.join(args)}")
    return json.loads(lines[-1])


def _setup_seconds(root: Path, env: dict, deadline: float, args) -> list:
    samples = []
    for _ in range(SETUP_PROBES):
        spawned = time.monotonic()
        ready = _worker(
            root, env, deadline,
            "--mode", "setup", "--workload", args.workload, "--seed", str(args.seed),
        )["ready"]
        samples.append(ready - spawned)
    return samples


def _metric_specs(root: Path, key: str) -> list:
    return json.loads((root / "BENCHMARK.json").read_text())[key]


def _report(specs: list, values: dict) -> dict:
    return {
        spec["name"]: {"value": float(values.get(spec["name"], 0.0)), "unit": spec["unit"]}
        for spec in specs
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro here; run from a checkout root", file=sys.stderr)
        return 2

    env = _env(root)
    shm_before = _shm_segments()
    try:
        built = _worker(root, env, deadline, "--mode", "build")
        setup = _setup_seconds(root, env, deadline, args)
        mode = "trace" if args.trace else "measure"
        run = _worker(
            root, env, deadline,
            "--mode", mode, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
        )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    leaked = sorted(_shm_segments() - shm_before)

    failed = run["failed"] + len(leaked)
    attempted = run["attempted"]
    correct = failed == 0 and run["deterministic"]
    walls = run["walls"]
    values = {
        "work_per_s": run["work_per_s"],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": run.get("peak_rss_mb", 0.0),
        "failed_pct": 100.0 * failed / attempted,
        "artefact_wall_s": statistics.median(walls),
        "tenant_intervals_per_s": run["work_per_s"],
        "sim_ops_per_s": run["work_per_s"],
        "lint_kloc_per_s": run["work_per_s"] / 1000.0,
        **run.get("results", {}),
        **run.get("per_layer", {}),
    }

    print(
        f"perfbench {args.workload} seed={args.seed} mode={mode} "
        f"passes={len(walls)} wall_s={[round(w, 3) for w in walls]} "
        f"kernel_loaded={built['kernel_loaded']}"
    )
    if not args.trace:
        rows = [
            ("work_per_s", "1/s", "higher", "host"),
            ("setup_s", "s", "lower", "host"),
            ("peak_rss_mb", "MB", "lower", "host"),
            ("failed_pct", "%", "lower", "check"),
            *NAMED[args.workload],
        ]
        for name, unit, better, kind in rows:
            print(f"  {name:<24} {values[name]:>14.6g} {unit:<7} {better:<7} ({kind})")
        print(f"  work per pass: {run['work']:.0f} {run['work_unit']}")
        print(f"  setup_s samples: {[round(s, 4) for s in setup]}")
    else:
        _print_layers(run)
    print(f"  digest {args.workload} seed={args.seed}: {run['digest']}")
    print(f"  attempted={attempted} failed={failed} leaked_shm={len(leaked)} "
          f"before_shm={len(shm_before)}")
    for problem in run["problems"]:
        print(f"  check failed: {problem}")

    specs = _metric_specs(root, "per_layer" if args.trace else "end_to_end")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": _report(specs, values),
    }
    print(json.dumps(result))
    return 0


def _print_layers(run: dict) -> None:
    print(
        f"  traced pass {run['traced_wall_s']:.3f}s vs untraced median "
        f"{run['untraced_wall_s']:.3f}s; spans in {run['spans_file']}"
    )
    print(f"  {'layer':<20} {'share':>7} {'predicted':>9}  should move; no effect on")
    for name, share, predicted, moves, no_effect in run["layers"]:
        shown = "-" if predicted is None else f"{predicted:.0%}"
        print(f"  {name:<20} {share:>7.1%} {shown:>9}  {moves}; {', '.join(no_effect)}")
    print(f"  {'unattributed':<20} {run['per_layer']['share.unattributed']:>7.1%}")
    print(
        f"  largest layer: {run['largest_layer']} "
        f"(predicted {run['predicted_largest']})"
    )
    if run["missing_targets"]:
        print(f"  not found in this commit: {run['missing_targets']}")


if __name__ == "__main__":
    sys.exit(main())
