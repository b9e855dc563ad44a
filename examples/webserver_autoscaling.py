#!/usr/bin/env python3
"""apache under an oscillating request stream: the Fig. 9 scenario.

The request rate swings between ~250 and ~1350 requests/second (a
condensed diurnal cycle); the QoS target is 110 Kcycles per request.
Race-to-idle must keep the worst-case virtual core reserved the whole
time; the CASH runtime resizes the core as load moves:

    python examples/webserver_autoscaling.py
"""

from repro.experiments.scenarios import apache_timeseries


def main() -> None:
    results = apache_timeseries(intervals=112)
    any_run = next(iter(results.values()))
    names = list(results)
    print(
        f"{'10Mcyc':>7}{'reqs/s':>8}"
        + "".join(f"{name + ' $/h':>24}{'perf':>6}" for name in names)
    )
    records = {name: run.records for name, run in results.items()}
    for i in range(0, any_run.num_intervals, 8):
        first = records[names[0]][i]
        row = f"{first.start_cycle / 1e7:>7.0f}{first.request_rate:>8.0f}"
        for name in names:
            record = records[name][i]
            row += f"{record.cost_rate:>24.4f}{record.true_qos:>6.2f}"
        print(row)
    print()
    for name, run in results.items():
        print(
            f"{name:<22} mean cost ${run.mean_cost_rate:.4f}/hr, "
            f"violations {run.violation_percent:.1f}%"
        )
    cash = results["CASH"]
    race = results["Race to Idle"]
    print(
        f"\nCASH saves {(1 - cash.mean_cost_rate / race.mean_cost_rate) * 100:.0f}% "
        "vs reserving the worst-case core (race-to-idle), because the "
        "peak rate is only\nbriefly realized while race pays for it "
        "around the clock."
    )


if __name__ == "__main__":
    main()
