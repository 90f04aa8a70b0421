"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

For every workload it runs one untraced worker (seed 1) and two traced ones
(seeds 1 and 2), then checks that

  * the untraced report digests equal `reference.json`;
  * both traced runs give the same digests as the untraced run (tracing and
    seeds change no report byte);
  * the traced counts, every `.calls` and outcome count, are identical across
    the two seeds, so they repeat exactly and do not depend on part order;
  * every function `tracing.PAIRED` pairs with the workload was called, which
    catches a wrapper missing at some import site;
  * the metric names `run.py` prints are exactly those in BENCHMARK.json.

`reference.json` is committed data, recorded once at the commit that
introduced the benchmark; nothing here rewrites it.  Exit code 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import os
import sys
import time

import run
import tracing
from workloads import WORKLOADS

TIME_LIMIT_S = 600


def counts(summary: dict) -> dict:
    out = {f"{name}.calls": row["calls"] for name, row in summary.items()}
    out.update({f"{name}.outcome": row["outcome"] for name, row in summary.items() if "outcome" in row})
    return out


def check_workload(workload: str, reference: dict, deadline: float, report) -> dict:
    plain = run.spawn(workload, 1, deadline)
    report(f"{workload}: reports match reference.json", not run.failed_parts(plain, reference))
    traced, summaries = {}, {}
    for seed in (1, 2):
        path = os.path.join(run.OUT, f"spans-{workload}-selfcheck-seed{seed}.json")
        traced[seed] = run.spawn(workload, seed, deadline, "--trace-out", path)
        report(
            f"{workload}: traced seed {seed} reports equal the untraced ones",
            run.digests(traced[seed]) == run.digests(plain),
        )
        with open(path, encoding="utf-8") as fh:
            summaries[seed] = tracing.summarize(json.load(fh))
    report(
        f"{workload}: traced counts identical across seeds",
        counts(summaries[1]) == counts(summaries[2]),
    )
    for name in tracing.PAIRED[workload]:
        report(f"{workload}: {name} called", summaries[1][name]["calls"] > 0)
    return run.per_layer_metrics(summaries[1], plain, traced[1])


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S
    os.makedirs(run.OUT, exist_ok=True)
    failures = []

    def report(name: str, ok: bool):
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
        if not ok:
            failures.append(name)

    try:
        reference = run.load_reference()
        layer_units = {}
        for workload in WORKLOADS:
            metrics = check_workload(workload, reference, deadline, report)
            layer_units.update({name: m["unit"] for name, m in metrics.items()})
    except (run.BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    report(
        "BENCHMARK.json per_layer names and units match the traced metrics",
        {m["name"]: m["unit"] for m in bench["per_layer"]} == layer_units,
    )
    report(
        "BENCHMARK.json end_to_end names and units match the timed metrics",
        {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS,
    )
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
