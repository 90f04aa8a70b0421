"""voaplus benchmark: time verification workloads end to end, or trace them per layer.

    python3 perfbench/run.py --workload {closure,modes,series} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Every workload repetition runs in a fresh
Python process (`worker.py`), one at a time, because voaplus keeps its mode,
eigen and character caches at module level and every command-line user pays
for them cold.  `--seed` only shuffles the order of a workload's parts.

--trace 0 starts a few processes that only import `voaplus.cli` (set-up
probes) and then the workload in a fresh process, and repeats that while the
next round is due to end within S seconds of the start (at least once).  It
reports medians: `wall_s` (first part to last), `cpu_s` (process CPU time over
the same interval), `setup_s` (process spawn to `import voaplus.cli` done,
over the set-up probes) and `peak_rss_mb`.  The three times are scaled to the
reference machine speed by a probe timed on the worker's CPU: while a
workload runs, and just before a set-up probe starts (see `spawn`).

--trace 1 runs the workload once untraced and once traced (`tracing.py`) and
reports per-layer counts and self times, plus `trace.overhead_s`, the traced
minus the untraced `wall_s`; times are scaled like `wall_s`.  Both runs are
checked against the reference digests, so a traced run that changes a report
is not correct.

Every part's canonical JSON report is hashed and compared with
`reference.json`, recorded at the commit that introduced the benchmark; a part
whose exit code is nonzero or whose bytes differ counts as failed.  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; a result file with the environment and every sample is
written under `perfbench/out/`.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import tracing
from workloads import WORKLOADS, part_key

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "voaplus")
WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference.json")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 6  # import-only processes before each repetition
SETUP_SPEED_PROBES = 3  # speed probes just before each import-only process
# Seconds between speed probes while a worker runs, and the mean CPU time of
# one probe on the 2-core machine the benchmark was defined on (Intel Xeon at
# 2.1 GHz, CPython 3.11); timings are scaled to that speed.
PROBE_INTERVAL_S = 0.1
REFERENCE_PROBE_S = 0.004
# Workers may write bytecode caches (under src/, ignored by git), as an
# installed package has them; the warm-up process writes them before timing.
WORKER_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
DEADLINE_S = 170  # the whole run must end within 180 s
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
SUBCOMMANDS = sorted({argv[0] for parts in WORKLOADS.values() for argv in parts})


class BenchError(Exception):
    pass


def speed_probe() -> float:
    """CPU time of a fixed exact-arithmetic kernel that uses no voaplus code."""
    start = time.process_time()
    acc = Fraction(0)
    for i in range(1, 600):
        acc += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return time.process_time() - start


def spawn(workload: str, seed: int, deadline: float, *flags) -> dict:
    """Run the worker in a fresh process and return its JSON record.

    While a workload runs, this process times `speed_probe()` every
    PROBE_INTERVAL_S on the same CPU (see `pin_to_one_cpu`); the record's
    `speed` is REFERENCE_PROBE_S over the mean probe time.  A shared machine's
    speed drifts by tens of percent within seconds, and only a probe on the
    worker's own CPU, during the worker's own run, follows that drift.  An
    import-only process (`--setup-only`) ends well within PROBE_INTERVAL_S,
    and a probe beside it would slow its start by the probe's own CPU time, so
    its SETUP_SPEED_PROBES probes are all taken just before it starts.  The
    probe never calls voaplus, so no change to the program moves it.
    """
    setup_only = "--setup-only" in flags
    probes = [speed_probe() for _ in range(SETUP_SPEED_PROBES)] if setup_only else []
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed)]
    cmd += [*flags, "--spawned-ns", str(time.monotonic_ns())]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=WORKER_ENV, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    while True:
        if not setup_only:
            probes.append(speed_probe())
        try:
            out, err = proc.communicate(timeout=PROBE_INTERVAL_S)
            break
        except subprocess.TimeoutExpired:
            if time.monotonic() > deadline:
                proc.kill()
                proc.communicate()
                raise BenchError(f"worker for {workload} did not finish in time")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise BenchError(f"worker for {workload} exited with {proc.returncode}")
    record = json.loads(out.splitlines()[-1])
    record["speed"] = REFERENCE_PROBE_S * len(probes) / sum(probes)
    return record


def pin_to_one_cpu():
    """Run this process, and so every worker, on one CPU of those allowed."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def failed_parts(record: dict, reference: dict) -> list:
    """Keys of the parts that exited nonzero or whose report bytes differ."""
    return [
        part_key(p["argv"])
        for p in record["parts"]
        if p["exit"] != 0 or p["sha256"] != reference.get(part_key(p["argv"]))
    ]


def digests(record: dict) -> dict:
    return {part_key(p["argv"]): p["sha256"] for p in record["parts"]}


def timed_run(workload: str, seed: int, stop: float, deadline: float) -> dict:
    """Set-up probes and a repetition, again while the next is due to end by `stop`."""
    setups, reps = [], []
    start = time.monotonic()
    while True:
        setups += [
            spawn(workload, seed, deadline, "--setup-only")
            for _ in range(SETUP_PROBES)
        ]
        reps.append(spawn(workload, seed, deadline))
        now = time.monotonic()
        if now + (now - start) / len(reps) > stop:
            break
    samples = {
        "wall_s": [r["wall_s"] * r["speed"] for r in reps],
        "cpu_s": [r["cpu_s"] * r["speed"] for r in reps],
        "setup_s": [r["setup_s"] * r["speed"] for r in setups],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    metrics = {
        name: {"value": statistics.median(values), "unit": END_TO_END_UNITS[name]}
        for name, values in samples.items()
    }
    samples["measured_wall_s"] = [r["wall_s"] for r in reps]
    samples["measured_cpu_s"] = [r["cpu_s"] for r in reps]
    samples["speed"] = [r["speed"] for r in reps]
    samples["measured_setup_s"] = [r["setup_s"] for r in setups]
    return {"records": reps, "samples": samples, "metrics": metrics}


def per_layer_metrics(summary: dict, plain: dict, traced: dict) -> dict:
    """Per-layer metrics from a trace summary and the two records of a traced run."""
    metrics = {}
    speed = traced["speed"]

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for mod_name, path, outcome in tracing.TARGETS:
        name = f"{mod_name}.{path}"
        row = summary[name]
        put(f"{name}.calls", row["calls"], "count")
        put(f"{name}.self_s", row["self_s"] * speed, "s")
        if outcome:
            put(f"{name}.{outcome}", row["outcome"], "count")
    insert = summary["reptheory.GradedSubspace.insert"]
    ratio = insert["outcome"] / insert["calls"] if insert["calls"] else 0.0
    put("reptheory.GradedSubspace.insert.accept_ratio", ratio, "ratio")
    put("vertex.mode_cache_entries", traced["mode_cache_entries"], "count")
    put("report.bytes", sum(p["bytes"] for p in traced["parts"]), "bytes")
    parts = {n: row for n, row in summary.items() if n.startswith(tracing.PART_PREFIX)}
    for sub in SUBCOMMANDS:
        part_s = parts.get(tracing.PART_PREFIX + sub, {}).get("total_s", 0.0)
        put(tracing.PART_PREFIX + sub, part_s * speed, "s")
    put("cli.self_s", sum(row["self_s"] for row in parts.values()) * speed, "s")
    overhead = traced["wall_s"] * speed - plain["wall_s"] * plain["speed"]
    put("trace.overhead_s", overhead, "s")
    return metrics


def traced_run(workload: str, seed: int, deadline: float) -> dict:
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{workload}-seed{seed}.json")
    plain = spawn(workload, seed, deadline)
    traced = spawn(workload, seed, deadline, "--trace-out", spans_path)
    with open(spans_path, encoding="utf-8") as fh:
        summary = tracing.summarize(json.load(fh))
    return {
        "records": [plain, traced],
        "metrics": per_layer_metrics(summary, plain, traced),
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    started = time.monotonic()
    deadline = started + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "cli.py")):
        print(f"error: no voaplus sources under {SRC}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    try:
        reference = load_reference()
        # warm-up: compiles the bytecode caches; not measured
        spawn(args.workload, args.seed, deadline, "--setup-only")
        if args.trace:
            result = traced_run(args.workload, args.seed, deadline)
        else:
            result = timed_run(args.workload, args.seed, started + args.seconds, deadline)
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = [key for r in result["records"] for key in failed_parts(r, reference)]
    attempted = sum(len(r["parts"]) for r in result["records"])
    for key in sorted(set(failed)):
        print(f"FAILED part: {key}", file=sys.stderr)

    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    os.makedirs(OUT, exist_ok=True)
    out_path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "failed_parts": failed, **result}, fh, indent=1)

    for name, m in result["metrics"].items():
        print(f"{args.workload:8s} {name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
