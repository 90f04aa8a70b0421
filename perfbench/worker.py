"""Run one workload in this (fresh) process and print one JSON record.

    python3 perfbench/worker.py --workload NAME --seed N --spawned-ns T
        [--setup-only] [--trace-out PATH]

The process imports `voaplus.cli` from the checkout's `src/`, so the
module-level mode, eigen and character caches start cold, as they do for every
command-line user.  Each part is one `voaplus.cli.run(argv + ["--format",
"json"])`; its report bytes are hashed, never written.  `--spawned-ns` is the
parent's `time.monotonic_ns()` just before it started this process, which
gives the set-up time up to `import voaplus.cli` done.  With `--trace-out`
the voaplus layers are wrapped (see `tracing.py`) and the spans are written
to PATH at exit.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-ns", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    import voaplus.cli as cli

    setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"error: voaplus imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from workloads import WORKLOADS, part_order
    import tracing

    tracer = None
    if args.trace_out:
        tracer = tracing.Tracer()
        tracer.install()
    parts = WORKLOADS[args.workload]
    results = [None] * len(parts)

    t0, c0 = time.perf_counter(), time.process_time()
    for i in part_order(args.workload, args.seed):
        argv = parts[i]
        out = io.StringIO()
        span = tracer.span(tracing.PART_PREFIX + argv[0]) if tracer else contextlib.nullcontext()
        try:
            with span, contextlib.redirect_stdout(out):
                code, _ = cli.run(argv + ["--format", "json"])
        except Exception as exc:  # one broken part must not hide the others
            print(f"error: part {argv} raised {exc!r}", file=sys.stderr)
            code = f"raised {type(exc).__name__}"
        data = out.getvalue().encode("utf-8")
        results[i] = {
            "argv": argv,
            "exit": code,
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
        }
    wall_s, cpu_s = time.perf_counter() - t0, time.process_time() - c0

    from voaplus import vertex

    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "mode_cache_entries": len(vertex._MODE_CACHE),
        "parts": results,
    }
    if tracer:
        tracer.write(args.trace_out)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
