"""One workload invocation in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --workdir DIR
        [--tiny] [--setup-only | --trace SPANS_FILE]

Writes the workload's inputs into DIR, then (unless ``--setup-only``) calls
``robmarg.cli.main`` once, checks what it wrote, and prints one JSON line:
the monotonic clock reading when set-up ended, the call's wall time, exit
code, process peak RSS, minor faults and CPU time during the call, the
correctness outcome, and with ``--trace`` the per-layer metrics (the spans
go to SPANS_FILE as JSON lines).

The import sequence is the same in every mode (standard library, then
``robmarg.cli``, then the benchmark's own modules): the allocator state left
by the imports changes how fast ``fit_mm`` runs, so tracing must not change
what was imported before the timed call.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy  # noqa: E402
import robmarg.cli  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--tiny", action="store_true")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--trace", metavar="SPANS_FILE")
    args = parser.parse_args()

    if not os.path.abspath(robmarg.cli.__file__).startswith(SRC + os.sep):
        print(f"robmarg was imported from {robmarg.cli.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(args.workdir, exist_ok=True)
    argv = workload.prepare(args.workdir, args.seed, args.tiny)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = tracing.Tracer(workload.request) if args.trace else None
    if tracer is not None:
        tracer.install()
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    try:
        code = robmarg.cli.main(argv)
    finally:
        call_s = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        if tracer is not None:
            tracer.uninstall()

    outcome = workloads.Outcome()
    outcome.check(code == 0, f"robmarg exited with code {code}")
    workload.check(os.path.join(args.workdir, "out"), outcome)
    record = {
        "ready": ready,
        "call_s": call_s,
        "exit_code": code,
        "peak_rss_mb": after.ru_maxrss / 1024.0,
        "minor_faults": after.ru_minflt - before.ru_minflt,
        "cpu_s": (after.ru_utime - before.ru_utime
                  + after.ru_stime - before.ru_stime),
        "units": outcome.units,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "digest": outcome.digest,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        record["layers"] = tracer.summary()
        with open(args.trace, "w", encoding="utf-8") as handle:
            for span in tracer.spans():
                handle.write(json.dumps(span) + "\n")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
