"""Run one workload of the robmarg benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the directory holding ``src/robmarg`` and
``BENCHMARK.json``).  Every CLI invocation runs in a fresh interpreter
(``child.py``) because allocator state left by earlier work changes the
program's speed.

``--trace 0`` repeats the workload's invocation while another one still fits
in S seconds (at least once), each time on inputs from another seed derived
from N, adds set-up-only processes until there are nine set-up samples, and
reports the mean call time, the overall throughput, and the medians of
set-up time and peak memory.  ``--trace 1`` makes one untraced and one traced
invocation on the inputs of seed N and reports the per-layer metrics, the
tracing overhead, and a check that both produced the same output digest.
``--tiny`` shrinks the inputs for the self-check.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit, the machine facts and the output digest.
The full record goes to ``.perfbench_out/results/``.  Exit code 0 means the
run finished (``correct`` says whether the outputs were right); any other
exit code means no result, for example when the checkout has no ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 150


# The program's speed depends on its heap layout, and that shifts with the
# length of the strings it reads: an ``mc_n100`` invocation runs in a
# page-fault storm or not depending on, among other things, the digits of its
# seed and the length of its work directory.  Seeds and work directory names
# therefore have a fixed width, so that they do not move a run's figures.
SEED_BASE = 10**9


def invocation_seed(seed: int, k: int) -> int:
    """Input seed of invocation ``k`` of a run with ``--seed seed``, always
    ten digits.  Monte Carlo replication j draws from scenario seed ^ j, so
    seeds 64 apart share no replication (a scenario has fewer than 64)."""
    return SEED_BASE + (seed * 65536 + 64 * k) % SEED_BASE


def _workdir(work: str, kind: str, k: int) -> str:
    return os.path.join(work, f"{kind}{k:04d}")


class BenchError(Exception):
    """The run cannot produce a result."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def machine_facts() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "loadavg_1m": os.getloadavg()[0],
    }


def spawn(args, workdir: str, seed: int, *flags: str) -> dict:
    """Run child.py once on the inputs of ``seed``; its record gains
    ``seed``, ``setup_s`` and ``wall_s``."""
    cmd = [sys.executable, CHILD, "--workload", args.workload,
           "--seed", str(seed), "--workdir", workdir, *flags]
    if args.tiny:
        cmd.append("--tiny")
    start = _now()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        wall = _now() - start
    except subprocess.TimeoutExpired:
        raise BenchError(f"invocation exceeded {CHILD_TIMEOUT_S} s") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"child exited with code {proc.returncode}: "
            + proc.stderr.strip()[-2000:]
        )
    record = json.loads(lines[-1])
    record["seed"] = seed
    record["setup_s"] = record["ready"] - start
    record["wall_s"] = wall
    return record


def measure(args, work: str) -> tuple[dict, list[dict]]:
    """Untraced invocations for about ``args.seconds``; end-to-end metrics.

    Call time is averaged, not taken as a median: whether an ``mc_n100``
    invocation runs in a page-fault storm varies from one process to the
    next, and the mean keeps that cost in the figure.
    """
    runs = []
    start = _now()
    while True:
        k = len(runs)
        runs.append(spawn(args, _workdir(work, "call", k),
                          invocation_seed(args.seed, k)))
        longest = max(r["wall_s"] for r in runs)
        if _now() - start + longest > args.seconds:
            break
    setups = [r["setup_s"] for r in runs]
    for k in range(len(runs), SETUP_SAMPLES):
        setups.append(spawn(args, _workdir(work, "prep", k),
                            invocation_seed(args.seed, k),
                            "--setup-only")["setup_s"])
    call_s = sum(r["call_s"] for r in runs)
    metrics = {
        "report_s": call_s / len(runs),
        "reps_per_s": sum(r["units"] for r in runs) / call_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    return metrics, runs


def trace(args, work: str) -> tuple[dict, list[dict]]:
    """One untraced and one traced invocation; per-layer metrics."""
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    spans = os.path.join(
        OUT, "results", f"{args.workload}-seed{args.seed}-spans.jsonl")
    seed = invocation_seed(args.seed, 0)
    plain = spawn(args, _workdir(work, "call", 0), seed)
    traced = spawn(args, _workdir(work, "span", 0), seed, "--trace", spans)
    runs = [plain, traced]
    metrics = dict(traced["layers"])
    metrics.update({
        "failed_share": sum(r["failed"] for r in runs)
        / sum(r["attempted"] for r in runs),
        "process.minor_faults": plain["minor_faults"],
        "trace.report_s": traced["call_s"],
        "trace.untraced_report_s": plain["call_s"],
        "trace.overhead": traced["call_s"] / plain["call_s"],
    })
    return metrics, runs


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the self-check")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not os.path.isfile(os.path.join(ROOT, "src", "robmarg", "cli.py")):
        print(f"error: {ROOT} has no src/robmarg to benchmark",
              file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    machine = machine_facts()
    work = os.path.join(OUT, f"work-{os.getpid():010d}")
    try:
        metrics, runs = (trace if args.trace else measure)(args, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    machine["numpy"] = runs[0]["numpy"]
    problems = [p for r in runs for p in r["problems"]]
    digests: dict[int, set] = {}
    for r in runs:
        digests.setdefault(r["seed"], set()).add(r["digest"])
    for seed, seen in digests.items():
        if len(seen) != 1:
            problems.append(f"invocations on the inputs of seed {seed} gave "
                            f"different outputs: {sorted(seen)}")
    faults = sorted(r["minor_faults"] for r in runs)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    record_path = os.path.join(
        OUT, "results",
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump({"args": vars(args), "machine": machine,
                   "digests": {seed: sorted(seen)
                               for seed, seen in digests.items()},
                   "problems": problems, "invocations": runs,
                   "result": result}, handle, indent=2)

    for name, entry in result["metrics"].items():
        print(f"{name:40s} {entry['value']:.6g} {entry['unit']}")
    print(f"invocations {len(runs)}  digest {runs[0]['digest']} "
          f"(seed {runs[0]['seed']})  "
          f"failed {result['failed']}/{result['attempted']}")
    print(f"minor faults per invocation: min {faults[0]}  "
          f"median {statistics.median(faults):.0f}  max {faults[-1]}")
    print("machine " + json.dumps(machine, sort_keys=True))
    for problem in problems:
        print(f"problem: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
