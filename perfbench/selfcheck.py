"""Self-check of the benchmark at tiny sizes.

    python3 perfbench/selfcheck.py

For every workload it

1. runs ``run.py --tiny`` untraced and traced, and checks that each result
   line reports correct outputs and carries exactly the metrics that
   BENCHMARK.json lists, each with its unit;
2. runs the workload's CLI invocation in-process at tiny size, checks that
   the correctness check accepts its outputs, then perturbs one output and
   checks that the correctness check rejects it.

Prints one line per check and exits 0 only when all of them hold.  Takes
under half a minute.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import robmarg.cli  # noqa: E402

import workloads  # noqa: E402

SCRATCH = os.path.join(ROOT, ".perfbench_out", "selfcheck")


def _edit(path: str, change) -> None:
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    change(doc)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


def _shift_first_estimate(doc: dict) -> None:
    doc["estimates"][0]["theta_m"] += 5.0


def _break_replications(doc: dict) -> None:
    doc["reps_used"] -= 1
    doc["rows"][0]["bias"] = math.nan


# Output file and the deliberate error written into it.
PERTURBATIONS = {
    "ozone_report": ("report.json", _shift_first_estimate),
    "mc_n100": ("mc_n100.json", _break_replications),
    "synth_large": ("report.json", _shift_first_estimate),
}


def check_metrics(spec: dict, name: str, trace: int) -> list[str]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        return [f"run.py exited with code {proc.returncode}: "
                f"{proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append("outputs were not correct")
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != wanted:
        errors.append(f"metrics/units {got} differ from {wanted}")
    return errors


def check_rejects(name: str) -> list[str]:
    workload = workloads.WORKLOADS[name]
    workdir = os.path.join(SCRATCH, name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    code = robmarg.cli.main(workload.prepare(workdir, 1, True))
    out = os.path.join(workdir, "out")
    clean = workloads.Outcome()
    workload.check(out, clean)
    errors = []
    if code != 0 or clean.problems:
        errors.append(f"unperturbed output rejected: code {code}, "
                      f"{clean.problems}")
    filename, change = PERTURBATIONS[name]
    _edit(os.path.join(out, filename), change)
    perturbed = workloads.Outcome()
    workload.check(out, perturbed)
    if not perturbed.problems:
        errors.append("perturbed output was accepted")
    return errors


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    failures = 0
    try:
        for w in spec["workloads"]:
            name = w["name"]
            checks = [
                (f"{name}: end-to-end metrics", check_metrics(spec, name, 0)),
                (f"{name}: per-layer metrics", check_metrics(spec, name, 1)),
                (f"{name}: perturbed output rejected", check_rejects(name)),
            ]
            for label, errors in checks:
                print(f"{'FAIL' if errors else 'ok  '} {label}")
                for error in errors:
                    print(f"     {error}")
                failures += bool(errors)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
