"""Stage timings of the MM regression fit, written to ``BENCH_<label>.json``.

    PYTHONPATH=src python tools/bench.py --label NAME [--out DIR]

For each size n in ``SIZES`` it draws one benchmark sample
(``generate_sample(n, 1)``: MH missingness, no contamination) and fits each
model with ``fit_mm`` at seed 0, once untimed and then ``REPEATS`` times.
Each fit is split into the S-search, the polish and the M-step by timing
the private helpers of ``robmarg.regression`` that run them; ``other_ms``
is the rest of the call (input checks and bookkeeping).  The record holds
the median of each timing, the fit's work counters, the fitted values, and
a short hash of those values at 6 significant digits, so that two records
can show that a speed-up kept the numbers.  The machine facts (CPU count,
numpy and Python versions) come with it.

This is a measuring tool, not a test: it is kept out of the test suite.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import statistics
import sys
import time

import numpy as np

from robmarg import regression
from robmarg.simulation import generate_sample

MODELS = {
    "exp_linear": (lambda: regression.exp_linear_model(), None),
    "exp_linear_intercept+hard_rejection": (
        lambda: regression.exp_linear_model(intercept=True),
        regression.hard_rejection_weights,
    ),
    "linear": (regression.linear_model, None),
}

SIZES = (100, 400, 1600, 6400)
REPEATS = 3
# Stage -> the helper of ``robmarg.regression`` that runs it.
STAGES = {"s_search": "_s_search", "polish": "_polish", "m_step": "_m_step"}
COUNTERS = ("candidates_solved", "polish_steps", "m_iterations")


def _timed(func, stage: str, clock: dict):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            clock[stage] += time.perf_counter() - start

    return wrapper


def _install(clock: dict) -> None:
    for stage, name in STAGES.items():
        setattr(regression, name,
                _timed(getattr(regression, name), stage, clock))


def bench() -> dict:
    clock = dict.fromkeys(STAGES, 0.0)
    _install(clock)
    rows, digest = [], hashlib.sha256()
    for n in SIZES:
        data, _ = generate_sample(n, 1)
        for name, (make_model, weights) in MODELS.items():
            model = make_model()
            keys = ("fit", *STAGES, "other")
            samples = {f"{key}_ms": [] for key in keys}
            for rep in range(REPEATS + 1):
                for stage in clock:
                    clock[stage] = 0.0
                start = time.perf_counter()
                fit = regression.fit_mm(
                    model, data, covariate_weights=weights, seed=0
                )
                total = time.perf_counter() - start
                if rep == 0:
                    continue
                samples["fit_ms"].append(1e3 * total)
                for stage in STAGES:
                    samples[f"{stage}_ms"].append(1e3 * clock[stage])
                samples["other_ms"].append(
                    1e3 * (total - sum(clock.values()))
                )
            values = [float(v) for v in fit.beta] + [fit.residual_scale]
            digest.update(" ".join("%.6g" % v for v in values).encode())
            row = {"n": n, "model": name, "complete_cases":
                   fit.complete_case_count}
            row.update(
                {k: round(statistics.median(v), 3) for k, v in samples.items()}
            )
            row.update({c: getattr(fit, c) for c in COUNTERS})
            row["beta"] = [float(v) for v in fit.beta]
            row["residual_scale"] = fit.residual_scale
            rows.append(row)
            print(
                f"n={n:5d} {name:36s} fit {row['fit_ms']:9.2f} ms  "
                + "  ".join(f"{s} {row[s + '_ms']:8.2f}" for s in STAGES),
                file=sys.stderr,
            )
    return {
        "repeats": REPEATS,
        "machine": {
            "nproc": os.cpu_count(),
            "numpy": np.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "output_hash": digest.hexdigest()[:16],
        "fit_mm": rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", default=".")
    args = parser.parse_args(argv)
    record = {"label": args.label, **bench()}
    path = os.path.join(args.out, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
