"""Layer timings of robmarg, written to ``BENCH_<label>.json``.

    PYTHONPATH=src python tools/bench.py --label NAME [--out DIR]

For each size n in ``SIZES`` it draws one benchmark sample
(``generate_sample(n, 1)``: MH missingness, no contamination) and times,
each after one untimed call:

* ``REPEATS`` fits of each model with ``fit_mm`` at seed 0, split into the
  S-search, the polish and the M-step by timing the private helpers of
  ``robmarg.regression`` that run them; ``other_ms`` is the rest of the
  call (input checks and bookkeeping); the record holds the median of each;
* the kernel layers (``KERNEL_LAYERS``): ``auto_bandwidth``, the kernel
  propensity's ``predict`` on all n rows, ``estimate_aipw`` at
  a_n = n^(-1/3), and ``plugin_var_ipw(variant="kernel")`` at the AIPW
  M-location and scale, all under the propensity fitted at the
  cross-validated bandwidth; a sample repeats the call until it fills
  ``SAMPLE_S``, samples go on for ``LAYER_S`` (at least ``REPEATS`` of
  them), and the record holds the least time per call.

The record also holds the fit's work counters, the fitted values, and short
hashes of the outputs at 6 significant digits, so that two records can show
that a speed-up kept the numbers, and the machine facts (CPU count, numpy
and Python versions).

This is a measuring tool, not a test: it is kept out of the test suite.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import statistics
import sys
import time

import numpy as np

from robmarg import regression
from robmarg.inference import plugin_var_ipw
from robmarg.marginal import estimate_aipw
from robmarg.propensity import auto_bandwidth, kernel_propensity
from robmarg.scores import location_bisquare
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
# Least wall time of one timed sample of a kernel layer, and of all its
# samples together, in seconds.
SAMPLE_S = 0.05
LAYER_S = 1.0
KERNEL_LAYERS = ("auto_bandwidth", "kernel_predict", "estimate_aipw",
                 "plugin_var_ipw_kernel")
SF = location_bisquare()


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


def _hash(values) -> str:
    text = " ".join("%.6g" % v for v in np.ravel(values))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _least_ms(call):
    """Least time per call over the samples taken after an untimed call, and
    the last call's result.  A sample runs the call as many times as fill
    ``SAMPLE_S`` (at least once); sampling goes on for at least ``REPEATS``
    samples and ``LAYER_S`` seconds.  On a shared host the load comes and
    goes within seconds, and the least sample is the one it disturbed
    least."""
    start = time.perf_counter()
    result = call()
    number = max(1, math.ceil(SAMPLE_S / (time.perf_counter() - start)))
    times = []
    begin = time.perf_counter()
    while len(times) < REPEATS or time.perf_counter() - begin < LAYER_S:
        start = time.perf_counter()
        for _ in range(number):
            result = call()
        times.append(1e3 * (time.perf_counter() - start) / number)
    return round(min(times), 4), result


def _kernel_outputs(layer: str, result) -> list[float]:
    if layer == "estimate_aipw":
        return [result.theta_mean, result.theta_median, result.theta_m,
                result.scale]
    if layer == "plugin_var_ipw_kernel":
        return [result.se]
    return [float(v) for v in np.ravel(result)]


def bench_kernels() -> tuple[list[dict], str]:
    rows, digest = [], hashlib.sha256()
    for n in SIZES:
        data, _ = generate_sample(n, 1)
        a_n = n ** (-1.0 / 3.0)
        b_n = auto_bandwidth(data.z, data.delta)
        pf = kernel_propensity(data.z, data.delta, b_n)
        est = estimate_aipw(data, pf, a_n, SF)
        calls = {
            "auto_bandwidth": lambda: auto_bandwidth(data.z, data.delta),
            "kernel_predict": lambda: pf.predict(data.z),
            "estimate_aipw": lambda: estimate_aipw(data, pf, a_n, SF),
            "plugin_var_ipw_kernel": lambda: plugin_var_ipw(
                data, pf, est.theta_m, est.scale, SF, variant="kernel"),
        }
        for layer in KERNEL_LAYERS:
            ms, result = _least_ms(calls[layer])
            values = _kernel_outputs(layer, result)
            row = {"n": n, "layer": layer, "ms": ms,
                   "output_hash": _hash(values)}
            if len(values) <= 4:
                row["outputs"] = values
            rows.append(row)
            digest.update(row["output_hash"].encode())
            print(f"n={n:5d} {layer:36s} {ms:9.2f} ms", file=sys.stderr)
    return rows, digest.hexdigest()[:16]


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
    kernel_rows, kernel_hash = bench_kernels()
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
        "kernel_output_hash": kernel_hash,
        "kernel_layers": kernel_rows,
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
