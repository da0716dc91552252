"""Layer timings of robmarg, written to ``BENCH_<label>.json``.

    PYTHONPATH=src python tools/bench.py --label NAME [--out DIR]

For each size n in ``SIZES`` it draws one benchmark sample
(``generate_sample(n, 1)``: MH missingness, no contamination) and times,
each after one untimed call:

* ``fit_mm`` for each model at seed 0, split into the S-search, the polish
  and the M-step by timing the private helpers of ``robmarg.regression``
  that run them; ``other_ms`` is the rest of the call (input checks and
  bookkeeping);
* the kernel layers (``KERNEL_LAYERS``): ``auto_bandwidth``, the kernel
  propensity's ``predict`` on all n rows, ``estimate_aipw`` at
  a_n = n^(-1/3), and ``plugin_var_ipw(variant="kernel")`` at the AIPW
  M-location and scale, all under the propensity fitted at the
  cross-validated bandwidth;
* ``fit_logistic`` and the summary layers (``SUMMARY_LAYERS``):
  ``functional_summary`` of the conv (``exp_linear`` model), IPW and AIPW
  (a_n = n^(-1/3)) estimates under that logistic propensity, each with the
  MAD and with the S-scale;
* the jackknife layer: the CLI's ``_attach_jackknife`` on the packaged
  ozone data and config (3 jackknifed entries, 153 leave-one-out sets in
  chunks whose model fits are one stack), run across the available CPUs as
  ``robmarg estimate`` runs it, timed once per sample, with the SEs and
  their hash;
* the jackknife fits (``jackknife_fits``): the ozone config's first
  model's fits to the 152 leave-one-out sets that the jackknife gives its
  chunks (sets 1 to 152), in chunks of ``JACKKNIFE_CHUNKS`` rows, in one
  process, made by the CLI's own ``_jackknife_fits``: a chunk's sets that
  leave out a complete row are one stack of refits from the full data's
  fit (``refit_mm_stack``: no subset search, so the S-search time is 0,
  and the scale solve at its start is in no stage; a commit before the
  refits makes them one searched ``fit_mm_stack``), and the others
  take the full data's fit, made once before the timing; with the split
  into the S-search, the polish and the M-step and a hash of all 152
  fits;
* the Monte Carlo block layer (``mc_block``): ``run_scenario`` of the
  benchmark's ``mc_n100`` scenario (n = 100, kernel propensity, the true
  nonlinear model, every estimator and functional) at ``MC_REPS``
  replications in one process, which fits each chunk's MM regressions as
  one stack, with the same split into the S-search, the polish and the
  M-step and a hash of the table;
* the chunk memory layer (``chunk_memory``): one ``estimate_chunk`` pass
  over ``generate_sample(3200, 1)`` with the six keys of the benchmark's
  ``synth_large`` workload (ipw, conv with the ``exp_linear`` model and
  aipw at a_n = n^(-1/3), each under the kernel and the logistic
  propensity), its model fitted before the pass, with the tracemalloc
  peak of the pass, the memory the yielded estimates still hold after it
  (both in MiB above the traced memory at its start) and a hash of the
  estimates.  It uses the public API only, so it runs at any commit that
  has ``estimate_chunk``.

The minor page faults per fit (``getrusage``) of ``FAULT_FITS`` n = 100
fits of each model, one sample each, are counted first, before the other
layers grow the heap.

Every layer is timed the same way: a sample repeats the call until it
fills ``SAMPLE_S``, samples go on for ``LAYER_S`` (at least ``REPEATS`` of
them), and the record holds the least time per call, with the ``fit_mm``
stage split taken from that same sample.

The record also holds the fit's work counters, the fitted values, and short
hashes of the outputs at 6 significant digits, so that two records can show
that a speed-up kept the numbers, and the machine facts (CPU count, the
CPUs this process may use, numpy and Python versions).

It measures the change that made a fit carry its hard-rejection rule
(``fit_mm(..., hard_rejection=True)``, in place of a covariate-weights
function) and later: it calls ``fit_mm`` with ``hard_rejection=``, its
jackknife layer calls ``cli._estimates`` in its chunk form (a list of
datasets, estimated by ``marginal.estimate_chunk``), its jackknife fits
call ``cli._jackknife_fits``, and its estimators and summaries take no
score.  The parent of that change, and any earlier commit, is measured
with its own copy of ``tools/bench.py``.  Run it from one commit's
``tools/`` with ``PYTHONPATH`` at another's ``src`` to measure a pair with
one script.

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
import resource
import sys
import time
import tracemalloc
import warnings

import numpy as np

from robmarg import cli, inference, parallel, regression
from robmarg.inference import plugin_var_ipw
from robmarg.marginal import (estimate_aipw, estimate_chunk, estimate_conv,
                              estimate_ipw, functional_summary)
from robmarg.propensity import (auto_bandwidth, fit_logistic, fit_propensity,
                                kernel_propensity)
from robmarg.simulation import ScenarioConfig, generate_sample, run_scenario

# Record name -> (model, whether the fit is hard-rejection weighted).
MODELS = {
    "exp_linear": (regression.MODELS["exp_linear"], False),
    "exp_linear_intercept+hard_rejection": (
        regression.MODELS["exp_linear_intercept"], True),
    "linear": (regression.MODELS["linear"], False),
}

SIZES = (100, 400, 1600, 6400)
REPEATS = 3
# Stage -> the helper of ``robmarg.regression`` that runs it.
STAGES = {"s_search": "_s_search", "polish": "_polish", "m_step": "_m_step"}
COUNTERS = ("candidates_solved", "polish_steps", "polish_converged",
            "m_iterations")
# Least wall time of one timed sample of a kernel layer, and of all its
# samples together, in seconds.
SAMPLE_S = 0.05
LAYER_S = 1.0
KERNEL_LAYERS = ("auto_bandwidth", "kernel_predict", "estimate_aipw",
                 "plugin_var_ipw_kernel")
SUMMARY_LAYERS = {f"{est}_summary_{method}": (est, method)
                  for est in ("conv", "ipw", "aipw") for method in ("mad", "s")}
MC_REPS = (10, 64)
JACKKNIFE_CHUNKS = (19, 64)
FAULT_FITS = 60
CHUNK_N = 3200
CHUNK_KEYS = [(est, "exp_linear" if est == "conv" else None, prop)
              for est in ("ipw", "conv", "aipw")
              for prop in ("kernel", "logistic")]
PACKAGE_DATA = os.path.join(os.path.dirname(cli.__file__), "data")


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


def _least_ms(call, clock=None):
    """Least time per call over the samples taken after an untimed call, the
    time per call of each stage in ``clock`` during that sample, and the
    last call's result.  A sample runs the call as many times as fill
    ``SAMPLE_S`` (at least once); sampling goes on for at least ``REPEATS``
    samples and ``LAYER_S`` seconds.  On a shared host the load comes and
    goes within seconds, and the least sample is the one it disturbed
    least."""
    clock = {} if clock is None else clock
    start = time.perf_counter()
    result = call()
    number = max(1, math.ceil(SAMPLE_S / (time.perf_counter() - start)))
    best, samples = None, 0
    begin = time.perf_counter()
    while samples < REPEATS or time.perf_counter() - begin < LAYER_S:
        for stage in clock:
            clock[stage] = 0.0
        start = time.perf_counter()
        for _ in range(number):
            result = call()
        ms = 1e3 * (time.perf_counter() - start) / number
        samples += 1
        if best is None or ms < best[0]:
            best = (ms, {k: 1e3 * v / number for k, v in clock.items()})
    return round(best[0], 4), best[1], result


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
        est = estimate_aipw(data, pf, a_n)
        calls = {
            "auto_bandwidth": lambda: auto_bandwidth(data.z, data.delta),
            "kernel_predict": lambda: pf.predict(data.z),
            "estimate_aipw": lambda: estimate_aipw(data, pf, a_n),
            "plugin_var_ipw_kernel": lambda: plugin_var_ipw(
                data, pf, est.theta_m, est.scale, variant="kernel"),
        }
        for layer in KERNEL_LAYERS:
            ms, _, result = _least_ms(calls[layer])
            values = _kernel_outputs(layer, result)
            row = {"n": n, "layer": layer, "ms": ms,
                   "output_hash": _hash(values)}
            if len(values) <= 4:
                row["outputs"] = values
            rows.append(row)
            digest.update(row["output_hash"].encode())
            print(f"n={n:5d} {layer:36s} {ms:9.2f} ms", file=sys.stderr)
    return rows, digest.hexdigest()[:16]


def _row(rows, digest, n, layer, ms, values, **extra) -> None:
    row = {"n": n, "layer": layer, **extra, "ms": ms,
           "output_hash": _hash(values), "outputs": values}
    rows.append(row)
    digest.update(row["output_hash"].encode())
    print(f"n={n:5d} {layer:36s} {ms:9.2f} ms", file=sys.stderr)


def bench_summaries() -> tuple[list[dict], str]:
    rows, digest = [], hashlib.sha256()
    model = regression.MODELS["exp_linear"]
    for n in SIZES:
        data, _ = generate_sample(n, 1)
        fit = regression.fit_mm(model, data, seed=0)
        ms, _, pf = _least_ms(lambda: fit_logistic(data.z, data.delta))
        _row(rows, digest, n, "fit_logistic", ms,
             [float(v) for v in pf.params["gamma"]])
        with warnings.catch_warnings():
            # Past 2000 complete cases the conv grid is reduced, with a
            # warning that is expected here.
            warnings.simplefilter("ignore")
            dists = {
                "conv": estimate_conv(data, pf, fit).distribution,
                "ipw": estimate_ipw(data, pf).distribution,
                "aipw": estimate_aipw(data, pf,
                                      n ** (-1.0 / 3.0)).distribution,
            }
        for layer, (est, method) in SUMMARY_LAYERS.items():
            dist = dists[est]
            ms, _, summ = _least_ms(lambda: functional_summary(dist, method))
            _row(rows, digest, n, layer, ms,
                 [summ.scale, summ.mean, summ.median, summ.m_est],
                 atoms=dist.atoms.size)
    return rows, digest.hexdigest()[:16]


def _ozone():
    """The packaged ozone config's settings and data, as the CLI reads
    them."""
    with open(os.path.join(PACKAGE_DATA, "ozone_config.json"),
              encoding="utf-8") as handle:
        settings = cli._build_estimate_settings(json.load(handle))
    columns = [settings["response"], *settings["covariates"]]
    table = cli._read_csv_columns(
        os.path.join(PACKAGE_DATA, "airquality.csv"), columns)
    return settings, cli._build_dataset(table, settings)


def bench_jackknife() -> dict:
    settings, data = _ozone()
    a_n = cli._a_n(settings, data)
    fits = cli._fit_models(data, settings)
    (estimates,) = cli._estimates([data], settings, [fits], a_n)
    entries = cli._report_entries(estimates, fits)

    def call():
        fresh = [dict(e) for e in entries]
        cli._attach_jackknife(fresh, data, settings, a_n, fits)
        return [e["se"] for e in fresh if e["se"] is not None]

    ms, _, ses = _least_ms(call)
    print(f"n={data.n:5d} {'attach_jackknife':36s} {ms:9.2f} ms",
          file=sys.stderr)
    return {"n": data.n, "entries": len(ses), "ms": ms, "ses": ses,
            "output_hash": _hash(ses)}


def bench_jackknife_fits(clock: dict) -> list[dict]:
    settings, data = _ozone()
    first = dict(settings, models=settings["models"][:1])
    label = first["models"][0]["label"]
    full = cli._fit_models(data, first)
    sets = [inference._drop_row(data, i) for i in range(1, data.n)]
    stacked = sum(int(d.delta.sum()) != full[label].complete_case_count
                  for d in sets)
    rows = []
    for size in JACKKNIFE_CHUNKS:
        def call():
            return [fits[label] for k in range(0, len(sets), size)
                    for fits in cli._jackknife_fits(sets[k:k + size], first,
                                                    full)]

        ms, split, fits = _least_ms(call, clock)
        values = [v for fit in fits
                  for v in [*fit.beta, fit.residual_scale]]
        rows.append({
            "sets": len(sets), "stacked": stacked, "chunk": size, "ms": ms,
            **{f"{stage}_ms": round(split[stage], 4) for stage in STAGES},
            "output_hash": _hash(values),
        })
        print(f"chunk={size:3d} {'jackknife_fits':35s} {ms:9.2f} ms  "
              + "  ".join(f"{s} {rows[-1][s + '_ms']:8.2f}" for s in STAGES),
              file=sys.stderr)
    return rows


def bench_faults() -> dict:
    samples = [generate_sample(100, seed)[0] for seed in range(FAULT_FITS)]
    out = {}
    for name, (model, hard_rejection) in MODELS.items():
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for seed, data in enumerate(samples):
            regression.fit_mm(model, data, hard_rejection=hard_rejection,
                              seed=seed)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        out[name] = round(faults / FAULT_FITS, 2)
        print(f"n=  100 {name:36s} {out[name]:9.2f} faults/fit",
              file=sys.stderr)
    return out


def bench_mc(clock: dict) -> list[dict]:
    rows = []
    for reps in MC_REPS:
        cfg = ScenarioConfig(n=100, reps=reps, seed=7,
                             propensity_method="kernel")
        ms, split, table = _least_ms(lambda: run_scenario(cfg), clock)
        rows.append({
            "reps": reps, "ms": ms, "reps_per_s": round(reps * 1e3 / ms, 2),
            **{f"{stage}_ms": round(split[stage], 4) for stage in STAGES},
            "output_hash": hashlib.sha256(
                table.to_csv_text().encode()).hexdigest()[:16],
        })
        print(f"reps={reps:3d} {'mc_block':36s} {ms:9.2f} ms  "
              + "  ".join(f"{s} {rows[-1][s + '_ms']:8.2f}" for s in STAGES),
              file=sys.stderr)
    return rows


def bench_chunk_memory() -> dict:
    data, _ = generate_sample(CHUNK_N, 1)
    fits = [{"exp_linear": regression.fit_mm(regression.MODELS["exp_linear"],
                                             data, seed=0)}]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        (estimates,) = estimate_chunk([data], fit_propensity, fits,
                                      CHUNK_KEYS, CHUNK_N ** (-1.0 / 3.0))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    values = [v for est in estimates.values()
              for v in (est.theta_mean, est.theta_median, est.theta_m,
                        est.scale)]
    row = {"n": CHUNK_N, "keys": len(CHUNK_KEYS),
           "peak_mib": round((peak - start) / 2**20, 1),
           "held_mib": round((held - start) / 2**20, 1),
           "output_hash": _hash(values)}
    print(f"n={CHUNK_N:5d} {'chunk_memory':36s} peak {row['peak_mib']:7.1f} "
          f"MiB  held {row['held_mib']:7.1f} MiB", file=sys.stderr)
    return row


def bench() -> dict:
    faults = bench_faults()
    clock = dict.fromkeys(STAGES, 0.0)
    _install(clock)
    rows, digest = [], hashlib.sha256()
    for n in SIZES:
        data, _ = generate_sample(n, 1)
        for name, (model, hard_rejection) in MODELS.items():
            ms, split, fit = _least_ms(
                lambda: regression.fit_mm(
                    model, data, hard_rejection=hard_rejection, seed=0),
                clock,
            )
            values = [float(v) for v in fit.beta] + [fit.residual_scale]
            digest.update(" ".join("%.6g" % v for v in values).encode())
            row = {"n": n, "model": name, "complete_cases":
                   fit.complete_case_count, "fit_ms": ms}
            row.update(
                {f"{stage}_ms": round(split[stage], 4) for stage in STAGES})
            row["other_ms"] = round(ms - sum(split.values()), 4)
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
    summary_rows, summary_hash = bench_summaries()
    return {
        "repeats": REPEATS,
        "machine": {
            "nproc": os.cpu_count(),
            "available_cpus": parallel.available_cpus(),
            "numpy": np.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "output_hash": digest.hexdigest()[:16],
        "fit_mm": rows,
        "kernel_output_hash": kernel_hash,
        "kernel_layers": kernel_rows,
        "summary_output_hash": summary_hash,
        "summary_layers": summary_rows,
        "jackknife_layer": bench_jackknife(),
        "jackknife_fits": bench_jackknife_fits(clock),
        "fit_faults_n100": faults,
        "mc_block": bench_mc(clock),
        "chunk_memory": bench_chunk_memory(),
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
