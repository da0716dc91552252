"""The benchmark's workloads: inputs made from a seed, the ``robmarg`` command
line that consumes them, and the checks that decide whether its outputs are
correct.

Each workload is one closed-loop caller making one CLI invocation at a time.
``prepare`` writes the inputs into a work directory and returns the argument
list for ``robmarg.cli.main``; ``check`` reads what the invocation wrote and
returns an ``Outcome`` with the operation counts, the problems found and a
digest of the rounded outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import robmarg.cli
from robmarg.simulation import generate_sample

PACKAGE_DATA = os.path.join(os.path.dirname(robmarg.cli.__file__), "data")

# Criterion 9 of the acceptance suite: the published case-study M-locations
# and their point tolerances (0.8 for the linear convolution model, else 0.5).
OZONE_POINTS = {
    ("ipw", None): {"logistic": 35.848, "kernel": 35.805, "constant": 35.954},
    ("aipw", None): {"logistic": 35.802, "kernel": 35.787, "constant": 35.832},
    ("conv", "nonlinear"): {"logistic": 36.051, "kernel": 36.055,
                            "constant": 36.126},
    ("conv", "linear"): {"logistic": 41.020, "kernel": 40.992,
                         "constant": 41.107},
}

# Long-run marginal values of the benchmark model, from the quadrature oracle
# tools/oracles/marginal_targets.py (MAD-scale convention).
ORACLE_M_LOCATION = 15.375766
ORACLE_NORMALIZED_MAD = 9.276672

# n * variance bounds for the synthetic estimates.  Over seeds 1-7 at
# n = 3200 the six estimates of each output spread by about 0.18 (M-location)
# and 0.15 (scale), i.e. n * var of about 105 and 70; the bounds leave room
# above that, and the check allows five of these standard errors.
SYNTH_NVAR_M_LOCATION = 120.0
SYNTH_NVAR_SCALE = 100.0
SYNTH_TOLERANCE_SE = 5.0

MC_ROWS = 9  # 3 functionals x 3 estimators


@dataclass
class Outcome:
    """What one invocation did: operations attempted and failed, problems
    found by the correctness checks, and a digest of the rounded outputs."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    units: int = 1  # work items one invocation completes (reps or reports)

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _g(value) -> str:
    return "none" if value is None else "%.6g" % value


def _load(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)


def _estimate_argv(data: str, config: str, out: str) -> list[str]:
    return ["estimate", "--data", data, "--config", config, "--out", out]


def _report_digest(report: dict) -> str:
    lines = [
        ",".join(
            [e["estimator"], e["model"] or "", e["propensity"]]
            + [_g(e[k]) for k in ("theta_mean", "theta_median", "theta_m",
                                  "scale", "se")]
        )
        for e in report["estimates"]
    ]
    return _digest("\n".join(lines))


def _check_jackknife(report: dict, outcome: Outcome) -> None:
    """Count each jackknifed entry's leave-one-out refits; skipped ones fail."""
    rows = report["dataset"]["rows"]
    for e in report["estimates"]:
        if e["jackknife_n"] is not None:
            outcome.attempted += rows
            outcome.failed += rows - e["jackknife_n"]


# -- ozone_report -----------------------------------------------------------


def prepare_ozone(workdir: str, seed: int, tiny: bool) -> list[str]:
    config = _load(os.path.join(PACKAGE_DATA, "ozone_config.json"))
    config["seed"] = seed
    if tiny:
        config["jackknife"] = False
    path = os.path.join(workdir, "ozone_config.json")
    _write_json(path, config)
    return _estimate_argv(
        os.path.join(PACKAGE_DATA, "airquality.csv"), path,
        os.path.join(workdir, "out"),
    )


def check_ozone(out_dir: str, outcome: Outcome) -> None:
    report = _load(os.path.join(out_dir, "report.json"))
    outcome.check(report is not None, "report.json missing or unreadable")
    if report is None:
        return
    by = {(e["estimator"], e["model"], e["propensity"]): e
          for e in report["estimates"]}
    for (est, model), row in OZONE_POINTS.items():
        tol = 0.8 if model == "linear" else 0.5
        for prop, want in row.items():
            entry = by.get((est, model, prop))
            got = None if entry is None else entry["theta_m"]
            outcome.check(
                got is not None and abs(got - want) <= tol,
                f"{est}/{model}/{prop}: theta_m {got} not within "
                f"{tol} of {want}",
            )
    _check_jackknife(report, outcome)
    outcome.digest = _report_digest(report)


# -- synth_large ------------------------------------------------------------

SYNTH_N = 3200
SYNTH_N_TINY = 400


def prepare_synth(workdir: str, seed: int, tiny: bool) -> list[str]:
    n = SYNTH_N_TINY if tiny else SYNTH_N
    data, _ = generate_sample(n, seed, "C0", "MH")
    path = os.path.join(workdir, "synth.csv")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("y,x1,x2\n")
        for row in zip(data.y, data.x[:, 0], data.x[:, 1]):
            handle.write(",".join(
                repr(float(v)) if math.isfinite(v) else "NA" for v in row
            ) + "\n")
    config = {
        "response": "y",
        "z": ["x1"],
        "covariates": ["x1", "x2"],
        "estimators": ["ipw", "conv", "aipw"],
        "propensities": ["kernel", "logistic"],
        "models": [{"id": "exp_linear", "label": "exp_linear"}],
        "jackknife": False,
        "scale_method": "mad",
        "seed": seed,
    }
    cfg_path = os.path.join(workdir, "synth_config.json")
    _write_json(cfg_path, config)
    return _estimate_argv(path, cfg_path, os.path.join(workdir, "out"))


def check_synth(out_dir: str, outcome: Outcome) -> None:
    report = _load(os.path.join(out_dir, "report.json"))
    outcome.check(
        report is not None and len(report["estimates"]) == 6,
        "report.json missing, unreadable or without its 6 entries",
    )
    if report is None:
        return
    n = report["dataset"]["rows"]
    tol_m = SYNTH_TOLERANCE_SE * math.sqrt(SYNTH_NVAR_M_LOCATION / n)
    tol_s = SYNTH_TOLERANCE_SE * math.sqrt(SYNTH_NVAR_SCALE / n)
    for e in report["estimates"]:
        tag = f"{e['estimator']}/{e['propensity']}"
        outcome.check(
            abs(e["theta_m"] - ORACLE_M_LOCATION) <= tol_m,
            f"{tag}: theta_m {e['theta_m']} not within {tol_m:.3f} of "
            f"{ORACLE_M_LOCATION}",
        )
        outcome.check(
            abs(e["scale"] - ORACLE_NORMALIZED_MAD) <= tol_s,
            f"{tag}: scale {e['scale']} not within {tol_s:.3f} of "
            f"{ORACLE_NORMALIZED_MAD}",
        )
    _check_jackknife(report, outcome)
    outcome.digest = _report_digest(report)


# -- mc_n100 ----------------------------------------------------------------

MC_REPS = 10
MC_REPS_TINY = 4


def prepare_mc(workdir: str, seed: int, tiny: bool) -> list[str]:
    config = {
        "workers": 1,
        "scenarios": [{
            "id": "mc_n100",
            "n": 100,
            "reps": MC_REPS_TINY if tiny else MC_REPS,
            "seed": seed,
            "contamination": "C0",
            "missing": "MH",
            "propensity_method": "kernel",
            "regression_spec": "true_nonlinear",
            "estimators": ["ipw", "conv", "aipw"],
            "functionals": ["mean", "median", "m_est"],
        }],
    }
    path = os.path.join(workdir, "mc_config.json")
    _write_json(path, config)
    return ["simulate", "--config", path, "--out",
            os.path.join(workdir, "out")]


def check_mc(out_dir: str, outcome: Outcome) -> None:
    table = _load(os.path.join(out_dir, "mc_n100.json"))
    outcome.check(
        table is not None and len(table["rows"]) == MC_ROWS,
        f"mc_n100.json missing, unreadable or without its {MC_ROWS} rows",
    )
    if table is None:
        return
    reps = table["config"]["reps"]
    outcome.units = table["reps_used"]
    outcome.attempted += reps
    outcome.failed += table["failures"]
    outcome.check(
        table["reps_used"] == reps,
        f"reps_used {table['reps_used']} != reps {reps}",
    )
    lines = [f"{table['reps_used']},{_g(table['observed_fraction'])}"]
    for row in table["rows"]:
        values = [row[k] for k in ("bias", "sd", "mse", "L10", "L20", "L1",
                                   "L2")]
        tag = f"{row['functional']}/{row['estimator']}"
        outcome.check(
            all(isinstance(v, (int, float)) and math.isfinite(v)
                for v in values),
            f"{tag}: non-finite summary {values}",
        )
        lines.append(",".join([tag] + [_g(v) for v in values]))
    outcome.digest = _digest("\n".join(lines))


@dataclass(frozen=True)
class Workload:
    """Why each workload was chosen is recorded in BENCHMARK.json and the
    README next to this file."""

    name: str
    prepare: object
    check: object
    request: str  # request id of the traced spans outside any replication


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ozone_report", prepare_ozone, check_ozone, "report"),
        Workload("mc_n100", prepare_mc, check_mc, "scenario"),
        Workload("synth_large", prepare_synth, check_synth, "report"),
    )
}
