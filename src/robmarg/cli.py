"""Batch command-line interface.

Three subcommands: ``estimate`` builds a marginal-estimation report from a
CSV dataset and a JSON configuration, ``simulate`` drives the Monte Carlo
scenario runner over a scenario list, and ``targets`` computes the long-run
marginal functionals of the benchmark model.  Exit codes: 0 success,
1 input error, 2 runtime abort.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import tempfile
from io import StringIO

import numpy as np

from .dataset import ObservedDataset
from .inference import confidence_interval, jackknife_se
from .marginal import (
    SCALE_METHODS,
    estimate_aipw,
    estimate_conv,
    estimate_ipw,
)
from .propensity import (
    DEFAULT_FLOOR,
    auto_bandwidth,
    constant_propensity,
    fit_logistic,
    kernel_propensity,
)
from .regression import (
    exp_linear_model,
    fit_mm,
    hard_rejection_weights,
    linear_model,
)
from .scores import location_bisquare
from .simulation import (
    ESTIMATORS,
    ScenarioConfig,
    run_scenario,
    target_values,
)

__all__ = ["main"]

_SF = location_bisquare()

_MODEL_IDS = {
    "exp_linear": lambda: exp_linear_model(intercept=False),
    "exp_linear_intercept": lambda: exp_linear_model(intercept=True),
    "linear": linear_model,
}
_WEIGHT_IDS = {None: None, "hard_rejection": hard_rejection_weights}
_CLI_PROPENSITIES = ("logistic", "kernel", "constant")

_SCENARIO_FIELDS = {
    "n",
    "reps",
    "seed",
    "contamination",
    "missing",
    "propensity_method",
    "regression_spec",
    "estimators",
    "functionals",
}


class InputError(ValueError):
    """A problem with the command's inputs (exit code 1)."""


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(value) -> str:
    if value is None:
        return ""
    return "%.6g" % value


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {what}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{what} must be a JSON object")
    return doc


def _read_csv_columns(path: str, columns: list[str]) -> dict[str, np.ndarray]:
    """Read the named numeric columns; blanks and "NA" become NaN.

    Errors carry the 1-based file row number (the header is row 1).
    """
    try:
        handle = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise InputError(f"cannot read data file: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError("data file is empty") from None
        header = [h.strip() for h in header]
        missing_cols = [c for c in columns if c not in header]
        if missing_cols:
            raise InputError(
                f"data file lacks column(s): {', '.join(missing_cols)}"
            )
        idx = {c: header.index(c) for c in columns}
        values: dict[str, list[float]] = {c: [] for c in columns}
        for row_number, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise InputError(
                    f"row {row_number}: expected {len(header)} fields, "
                    f"got {len(row)}"
                )
            for c in columns:
                cell = row[idx[c]].strip()
                if cell == "" or cell.upper() == "NA":
                    values[c].append(math.nan)
                    continue
                try:
                    values[c].append(float(cell))
                except ValueError:
                    raise InputError(
                        f"row {row_number}: could not parse {cell!r} "
                        f"in column {c!r}"
                    ) from None
    if not values[columns[0]]:
        raise InputError("data file has no data rows")
    return {c: np.asarray(v, dtype=float) for c, v in values.items()}


def _require(config: dict, key: str, kind, what: str):
    if key not in config:
        raise InputError(f"{what}: missing field {key!r}")
    value = config[key]
    if not isinstance(value, kind):
        raise InputError(f"{what}: field {key!r} has the wrong type")
    return value


def _is_number(value, kind=(int, float)) -> bool:
    """A JSON number of ``kind``; ``true`` and ``false`` are not numbers."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _string_list(config: dict, key: str, what: str, default=None) -> list[str]:
    if key not in config and default is not None:
        return list(default)
    value = _require(config, key, list, what)
    if not value or not all(isinstance(v, str) for v in value):
        raise InputError(f"{what}: field {key!r} must be a nonempty "
                         "list of strings")
    return value


def _build_estimate_settings(config: dict) -> dict:
    what = "estimate config"
    response = _require(config, "response", str, what)
    z_names = _string_list(config, "z", what)
    covariates = _string_list(config, "covariates", what)
    for name in z_names:
        if name not in covariates:
            raise InputError(
                f"{what}: z column {name!r} is not in 'covariates'"
            )
    estimators = _string_list(config, "estimators", what, default=ESTIMATORS)
    bad = [e for e in estimators if e not in ESTIMATORS]
    if bad:
        raise InputError(f"{what}: unknown estimators {bad!r}")
    propensities = _string_list(
        config, "propensities", what, default=_CLI_PROPENSITIES
    )
    bad = [p for p in propensities if p not in _CLI_PROPENSITIES]
    if bad:
        raise InputError(f"{what}: unknown propensities {bad!r}")

    models = []
    labels = set()
    for entry in config.get("models", []):
        if not isinstance(entry, dict) or "id" not in entry:
            raise InputError(f"{what}: each model needs an 'id'")
        mid = entry["id"]
        if mid not in _MODEL_IDS:
            raise InputError(f"{what}: unknown model id {mid!r}")
        weights = entry.get("weights")
        if weights not in _WEIGHT_IDS:
            raise InputError(f"{what}: unknown model weights {weights!r}")
        label = str(entry.get("label", mid))
        if label in labels:
            raise InputError(
                f"{what}: two models are labelled {label!r}; give each "
                "model a distinct 'label'"
            )
        labels.add(label)
        models.append({"id": mid, "label": label, "weights": weights})
    if models and len(covariates) != 2:
        raise InputError(
            f"{what}: the regression models need exactly 2 'covariates', "
            f"got {len(covariates)}"
        )
    if "conv" in estimators and not models:
        raise InputError(
            f"{what}: the conv estimator needs at least one entry in 'models'"
        )

    a_n = config.get("a_n")
    if a_n is not None and (not _is_number(a_n) or a_n <= 0):
        raise InputError(f"{what}: field 'a_n' must be a positive number")
    bandwidth = config.get("kernel_bandwidth")
    if bandwidth is not None and (not _is_number(bandwidth) or bandwidth <= 0):
        raise InputError(
            f"{what}: field 'kernel_bandwidth' must be a positive number"
        )
    floor = config.get("floor", DEFAULT_FLOOR)
    if not _is_number(floor) or not 0 < floor < 1:
        raise InputError(f"{what}: field 'floor' must lie in (0, 1)")
    level = config.get("confidence_level", 0.95)
    if not _is_number(level) or not 0 < level < 1:
        raise InputError(
            f"{what}: field 'confidence_level' must lie strictly in (0, 1)"
        )
    jackknife = config.get("jackknife", True)
    if not isinstance(jackknife, bool):
        raise InputError(f"{what}: field 'jackknife' must be a boolean")
    jk_prop = config.get("jackknife_propensity")
    if jk_prop is None:
        jk_prop = "kernel" if "kernel" in propensities else propensities[0]
    if jk_prop not in propensities:
        raise InputError(
            f"{what}: 'jackknife_propensity' must be one of the requested "
            "propensities"
        )
    seed = config.get("seed", 0)
    if not _is_number(seed, int):
        raise InputError(f"{what}: field 'seed' must be an integer")
    scale_method = config.get("scale_method", "mad")
    if scale_method not in SCALE_METHODS:
        raise InputError(
            f"{what}: field 'scale_method' must be one of {SCALE_METHODS!r}"
        )

    return {
        "response": response,
        "z": z_names,
        "covariates": covariates,
        "estimators": [e for e in ESTIMATORS if e in estimators],
        "propensities": propensities,
        "models": models,
        "a_n": a_n,
        "kernel_bandwidth": bandwidth,
        "floor": float(floor),
        "confidence_level": float(level),
        "jackknife": jackknife,
        "jackknife_propensity": jk_prop,
        "seed": seed,
        "scale_method": scale_method,
    }


def _build_dataset(table: dict[str, np.ndarray], settings: dict) -> ObservedDataset:
    response = settings["response"]
    covariates = settings["covariates"]
    y = table[response]
    x = np.column_stack([table[c] for c in covariates])
    z_index = tuple(covariates.index(name) for name in settings["z"])
    observed_parts = [np.isfinite(y)] + [
        np.isfinite(table[c])
        for c in covariates
        if c not in settings["z"]
    ]
    delta = np.logical_and.reduce(observed_parts).astype(int)
    try:
        return ObservedDataset(y=y, x=x, z_index=z_index, delta=delta)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _fit_cli_propensity(method: str, data: ObservedDataset, settings: dict):
    if method == "logistic":
        return fit_logistic(data.z, data.delta, floor=settings["floor"])
    if method == "kernel":
        b_n = settings["kernel_bandwidth"]
        if b_n is None:
            b_n = auto_bandwidth(data.z, data.delta)
        return kernel_propensity(data.z, data.delta, b_n, floor=settings["floor"])
    return constant_propensity(data.delta, floor=settings["floor"])


def _fit_model(spec: dict, data: ObservedDataset, settings: dict):
    model = _MODEL_IDS[spec["id"]]()
    return model, fit_mm(
        model,
        data,
        covariate_weights=_WEIGHT_IDS[spec["weights"]],
        seed=settings["seed"],
    )


def _estimate(est_name: str, data: ObservedDataset, pf, settings: dict,
              model_fit=None):
    sm = settings["scale_method"]
    if est_name == "ipw":
        return estimate_ipw(data, pf, _SF, sm)
    if est_name == "aipw":
        return estimate_aipw(data, pf, settings["a_n_resolved"], _SF, sm)
    return estimate_conv(data, pf, *model_fit, _SF, sm)


def _estimate_entries(data: ObservedDataset, settings: dict) -> list[dict]:
    """All requested (estimator, propensity[, model]) marginal estimates."""
    a_n = settings["a_n"]
    if a_n is None:
        a_n = data.n ** (-1.0 / 3.0)
    settings["a_n_resolved"] = a_n

    fits = {m["label"]: _fit_model(m, data, settings) for m in settings["models"]}
    # Each propensity fit is deterministic, so one per dataset serves every
    # estimator and model.
    pfs = {
        prop: _fit_cli_propensity(prop, data, settings)
        for prop in settings["propensities"]
    }
    entries = []
    for est_name in settings["estimators"]:
        variants = (
            [m["label"] for m in settings["models"]]
            if est_name == "conv"
            else [None]
        )
        for label in variants:
            for prop in settings["propensities"]:
                est = _estimate(est_name, data, pfs[prop], settings,
                                fits.get(label))
                entries.append(
                    {
                        "estimator": est_name,
                        "model": label,
                        "propensity": prop,
                        "theta_mean": est.theta_mean,
                        "theta_median": est.theta_median,
                        "theta_m": est.theta_m,
                        "scale": est.scale,
                        "negative_weights_floored": bool(
                            est.negative_weights_floored
                        ),
                        "converged": (
                            fits[label][1].converged if label is not None
                            else None
                        ),
                        "se": None,
                        "ci": None,
                        "jackknife_n": None,
                    }
                )
    return entries


def _jackknife_theta(entry: dict, settings: dict):
    """Closure recomputing the entry's M-location on a leave-one-out dataset."""
    spec = next(
        (m for m in settings["models"] if m["label"] == entry["model"]), None
    )

    def rerun(d: ObservedDataset) -> float:
        pf = _fit_cli_propensity(entry["propensity"], d, settings)
        model_fit = _fit_model(spec, d, settings) if spec else None
        return _estimate(entry["estimator"], d, pf, settings, model_fit).theta_m

    return rerun


def _attach_jackknife(
    entries: list[dict], data: ObservedDataset, settings: dict
) -> None:
    """Jackknife SE and CI for each estimator under the designated propensity.

    The convolution estimator is jackknifed under its first configured
    model only; the others have exactly one variant.
    """
    if not settings["jackknife"]:
        return
    jk_prop = settings["jackknife_propensity"]
    first_label = settings["models"][0]["label"] if settings["models"] else None
    for entry in entries:
        if entry["propensity"] != jk_prop:
            continue
        if entry["estimator"] == "conv" and entry["model"] != first_label:
            continue
        ve = jackknife_se(_jackknife_theta(entry, settings), data)
        lo, hi = confidence_interval(
            entry["theta_m"], ve, settings["confidence_level"]
        )
        entry["se"] = ve.se
        entry["ci"] = [lo, hi]
        entry["jackknife_n"] = ve.n_effective


def _report_csv(entries: list[dict]) -> str:
    out = StringIO()
    out.write(
        "estimator,model,propensity,theta_m,scale,se,ci_low,ci_high\n"
    )
    for e in entries:
        ci = e["ci"] or (None, None)
        cells = [
            e["estimator"],
            e["model"] or "",
            e["propensity"],
            _fmt(e["theta_m"]),
            _fmt(e["scale"]),
            _fmt(e["se"]),
            _fmt(ci[0]),
            _fmt(ci[1]),
        ]
        out.write(",".join(cells) + "\n")
    return out.getvalue()


def cmd_estimate(args) -> int:
    config = _load_json(args.config, "estimate config")
    settings = _build_estimate_settings(config)
    columns = [settings["response"]] + [
        c for c in settings["covariates"] if c != settings["response"]
    ]
    table = _read_csv_columns(args.data, columns)
    data = _build_dataset(table, settings)

    missing_counts = {
        name: int(np.sum(~np.isfinite(table[name]))) for name in columns
    }

    try:
        entries = _estimate_entries(data, settings)
        _attach_jackknife(entries, data, settings)
    except InputError:
        raise
    except Exception as exc:
        raise RuntimeError(f"estimation failed: {exc}") from exc

    report = {
        "dataset": {
            "path": os.path.basename(args.data),
            "rows": int(data.n),
            "complete": int(data.delta.sum()),
            "missing": missing_counts,
        },
        "settings": {
            key: settings[key]
            for key in (
                "response",
                "z",
                "covariates",
                "estimators",
                "propensities",
                "models",
                "floor",
                "confidence_level",
                "jackknife",
                "jackknife_propensity",
                "seed",
                "scale_method",
            )
        }
        | {"a_n": settings["a_n_resolved"]},
        "estimates": entries,
    }
    os.makedirs(args.out, exist_ok=True)
    _atomic_write(
        os.path.join(args.out, "report.json"),
        json.dumps(report, indent=2, sort_keys=True) + "\n",
    )
    _atomic_write(os.path.join(args.out, "table.csv"), _report_csv(entries))
    return 0


def _parse_scenarios(config: dict) -> list[tuple[str, ScenarioConfig]]:
    what = "simulate config"
    scenarios = config.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        raise InputError(f"{what}: 'scenarios' must be a nonempty list")
    parsed = []
    seen = set()
    for k, entry in enumerate(scenarios):
        if not isinstance(entry, dict):
            raise InputError(f"{what}: scenario #{k + 1} must be an object")
        sid = entry.get("id", f"scenario{k + 1}")
        if not isinstance(sid, str) or not sid or not all(
            ch.isalnum() or ch in "_-" for ch in sid
        ):
            raise InputError(
                f"{what}: scenario #{k + 1} field 'id' must use only "
                "letters, digits, '_' or '-'"
            )
        if sid in seen:
            raise InputError(f"{what}: duplicate scenario id {sid!r}")
        seen.add(sid)
        fields = {}
        for key, value in entry.items():
            if key == "id":
                continue
            if key not in _SCENARIO_FIELDS:
                raise InputError(
                    f"{what}: scenario {sid!r}: unknown field {key!r}"
                )
            if key in ("estimators", "functionals"):
                if not isinstance(value, list):
                    raise InputError(
                        f"{what}: scenario {sid!r}: field {key!r} must be "
                        "a list"
                    )
                value = tuple(value)
            fields[key] = value
        try:
            cfg = ScenarioConfig(**fields)
        except (TypeError, ValueError) as exc:
            raise InputError(f"{what}: scenario {sid!r}: {exc}") from exc
        parsed.append((sid, cfg))
    return parsed


def cmd_simulate(args) -> int:
    config = _load_json(args.config, "simulate config")
    scenarios = _parse_scenarios(config)
    targets = config.get("targets")
    if targets is not None and not isinstance(targets, dict):
        raise InputError("simulate config: 'targets' must be an object")
    workers = config.get("workers", 1)
    if not _is_number(workers, int) or workers < 1:
        raise InputError("simulate config: 'workers' must be a positive "
                         "integer")

    os.makedirs(args.out, exist_ok=True)
    combined = StringIO()
    combined.write(
        "scenario,functional,estimator,propensity,bias,sd,mse,L10,L20,L1,L2\n"
    )
    aborted = []
    for sid, cfg in scenarios:
        try:
            tab = run_scenario(cfg, targets=targets, workers=workers)
        except RuntimeError as exc:
            print(f"scenario {sid}: {exc}", file=sys.stderr)
            aborted.append(sid)
            continue
        _atomic_write(os.path.join(args.out, f"{sid}.csv"), tab.to_csv_text())
        _atomic_write(
            os.path.join(args.out, f"{sid}.json"), tab.to_json_text()
        )
        for line in tab.to_csv_text().splitlines()[1:]:
            combined.write(f"{sid},{line}\n")
    _atomic_write(os.path.join(args.out, "combined.csv"), combined.getvalue())
    if aborted:
        print(
            f"{len(aborted)} of {len(scenarios)} scenario(s) aborted: "
            + ", ".join(aborted),
            file=sys.stderr,
        )
        return 2
    return 0


def cmd_targets(args) -> int:
    if args.reps < 1:
        raise InputError("--reps must be at least 1")
    if args.n < 2:
        raise InputError("--n must be at least 2")
    tv = target_values(reps=args.reps, n=args.n, seed=args.seed)
    doc = {
        "mean": tv.mean,
        "median": tv.median,
        "m_est": tv.m_est,
        "mean_se": tv.mean_se,
        "median_se": tv.median_se,
        "m_est_se": tv.m_est_se,
        "reps": tv.reps,
        "n": tv.n,
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if args.out:
        _atomic_write(args.out, text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robmarg",
        description=(
            "Robust M-location estimation of a marginal response "
            "distribution under missing-at-random data"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser(
        "estimate", help="estimate marginal parameters from a CSV dataset"
    )
    p_est.add_argument("--data", required=True, help="input CSV file")
    p_est.add_argument("--config", required=True, help="JSON configuration")
    p_est.add_argument("--out", required=True, help="output directory")
    p_est.set_defaults(handler=cmd_estimate)

    p_sim = sub.add_parser(
        "simulate", help="run Monte Carlo scenarios and write summary tables"
    )
    p_sim.add_argument("--config", required=True, help="JSON scenario list")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(handler=cmd_simulate)

    p_tgt = sub.add_parser(
        "targets", help="compute long-run marginal values of the benchmark"
    )
    p_tgt.add_argument("--reps", type=int, default=100)
    p_tgt.add_argument("--n", type=int, default=10**6)
    p_tgt.add_argument("--seed", type=int, default=0)
    p_tgt.add_argument("--out", default=None, help="also write JSON here")
    p_tgt.set_defaults(handler=cmd_targets)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime abort
        print(f"abort: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
