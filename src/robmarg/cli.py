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
import dataclasses
import functools
import json
import math
import os
import sys
import tempfile
from io import StringIO

import numpy as np

from . import parallel
from .dataset import ObservedDataset
from .inference import confidence_interval, jackknife_se
from .marginal import SCALE_METHODS, default_a_n, estimate_chunk
from .propensity import DEFAULT_FLOOR, fit_propensity
from .regression import MODELS, fit_mm, hard_rejection_weights, refit_mm_stack
from .simulation import (
    ESTIMATORS,
    PUBLISHED_TARGETS,
    ScenarioConfig,
    _CSV_COLUMNS,
    run_scenario,
    target_values,
)

__all__ = ["main"]

_WEIGHT_IDS = {None: None, "hard_rejection": hard_rejection_weights}
_CLI_PROPENSITIES = ("logistic", "kernel", "constant")


def _is_number(value, kind=(int, float)) -> bool:
    """A finite JSON number of ``kind``: not a bool, NaN or Infinity."""
    return (isinstance(value, kind) and not isinstance(value, bool)
            and abs(value) < math.inf)


def _names(known=None):
    """Test for a nonempty list of distinct strings, all in ``known``."""
    return lambda v: (
        isinstance(v, list) and v and all(isinstance(s, str) for s in v)
        and len(set(v)) == len(v) and (known is None or set(v) <= set(known))
    )


# Field tables: name -> (default, test, message).  A missing field takes its
# default, or is an error when the default is _REQUIRED; a given field must
# pass its test (None: the value is checked elsewhere), or the error reads
# "field NAME MESSAGE".  A name not in the table is an error.
_REQUIRED = object()
_NAME_LIST = (_REQUIRED, _names(),
              "must be a nonempty list of distinct strings")
_POSITIVE = (None, lambda v: v is None or (_is_number(v) and v > 0),
             "must be a positive number")

_ESTIMATE_FIELDS = {
    "response": (_REQUIRED, lambda v: isinstance(v, str), "must be a string"),
    "z": _NAME_LIST,
    "covariates": _NAME_LIST,
    "estimators": (ESTIMATORS, _names(ESTIMATORS),
                   f"names unknown estimators or one twice; known: "
                   f"{ESTIMATORS}"),
    "propensities": (_CLI_PROPENSITIES, _names(_CLI_PROPENSITIES),
                     f"names unknown propensities or one twice; known: "
                     f"{_CLI_PROPENSITIES}"),
    "models": ((), lambda v: isinstance(v, list), "must be a list"),
    "a_n": _POSITIVE,
    "kernel_bandwidth": _POSITIVE,
    "floor": (DEFAULT_FLOOR, lambda v: _is_number(v) and 0 < v < 1,
              "must lie in (0, 1)"),
    "confidence_level": (0.95, lambda v: _is_number(v) and 0 < v < 1,
                         "must lie strictly in (0, 1)"),
    "jackknife": (True, lambda v: isinstance(v, bool), "must be a boolean"),
    "jackknife_propensity": (None, None, ""),
    "seed": (0, lambda v: _is_number(v, int) and v >= 0,
             "must be an integer >= 0"),
    "scale_method": ("mad", lambda v: v in SCALE_METHODS,
                     f"must be one of {SCALE_METHODS}"),
}
_MODEL_FIELDS = {
    "id": (_REQUIRED, lambda v: v in tuple(MODELS),
           f"names an unknown model id; known: {tuple(MODELS)}"),
    "label": (None, lambda v: isinstance(v, str), "must be a string"),
    "weights": (None, lambda v: v in tuple(_WEIGHT_IDS),
                f"names unknown model weights; known: {tuple(_WEIGHT_IDS)}"),
}
_SIMULATE_FIELDS = {
    "scenarios": (_REQUIRED, lambda v: isinstance(v, list) and v,
                  "must be a nonempty list"),
    "targets": (None, lambda v: isinstance(v, dict), "must be an object"),
    "workers": (1, lambda v: _is_number(v, int) and v >= 1,
                "must be a positive integer"),
}
_TARGET_FIELDS = {
    name: (value, _is_number, "must be a number")
    for name, value in PUBLISHED_TARGETS.items()
}
# ScenarioConfig checks its own values.
_SCENARIO_FIELDS = {
    "id": (None, lambda v: isinstance(v, str) and v not in ("", "combined")
           and all(ch.isalnum() or ch in "_-" for ch in v),
           "must use only letters, digits, '_' or '-', and not be "
           "'combined', the name of the table of all scenarios"),
} | {f.name: (f.default, None, "") for f in dataclasses.fields(ScenarioConfig)}


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


def _make_out_dir(path: str) -> None:
    """Make the output directory ``path``, before any estimation, or raise
    the InputError that names it."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot use {path!r} as an output directory: "
                         f"{exc.strerror or exc}") from exc


def _fmt(value) -> str:
    if value is None:
        return ""
    return "%.6g" % value


def _load_json(path: str, what: str) -> dict:
    def unique_keys(pairs: list) -> dict:
        keys = [key for key, _ in pairs]
        for key in keys:
            if keys.count(key) > 1:
                raise InputError(f"{what}: field {key!r} is repeated")
        return dict(pairs)

    try:
        with open(path, encoding="utf-8-sig") as handle:
            doc = json.load(handle, object_pairs_hook=unique_keys)
    except OSError as exc:
        raise InputError(f"cannot read {what}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{what} must be a JSON object")
    return doc


def _read_csv_columns(path: str, columns: list[str]) -> dict[str, np.ndarray]:
    """Read the named numeric columns; blanks and "NA" become NaN, and any
    other cell must be a finite number ("nan" and "inf" are errors).

    Errors carry the 1-based file row number (the header is row 1).
    """
    try:
        handle = open(path, encoding="utf-8-sig", newline="")
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
        for c in columns:
            if header.count(c) > 1:
                raise InputError(f"data file has column {c!r} more than once")
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
                    value = float(cell)
                except ValueError:
                    raise InputError(
                        f"row {row_number}: could not parse {cell!r} "
                        f"in column {c!r}"
                    ) from None
                if not math.isfinite(value):
                    raise InputError(
                        f"row {row_number}: non-finite value {cell!r} in "
                        f"column {c!r}; leave the cell blank or write NA "
                        "for a missing value"
                    )
                values[c].append(value)
    if not values[columns[0]]:
        raise InputError("data file has no data rows")
    return {c: np.asarray(v, dtype=float) for c, v in values.items()}


def _check(doc, table: dict, what: str) -> dict:
    """The fields of ``doc`` after checking it against a field table."""
    if not isinstance(doc, dict):
        raise InputError(f"{what} must be an object")
    unknown = [key for key in doc if key not in table]
    if unknown:
        raise InputError(f"{what}: unknown field {unknown[0]!r}")
    fields = {}
    for key, (default, test, message) in table.items():
        if key not in doc:
            if default is _REQUIRED:
                raise InputError(f"{what}: missing field {key!r}")
            fields[key] = default
        elif test is None or test(doc[key]):
            fields[key] = doc[key]
        else:
            raise InputError(f"{what}: field {key!r} {message}")
    return fields


def _build_estimate_settings(config: dict) -> dict:
    what = "estimate config"
    settings = _check(config, _ESTIMATE_FIELDS, what)
    models = settings["models"] = [
        _check(entry, _MODEL_FIELDS, f"{what}: model #{k + 1}")
        for k, entry in enumerate(settings["models"])
    ]
    labels = set()
    for model in models:
        if model["label"] is None:
            model["label"] = model["id"]
        if model["label"] in labels:
            raise InputError(
                f"{what}: two models are labelled {model['label']!r}; give "
                "each model a distinct 'label'"
            )
        labels.add(model["label"])
    covariates = settings["covariates"]
    if settings["response"] in covariates:
        raise InputError(f"{what}: field 'covariates' lists the response "
                         f"{settings['response']!r}")
    for name in settings["z"]:
        if name not in covariates:
            raise InputError(
                f"{what}: z column {name!r} is not in 'covariates'"
            )
    if models and len(covariates) != 2:
        raise InputError(
            f"{what}: the regression models need exactly 2 'covariates', "
            f"got {len(covariates)}"
        )
    estimators = settings["estimators"]
    if "conv" in estimators and not models:
        raise InputError(
            f"{what}: the conv estimator needs at least one entry in 'models'"
        )
    # A field that no requested estimate reads is an error, not ignored.
    for name, reader, where in (
            ("models", "conv", "estimators"), ("a_n", "aipw", "estimators"),
            ("kernel_bandwidth", "kernel", "propensities")):
        if settings[name] and reader not in settings[where]:
            raise InputError(f"{what}: field {name!r} is read only by "
                             f"{reader}, which is not in {where!r}")
    settings["estimators"] = [e for e in ESTIMATORS if e in estimators]
    propensities = settings["propensities"]
    jk_prop = settings["jackknife_propensity"]
    if jk_prop is None:
        jk_prop = "kernel" if "kernel" in propensities else propensities[0]
    if jk_prop not in propensities:
        raise InputError(
            f"{what}: 'jackknife_propensity' must be one of the requested "
            "propensities"
        )
    settings["jackknife_propensity"] = jk_prop
    return settings


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
    if delta.sum() < 2:
        raise InputError(
            f"data file has {delta.sum()} complete row(s); the estimators "
            "need at least two"
        )
    if "logistic" in settings["propensities"] and delta.all():
        raise InputError("estimate config: field 'propensities' names "
                         "logistic, which needs a row with a missing value")
    if (settings["jackknife"] and (delta == 0).sum() < 2
            and settings["jackknife_propensity"] == "logistic"):
        raise InputError("estimate config: field 'jackknife_propensity' is "
                         "logistic, which needs two rows with a missing value")
    try:
        data = ObservedDataset(y=y, x=x, z_index=z_index, delta=delta)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    for m in settings["models"]:
        need = MODELS[m["id"]].min_complete_cases
        if data.n_obs < need:
            raise InputError(f"data file has {data.n_obs} complete rows; "
                             f"model {m['label']!r} needs at least {need}")
    return data


def _a_n(settings: dict, data: ObservedDataset) -> float:
    """AIPW's smoothing parameter: the configured one, else n^(-1/3) of the
    full data; the jackknife keeps it for every leave-one-out set."""
    a_n = settings["a_n"]
    return default_a_n(data.n) if a_n is None else a_n


def _fit_models(data: ObservedDataset, settings: dict) -> dict:
    """label -> fit of each configured model (only conv reads them).

    Each fit is deterministic, so one per dataset serves every estimator
    and propensity.
    """
    return {
        m["label"]: fit_mm(MODELS[m["id"]], data,
                           covariate_weights=_WEIGHT_IDS[m["weights"]],
                           seed=settings["seed"])
        for m in settings["models"]
    }


def _entry_keys(settings: dict) -> list[tuple]:
    """(estimator, model label, propensity) of each requested entry, in
    report order; the model label is None for all but conv."""
    labels = [m["label"] for m in settings["models"]]
    return [
        (est_name, label, prop)
        for est_name in settings["estimators"]
        for label in (labels if est_name == "conv" else [None])
        for prop in settings["propensities"]
    ]


def _estimates(datasets: list, settings: dict, fits: list, a_n: float):
    """Each dataset's estimates, keyed as ``_entry_keys``, or the exception
    it raised, in turn (``marginal.estimate_chunk``); ``fits[k]`` holds the
    models' fits to dataset k (from ``_fit_models``)."""
    propensity = functools.partial(fit_propensity, floor=settings["floor"],
                                   bandwidth=settings["kernel_bandwidth"])
    return estimate_chunk(datasets, propensity, fits, _entry_keys(settings),
                          a_n, settings["scale_method"])


def _report_entries(estimates: dict, fits: dict) -> list[dict]:
    """The report's rows, one per estimate, before any jackknife."""
    return [
        {
            "estimator": est_name,
            "model": label,
            "propensity": prop,
            "theta_mean": est.theta_mean,
            "theta_median": est.theta_median,
            "theta_m": est.theta_m,
            "scale": est.scale,
            "negative_weights_floored": bool(est.negative_weights_floored),
            "converged": fits[label].converged if label is not None else None,
            "se": None,
            "ci": None,
            "jackknife_n": None,
            "jackknife_skipped": None,
        }
        for (est_name, label, prop), est in estimates.items()
    ]


def _jackknife_fits(datasets: list, settings: dict, full_fits: dict) -> list:
    """Each leave-one-out set's fits, by model label: one stack of refits
    from the full data's fit (``full_fits``; ``refit_mm_stack``), but a set
    that left out an incomplete row has the full data's complete cases, so
    it takes that fit."""
    stacks = {}
    for m in settings["models"]:
        full = full_fits[m["label"]]
        own = [k for k, d in enumerate(datasets)
               if d.delta.sum() != full.complete_case_count]
        stacks[m["label"]] = dict(zip(own, refit_mm_stack(
            full, [datasets[k] for k in own], _WEIGHT_IDS[m["weights"]])))
    return [{label: stack.get(k, full_fits[label])
             for label, stack in stacks.items()} for k in range(len(datasets))]


def _jackknife_thetas(datasets: list, settings: dict, a_n: float,
                      full_fits: dict) -> list:
    """theta_m of every jackknifed entry on each leave-one-out set under
    ``_jackknife_fits``, or the exception it raised; module level, for the
    workers."""
    fits = _jackknife_fits(datasets, settings, full_fits)
    # map drops each set's estimates before the next set is estimated.
    return list(map(
        lambda r: r if isinstance(r, Exception)
        else [est.theta_m for est in r.values()],
        _estimates(datasets, settings, fits, a_n)))


def _attach_jackknife(entries: list[dict], data: ObservedDataset,
                      settings: dict, a_n: float, fits: dict) -> None:
    """Jackknife SE and CI for each estimator under the designated propensity.

    The convolution estimator is jackknifed under its first configured
    model only; the others have exactly one variant.  Each leave-one-out
    dataset is estimated once for all of them, with the full data's
    ``a_n``, so one propensity fit and one model fit serve every jackknifed
    entry.  The sets run in chunks across the available CPUs; a chunk's
    model fits are one stack of refits that start from the full data's fit
    in ``fits`` (``_jackknife_fits``), with no subset search.
    """
    if not settings["jackknife"]:
        return
    rerun = dict(
        settings,
        propensities=[settings["jackknife_propensity"]],
        models=settings["models"][:1],
    )
    estimator = functools.partial(_jackknife_thetas, settings=rerun, a_n=a_n,
                                  full_fits=fits)
    ve = jackknife_se(estimator, data, workers=parallel.available_cpus())
    rows = {(e["estimator"], e["model"], e["propensity"]): e for e in entries}
    for key, se in zip(_entry_keys(rerun), ve.se):
        entry = rows[key]
        lo, hi = confidence_interval(
            entry["theta_m"], dataclasses.replace(ve, se=se),
            settings["confidence_level"],
        )
        entry["se"] = se
        entry["ci"] = [lo, hi]
        entry["jackknife_n"] = ve.n_effective
        entry["jackknife_skipped"] = dict(ve.skipped)


def _report_csv(entries: list[dict]) -> str:
    out = StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["estimator", "model", "propensity", "theta_m", "scale",
                     "se", "ci_low", "ci_high"])
    for e in entries:
        ci = e["ci"] or (None, None)
        writer.writerow([e["estimator"], e["model"] or "", e["propensity"],
                         *map(_fmt, (e["theta_m"], e["scale"], e["se"], *ci))])
    return out.getvalue()


def cmd_estimate(args) -> int:
    config = _load_json(args.config, "estimate config")
    settings = _build_estimate_settings(config)
    columns = [settings["response"], *settings["covariates"]]
    table = _read_csv_columns(args.data, columns)
    data = _build_dataset(table, settings)
    _make_out_dir(args.out)

    missing_counts = {
        name: int(np.sum(~np.isfinite(table[name]))) for name in columns
    }

    a_n = _a_n(settings, data)
    try:
        fits = _fit_models(data, settings)
        (estimates,) = _estimates([data], settings, [fits], a_n)
        if isinstance(estimates, Exception):
            raise estimates
        entries = _report_entries(estimates, fits)
        # The jackknife does not need the full data's laws.
        del estimates
        _attach_jackknife(entries, data, settings, a_n, fits)
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
        | {"a_n": a_n},
        "estimates": entries,
    }
    _atomic_write(
        os.path.join(args.out, "report.json"),
        json.dumps(report, indent=2, sort_keys=True) + "\n",
    )
    _atomic_write(os.path.join(args.out, "table.csv"), _report_csv(entries))
    return 0


def _parse_scenarios(scenarios: list) -> list[tuple[str, ScenarioConfig]]:
    what = "simulate config"
    parsed = []
    seen = set()
    for k, entry in enumerate(scenarios):
        fields = _check(entry, _SCENARIO_FIELDS, f"{what}: scenario #{k + 1}")
        sid = fields.pop("id") or f"scenario{k + 1}"
        if sid in seen:
            raise InputError(f"{what}: duplicate scenario id {sid!r}")
        seen.add(sid)
        try:
            cfg = ScenarioConfig(**fields)
        except (TypeError, ValueError) as exc:
            raise InputError(f"{what}: scenario {sid!r}: {exc}") from exc
        parsed.append((sid, cfg))
    return parsed


def cmd_simulate(args) -> int:
    what = "simulate config"
    config = _check(_load_json(args.config, what), _SIMULATE_FIELDS, what)
    scenarios = _parse_scenarios(config["scenarios"])
    targets = _check(config["targets"] or {}, _TARGET_FIELDS,
                     f"{what}: 'targets'")
    workers = config["workers"]
    _make_out_dir(args.out)
    combined = StringIO()
    combined.write(",".join(("scenario",) + _CSV_COLUMNS) + "\n")
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
    if args.n < 3:
        raise InputError("--n must be at least 3")
    if args.seed < 0:
        raise InputError("--seed must be non-negative")
    if args.out:
        _make_out_dir(os.path.dirname(os.path.abspath(args.out)))
        if os.path.isdir(args.out):
            raise InputError(f"--out {args.out!r} is a directory")
    tv = target_values(reps=args.reps, n=args.n, seed=args.seed)
    text = json.dumps(dataclasses.asdict(tv), indent=2, sort_keys=True) + "\n"
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
