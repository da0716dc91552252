"""Monte Carlo laboratory for the missing-data marginal estimators.

Data generation under the nonlinear benchmark model, optional vertical
contamination, two missingness regimes, a seeded scenario runner that
aggregates bias / sd / mse and the four complete-data comparison measures,
and a long-run target-value calculator for the three marginal functionals.
"""

from __future__ import annotations

import json
import math
import numbers
from collections import Counter
from dataclasses import asdict, astuple, dataclass, field
from functools import partial
from io import StringIO

import numpy as np

from .dataset import ObservedDataset
from .marginal import (FunctionalSummary, default_a_n, estimate_chunk,
                       functional_summary)
from .parallel import ordered_map
from .propensity import (DEFAULT_FLOOR, PropensityFit, fit_propensity,
                         known_propensity)
from .regression import MODELS, fit_mm_stack
from .weighted import WeightedSample

__all__ = [
    "CONTAMINATIONS",
    "ESTIMATORS",
    "FUNCTIONALS",
    "MISSING_SCHEMES",
    "PROPENSITY_METHODS",
    "PUBLISHED_TARGETS",
    "REGRESSION_SPECS",
    "TRUE_BETA",
    "ScenarioConfig",
    "SummaryRow",
    "SummaryTable",
    "TargetValues",
    "TruthRecord",
    "generate_sample",
    "l_measures",
    "run_scenario",
    "target_values",
    "true_propensity",
]

# Benchmark generating model: y = b2*x2 + b3*exp(b1*x1) + eps with
# x1 ~ U(0,1), x2 ~ N(0,1), eps ~ N(0,1).
TRUE_BETA = (2.0, 0.1, 5.0)

# Long-run marginal values of y under the benchmark model, used as the
# reference point for bias.  Overridable via run_scenario(targets=...).
PUBLISHED_TARGETS = {"mean": 16.030, "median": 13.690, "m_est": 15.399}

CONTAMINATIONS = ("C0", "C1")
MISSING_SCHEMES = ("M1", "MH")
PROPENSITY_METHODS = ("true_p", "logistic", "kernel", "constant")
REGRESSION_SPECS = ("true_nonlinear", "misspecified_linear")
ESTIMATORS = ("ipw", "conv", "aipw")
FUNCTIONALS = ("mean", "median", "m_est")

_CSV_COLUMNS = (
    "functional",
    "estimator",
    "propensity",
    "bias",
    "sd",
    "mse",
    "L10",
    "L20",
    "L1",
    "L2",
)


def _mu_true(x1, x2):
    b1, b2, b3 = TRUE_BETA
    return b2 * x2 + b3 * np.exp(b1 * x1)


def _clean_draw(rng: np.random.Generator, n: int):
    """x1, x2 and the clean response of n rows of the benchmark model, drawn
    in that order (x1, x2, then eps)."""
    x1 = rng.uniform(0.0, 1.0, n)
    x2 = rng.normal(0.0, 1.0, n)
    eps = rng.normal(0.0, 1.0, n)
    return x1, x2, _mu_true(x1, x2) + eps


def _mh_prob(z):
    return 1.0 / (1.0 + np.exp(-0.2 * z - 0.2))


def true_propensity(missing: str = "MH",
                    floor: float = DEFAULT_FLOOR) -> PropensityFit:
    """The generating propensity as a known-propensity fit.

    Under "MH" this is the logistic response probability in the first
    covariate; under "M1" every row is observed and the propensity is 1.
    """
    if missing == "MH":
        return known_propensity(lambda m: _mh_prob(m[..., 0]), k=1, floor=floor)
    if missing == "M1":
        return known_propensity(
            lambda m: np.ones(m.shape[:-1]), k=1, floor=floor
        )
    raise ValueError(f"unknown missing scheme: {missing!r}")


@dataclass(frozen=True)
class TruthRecord:
    """Hidden generating-state of one simulated sample.

    ``y_clean`` is the response before contamination, ``y_complete`` the
    response after contamination but before masking, so oracle metrics can
    be computed on either reference sample.
    """

    x: np.ndarray
    y_clean: np.ndarray
    y_complete: np.ndarray
    contaminated: np.ndarray
    p_true: np.ndarray
    delta: np.ndarray


def generate_sample(
    n: int,
    seed: int,
    contamination: str = "C0",
    missing: str = "MH",
) -> tuple[ObservedDataset, TruthRecord]:
    """Draw one sample from the benchmark model.

    Draw order is fixed (x1, x2, eps, contamination rows, missingness
    uniforms) so a scenario's stream is reproducible from the seed.  Under
    "C1" a simple random floor(0.1 n) of the rows have y replaced by twice
    the regression function before missingness; under "MH" each row is
    observed with the logistic probability in x1; under "M1" all rows are
    observed.  Masked rows keep their true values in the TruthRecord.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if contamination not in CONTAMINATIONS:
        raise ValueError(f"unknown contamination: {contamination!r}")
    if missing not in MISSING_SCHEMES:
        raise ValueError(f"unknown missing scheme: {missing!r}")

    rng = np.random.default_rng(seed)
    x1, x2, y_clean = _clean_draw(rng, n)

    y_complete = y_clean.copy()
    contaminated = np.zeros(n, dtype=bool)
    if contamination == "C1":
        k = n // 10
        if k > 0:
            rows = rng.choice(n, size=k, replace=False)
            contaminated[rows] = True
            y_complete[rows] = 2.0 * _mu_true(x1[rows], x2[rows])

    if missing == "MH":
        p_true = _mh_prob(x1)
        delta = (rng.uniform(size=n) < p_true).astype(int)
    else:
        p_true = np.ones(n)
        delta = np.ones(n, dtype=int)

    x = np.column_stack([x1, x2])
    data = ObservedDataset(
        y=np.where(delta == 1, y_complete, np.nan),
        x=np.column_stack([x1, np.where(delta == 1, x2, np.nan)]),
        z_index=(0,),
        delta=delta,
    )
    truth = TruthRecord(
        x=x,
        y_clean=y_clean,
        y_complete=y_complete,
        contaminated=contaminated,
        p_true=p_true,
        delta=delta,
    )
    return data, truth


def l_measures(est, ref) -> tuple[float, float]:
    """Mean absolute and mean squared difference between paired estimates."""
    a = np.asarray(est, dtype=float)
    b = np.asarray(ref, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("est and ref must be vectors of equal length")
    d = a - b
    return float(np.mean(np.abs(d))), float(np.mean(d * d))


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation scenario: model regime, methods, and replication plan."""

    n: int = 100
    reps: int = 1000
    seed: int = 0
    contamination: str = "C0"
    missing: str = "MH"
    propensity_method: str = "true_p"
    regression_spec: str = "true_nonlinear"
    estimators: tuple[str, ...] = ESTIMATORS
    functionals: tuple[str, ...] = FUNCTIONALS

    def __post_init__(self):
        for name in ("estimators", "functionals"):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ValueError(f"{name} must be a list")
        for name in ("n", "reps", "seed"):
            value = getattr(self, name)
            integral = isinstance(value, numbers.Integral)
            if not integral or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.n < 20:
            raise ValueError("n must be at least 20")
        if self.contamination not in CONTAMINATIONS:
            raise ValueError(f"unknown contamination: {self.contamination!r}")
        if self.missing not in MISSING_SCHEMES:
            raise ValueError(f"unknown missing scheme: {self.missing!r}")
        if self.propensity_method not in PROPENSITY_METHODS:
            raise ValueError(
                f"unknown propensity_method: {self.propensity_method!r}"
            )
        if self.missing == "M1" and self.propensity_method == "logistic":
            raise ValueError("propensity_method 'logistic' needs missing "
                             "responses, and missing 'M1' observes every row")
        if self.regression_spec not in REGRESSION_SPECS:
            raise ValueError(
                f"unknown regression_spec: {self.regression_spec!r}"
            )
        for name, known in (("estimators", ESTIMATORS),
                            ("functionals", FUNCTIONALS)):
            given = getattr(self, name)
            if not given or not set(given) <= set(known):
                raise ValueError(f"unknown or empty {name}: {given!r}")
            if len(set(given)) != len(given):
                raise ValueError(f"{name} names one twice: {given!r}")
            canonical = tuple(k for k in known if k in given)
            object.__setattr__(self, name, canonical)


@dataclass(frozen=True)
class SummaryRow:
    """Aggregate measures for one functional under one estimator, in the
    order of the summary table's columns."""

    functional: str
    estimator: str
    propensity: str
    bias: float
    sd: float
    mse: float
    l10: float
    l20: float
    l1: float
    l2: float


@dataclass(frozen=True)
class SummaryTable:
    """Scenario output: one row per (functional, estimator).

    ``sd`` uses the population convention (divisor = number of successful
    replications) so mse = bias^2 + sd^2 holds exactly.  ``observed_fraction``
    is the empirical mean share of complete rows, reported so the actual
    missingness level of a scheme is always visible.  ``failure_reasons``
    counts the failed replications by reason ("Type: message").
    """

    config: ScenarioConfig
    rows: tuple[SummaryRow, ...]
    reps_used: int
    failures: int
    observed_fraction: float
    targets: dict = field(default_factory=dict)
    failure_reasons: dict = field(default_factory=dict)

    def to_csv_text(self) -> str:
        out = StringIO()
        out.write(",".join(_CSV_COLUMNS) + "\n")
        for r in map(astuple, self.rows):
            cells = list(r[:3]) + ["%.6g" % v for v in r[3:]]
            out.write(",".join(cells) + "\n")
        return out.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "reps_used": self.reps_used,
            "failures": self.failures,
            "failure_reasons": dict(self.failure_reasons),
            "observed_fraction": self.observed_fraction,
            "targets": dict(self.targets),
            "rows": [dict(zip(_CSV_COLUMNS, astuple(r))) for r in self.rows],
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"


def _classical(y: np.ndarray) -> FunctionalSummary:
    """Complete-data functionals: the estimators' collapse under no missingness."""
    return functional_summary(WeightedSample(y, np.ones(y.size)))


def _fit_propensity(cfg, method: str, z, delta) -> PropensityFit:
    if method == "true_p":
        return true_propensity(cfg.missing)
    return fit_propensity(method, z, delta)


def _rep_values(data, comp0, comps, estimates) -> dict:
    """A replication's values from its estimates (keyed as
    ``estimate_chunk`` keys them) and its complete-data functionals on the
    clean and the contaminated responses, or the exception it raised."""
    if isinstance(estimates, Exception):
        return estimates
    values = {}
    for (est_name, _, _), est in estimates.items():
        values[("mean", est_name)] = est.theta_mean
        values[("median", est_name)] = est.theta_median
        values[("m_est", est_name)] = est.theta_m
    return {"values": values, "comp0": comp0, "comps": comps,
            "observed": float(np.mean(data.delta))}


def _block(cfg: ScenarioConfig, reps: list) -> list:
    """Replications ``reps``: their values, or the reasons ("Type: message")
    they raised; their MM regressions are fitted as one stack, and they are
    estimated by ``marginal.estimate_chunk``.  The chunk function of
    ``run_scenario``."""
    out, drawn = {}, {}
    for j in reps:
        try:
            data, truth = generate_sample(cfg.n, cfg.seed ^ j,
                                          cfg.contamination, cfg.missing)
            comp0 = _classical(truth.y_clean)
            drawn[j] = (data, comp0, comp0 if cfg.contamination == "C0"
                        else _classical(truth.y_complete))
        except Exception as exc:
            out[j] = exc
    datasets = [d[0] for d in drawn.values()]
    fits = [{}] * len(datasets)
    if "conv" in cfg.estimators:
        model = MODELS["exp_linear" if cfg.regression_spec == "true_nonlinear"
                       else "linear"]
        fits = [{"model": fit} for fit in fit_mm_stack(
            model, datasets, [cfg.seed ^ j for j in drawn])]
    keys = [(est_name, "model", cfg.propensity_method)
            for est_name in cfg.estimators]
    chunk = estimate_chunk(datasets, partial(_fit_propensity, cfg), fits,
                           keys, default_a_n(cfg.n))
    for j, (data, comp0, comps) in drawn.items():
        out[j] = _rep_values(data, comp0, comps, next(chunk))
    return [f"{type(r).__name__}: {r}" if isinstance(r, Exception) else r
            for r in (out[j] for j in reps)]


def run_scenario(
    cfg: ScenarioConfig,
    targets: dict | None = None,
    workers: int = 1,
) -> SummaryTable:
    """Run a scenario's replications and aggregate the summary measures.

    Replication j uses the RNG stream seeded by ``cfg.seed ^ j``.  The
    replications are mapped over up to ``workers`` processes in the chunks
    of ``parallel.ordered_map``, each chunk fitting its MM regressions as
    one stack (``regression.fit_mm_stack``); a replication's values are its
    own, bit for bit, so the table is the same for any chunk size and
    worker count.  Replications whose estimation raises are excluded and
    counted by reason; the run aborts, naming the reasons, if more than 2%
    fail.  Bias is measured against ``targets`` (default: the long-run
    PUBLISHED_TARGETS), sd is the population-form standard deviation over
    replications, and mse = bias^2 + sd^2 exactly.
    """
    tgt = dict(PUBLISHED_TARGETS)
    if targets is not None:
        tgt.update(targets)
    results = ordered_map(partial(_block, cfg), range(cfg.reps), workers)
    kept = [r for r in results if not isinstance(r, str)]
    reasons = dict(Counter(r for r in results if isinstance(r, str)))
    failures = cfg.reps - len(kept)
    if failures > 0.02 * cfg.reps:
        raise RuntimeError(
            f"scenario aborted: {failures} of {cfg.reps} replications "
            f"failed: {reasons}"
        )

    rows = []
    for functional in cfg.functionals:
        ref0 = np.array([getattr(r["comp0"], functional) for r in kept])
        refs = np.array([getattr(r["comps"], functional) for r in kept])
        for est_name in cfg.estimators:
            vals = np.array([r["values"][(functional, est_name)] for r in kept])
            bias = float(np.mean(vals) - tgt[functional])
            sd = float(np.std(vals))
            l10, l20 = l_measures(vals, ref0)
            l1, l2 = l_measures(vals, refs)
            rows.append(
                SummaryRow(
                    functional=functional,
                    estimator=est_name,
                    propensity=cfg.propensity_method,
                    bias=bias,
                    sd=sd,
                    mse=bias * bias + sd * sd,
                    l10=l10,
                    l20=l20,
                    l1=l1,
                    l2=l2,
                )
            )

    return SummaryTable(
        config=cfg,
        rows=tuple(rows),
        reps_used=len(kept),
        failures=failures,
        failure_reasons=reasons,
        observed_fraction=float(np.mean([r["observed"] for r in kept])),
        targets=tgt,
    )


@dataclass(frozen=True)
class TargetValues:
    """Long-run marginal functionals with their Monte Carlo standard errors."""

    mean: float
    median: float
    m_est: float
    mean_se: float
    median_se: float
    m_est_se: float
    reps: int
    n: int


def target_values(
    reps: int = 100,
    n: int = 10**6,
    seed: int = 0,
    sampler=None,
) -> TargetValues:
    """Monte Carlo values of the three marginal functionals of y.

    Averages the complete-data mean, median, and M-location over ``reps``
    clean samples of size ``n`` from the benchmark model.  ``sampler``,
    when given, replaces the response generator: it receives
    (numpy Generator, n) and returns the n response draws.
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")
    if n < 3:
        # Two equal-weight atoms have MAD 0 (lower medians): degenerate.
        raise ValueError("n must be at least 3")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    means, medians, m_ests = [], [], []
    for j in range(reps):
        rng = np.random.default_rng(seed ^ j)
        if sampler is None:
            y = _clean_draw(rng, n)[2]
        else:
            y = np.asarray(sampler(rng, n), dtype=float)
        summ = _classical(y)
        means.append(summ.mean)
        medians.append(summ.median)
        m_ests.append(summ.m_est)

    def agg(v):
        arr = np.asarray(v)
        se = float(arr.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
        return float(arr.mean()), se

    mean, mean_se = agg(means)
    median, median_se = agg(medians)
    m_est, m_est_se = agg(m_ests)
    return TargetValues(
        mean=mean,
        median=median,
        m_est=m_est,
        mean_se=mean_se,
        median_se=median_se,
        m_est_se=m_est_se,
        reps=reps,
        n=n,
    )
