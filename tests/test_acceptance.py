"""Acceptance gate: one test per acceptance criterion.

Each test prints exactly one ``criterion N [...]: PASS/FAIL`` line with the
measured quantities, then asserts the criterion at its stated tolerance.
Criteria built on published reference values that a faithful implementation
of the stated formulas cannot hit are asserted as stated anyway; the failure
messages carry the measured values, and the analysis of each gap lives in
the "Known-failing criteria" section of ROADMAP.md.
"""

import json
import time
from importlib import resources

import numpy as np
import pytest

from robmarg.cli import main
from robmarg.marginal import (
    estimate_aipw,
    estimate_ipw,
    estimate_conv,
    functional_summary,
    signed_cdf_sample,
)
from robmarg.inference import plugin_var_ipw
from robmarg.propensity import (
    auto_bandwidth,
    constant_propensity,
    fit_logistic,
    kernel_propensity,
)
from robmarg.regression import MODELS, fit_mm
from robmarg.scaleloc import m_location, s_scale
from robmarg.scores import location_bisquare, scale_bisquare
from robmarg.simulation import (
    ScenarioConfig,
    generate_sample,
    run_scenario,
    target_values,
    true_propensity,
)
from robmarg.weighted import WeightedSample, kolmogorov_distance

SF = location_bisquare()

# Long-run mean, median and M-location (normalized-MAD scale) of the
# benchmark marginal y = 5*exp(2*U) + sqrt(1.01)*Z, computed by quadrature
# in tools/oracles/marginal_targets.py (the mean is 5*(e^2 - 1)/2).  The
# oracle uses scipy, which the package does not depend on, so its output is
# frozen here.
LONG_RUN_TARGETS = {"mean": 15.972640, "median": 13.628720, "m_est": 15.375766}

DATA_DIR = resources.files("robmarg") / "data"
AIRQ = str(DATA_DIR / "airquality.csv")
OZONE_CONFIG = str(DATA_DIR / "ozone_config.json")


def finish(num, title, checks):
    """Print the criterion's single PASS/FAIL line, then assert it."""
    ok = all(good for _, good, _ in checks)
    details = "; ".join(
        f"{label}{'' if good else ' FAIL'} ({info})"
        for label, good, info in checks
    )
    line = f"criterion {num} [{title}]: {'PASS' if ok else 'FAIL'} — {details}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared heavy computations


@pytest.fixture(scope="module")
def complete_data_tables():
    """1000-replication benchmark runs with nothing missing, clean and
    contaminated, shared by the complete-data and robustness criteria."""
    common = dict(
        n=100, reps=1000, seed=0, missing="M1",
        propensity_method="constant", regression_spec="true_nonlinear",
        estimators=("ipw",), functionals=("mean", "m_est"),
    )
    start = time.perf_counter()
    clean = run_scenario(ScenarioConfig(contamination="C0", **common),
                         workers=4)
    clean_seconds = time.perf_counter() - start
    contaminated = run_scenario(ScenarioConfig(contamination="C1", **common),
                                workers=4)
    return clean, contaminated, clean_seconds


@pytest.fixture(scope="module")
def calibration_runs():
    """2000 replications at n=400 with the benchmark missingness: the
    M-location and its plug-in variance under the true propensity, plus the
    M-location under a cross-validated kernel propensity fit."""
    n, reps = 400, 2000
    pf_true = true_propensity("MH")
    t_true = np.empty(reps)
    t_kern = np.empty(reps)
    plugins = np.empty(reps)
    for j in range(reps):
        data, _ = generate_sample(n, 0 ^ j, "C0", "MH")
        est = estimate_ipw(data, pf_true)
        t_true[j] = est.theta_m
        v = plugin_var_ipw(data, pf_true, est.theta_m, est.scale,
                           variant="known")
        plugins[j] = n * v.se**2
        b_n = auto_bandwidth(data.z, data.delta)
        pfk = kernel_propensity(data.z, data.delta, b_n)
        t_kern[j] = estimate_ipw(data, pfk).theta_m
    return n, t_true, t_kern, plugins


@pytest.fixture(scope="module")
def case_study_run(tmp_path_factory):
    """Full packaged-data estimation run, jackknife included, timed."""
    out = tmp_path_factory.mktemp("acceptance_case_study")
    start = time.perf_counter()
    code = main(
        ["estimate", "--data", AIRQ, "--config", OZONE_CONFIG,
         "--out", str(out)]
    )
    seconds = time.perf_counter() - start
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    return report, seconds


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_long_run_targets():
    start = time.perf_counter()
    tv = target_values(reps=20, n=10**6, seed=0)
    seconds = time.perf_counter() - start
    checks = [
        (
            name,
            abs(getattr(tv, name) - want) <= 0.01,
            f"{getattr(tv, name):.4f} vs {want} ±0.01",
        )
        for name, want in LONG_RUN_TARGETS.items()
    ]
    checks.append(("runtime", seconds < 300, f"{seconds:.1f}s < 300s"))
    finish(1, "long-run targets", checks)


def test_criterion_02_complete_data_benchmark(complete_data_tables):
    clean, _, seconds = complete_data_tables
    rows = {r.functional: r for r in clean.rows}
    m, mean = rows["m_est"], rows["mean"]
    checks = [
        ("M bias", abs(m.bias - (-0.075)) <= 0.11,
         f"{m.bias:+.4f} vs −0.075 ±0.11"),
        ("M mse", abs(m.mse - 1.347) <= 0.15 * 1.347,
         f"{m.mse:.4f} vs 1.347 ±15%"),
        ("mean mse", abs(mean.mse - 0.827) <= 0.15 * 0.827,
         f"{mean.mse:.4f} vs 0.827 ±15%"),
        ("runtime", seconds < 120, f"{seconds:.1f}s < 120s"),
    ]
    finish(2, "complete-data benchmark", checks)


def test_criterion_03_double_protection():
    cfg = ScenarioConfig(
        n=100, reps=500, seed=0, contamination="C0", missing="MH",
        propensity_method="constant", regression_spec="true_nonlinear",
        estimators=("ipw", "conv", "aipw"), functionals=("m_est",),
    )
    table = run_scenario(cfg, workers=4)
    mse = {r.estimator: r.mse for r in table.rows}
    checks = [
        ("aipw vs ipw", mse["aipw"] < 0.5 * mse["ipw"],
         f"ratio {mse['aipw'] / mse['ipw']:.3f} < 0.5"),
        ("aipw vs conv", mse["aipw"] < 0.5 * mse["conv"],
         f"ratio {mse['aipw'] / mse['conv']:.3f} < 0.5"),
    ]
    finish(3, "double protection under a flat propensity", checks)


def test_criterion_04_misspecified_regression_protection():
    cfg = ScenarioConfig(
        n=100, reps=500, seed=0, contamination="C0", missing="MH",
        propensity_method="logistic", regression_spec="misspecified_linear",
        estimators=("conv", "aipw"), functionals=("median",),
    )
    table = run_scenario(cfg, workers=4)
    bias = {r.estimator: r.bias for r in table.rows}
    checks = [
        ("conv bias", bias["conv"] > 1.5, f"{bias['conv']:+.3f} > 1.5"),
        ("aipw bias", abs(bias["aipw"]) < 0.3,
         f"{bias['aipw']:+.3f} within ±0.3"),
    ]
    finish(4, "misspecified-regression protection", checks)


def test_criterion_05_contamination_robustness(complete_data_tables):
    clean, contaminated, _ = complete_data_tables
    mse0 = {r.functional: r.mse for r in clean.rows}
    mse1 = {r.functional: r.mse for r in contaminated.rows}
    mean_factor = mse1["mean"] / mse0["mean"]
    m_factor = mse1["m_est"] / mse0["m_est"]
    checks = [
        ("mean inflates", mean_factor >= 3.0, f"factor {mean_factor:.2f} ≥ 3"),
        ("M-location resists", m_factor <= 1.7, f"factor {m_factor:.2f} ≤ 1.7"),
    ]
    finish(5, "contamination robustness", checks)


def test_criterion_06_variance_calibration(calibration_runs):
    n, t_true, _, plugins = calibration_runs
    empirical = float(n * np.var(t_true))
    plug = float(np.mean(plugins))
    ratio = empirical / plug
    checks = [
        ("agreement", abs(ratio - 1.0) <= 0.15,
         f"empirical {empirical:.1f} vs plug-in {plug:.1f}, "
         f"ratio {ratio:.3f} within 1±0.15"),
    ]
    finish(6, "plug-in variance calibration", checks)


def test_criterion_07_estimated_propensity_efficiency(calibration_runs):
    n, t_true, t_kern, _ = calibration_runs
    v_true = float(np.var(t_true))
    v_kern = float(np.var(t_kern))
    checks = [
        ("ordering", v_kern <= v_true,
         f"n·var kernel {n * v_kern:.1f} ≤ n·var true {n * v_true:.1f}"),
    ]
    finish(7, "estimated-propensity efficiency", checks)


def test_criterion_08_distribution_estimate_convergence():
    _, truth = generate_sample(10**6, 2024, "C0", "M1")
    reference = WeightedSample(truth.y_clean, np.ones(truth.y_clean.size))
    pf = true_propensity("MH")

    def median_supnorm(n, reps=200):
        distances = np.empty(reps)
        for j in range(reps):
            data, _ = generate_sample(n, 7000 + j, "C0", "MH")
            est = estimate_aipw(data, pf, float(n) ** (-1.0 / 3.0))
            distances[j] = kolmogorov_distance(
                signed_cdf_sample(est), reference
            )
        return float(np.median(distances))

    d_small = median_supnorm(100)
    d_large = median_supnorm(1600)
    ratio = d_small / d_large
    checks = [
        ("decrease", ratio >= 1.5,
         f"median sup-norm {d_small:.4f} → {d_large:.4f}, "
         f"factor {ratio:.2f} ≥ 1.5"),
    ]
    finish(8, "distribution-estimate convergence", checks)


def test_criterion_09_case_study_reproduction(case_study_run):
    report, seconds = case_study_run
    by = {
        (e["estimator"], e["model"], e["propensity"]): e
        for e in report["estimates"]
    }
    published_points = {
        ("ipw", None): {"logistic": 35.848, "kernel": 35.805,
                        "constant": 35.954},
        ("aipw", None): {"logistic": 35.802, "kernel": 35.787,
                         "constant": 35.832},
        ("conv", "nonlinear"): {"logistic": 36.051, "kernel": 36.055,
                                "constant": 36.126},
        ("conv", "linear"): {"logistic": 41.020, "kernel": 40.992,
                             "constant": 41.107},
    }
    checks = []
    for (est, model), row in published_points.items():
        tol = 0.8 if model == "linear" else 0.5
        for prop, want in row.items():
            got = by[(est, model, prop)]["theta_m"]
            checks.append(
                (
                    f"{est}{'/' + model if model else ''}/{prop}",
                    abs(got - want) <= tol,
                    f"{got:.3f} vs {want} ±{tol}",
                )
            )

    published_se = {
        ("ipw", None): 0.4446,
        ("conv", "nonlinear"): 0.5424,
        ("aipw", None): 0.4377,
    }
    widths = {}
    for (est, model), want in published_se.items():
        entry = by[(est, model, "kernel")]
        got = entry["se"]
        checks.append(
            (
                f"jackknife se {est}",
                got is not None and abs(got - want) <= 0.2 * want,
                f"{got:.4f} vs {want} ±20%",
            )
        )
        widths[est] = entry["ci"][1] - entry["ci"][0]
    checks.append(
        (
            "aipw interval shortest",
            widths["aipw"] < widths["ipw"] and widths["aipw"] < widths["conv"],
            "widths ipw {ipw:.2f}, conv {conv:.2f}, aipw {aipw:.2f}".format(
                **widths
            ),
        )
    )
    checks.append(("runtime", seconds < 60, f"{seconds:.1f}s < 60s"))
    finish(9, "case-study reproduction", checks)


def test_criterion_10_property_suites():
    checks = []
    rng = np.random.default_rng(424)

    # score functions match finite differences of their antiderivatives
    fd_err = 0.0
    grid = np.linspace(-5.5, 5.5, 89)
    h = 1e-6
    for sf in (location_bisquare(), scale_bisquare()):
        drho = (sf.rho(grid + h) - sf.rho(grid - h)) / (2 * h)
        dpsi = (sf.psi(grid + h) - sf.psi(grid - h)) / (2 * h)
        fd_err = max(
            fd_err,
            float(np.max(np.abs(drho - sf.psi(grid)))),
            float(np.max(np.abs(dpsi - sf.psi_prime(grid)))),
        )
    checks.append(
        ("score derivatives", fd_err < 1e-6, f"max FD error {fd_err:.2e}")
    )

    # scale/location equivariance under y -> a*y + b
    y = rng.standard_cauchy(80) * 2.0 + 1.0
    w = rng.random(80) + 0.1
    base = WeightedSample(y, w)
    moved = WeightedSample(3.0 * y - 4.0, w)
    s0 = s_scale(base)
    s1 = s_scale(moved)
    th0 = m_location(base, s0.scale)
    th1 = m_location(moved, s1.scale)
    eq_err = max(
        abs(s1.scale - 3.0 * s0.scale) / (3.0 * s0.scale),
        abs(th1 - (3.0 * th0 - 4.0)) / max(abs(3.0 * th0 - 4.0), 1.0),
    )
    checks.append(
        ("equivariance", eq_err < 1e-7, f"max relative error {eq_err:.2e}")
    )

    # solver beats a dense grid scan of the M-location objective
    oracle_gap = -np.inf
    for _ in range(3):
        yy = rng.standard_cauchy(40) * rng.uniform(0.5, 3.0)
        sample = WeightedSample(yy, rng.random(40) + 0.05)
        sfit = s_scale(sample)
        th = m_location(sample, sfit.scale)
        grid_pts = np.linspace(yy.min(), yy.max(), 20_000)
        vals = SF.rho((yy[None, :] - grid_pts[:, None]) / sfit.scale) @ (
            sample.weights
        )
        at_solution = float(
            SF.rho((yy - th) / sfit.scale) @ sample.weights
        )
        oracle_gap = max(oracle_gap, at_solution - float(vals.min()))
    checks.append(
        ("grid oracle", oracle_gap <= 1e-6, f"objective gap {oracle_gap:.2e}")
    )

    # augmented composite weights always sum to one
    sum_err = 0.0
    for seed in range(10):
        data, _ = generate_sample(120, 500 + seed, "C0", "MH")
        if seed % 2:
            pf = fit_logistic(data.z, data.delta)
        else:
            pf = constant_propensity(data.delta)
        est = estimate_aipw(data, pf, 120.0 ** (-1.0 / 3.0))
        sum_err = max(sum_err, abs(float(est.signed_weights.sum()) - 1.0))
    checks.append(
        ("augmented weight sum", sum_err < 1e-10, f"max |sum−1| {sum_err:.1e}")
    )

    # with nothing missing, ipw and aipw must return the complete-data
    # value of every functional.  conv is the double sum over residuals and
    # fitted locations, so with nothing missing it is the equal-weight
    # convolution {mu_hat(x_j) + eps_hat_i}, not the empirical law: its
    # mean still collapses (the residuals and fitted values add back to y),
    # and its median and M-location must be those of that convolution.
    data, truth = generate_sample(150, 31, "C0", "M1")
    ref = functional_summary(
        WeightedSample(truth.y_complete, np.ones(truth.y_complete.size))
    )
    pf = constant_propensity(data.delta)
    model = MODELS["exp_linear"]
    fit = fit_mm(model, data, seed=31)
    mu = model.mean(data.x, fit.beta)
    eps = data.y - mu
    conv_atoms = (eps[:, None] + mu[None, :]).ravel()
    conv_ref = functional_summary(
        WeightedSample(conv_atoms, np.ones(conv_atoms.size))
    )
    gaps = {}
    for name, est, law in (
        ("ipw", estimate_ipw(data, pf), ref),
        ("aipw", estimate_aipw(data, pf, 150.0 ** (-1.0 / 3.0)), ref),
        ("conv", estimate_conv(data, pf, fit), conv_ref),
    ):
        gaps[name] = max(
            abs(est.theta_mean - ref.mean),
            abs(est.theta_median - law.median),
            abs(est.theta_m - law.m_est),
        )
    collapse_err = max(gaps.values())
    checks.append(
        (
            "no-missing collapse",
            collapse_err < 1e-6,
            "max gap ipw {ipw:.1e}, aipw {aipw:.1e}, conv {conv:.1e}".format(
                **gaps
            ),
        )
    )

    # parallel replication replay is bit-identical to the sequential run
    cfg = ScenarioConfig(
        n=100, reps=30, seed=9, contamination="C0", missing="MH",
        propensity_method="constant", regression_spec="true_nonlinear",
        estimators=("ipw", "aipw"), functionals=("m_est",),
    )
    sequential = run_scenario(cfg, workers=1)
    threaded = run_scenario(cfg, workers=4)
    replay_ok = sequential.rows == threaded.rows
    checks.append(
        ("parallel replay", replay_ok,
         "rows identical" if replay_ok else "rows differ")
    )

    finish(10, "property suites", checks)
