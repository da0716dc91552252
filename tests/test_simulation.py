"""Tests for the Monte Carlo scenario laboratory."""

import json
import multiprocessing

import numpy as np
import pytest

from robmarg import parallel
from robmarg.marginal import estimate_aipw, estimate_conv, estimate_ipw, functional_summary
from robmarg.propensity import constant_propensity, kernel_propensity
from robmarg.regression import exp_linear_model, fit_mm
from robmarg.scores import location_bisquare
from robmarg.simulation import (
    ScenarioConfig,
    SummaryTable,
    generate_sample,
    l_measures,
    run_scenario,
    target_values,
    true_propensity,
)
from robmarg.weighted import WeightedSample

SF = location_bisquare()


def classical(y):
    return functional_summary(WeightedSample(y, np.ones(y.size)), SF)


class TestGenerateSample:
    def test_contamination_count_and_value(self):
        data, truth = generate_sample(100, 3, "C1", "MH")
        assert truth.contaminated.sum() == 10
        # contaminated rows carry exactly twice the regression function
        x1 = truth.x[:, 0]
        x2 = truth.x[:, 1]
        mu = 0.1 * x2 + 5.0 * np.exp(2.0 * x1)
        rows = truth.contaminated
        assert np.allclose(truth.y_complete[rows], 2.0 * mu[rows])
        assert np.all(truth.y_complete[~rows] == truth.y_clean[~rows])

    def test_contamination_floor_rule(self):
        _, truth = generate_sample(47, 5, "C1", "M1")
        assert truth.contaminated.sum() == 4

    def test_observed_fraction_matches_logistic_integral(self):
        # quadrature of 1/(1+exp(-0.2t-0.2)) over (0,1) gives 0.5744
        data, _ = generate_sample(10**6, 11, "C0", "MH")
        assert np.mean(data.delta) == pytest.approx(0.5744, abs=0.002)

    def test_m1_observes_everything(self):
        data, truth = generate_sample(200, 13, "C0", "M1")
        assert np.all(data.delta == 1)
        assert np.all(truth.p_true == 1.0)
        assert np.allclose(data.y, truth.y_complete)

    def test_masked_rows_keep_truth(self):
        data, truth = generate_sample(500, 17, "C0", "MH")
        miss = data.delta == 0
        assert miss.any()
        assert np.all(np.isnan(data.y[miss]))
        assert np.all(np.isnan(data.x[miss, 1]))
        assert np.all(np.isfinite(truth.y_complete))
        assert np.all(np.isfinite(truth.x))
        # z (first covariate) is never masked
        assert np.all(np.isfinite(data.x[:, 0]))

    def test_determinism(self):
        d1, t1 = generate_sample(300, 23, "C1", "MH")
        d2, t2 = generate_sample(300, 23, "C1", "MH")
        assert np.array_equal(d1.y, d2.y, equal_nan=True)
        assert np.array_equal(t1.contaminated, t2.contaminated)
        assert np.array_equal(d1.delta, d2.delta)

    def test_rejects_unknown_labels(self):
        with pytest.raises(ValueError, match="contamination"):
            generate_sample(100, 1, "C9", "MH")
        with pytest.raises(ValueError, match="missing scheme"):
            generate_sample(100, 1, "C0", "M7")


class TestLMeasures:
    def test_equal_vectors(self):
        assert l_measures([1.0, 2.0], [1.0, 2.0]) == (0.0, 0.0)

    def test_unit_differences(self):
        assert l_measures([1.0, -1.0], [0.0, 0.0]) == (1.0, 1.0)

    def test_mixed_differences(self):
        l1, l2 = l_measures([0.5, 1.5], [0.0, 0.0])
        assert l1 == pytest.approx(1.0)
        assert l2 == pytest.approx(1.25)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            l_measures([1.0, 2.0], [1.0])


class TestM1Collapse:
    """With nothing missing, the weighting machinery must be inert."""

    @pytest.mark.parametrize("prop", ["true", "constant", "kernel"])
    def test_ipw_and_aipw_equal_complete_data_values(self, prop):
        data, truth = generate_sample(150, 31, "C0", "M1")
        if prop == "true":
            pf = true_propensity("M1")
        elif prop == "constant":
            pf = constant_propensity(data.delta)
        else:
            pf = kernel_propensity(data.z, data.delta, b_n=0.2)
        ref = classical(truth.y_complete)
        for est in (
            estimate_ipw(data, pf, SF),
            estimate_aipw(data, pf, 150 ** (-1 / 3), SF),
        ):
            assert est.theta_mean == pytest.approx(ref.mean, abs=1e-10)
            assert est.theta_median == pytest.approx(ref.median, abs=1e-10)
            assert est.theta_m == pytest.approx(ref.m_est, abs=1e-10)

    def test_conv_mean_collapses_exactly(self):
        # the convolution's mean is additive, so it matches the sample mean
        # even though its median and M-location are smoothed versions
        data, truth = generate_sample(150, 37, "C0", "M1")
        pf = true_propensity("M1")
        model = exp_linear_model(intercept=False)
        fit = fit_mm(model, data, seed=37)
        est = estimate_conv(data, pf, model, fit, SF)
        ref = classical(truth.y_complete)
        assert est.theta_mean == pytest.approx(ref.mean, abs=1e-8)
        assert est.theta_median == pytest.approx(ref.median, abs=0.5)
        assert est.theta_m == pytest.approx(ref.m_est, abs=0.5)


class TestScenarioConfig:
    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError, match="reps"):
            ScenarioConfig(reps=0)
        with pytest.raises(ValueError, match="n must be"):
            ScenarioConfig(n=19)

    def test_rejects_bad_enums(self):
        with pytest.raises(ValueError, match="contamination"):
            ScenarioConfig(contamination="C2")
        with pytest.raises(ValueError, match="missing scheme"):
            ScenarioConfig(missing="MX")
        with pytest.raises(ValueError, match="propensity_method"):
            ScenarioConfig(propensity_method="oracle")
        with pytest.raises(ValueError, match="regression_spec"):
            ScenarioConfig(regression_spec="quadratic")
        with pytest.raises(ValueError, match="estimators"):
            ScenarioConfig(estimators=("ipw", "bogus"))
        with pytest.raises(ValueError, match="functionals"):
            ScenarioConfig(functionals=())

    def test_rejects_repeated_names(self):
        with pytest.raises(ValueError, match="estimators names one twice"):
            ScenarioConfig(estimators=["ipw", "ipw"])
        with pytest.raises(ValueError, match="functionals names one twice"):
            ScenarioConfig(functionals=("mean", "mean", "median"))

    def test_canonical_ordering(self):
        cfg = ScenarioConfig(estimators=("aipw", "ipw"), functionals=("m_est", "mean"))
        assert cfg.estimators == ("ipw", "aipw")
        assert cfg.functionals == ("mean", "m_est")


class TestRunScenario:
    def test_deterministic_across_workers(self):
        cfg = ScenarioConfig(
            n=100, reps=12, seed=41, contamination="C0", missing="MH",
            propensity_method="constant", estimators=("ipw", "aipw"),
        )
        t1 = run_scenario(cfg, workers=1)
        t2 = run_scenario(cfg, workers=4)
        assert t1.to_csv_text() == t2.to_csv_text()
        assert t1.to_json_text() == t2.to_json_text()

    def test_process_pool_matches_one_worker(self, monkeypatch):
        cfg = ScenarioConfig(
            n=100, reps=7, seed=41, contamination="C0", missing="MH",
            propensity_method="constant", estimators=("ipw", "aipw"),
        )
        t1 = run_scenario(cfg, workers=1)
        monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
        monkeypatch.setattr(parallel, "_START_FACTOR", 0.0)
        t2 = run_scenario(cfg, workers=4)
        assert t1.to_csv_text() == t2.to_csv_text()
        assert t1.to_json_text() == t2.to_json_text()
        assert multiprocessing.active_children() == []

    def test_mse_identity_and_table_shape(self):
        cfg = ScenarioConfig(
            n=100, reps=10, seed=43, propensity_method="true_p",
            estimators=("ipw",), functionals=("mean", "m_est"),
        )
        tab = run_scenario(cfg)
        assert len(tab.rows) == 2
        for r in tab.rows:
            assert r.mse == r.bias**2 + r.sd**2
            assert r.propensity == "true_p"
        assert tab.reps_used == 10
        assert tab.failures == 0
        assert 0.45 < tab.observed_fraction < 0.70

    def test_m1_rows_match_across_estimators(self):
        cfg = ScenarioConfig(
            n=120, reps=6, seed=47, missing="M1",
            propensity_method="constant", estimators=("ipw", "aipw"),
        )
        tab = run_scenario(cfg)
        by = {(r.functional, r.estimator): r for r in tab.rows}
        for f in ("mean", "median", "m_est"):
            assert by[(f, "ipw")].bias == pytest.approx(by[(f, "aipw")].bias, abs=1e-10)
            assert by[(f, "ipw")].sd == pytest.approx(by[(f, "aipw")].sd, abs=1e-10)
        assert tab.observed_fraction == 1.0

    def test_l_measures_use_both_references(self):
        # under C1 the clean and contaminated references differ, so L10 > L1
        # for an estimator tracking the contaminated sample (the mean)
        cfg = ScenarioConfig(
            n=100, reps=8, seed=53, contamination="C1", missing="M1",
            propensity_method="constant", estimators=("ipw",),
            functionals=("mean",),
        )
        tab = run_scenario(cfg)
        row = tab.rows[0]
        # ipw under M1 IS the contaminated complete-data mean: L1 = 0
        assert row.l1 == pytest.approx(0.0, abs=1e-12)
        assert row.l10 > 0.1

    def test_custom_targets_shift_bias_only(self):
        cfg = ScenarioConfig(
            n=100, reps=6, seed=59, propensity_method="true_p",
            estimators=("ipw",), functionals=("m_est",),
        )
        t1 = run_scenario(cfg)
        t2 = run_scenario(cfg, targets={"m_est": 0.0})
        assert t2.rows[0].bias == pytest.approx(
            t1.rows[0].bias + t1.targets["m_est"], abs=1e-9
        )
        assert t2.rows[0].sd == t1.rows[0].sd

    def test_aborts_when_replications_fail(self):
        # n=20 leaves too few complete cases under MH for the regression
        # stage, so conv fails nearly every replication
        cfg = ScenarioConfig(
            n=20, reps=5, seed=61, missing="MH",
            propensity_method="constant", estimators=("conv",),
        )
        with pytest.raises(RuntimeError, match="aborted"):
            run_scenario(cfg)

    def test_rejects_bad_worker_count(self):
        cfg = ScenarioConfig(n=100, reps=1, estimators=("ipw",))
        with pytest.raises(ValueError, match="workers"):
            run_scenario(cfg, workers=0)


@pytest.fixture(scope="module")
def table() -> SummaryTable:
    cfg = ScenarioConfig(
        n=100, reps=5, seed=67, propensity_method="constant",
        estimators=("ipw", "aipw"), functionals=("mean", "m_est"),
    )
    return run_scenario(cfg)


class TestSummaryEmission:

    def test_csv_header_and_layout(self, table):
        lines = table.to_csv_text().strip().split("\n")
        assert lines[0] == "functional,estimator,propensity,bias,sd,mse,L10,L20,L1,L2"
        assert len(lines) == 1 + 4
        first = lines[1].split(",")
        assert first[:3] == ["mean", "ipw", "constant"]
        # six-significant-digit formatting
        assert first[3] == "%.6g" % table.rows[0].bias

    def test_json_round_trip(self, table):
        parsed = json.loads(table.to_json_text())
        assert parsed["config"]["n"] == 100
        assert parsed["reps_used"] == 5
        assert len(parsed["rows"]) == 4
        assert parsed["rows"][0]["functional"] == "mean"
        assert parsed["rows"][0]["bias"] == table.rows[0].bias
        assert parsed["targets"]["m_est"] == table.targets["m_est"]


class TestTargetValues:
    def test_symmetric_sampler_centers_at_zero(self):
        tv = target_values(
            reps=4, n=20000, seed=71,
            sampler=lambda rng, n: rng.normal(0.0, 1.0, n),
        )
        assert abs(tv.mean) < 0.02
        assert abs(tv.median) < 0.02
        assert abs(tv.m_est) < 0.02
        assert tv.mean_se < 0.01

    def test_median_sits_at_the_half_quantile(self):
        # with the standard normal override the true CDF is known exactly
        from statistics import NormalDist

        reps, n = 5, 20000
        tv = target_values(
            reps=reps, n=n, seed=73,
            sampler=lambda rng, n: rng.normal(0.0, 1.0, n),
        )
        bound = 2.0 / np.sqrt(n * reps)
        assert abs(NormalDist().cdf(tv.median) - 0.5) <= bound

    def test_benchmark_model_values(self):
        # long-run functionals of the nonlinear benchmark: the mean has the
        # closed form 5(e^2 - 1)/2 = 15.9726
        tv = target_values(reps=4, n=100_000, seed=79)
        assert tv.mean == pytest.approx(15.9726, abs=0.03)
        assert tv.median == pytest.approx(13.63, abs=0.04)
        assert tv.m_est == pytest.approx(15.40, abs=0.04)
        assert tv.median < tv.m_est < tv.mean

    def test_validation(self):
        with pytest.raises(ValueError, match="reps"):
            target_values(reps=0, n=100)
        with pytest.raises(ValueError, match="n must be"):
            target_values(reps=1, n=1)

    def test_determinism(self):
        a = target_values(reps=2, n=5000, seed=83)
        b = target_values(reps=2, n=5000, seed=83)
        assert a == b
