"""Tests for jackknife and plug-in variance estimation."""

import multiprocessing
import warnings

import numpy as np
import pytest

from robmarg import inference, parallel
from robmarg.dataset import ObservedDataset
from robmarg.inference import (
    VarianceEstimate,
    confidence_interval,
    jackknife_se,
    plugin_var_ipw,
)
from robmarg.marginal import estimate_ipw
from robmarg.propensity import (
    constant_propensity,
    kernel_propensity,
    known_propensity,
)
from robmarg.scores import location_bisquare

SF = location_bisquare()


def complete_dataset(y):
    y = np.asarray(y, dtype=float)
    n = y.size
    return ObservedDataset(
        y=y,
        x=np.column_stack([np.linspace(0.0, 1.0, n), np.zeros(n)]),
        z_index=(0,),
        delta=np.ones(n, dtype=int),
    )


def gen_mar(n, seed, y_fn):
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(0.0, 1.0, n)
    x2 = rng.normal(0.0, 1.0, n)
    eps = rng.normal(0.0, 1.0, n)
    y = y_fn(x1, x2, eps)
    p = 1.0 / (1.0 + np.exp(-0.2 * x1 - 0.2))
    delta = (rng.uniform(size=n) < p).astype(int)
    return ObservedDataset(
        y=np.where(delta == 1, y, np.nan),
        x=np.column_stack([x1, np.where(delta == 1, x2, np.nan)]),
        z_index=(0,),
        delta=delta,
    )


def mean_and_median_with_marker(d):
    """Fails on the set that lost the marker value 777."""
    if not np.any(d.y == 777.0):
        raise ValueError("lost the marker")
    return float(d.y.mean()), float(np.median(d.y))


def always_fails(d):
    raise RuntimeError("always fails")


def skewed(x1, x2, eps):
    return 0.1 * x2 + 5.0 * np.exp(2.0 * x1) + eps


def symmetric(x1, x2, eps):
    return 5.0 + 2.0 * x2 + eps


MH_PROPENSITY = known_propensity(
    lambda z: 1.0 / (1.0 + np.exp(-0.2 * z[..., 0] - 0.2)), k=1
)


class TestJackknife:
    def test_sample_mean_closed_form(self):
        data = complete_dataset([1.0, 2.0, 3.0])
        ve = jackknife_se(lambda d: float(d.y.mean()), data)
        assert ve.se == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-12)
        assert ve.method == "jackknife"
        assert ve.n_effective == 3

    def test_constant_estimator_has_zero_se(self):
        data = complete_dataset(np.arange(12.0))
        ve = jackknife_se(lambda d: 42.0, data)
        assert ve.se == 0.0
        assert ve.n_effective == 12

    def test_row_order_invariance(self):
        data = gen_mar(60, 71, skewed)
        perm = np.random.default_rng(0).permutation(60)
        shuffled = ObservedDataset(
            y=data.y[perm], x=data.x[perm], z_index=(0,), delta=data.delta[perm]
        )

        def pipeline(d):
            pf = constant_propensity(d.delta)
            return estimate_ipw(d, pf, SF).theta_m

        ve1 = jackknife_se(pipeline, data)
        ve2 = jackknife_se(pipeline, shuffled)
        assert ve1.se == pytest.approx(ve2.se, abs=1e-10)

    def test_failed_replicates_are_skipped_with_warning(self):
        # dropping the marker row breaks the estimator: exactly one skip
        y = np.arange(10.0)
        y[4] = 777.0
        data = complete_dataset(y)

        def estimator(d):
            if not np.any(d.y == 777.0):
                raise ValueError("lost the marker")
            return float(d.y.mean())

        with pytest.warns(UserWarning, match="skipped 1 of 10"):
            ve = jackknife_se(estimator, data)
        assert ve.n_effective == 9

    def test_small_failure_fraction_does_not_warn(self):
        y = np.arange(30.0)
        y[7] = 777.0
        data = complete_dataset(y)

        def estimator(d):
            if not np.any(d.y == 777.0):
                raise ValueError("lost the marker")
            return float(d.y.mean())

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ve = jackknife_se(estimator, data)
        assert ve.n_effective == 29

    @staticmethod
    def tick_clock(monkeypatch, step):
        """Each clock reading is ``step`` seconds after the previous one."""
        ticks = iter(range(100_000))
        monkeypatch.setattr(inference, "perf_counter",
                            lambda: step * next(ticks))

    def test_slow_first_refit_warns_once_with_projection(self, monkeypatch):
        data = complete_dataset(np.arange(100.0) ** 1.5)
        expected = jackknife_se(lambda d: float(d.y.mean()), data)
        # The first refit reads as 1 s, so 100 refits project to 100 s.
        self.tick_clock(monkeypatch, 1.0)
        with pytest.warns(UserWarning) as record:
            ve = jackknife_se(lambda d: float(d.y.mean()), data)
        messages = [str(w.message) for w in record]
        assert messages == [
            "jackknife: 100 leave-one-out refits projected to take about 100 s"
        ]
        assert ve == expected

    def test_projection_under_a_minute_does_not_warn(self, monkeypatch):
        data = complete_dataset(np.arange(100.0))
        self.tick_clock(monkeypatch, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ve = jackknife_se(lambda d: float(d.y.mean()), data)
        assert ve.n_effective == 100

    def test_needs_two_successes(self):
        data = complete_dataset([1.0, 2.0, 3.0])

        def estimator(d):
            raise RuntimeError("always fails")

        with pytest.raises(ValueError, match="at least two successful"):
            jackknife_se(estimator, data)

    def test_full_pipeline_se_is_positive_and_modest(self):
        data = gen_mar(80, 73, skewed)

        def pipeline(d):
            pf = constant_propensity(d.delta)
            return estimate_ipw(d, pf, SF).theta_m

        ve = jackknife_se(pipeline, data)
        assert 0.0 < ve.se < 5.0


class TestJackknifeInProcesses:
    @pytest.fixture
    def pool_always(self, monkeypatch):
        monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
        monkeypatch.setattr(parallel, "_START_FACTOR", 0.0)

    def test_failed_set_is_skipped_for_every_component(self, pool_always):
        y = np.arange(40.0) ** 1.5
        y[23] = 777.0
        data = complete_dataset(y)
        ve = jackknife_se(mean_and_median_with_marker, data, workers=2)
        assert ve.n_effective == 39
        assert len(ve.se) == 2
        assert ve == jackknife_se(mean_and_median_with_marker, data)
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_an_estimator_error(self, pool_always):
        data = complete_dataset(np.arange(12.0))
        with pytest.raises(ValueError, match="at least two successful"):
            jackknife_se(always_fails, data, workers=2)
        assert multiprocessing.active_children() == []


class TestPluginVariance:
    def test_reduces_to_sandwich_when_fully_observed(self):
        rng = np.random.default_rng(5)
        y = rng.normal(3.0, 2.0, 500)
        data = complete_dataset(y)
        pf = known_propensity(lambda z: np.ones(z.shape[:-1]), k=1)
        est = estimate_ipw(data, pf, SF)
        ve = plugin_var_ipw(
            data, pf, est.theta_m, est.scale, SF, variant="known",
            scale_method=None,
        )
        u = (y - est.theta_m) / est.scale
        sandwich = est.scale * np.sqrt(
            np.mean(SF.psi(u) ** 2) / (500 * np.mean(SF.psi_prime(u)) ** 2)
        )
        assert ve.se == pytest.approx(sandwich, rel=1e-12)
        assert ve.method == "plugin_known"

    def test_flat_score_raises(self):
        y = np.concatenate([np.full(10, -100.0), np.full(10, 100.0)])
        data = complete_dataset(y)
        pf = known_propensity(lambda z: np.ones(z.shape[:-1]), k=1)
        with pytest.raises(ValueError, match="flat score"):
            plugin_var_ipw(data, pf, theta=0.0, scale=1.0, sf=SF,
                           variant="known")

    def test_kernel_correction_never_increases_gamma(self):
        for seed in (11, 12, 13, 14):
            data = gen_mar(400, seed, skewed)
            pf = kernel_propensity(data.z, data.delta, b_n=0.3)
            est = estimate_ipw(data, pf, SF)
            ve_known = plugin_var_ipw(
                data, pf, est.theta_m, est.scale, SF, variant="known"
            )
            ve_kernel = plugin_var_ipw(
                data, pf, est.theta_m, est.scale, SF, variant="kernel"
            )
            assert ve_kernel.se <= ve_known.se + 1e-12
            assert ve_kernel.method == "plugin_kernel"

    def test_kernel_variant_needs_a_bandwidth(self):
        data = gen_mar(100, 17, skewed)
        est = estimate_ipw(data, MH_PROPENSITY, SF)
        with pytest.raises(ValueError, match="bandwidth"):
            plugin_var_ipw(
                data, MH_PROPENSITY, est.theta_m, est.scale, SF,
                variant="kernel",
            )
        ve = plugin_var_ipw(
            data, MH_PROPENSITY, est.theta_m, est.scale, SF,
            variant="kernel", bandwidth=0.3,
        )
        assert ve.se > 0.0

    def test_correction_is_small_when_response_independent_of_z(self):
        data = gen_mar(2000, 19, symmetric)
        est = estimate_ipw(data, MH_PROPENSITY, SF)
        ve1 = plugin_var_ipw(
            data, MH_PROPENSITY, est.theta_m, est.scale, SF, variant="known"
        )
        ve3 = plugin_var_ipw(
            data, MH_PROPENSITY, est.theta_m, est.scale, SF,
            variant="kernel", bandwidth=0.2,
        )
        assert ve3.se <= ve1.se + 1e-12
        assert ve3.se >= 0.9 * ve1.se

    def test_scales_linearly_in_response_units(self):
        data = gen_mar(300, 23, symmetric)
        a = 3.0
        scaled = ObservedDataset(
            y=a * data.y, x=data.x, z_index=(0,), delta=data.delta
        )
        est0 = estimate_ipw(data, MH_PROPENSITY, SF)
        est1 = estimate_ipw(scaled, MH_PROPENSITY, SF)
        ve0 = plugin_var_ipw(
            data, MH_PROPENSITY, est0.theta_m, est0.scale, SF, variant="known"
        )
        ve1 = plugin_var_ipw(
            scaled, MH_PROPENSITY, est1.theta_m, est1.scale, SF,
            variant="known",
        )
        assert ve1.se == pytest.approx(a * ve0.se, rel=1e-6)

    def test_calibrates_on_symmetric_marginal(self):
        # Monte Carlo: for a symmetric response the asymptotic plug-in
        # matches the sampling variance (frozen ratio 1.025 at these seeds)
        n, reps = 300, 800
        thetas, se2 = [], []
        for j in range(reps):
            data = gen_mar(n, 500 ^ j, symmetric)
            est = estimate_ipw(data, MH_PROPENSITY, SF)
            ve = plugin_var_ipw(
                data, MH_PROPENSITY, est.theta_m, est.scale, SF,
                variant="known",
            )
            thetas.append(est.theta_m)
            se2.append(ve.se**2)
        ratio = np.var(thetas) / np.mean(se2)
        assert 0.85 < ratio < 1.15

    def test_calibrates_with_s_scale_on_skewed_marginal(self):
        # Monte Carlo: on the skewed marginal the S-scale's own variability
        # enters the M-location's, and the plug-in must carry it (ratio
        # 1.040 at these seeds; 1.734 with the scale treated as known)
        n, reps = 300, 800
        thetas, se2 = [], []
        for j in range(reps):
            data = gen_mar(n, 500 ^ j, skewed)
            est = estimate_ipw(data, MH_PROPENSITY, SF, scale_method="s")
            ve = plugin_var_ipw(
                data, MH_PROPENSITY, est.theta_m, est.scale, SF,
                variant="known", scale_method="s",
            )
            thetas.append(est.theta_m)
            se2.append(ve.se**2)
        ratio = np.var(thetas) / np.mean(se2)
        assert 0.85 < ratio < 1.15

    @pytest.mark.parametrize("scale_method", ["mad", "s"])
    def test_estimated_scale_widens_se_on_skewed_marginal(self, scale_method):
        data = gen_mar(400, 31, skewed)
        est = estimate_ipw(data, MH_PROPENSITY, SF, scale_method=scale_method)
        args = (data, MH_PROPENSITY, est.theta_m, est.scale, SF)
        known = plugin_var_ipw(*args, scale_method=None)
        estimated = plugin_var_ipw(*args, scale_method=scale_method)
        assert estimated.se > known.se

    @pytest.mark.parametrize("variant", ["known", "kernel"])
    def test_known_scale_is_the_fixed_scale_formula(self, variant):
        data = gen_mar(200, 37, skewed)
        pf = kernel_propensity(data.z, data.delta, b_n=0.3)
        est = estimate_ipw(data, pf, SF)
        ve = plugin_var_ipw(
            data, pf, est.theta_m, est.scale, SF, variant=variant,
            scale_method=None,
        )
        obs = data.delta == 1
        p_obs = pf.predict(data.z[obs])
        u = (data.y[obs] - est.theta_m) / est.scale
        tau = (1.0 / p_obs) / (1.0 / p_obs).sum()
        a_hat = float(tau @ SF.psi_prime(u))
        psi_u = SF.psi(u)
        gamma = float(tau @ (psi_u**2 / p_obs))
        if variant == "kernel":
            t = (data.z[obs][None, :, 0] - data.z[:, None, 0]) / 0.3
            panel = np.where(np.abs(t) <= 1.0, 0.75 * (1.0 - t * t), 0.0)
            r_hat = (panel @ psi_u) / panel.sum(axis=1)
            p_all = pf.predict(data.z)
            gamma -= float(np.mean((1.0 - p_all) / p_all * r_hat**2))
        want = est.scale * np.sqrt(gamma / (data.n * a_hat**2))
        assert ve.se == want

    def test_input_validation(self):
        data = gen_mar(100, 29, symmetric)
        with pytest.raises(ValueError, match="unknown plugin variant"):
            plugin_var_ipw(data, MH_PROPENSITY, 5.0, 1.0, SF, variant="bad")
        with pytest.raises(ValueError, match="scale must be positive"):
            plugin_var_ipw(data, MH_PROPENSITY, 5.0, 0.0, SF)
        with pytest.raises(ValueError, match="unknown scale method"):
            plugin_var_ipw(data, MH_PROPENSITY, 5.0, 1.0, SF,
                           scale_method="iqr")


class TestConfidenceInterval:
    def test_standard_normal_quantile(self):
        ve = VarianceEstimate(se=1.0, method="plugin_known", n_effective=100)
        lo, hi = confidence_interval(0.0, ve, 0.95)
        assert lo == pytest.approx(-1.959964, abs=1e-5)
        assert hi == pytest.approx(1.959964, abs=1e-5)

    def test_zero_se_gives_degenerate_interval(self):
        ve = VarianceEstimate(se=0.0, method="jackknife", n_effective=10)
        assert confidence_interval(7.5, ve, 0.95) == (7.5, 7.5)

    def test_interval_contains_theta(self):
        ve = VarianceEstimate(se=2.0, method="jackknife", n_effective=50)
        lo, hi = confidence_interval(-3.0, ve, 0.9)
        assert lo < -3.0 < hi

    def test_wider_level_gives_wider_interval(self):
        ve = VarianceEstimate(se=1.0, method="jackknife", n_effective=50)
        lo95, hi95 = confidence_interval(0.0, ve, 0.95)
        lo99, hi99 = confidence_interval(0.0, ve, 0.99)
        assert lo99 < lo95 and hi99 > hi95

    @pytest.mark.parametrize("level", [0.0, 1.0, -0.5, 1.5])
    def test_level_validation(self, level):
        ve = VarianceEstimate(se=1.0, method="jackknife", n_effective=10)
        with pytest.raises(ValueError, match="level"):
            confidence_interval(0.0, ve, level)


class TestVarianceEstimateValidation:
    def test_rejects_negative_se(self):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            VarianceEstimate(se=-1.0, method="jackknife", n_effective=5)

    def test_rejects_nonfinite_se(self):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            VarianceEstimate(se=float("nan"), method="jackknife", n_effective=5)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown variance method"):
            VarianceEstimate(se=1.0, method="bootstrap", n_effective=5)

    def test_rejects_empty_effective_count(self):
        with pytest.raises(ValueError, match="at least 1"):
            VarianceEstimate(se=1.0, method="jackknife", n_effective=0)
