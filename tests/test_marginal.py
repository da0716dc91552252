"""Tests for the marginal distribution estimators."""

import warnings
import weakref
from math import erf, sqrt

import numpy as np
import pytest

from robmarg import marginal
from robmarg.dataset import ObservedDataset
from robmarg.marginal import (
    _spread,
    estimate_aipw,
    estimate_chunk,
    estimate_conv,
    estimate_ipw,
    functional_summary,
    signed_cdf_sample,
)
from robmarg.propensity import (
    constant_propensity,
    fit_logistic,
    kernel_propensity,
    known_propensity,
)
from robmarg.regression import MODELS, RegressionFit, fit_mm
from robmarg.scaleloc import mad_scale, s_scale
from robmarg.weighted import WeightedSample


def gen_mar(n, seed, p_fn=None):
    """Nonlinear-model data with covariate-driven missingness."""
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(0.0, 1.0, n)
    x2 = rng.normal(0.0, 1.0, n)
    eps = rng.normal(0.0, 1.0, n)
    y = 0.1 * x2 + 5.0 * np.exp(2.0 * x1) + eps
    if p_fn is None:
        p = 1.0 / (1.0 + np.exp(-0.2 * x1 - 0.2))
    else:
        p = p_fn(x1)
    delta = (rng.uniform(size=n) < p).astype(int)
    return ObservedDataset(
        y=np.where(delta == 1, y, np.nan),
        x=np.column_stack([x1, np.where(delta == 1, x2, np.nan)]),
        z_index=(0,),
        delta=delta,
    )


def complete_dataset(y):
    y = np.asarray(y, dtype=float)
    n = y.size
    return ObservedDataset(
        y=y,
        x=np.column_stack([np.linspace(0, 1, n), np.zeros(n)]),
        z_index=(0,),
        delta=np.ones(n, dtype=int),
    )


def unit_propensity():
    return known_propensity(lambda z: np.ones(z.shape[:-1]), k=1)


class TestIPW:
    def test_collapses_to_complete_data_functionals(self):
        rng = np.random.default_rng(1)
        y = rng.normal(10.0, 2.0, 60)
        data = complete_dataset(y)
        est = estimate_ipw(data, unit_propensity())
        ref = functional_summary(WeightedSample(y, np.full(60, 1 / 60)))
        assert est.theta_mean == pytest.approx(ref.mean, abs=1e-12)
        assert est.theta_median == pytest.approx(ref.median, abs=1e-12)
        assert est.theta_m == pytest.approx(ref.m_est, abs=1e-10)
        assert est.scale == pytest.approx(ref.scale, rel=1e-9)
        assert est.method == "ipw"
        assert est.propensity_tag == "known"

    def test_invariant_to_propensity_rescaling(self):
        data = gen_mar(300, 7)

        def p_fn(z):
            return 1.0 / (1.0 + np.exp(-0.2 * z[..., 0] - 0.2))

        est1 = estimate_ipw(data, known_propensity(p_fn, k=1))
        est2 = estimate_ipw(
            data, known_propensity(lambda z: 0.5 * p_fn(z), k=1)
        )
        assert est1.theta_mean == pytest.approx(est2.theta_mean, abs=1e-12)
        assert est1.theta_median == est2.theta_median
        assert est1.theta_m == pytest.approx(est2.theta_m, abs=1e-10)
        assert np.allclose(
            est1.distribution.normalized_weights,
            est2.distribution.normalized_weights,
            atol=1e-14,
        )

    def test_requires_two_complete_cases(self):
        data = ObservedDataset(
            y=np.array([1.0, np.nan, np.nan]),
            x=np.column_stack([np.arange(3.0), [0.0, np.nan, np.nan]]),
            z_index=(0,),
            delta=np.array([1, 0, 0]),
        )
        with pytest.raises(ValueError, match="at least two complete cases"):
            estimate_ipw(data, unit_propensity())

    def test_distribution_weights_are_normalized(self):
        data = gen_mar(200, 3)
        pf = fit_logistic(data.z, data.delta)
        est = estimate_ipw(data, pf)
        assert est.distribution.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert est.propensity_tag == "logistic"

    def test_default_scale_is_normalized_mad_of_distribution(self):
        data = gen_mar(200, 5)
        est = estimate_ipw(data, constant_propensity(data.delta))
        refit = mad_scale(est.distribution, normal_consistency=True)
        assert est.scale == pytest.approx(refit.scale, rel=1e-9)
        assert est.propensity_tag == "constant"

    def test_s_scale_option_matches_s_scale_of_distribution(self):
        data = gen_mar(200, 5)
        est = estimate_ipw(
            data, constant_propensity(data.delta), scale_method="s"
        )
        refit = s_scale(est.distribution)
        assert est.scale == pytest.approx(refit.scale, rel=1e-9)
        # the two preliminary-scale conventions genuinely differ
        mad_refit = mad_scale(est.distribution, normal_consistency=True)
        assert abs(est.scale - mad_refit.scale) > 1e-3

    def test_unknown_scale_method_rejected(self):
        data = gen_mar(50, 5)
        with pytest.raises(ValueError, match="unknown scale method"):
            estimate_ipw(
                data, constant_propensity(data.delta), scale_method="iqr"
            )


class TestConv:
    def test_constant_mean_collapses_to_complete_case_empirical(self):
        data = gen_mar(150, 11)
        pf = fit_logistic(data.z, data.delta)
        fit = RegressionFit(
            model=MODELS["linear"],
            beta=np.array([0.0, 0.0, 7.5]),
            residual_scale=1.0,
            weights_used=None,
            complete_case_count=data.n_obs,
            converged=True,
        )
        est = estimate_conv(data, pf, fit)
        y_obs = data.y[data.delta == 1]
        ref = functional_summary(
            WeightedSample(y_obs, np.full(y_obs.size, 1.0 / y_obs.size))
        )
        assert est.theta_mean == pytest.approx(ref.mean, abs=1e-10)
        assert est.theta_median == pytest.approx(ref.median, abs=1e-12)
        assert est.theta_m == pytest.approx(ref.m_est, abs=1e-8)
        assert est.method == "conv"

    def test_hand_crossing_of_residuals_and_locations(self):
        # mu_hat = x1 = (0.5, 1, 2) under beta=(1,0,0); residuals (0.5, 1, 2)
        data = ObservedDataset(
            y=np.array([1.0, 2.0, 4.0]),
            x=np.column_stack([[0.5, 1.0, 2.0], np.zeros(3)]),
            z_index=(0,),
            delta=np.ones(3, dtype=int),
        )
        fit = RegressionFit(
            model=MODELS["linear"],
            beta=np.array([1.0, 0.0, 0.0]),
            residual_scale=1.0,
            weights_used=None,
            complete_case_count=3,
            converged=True,
        )

        def p_fn(z):
            return np.select(
                [z[..., 0] < 0.75, z[..., 0] < 1.5], [0.5, 0.25], 1.0
            )

        pf = known_propensity(p_fn, k=1)
        est = estimate_conv(data, pf, fit)
        mu = np.array([0.5, 1.0, 2.0])
        eps = np.array([0.5, 1.0, 2.0])
        tau = np.array([2.0, 4.0, 1.0]) / 7.0
        expected_atoms = (eps[:, None] + mu[None, :]).ravel()
        expected_weights = (np.full(3, 1 / 3)[:, None] * tau[None, :]).ravel()
        assert np.allclose(est.distribution.atoms, expected_atoms)
        assert np.allclose(est.distribution.weights, expected_weights)
        assert est.theta_mean == pytest.approx(3.5 / 3 + 1.0, abs=1e-12)

    def test_requires_converged_fit(self):
        data = gen_mar(100, 2)
        pf = constant_propensity(data.delta)
        fit = RegressionFit(
            model=MODELS["linear"],
            beta=np.zeros(3),
            residual_scale=1.0,
            weights_used=None,
            complete_case_count=data.n_obs,
            converged=False,
        )
        with pytest.raises(ValueError, match="did not converge"):
            estimate_conv(data, pf, fit)

    def test_large_sample_grid_subsampling_warns_and_preserves_values(self):
        rng = np.random.default_rng(13)
        n = 2301  # odd so the median never sits on a cumulative-weight tie
        y = rng.normal(5.0, 1.0, n)
        data = complete_dataset(y)
        pf = unit_propensity()
        fit = RegressionFit(
            model=MODELS["linear"],
            beta=np.array([0.0, 0.0, 5.0]),
            residual_scale=1.0,
            weights_used=None,
            complete_case_count=n,
            converged=True,
        )
        with pytest.warns(UserWarning, match="convolution grid reduced"):
            est = estimate_conv(data, pf, fit)
        # constant mean: subsampled grid atoms are all 5.0, so the collapse
        # to the empirical law survives the reduction exactly
        assert est.distribution.atoms.size == n * 2000
        ref = functional_summary(WeightedSample(y, np.full(n, 1.0 / n)))
        assert est.theta_mean == pytest.approx(ref.mean, abs=1e-9)
        assert est.theta_median == pytest.approx(ref.median, abs=1e-12)


class TestAIPW:
    def test_collapses_to_empirical_when_fully_observed(self):
        rng = np.random.default_rng(19)
        y = rng.normal(3.0, 1.5, 50)
        data = complete_dataset(y)
        est = estimate_aipw(data, unit_propensity(), 0.2)
        ref = functional_summary(WeightedSample(y, np.full(50, 0.02)))
        assert est.theta_mean == pytest.approx(ref.mean, abs=1e-12)
        assert est.theta_median == pytest.approx(ref.median, abs=1e-12)
        assert est.theta_m == pytest.approx(ref.m_est, abs=1e-10)
        assert not est.negative_weights_floored
        assert np.allclose(est.signed_weights, np.full(50, 0.02), atol=1e-15)

    def test_composite_weight_sum_identity(self):
        for seed in range(40):
            n = int(np.random.default_rng(seed).integers(40, 200))
            data = gen_mar(n, 1000 + seed)
            if seed % 3 == 0:
                pf = fit_logistic(data.z, data.delta)
            elif seed % 3 == 1:
                pf = constant_propensity(data.delta)
            else:
                pf = kernel_propensity(data.z, data.delta, b_n=0.3)
            a_n = float(n) ** (-1.0 / 3.0)
            est = estimate_aipw(data, pf, a_n)
            # composite weights (zeta + varpi)/n must sum to exactly 1
            assert abs(est.signed_weights.sum() - 1.0) < 1e-10

    def test_negative_weights_floored_and_flagged(self):
        # tiny-propensity observed rows spread their large negative IPW
        # deficits (1 - zeta) over their kernel neighbors, driving a nearby
        # moderate-propensity row's composite weight below zero
        y = np.array([1.0, 2.0, 3.0, np.nan, 10.0, 11.0, 12.0])
        x1 = np.array([0.0, 0.05, 0.1, 0.5, 0.9, 0.95, 0.93])
        delta = np.array([1, 1, 1, 0, 1, 1, 1])
        data = ObservedDataset(
            y=y,
            x=np.column_stack([x1, np.where(delta == 1, 0.0, np.nan)]),
            z_index=(0,),
            delta=delta,
        )

        def p_fn(z):
            return np.where(z[..., 0] > 0.925, 0.02, 0.9)

        pf = known_propensity(p_fn, k=1, floor=0.01)
        # the floored weights concentrate on the two tiny-propensity atoms;
        # neither holds half the weight, so the S-scale is positive
        est = estimate_aipw(data, pf, a_n=0.2, scale_method="s")
        assert est.negative_weights_floored
        assert np.all(est.distribution.weights >= 0.0)
        assert est.distribution.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert est.signed_weights.min() < 0.0
        assert abs(est.signed_weights.sum() - 1.0) < 1e-10

    def test_signed_cdf_sample_is_a_distribution(self):
        y = np.array([1.0, 2.0, 3.0, np.nan, 10.0, 11.0, 12.0])
        x1 = np.array([0.0, 0.05, 0.1, 0.5, 0.9, 0.95, 0.93])
        delta = np.array([1, 1, 1, 0, 1, 1, 1])
        data = ObservedDataset(
            y=y,
            x=np.column_stack([x1, np.where(delta == 1, 0.0, np.nan)]),
            z_index=(0,),
            delta=delta,
        )
        pf = known_propensity(
            lambda z: np.where(z[..., 0] > 0.925, 0.02, 0.9), k=1, floor=0.01
        )
        est = estimate_aipw(data, pf, a_n=0.2, scale_method="s")
        ws = signed_cdf_sample(est)
        assert ws.total == pytest.approx(1.0, abs=1e-12)
        assert np.all(ws.weights >= 0.0)

    def test_signed_cdf_sample_requires_aipw(self):
        data = gen_mar(100, 23)
        est = estimate_ipw(data, constant_propensity(data.delta))
        with pytest.raises(ValueError, match="no signed weights"):
            signed_cdf_sample(est)

    def test_rejects_nonpositive_smoothing(self):
        data = gen_mar(100, 29)
        pf = constant_propensity(data.delta)
        with pytest.raises(ValueError, match="must be positive"):
            estimate_aipw(data, pf, 0.0)


def conditional_cdf_kernel(data, a_n):
    """The conditional CDF of y given z that the AIPW shares define:
    G(y, z) sums the biweight shares of query z over the complete cases
    with response <= y (a query with an empty window shares uniformly)."""
    obs = data.delta == 1
    y_obs, z_obs = data.y[obs], data.z[obs]
    order = np.argsort(y_obs, kind="stable")

    def cdf(y, z):
        w = _spread(z_obs, np.reshape(z, (1, -1)), a_n, [1.0])[order]
        cw = np.clip(np.concatenate(([0.0], np.cumsum(w))), 0.0, 1.0)
        cw[-1] = 1.0
        out = cw[np.searchsorted(y_obs[order], y, side="right")]
        return float(out) if np.ndim(y) == 0 else out

    return cdf


class TestConditionalCDF:
    def test_single_observed_point_is_a_step(self):
        data = ObservedDataset(
            y=np.array([2.5, np.nan]),
            x=np.column_stack([[0.3, 0.6], [0.0, np.nan]]),
            z_index=(0,),
            delta=np.array([1, 0]),
        )
        cdf = conditional_cdf_kernel(data, a_n=0.5)
        z = np.array([0.35])
        assert cdf(2.4, z) == 0.0
        assert cdf(2.5, z) == 1.0
        assert cdf(2.6, z) == 1.0

    def test_limits_are_zero_and_one(self):
        data = gen_mar(300, 31)
        cdf = conditional_cdf_kernel(data, a_n=0.1)
        for z in (0.1, 0.5, 0.9):
            assert cdf(1e12, np.array([z])) == pytest.approx(1.0)
            assert cdf(-1e12, np.array([z])) == pytest.approx(0.0)

    def test_monotone_in_y(self):
        data = gen_mar(300, 37)
        cdf = conditional_cdf_kernel(data, a_n=0.15)
        ys = np.linspace(0.0, 40.0, 200)
        vals = cdf(ys, np.array([0.4]))
        assert np.all(np.diff(vals) >= 0.0)

    def test_empty_window_falls_back_to_complete_case_ecdf(self):
        data = gen_mar(200, 41)
        cdf = conditional_cdf_kernel(data, a_n=0.05)
        y_obs = np.sort(data.y[data.delta == 1])
        far = np.array([50.0])  # no training z anywhere near
        for q in (5.0, 12.0, 30.0):
            expected = np.searchsorted(y_obs, q, side="right") / y_obs.size
            assert cdf(q, far) == pytest.approx(expected, abs=1e-12)

    @staticmethod
    def _true_cdf(y, z):
        # y | x1=z is normal: mean 5*exp(2z), variance 0.1^2 + 1
        return 0.5 * (1.0 + erf((y - 5.0 * np.exp(2.0 * z)) / (sqrt(1.01) * sqrt(2.0))))

    def _sup_error(self, n, seed):
        data = gen_mar(n, seed)
        cdf = conditional_cdf_kernel(data, float(n) ** (-1.0 / 3.0))
        sup = 0.0
        for z in np.arange(0.1, 0.51, 0.05):
            center = 5.0 * np.exp(2.0 * z)
            ys = np.linspace(center - 4.0, center + 4.0, 81)
            est = cdf(ys, np.array([z]))
            tru = np.array([self._true_cdf(y, z) for y in ys])
            sup = max(sup, float(np.max(np.abs(est - tru))))
        return sup

    def test_accuracy_against_analytic_truth(self):
        # At n=2000 the smoothing bias at the steep end of the mean function
        # keeps the sup-error near 0.1-0.18 (measured over seeds); at
        # n=20000 it drops below 0.08 uniformly.
        assert self._sup_error(2000, 101) < 0.2
        assert self._sup_error(20000, 101) < 0.08

    def test_accuracy_improves_with_sample_size(self):
        for seed in (101, 102, 103):
            assert self._sup_error(20000, seed) < self._sup_error(2000, seed)


class TestEquivariance:
    def test_ipw_location_equivariance(self):
        data = gen_mar(250, 47)

        def p_fn(z):
            return 1.0 / (1.0 + np.exp(-0.2 * z[..., 0] - 0.2))

        pf = known_propensity(p_fn, k=1)
        a, b = 2.5, -4.0
        est0 = estimate_ipw(data, pf)
        data_t = ObservedDataset(
            y=a * data.y + b, x=data.x, z_index=(0,), delta=data.delta
        )
        est1 = estimate_ipw(data_t, pf)
        assert est1.theta_mean == pytest.approx(a * est0.theta_mean + b, abs=1e-8)
        assert est1.theta_median == pytest.approx(
            a * est0.theta_median + b, abs=1e-10
        )
        assert est1.theta_m == pytest.approx(a * est0.theta_m + b, abs=1e-6)
        assert est1.scale == pytest.approx(a * est0.scale, rel=1e-8)

    def test_conv_location_equivariance_with_linear_refit(self):
        rng = np.random.default_rng(53)
        n = 150
        x1 = rng.uniform(0, 1, n)
        x2 = rng.normal(0, 1, n)
        y = 2.0 * x1 + 0.5 * x2 + 3.0 + rng.normal(0, 1, n)
        p = 1.0 / (1.0 + np.exp(-0.2 * x1 - 0.2))
        delta = (rng.uniform(size=n) < p).astype(int)
        a, b = 1.7, 5.0

        def build(yy):
            return ObservedDataset(
                y=np.where(delta == 1, yy, np.nan),
                x=np.column_stack([x1, np.where(delta == 1, x2, np.nan)]),
                z_index=(0,),
                delta=delta,
            )

        pf = known_propensity(
            lambda z: 1.0 / (1.0 + np.exp(-0.2 * z[..., 0] - 0.2)), k=1
        )
        d0, d1 = build(y), build(a * y + b)
        fit0 = fit_mm(MODELS["linear"], d0, seed=0)
        fit1 = fit_mm(MODELS["linear"], d1, seed=0)
        est0 = estimate_conv(d0, pf, fit0)
        est1 = estimate_conv(d1, pf, fit1)
        assert est1.theta_mean == pytest.approx(a * est0.theta_mean + b, abs=1e-6)
        assert est1.theta_m == pytest.approx(a * est0.theta_m + b, abs=1e-6)
        assert est1.theta_median == pytest.approx(
            a * est0.theta_median + b, abs=1e-6
        )


def test_estimators_agree_reasonably_on_mar_data():
    """All three estimators target the same marginal law."""
    data = gen_mar(800, 61)
    pf = fit_logistic(data.z, data.delta)

    fit = fit_mm(MODELS["exp_linear"], data, seed=0)
    est_i = estimate_ipw(data, pf)
    est_c = estimate_conv(data, pf, fit)
    est_a = estimate_aipw(data, pf, float(800) ** (-1 / 3))
    vals = [est_i.theta_m, est_c.theta_m, est_a.theta_m]
    assert max(vals) - min(vals) < 1.0
    for est in (est_i, est_c, est_a):
        assert 10.0 < est.theta_mean < 22.0


CHUNK_KEYS = [("ipw", None, "constant"), ("conv", "exp", "logistic"),
              ("aipw", None, "logistic"), ("ipw", None, "logistic")]
CHUNK_A_N = 0.2


def chunk_propensity(name, z, delta):
    if name == "constant":
        return constant_propensity(delta)
    return fit_logistic(z, delta)


@pytest.fixture(scope="module")
def chunk_data():
    """Three MAR datasets of different sizes and each one's model fits."""
    datasets = [gen_mar(n, seed) for n, seed in ((80, 1), (90, 2), (100, 3))]
    fits = [{"exp": fit_mm(MODELS["exp_linear"], d, seed=0)}
            for d in datasets]
    return datasets, fits


def direct_estimates(data, models):
    pfs = {name: chunk_propensity(name, data.z, data.delta)
           for name in ("constant", "logistic")}
    return {
        ("ipw", None, "constant"): estimate_ipw(data, pfs["constant"]),
        ("conv", "exp", "logistic"): estimate_conv(
            data, pfs["logistic"], models["exp"]),
        ("aipw", None, "logistic"): estimate_aipw(
            data, pfs["logistic"], CHUNK_A_N),
        ("ipw", None, "logistic"): estimate_ipw(data, pfs["logistic"]),
    }


def assert_same_estimates(got, want):
    assert list(got) == list(want)
    for key in want:
        a, b = got[key], want[key]
        assert (a.scale, a.theta_mean, a.theta_median, a.theta_m, a.method,
                a.propensity_tag) == (b.scale, b.theta_mean, b.theta_median,
                                      b.theta_m, b.method, b.propensity_tag)
        np.testing.assert_array_equal(a.distribution.atoms,
                                      b.distribution.atoms)
        np.testing.assert_array_equal(a.distribution.weights,
                                      b.distribution.weights)


class TestEstimateChunk:
    def test_is_a_generator(self, chunk_data):
        datasets, fits = chunk_data
        chunk = estimate_chunk(datasets, chunk_propensity, fits, CHUNK_KEYS,
                               CHUNK_A_N)
        assert iter(chunk) is chunk
        assert len(list(chunk)) == len(datasets)

    def test_estimates_are_the_datasets_own(self, chunk_data):
        """A dataset's estimates are bit for bit the same alone, in a
        chunk, and from direct estimator calls, in key order."""
        datasets, fits = chunk_data
        together = list(estimate_chunk(datasets, chunk_propensity, fits,
                                       CHUNK_KEYS, CHUNK_A_N))
        for k, (data, models) in enumerate(zip(datasets, fits)):
            (alone,) = estimate_chunk([data], chunk_propensity, [models],
                                      CHUNK_KEYS, CHUNK_A_N)
            want = direct_estimates(data, models)
            assert_same_estimates(alone, want)
            assert_same_estimates(together[k], want)

    def test_scale_method_reaches_every_estimator(self, chunk_data):
        datasets, fits = chunk_data
        (got,) = estimate_chunk(datasets[:1], chunk_propensity, fits[:1],
                                CHUNK_KEYS, CHUNK_A_N, "s")
        pf = constant_propensity(datasets[0].delta)
        want = estimate_ipw(datasets[0], pf, "s")
        assert got["ipw", None, "constant"].scale == want.scale

    def test_failure_is_its_datasets_own_and_first(self, chunk_data,
                                                  monkeypatch):
        """A failed fit, then a propensity that raises, then the first
        failing estimator in key order: a dataset's result is the first of
        these, and the other datasets keep their estimates."""
        datasets, fits = chunk_data
        bad_fit = ValueError("insufficient complete cases")

        def propensity(name, z, delta):
            if delta.size != 90 and name == "logistic":
                raise ValueError(f"separation at {delta.size}")
            return chunk_propensity(name, z, delta)

        fits = [{"exp": bad_fit}, fits[1], fits[2]]
        results = list(estimate_chunk(datasets, propensity, fits,
                                      CHUNK_KEYS, CHUNK_A_N))
        assert results[0] is bad_fit
        assert str(results[2]) == "separation at 100"
        assert_same_estimates(results[1],
                              direct_estimates(datasets[1], fits[1]))

        def fails(name):
            def estimator(data, *args):
                raise RuntimeError(name)
            return estimator

        monkeypatch.setattr(marginal, "estimate_conv", fails("conv"))
        monkeypatch.setattr(marginal, "estimate_aipw", fails("aipw"))
        (result,) = estimate_chunk(datasets[1:2], chunk_propensity, fits[1:2],
                                   CHUNK_KEYS, CHUNK_A_N)
        assert isinstance(result, RuntimeError) and str(result) == "conv"
        (result,) = estimate_chunk(datasets[1:2], chunk_propensity, fits[1:2],
                                   CHUNK_KEYS[2:], CHUNK_A_N)
        assert str(result) == "aipw"

    def test_each_propensity_is_fitted_once_per_dataset(self, chunk_data):
        datasets, fits = chunk_data
        calls = []

        def propensity(name, z, delta):
            calls.append((delta.size, name))
            return chunk_propensity(name, z, delta)

        list(estimate_chunk(datasets, propensity, fits, CHUNK_KEYS,
                            CHUNK_A_N))
        assert calls == [(d.n, name) for d in datasets
                         for name in ("constant", "logistic")]

    def test_laws_are_freed_before_the_next_dataset(self, chunk_data,
                                                   monkeypatch):
        """The chunk holds no dataset's estimates once it has yielded them:
        a law the caller dropped is gone when the next dataset is
        estimated."""
        datasets, fits = chunk_data
        refs, alive = [], []
        real = marginal.estimate_ipw

        def ipw(data, *args):
            alive.append([ref() is not None for ref in refs])
            return real(data, *args)

        monkeypatch.setattr(marginal, "estimate_ipw", ipw)
        chunk = estimate_chunk(datasets, chunk_propensity, fits, CHUNK_KEYS,
                               CHUNK_A_N)
        for estimates in chunk:
            refs += [weakref.ref(est.distribution)
                     for est in estimates.values()]
            del estimates
        # Two ipw calls per dataset, each before that dataset's laws exist.
        assert len(refs) == 12
        assert alive == [[]] * 2 + [[False] * 4] * 2 + [[False] * 8] * 2
