"""Tests for the propensity estimators."""

import numpy as np
import pytest

from robmarg import propensity
from robmarg.propensity import (
    auto_bandwidth,
    constant_propensity,
    cv_bandwidth,
    fit_logistic,
    kernel_propensity,
    known_propensity,
)


def mh_probability(z):
    """The benchmark missingness model: logistic in z with slope 0.2."""
    return 1.0 / (1.0 + np.exp(-0.2 * np.asarray(z) - 0.2))


def draw_mh(n, seed):
    rng = np.random.default_rng(seed)
    z = rng.random(n)
    delta = (rng.random(n) < mh_probability(z)).astype(int)
    return z, delta


class TestLogistic:
    def test_recovers_generating_coefficients(self):
        z, delta = draw_mh(100_000, seed=42)
        fit = fit_logistic(z, delta)
        gamma = fit.params["gamma"]
        assert abs(gamma[0] - 0.2) < 0.05
        assert abs(gamma[1] - 0.2) < 0.05

    def test_fair_coin_predicts_half(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal(10_000)
        delta = (rng.random(10_000) < 0.5).astype(int)
        fit = fit_logistic(z, delta)
        preds = fit.predict(np.linspace(-2, 2, 9))
        assert np.all(np.abs(preds - 0.5) < 0.03)

    def test_all_delta_equal(self):
        z = np.arange(10.0)
        with pytest.raises(ValueError, match="all delta equal"):
            fit_logistic(z, np.ones(10, dtype=int))
        with pytest.raises(ValueError, match="all delta equal"):
            fit_logistic(z, np.zeros(10, dtype=int))

    def test_too_few_rows(self):
        with pytest.raises(ValueError, match="k \\+ 2"):
            fit_logistic(np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]]),
                         np.array([0, 1, 0]))

    def test_complete_separation(self):
        # classes split by a gap of ~0.018 z-units: the likelihood has no
        # maximizer and the iterates blow past the divergence norm
        z = np.linspace(0.0, 0.2, 12)
        delta = (z > 0.1).astype(int)
        with pytest.raises(ValueError, match="separation"):
            fit_logistic(z, delta)

    def test_beats_brute_force_grid(self):
        # On a small sample, no point of a dense (gamma0, gamma1) grid may
        # have higher log-likelihood than the Newton solution.
        rng = np.random.default_rng(7)
        n = 25
        z = rng.random(n)
        delta = (rng.random(n) < mh_probability(z)).astype(int)
        if delta.min() == delta.max():  # pragma: no cover
            pytest.skip("degenerate draw")
        fit = fit_logistic(z, delta)
        g = fit.params["gamma"]

        def loglik(g0, g1):
            eta = g0 + g1 * z
            return float(delta @ eta - np.logaddexp(0.0, eta).sum())

        best = loglik(g[0], g[1])
        grid = np.linspace(-5.0, 5.0, 201)
        etas = grid[:, None, None] + grid[None, :, None] * z[None, None, :]
        lls = (delta * etas - np.logaddexp(0.0, etas)).sum(axis=2)
        assert lls.max() <= best + 1e-6

    def test_records_iterations_and_convergence(self):
        z, delta = draw_mh(500, seed=3)
        fit = fit_logistic(z, delta)
        assert fit.params["converged"] is True
        assert 1 <= fit.params["iterations"] < propensity._NEWTON_MAX_ITER

    def test_reports_hitting_the_iteration_cap(self, monkeypatch):
        z, delta = draw_mh(500, seed=3)
        full = fit_logistic(z, delta)
        monkeypatch.setattr(propensity, "_NEWTON_MAX_ITER", 1)
        capped = fit_logistic(z, delta)
        assert capped.params["iterations"] == 1
        assert capped.params["converged"] is False
        assert not np.array_equal(capped.params["gamma"], full.params["gamma"])

    def test_predictions_clamped(self):
        z, delta = draw_mh(500, seed=3)
        fit = fit_logistic(z, delta, floor=0.05)
        preds = fit.predict(np.linspace(-100, 100, 21))
        assert np.all(preds >= 0.05) and np.all(preds <= 1.0)


class TestKernel:
    def test_all_observed(self):
        z = np.linspace(0, 1, 20)
        fit = kernel_propensity(z, np.ones(20, dtype=int), b_n=0.3)
        assert np.all(fit.predict(np.linspace(0, 1, 7)) == 1.0)

    def test_none_observed(self):
        z = np.linspace(0, 1, 20)
        fit = kernel_propensity(z, np.zeros(20, dtype=int), b_n=0.3, floor=0.01)
        assert np.all(fit.predict(np.linspace(0, 1, 7)) == 0.01)

    def test_hand_computed_weights(self):
        # z = {0, 0.5, 1}, delta = {1, 0, 1}, b = 0.6, query 0.1:
        # t = (-1/6, 2/3, 1.5), kernel = (35/48, 20/48, 0), so the local
        # fraction is 35/55 = 7/11.
        fit = kernel_propensity([0.0, 0.5, 1.0], [1, 0, 1], b_n=0.6)
        assert fit.predict([0.1]) == pytest.approx([7.0 / 11.0], abs=1e-12)

    def test_empty_neighborhood_falls_back_to_mean(self):
        fit = kernel_propensity([0.0, 1.0, 2.0, 3.0], [1, 0, 0, 1], b_n=0.1)
        assert fit.predict([50.0]) == pytest.approx([0.5])

    def test_monte_carlo_accuracy(self):
        rng = np.random.default_rng(11)
        n = 5000
        z = rng.random(n)
        delta = (rng.random(n) < mh_probability(z)).astype(int)
        fit = kernel_propensity(z, delta, b_n=0.2)
        grid = np.linspace(0.05, 0.95, 46)
        mae = float(np.mean(np.abs(fit.predict(grid) - mh_probability(grid))))
        assert mae < 0.02

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(5)
        z = rng.random(200)
        delta = (rng.random(200) < 0.6).astype(int)
        base = kernel_propensity(z, delta, b_n=0.25)
        scaled = kernel_propensity(10.0 * z - 3.0, delta, b_n=2.5)
        q = np.linspace(0.1, 0.9, 9)
        np.testing.assert_allclose(
            base.predict(q), scaled.predict(10.0 * q - 3.0), rtol=1e-12
        )

    def test_bad_bandwidth(self):
        with pytest.raises(ValueError, match="bandwidth"):
            kernel_propensity([0.0, 1.0], [0, 1], b_n=0.0)

    def test_product_kernel_two_columns(self):
        rng = np.random.default_rng(2)
        z = rng.random((300, 2))
        delta = (rng.random(300) < 0.7).astype(int)
        fit = kernel_propensity(z, delta, b_n=0.4)
        preds = fit.predict(z[:10])
        assert preds.shape == (10,)
        assert np.all((preds >= fit.floor) & (preds <= 1.0))


class TestCvBandwidth:
    def test_single_element_grid(self):
        z, delta = draw_mh(50, seed=9)
        assert cv_bandwidth(z, delta, [0.37]) == 0.37

    def test_all_observed_ties_to_smallest(self):
        z = np.linspace(0, 1, 40)
        delta = np.ones(40, dtype=int)
        assert cv_bandwidth(z, delta, [0.5, 0.2, 0.9]) == 0.2

    def test_matches_brute_force(self):
        z, delta = draw_mh(500, seed=21)
        grid = [0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 0.7, 1.0]
        chosen = cv_bandwidth(z, delta, grid)

        def loo_score(b):
            total = 0.0
            for i in range(len(z)):
                t = (np.delete(z, i) - z[i]) / b
                k = np.where(np.abs(t) <= 1.0, 0.75 * (1 - t * t), 0.0)
                di = np.delete(delta, i)
                den = k.sum()
                p = k @ di / den if den > 0 else di.mean()
                total += (delta[i] - p) ** 2
            return total

        scores = {b: loo_score(b) for b in grid}
        best = min(scores.values())
        assert scores[chosen] == pytest.approx(best, rel=1e-12)
        assert scores[chosen] <= 1.05 * best

    def test_grid_of_rows_takes_a_bandwidth_per_column(self):
        rng = np.random.default_rng(3)
        z = rng.random((120, 2)) * [1.0, 50.0]
        delta = (rng.random(120) < mh_probability(z[:, 0])).astype(int)
        grid = [[0.3, 15.0], [0.1, 5.0], [0.2, 10.0]]
        chosen = cv_bandwidth(z, delta, grid)
        assert isinstance(chosen, tuple) and list(chosen) in grid
        assert cv_bandwidth(z[:, :1], delta, [[0.2], [0.1]]) in (0.1, 0.2)
        with pytest.raises(ValueError, match="2-column rows"):
            cv_bandwidth(z, delta, [[0.1, 0.2, 0.3]])

    def test_grid_validation(self):
        z, delta = draw_mh(30, seed=1)
        with pytest.raises(ValueError, match="nonempty"):
            cv_bandwidth(z, delta, [])
        with pytest.raises(ValueError, match="positive"):
            cv_bandwidth(z, delta, [0.2, -0.1])


class TestAutoBandwidth:
    @staticmethod
    def draw(n=200, seed=4):
        """Two z columns of sd 0.1 and 10, both driving the propensity."""
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((n, 2)) * [0.1, 10.0]
        eta = 0.4 + 8.0 * z[:, 0] + 0.08 * z[:, 1]
        delta = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(int)
        return z, delta

    @staticmethod
    def predictions(z, delta):
        return propensity.fit_propensity("kernel", z, delta).predict(z)

    def test_each_column_gets_its_own_bandwidth(self):
        z, delta = self.draw()
        h = auto_bandwidth(z, delta)
        assert isinstance(h, tuple) and len(h) == 2
        assert isinstance(auto_bandwidth(z[:, :1], delta), float)
        assert h[1] / h[0] == pytest.approx(np.std(z[:, 1]) / np.std(z[:, 0]))
        base = self.predictions(z, delta)
        # The predictions do not collapse to the floor or 1.
        assert np.mean((base > 0.01) & (base < 1.0)) > 0.5

    def test_predictions_ignore_column_order_and_units(self):
        z, delta = self.draw()
        base = self.predictions(z, delta)
        for other in (z[:, ::-1], z * [1000.0, 1.0], z * [1.0, 1000.0]):
            np.testing.assert_allclose(self.predictions(other, delta), base,
                                       rtol=0, atol=1e-12)


class TestConstant:
    def test_mean(self):
        fit = constant_propensity([1, 1, 0, 0])
        assert fit.predict([123.0]).tolist() == [0.5]
        assert fit.params["p_hat"] == 0.5

    def test_all_observed(self):
        assert constant_propensity([1, 1, 1]).predict([0.0]).tolist() == [1.0]

    def test_above_floor(self):
        fit = constant_propensity([1, 0, 0, 0], floor=0.01)
        assert fit.predict([0.0]).tolist() == [0.25]

    def test_floor_binds(self):
        fit = constant_propensity([1] + [0] * 999)
        assert fit.predict([0.0]).tolist() == [0.01]


class TestKnown:
    def test_passthrough_and_clamp(self):
        fit = known_propensity(lambda zz: mh_probability(zz), floor=0.01)
        assert fit.method == "known"
        assert fit.predict([0.0]) == pytest.approx([mh_probability(0.0)])
        low = known_propensity(lambda zz: np.full(zz.shape[0], 1e-5), floor=0.01)
        assert low.predict([0.0]).tolist() == [0.01]

    def test_vector_queries(self):
        fit = known_propensity(lambda zz: mh_probability(zz))
        out = fit.predict(np.array([0.0, 0.5, 1.0]))
        np.testing.assert_allclose(out, mh_probability([0.0, 0.5, 1.0]))


class TestPredictInput:
    """predict takes an (m, k) matrix, or a vector of m points when k = 1,
    and returns an array of m probabilities."""

    @pytest.mark.parametrize("method", ["constant", "logistic", "kernel"])
    def test_scalar_is_rejected(self, method):
        z, delta = draw_mh(50, seed=1)
        fit = propensity.fit_propensity(method, z, delta)
        with pytest.raises(ValueError, match="vector or a matrix"):
            fit.predict(0.3)

    @pytest.mark.parametrize("method", ["logistic", "kernel"])
    def test_flat_point_of_two_columns_is_rejected(self, method):
        rng = np.random.default_rng(4)
        z = rng.random((60, 2))
        delta = (rng.random(60) < 0.7).astype(int)
        fit = propensity.fit_propensity(method, z, delta)
        with pytest.raises(ValueError, match="1 columns, expected 2"):
            fit.predict(np.array([0.2, 0.4]))
        one = fit.predict(np.array([[0.2, 0.4]]))
        assert one.shape == (1,) and one.dtype == float
