"""Tests for the simplified MM regression fits."""

import dataclasses
import pickle
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robmarg import regression, scaleloc
from robmarg.cli import _read_csv_columns
from robmarg.dataset import ObservedDataset
from robmarg.regression import (
    MODELS,
    RegressionFit,
    RegressionModel,
    fit_mm,
    hard_rejection_weights,
    predict,
)
from robmarg.scores import SCALE_B_TARGET, location_bisquare, scale_bisquare
from robmarg.simulation import generate_sample

BETA_TRUE = np.array([2.0, 0.1, 5.0])


def short_id(model_id):
    """The test-id label of a model: exp, exp-intercept or linear."""
    return model_id.replace("exp_linear", "exp").replace("_", "-")


# Monte Carlo SDs of the fitted coefficients at n=100 under the nonlinear
# generator below, frozen from a 200-replication run (seeds 1000..1199).
MC_SD_N100 = np.array([0.0277, 0.1070, 0.1107])


def make_fit(model, beta, converged=True):
    beta = np.asarray(beta, dtype=float)
    return RegressionFit(
        model=model,
        beta=beta,
        residual_scale=1.0,
        weights_used=None,
        complete_case_count=50,
        converged=converged,
    )


def gen_nonlinear(n, rng, contaminate=False):
    """y = 0.1*x2 + 5*exp(2*x1) + eps with optional 10% vertical outliers."""
    x1 = rng.uniform(0.0, 1.0, n)
    x2 = rng.normal(0.0, 1.0, n)
    eps = rng.normal(0.0, 1.0, n)
    y = 0.1 * x2 + 5.0 * np.exp(2.0 * x1) + eps
    if contaminate:
        k = int(0.1 * n)
        idx = rng.choice(n, size=k, replace=False)
        y[idx] = 2.0 * (0.1 * x2[idx] + 5.0 * np.exp(2.0 * x1[idx]))
    return ObservedDataset(
        y=y,
        x=np.column_stack([x1, x2]),
        z_index=(0,),
        delta=np.ones(n, dtype=int),
    )


def gauss_newton_least_squares(model, data, beta_start, iterations=100):
    """Plain (non-robust) least-squares fit used as a comparison baseline."""
    y, x = data.y, data.x
    beta = np.asarray(beta_start, dtype=float).copy()
    for _ in range(iterations):
        r = y - model.mean(x, beta)
        jac = model.gradient(x, beta)
        step, *_ = np.linalg.lstsq(jac, r, rcond=None)
        sse = float(r @ r)
        t = 1.0
        for _ in range(30):
            cand = beta + t * step
            rc = y - model.mean(x, cand)
            if np.all(np.isfinite(rc)) and float(rc @ rc) < sse:
                beta = cand
                break
            t *= 0.5
        else:
            break
        if float(np.max(np.abs(t * step))) < 1e-10:
            break
    return beta


class TestPredict:
    def test_linear_arithmetic(self):
        fit = make_fit(MODELS["linear"], [1.0, 1.0, 0.0])
        assert predict(fit, np.array([2.0, 3.0])) == pytest.approx(5.0)

    def test_exp_arithmetic(self):
        fit = make_fit(MODELS["exp_linear"], BETA_TRUE)
        assert predict(fit, np.array([0.0, 1.0])) == pytest.approx(5.1)

    def test_exp_intercept_arithmetic(self):
        a, b, c, d = 3.5, 0.7, -1.25, 2.0
        fit = make_fit(MODELS["exp_linear_intercept"], [a, b, c, d])
        assert predict(fit, np.array([0.0, 0.0])) == pytest.approx(a + c)

    def test_matrix_input(self):
        fit = make_fit(MODELS["linear"], [2.0, 0.0, 1.0])
        out = predict(fit, np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert np.allclose(out, [1.0, 3.0])

    def test_requires_convergence(self):
        fit = make_fit(MODELS["linear"], [1.0, 1.0, 0.0], converged=False)
        with pytest.raises(ValueError, match="did not converge"):
            predict(fit, np.array([2.0, 3.0]))

    def test_covariate_dimension_mismatch(self):
        fit = make_fit(MODELS["linear"], [1.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="dimension mismatch"):
            predict(fit, np.array([2.0, 3.0, 4.0]))

    @pytest.mark.parametrize("model_id", sorted(MODELS))
    def test_fit_pickles_with_its_model(self, model_id):
        """A fit crosses a process boundary whole: its model pickles by
        value, and the round-tripped fit predicts the same floats."""
        data, _ = generate_sample(200, 3)
        fit = fit_mm(MODELS[model_id], data, seed=0)
        back = pickle.loads(pickle.dumps(fit))
        assert back.model == fit.model
        assert back.beta.tobytes() == fit.beta.tobytes()
        want = predict(fit, data.x[data.delta == 1])
        got = predict(back, data.x[data.delta == 1])
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("model", MODELS.values(), ids=map(short_id, MODELS))
def test_gradient_matches_finite_differences(model):
    rng = np.random.default_rng(99)
    x = np.column_stack([rng.uniform(0, 1, 40), rng.normal(0, 1, 40)])
    beta = rng.uniform(0.2, 2.0, model.dim_beta)
    grad = model.gradient(x, beta)
    h = 1e-6
    for j in range(model.dim_beta):
        e = np.zeros(model.dim_beta)
        e[j] = h
        fd = (model.mean(x, beta + e) - model.mean(x, beta - e)) / (2 * h)
        assert np.max(np.abs(grad[:, j] - fd)) < 1e-5


@pytest.mark.parametrize("model", MODELS.values(), ids=map(short_id, MODELS))
def test_curvature_matches_finite_differences(model):
    """curvature(x, beta, w) is the w-weighted sum of the Hessians of the
    mean: central differences of the gradient give it column by column."""
    rng = np.random.default_rng(101)
    x = np.column_stack([rng.uniform(0, 1, 40), rng.normal(0, 1, 40)])
    w = rng.normal(0, 1, 40)
    p = model.dim_beta
    for _ in range(5):
        beta = rng.uniform(-2.0, 2.0, p)
        curv = model.curvature(x, beta, w)
        assert curv.shape == (p, p)
        h = 1e-5
        fd = np.empty((p, p))
        for j in range(p):
            e = np.zeros(p)
            e[j] = h
            fd[:, j] = w @ (
                model.gradient(x, beta + e) - model.gradient(x, beta - e)
            ) / (2 * h)
        np.testing.assert_allclose(curv, fd, rtol=1e-6, atol=0.0)


# ---------------------------------------------------------------------------
# Reference: the hand-written mean, gradient and curvature of each model as
# they were before the models were described by their terms.


def ref_exp_mean(x, beta):
    b1, b2, b3 = beta
    return b2 * x[:, 1] + b3 * np.exp(b1 * x[:, 0])


def ref_exp_gradient(x, beta):
    b1, _, b3 = beta
    e = np.exp(b1 * x[:, 0])
    return np.stack([b3 * x[:, 0] * e, x[:, 1], e], axis=1)


def ref_exp_curvature(x, beta, w):
    b1, _, b3 = beta
    wxe = w * x[:, 0] * np.exp(b1 * x[:, 0])
    h = np.zeros((3, 3))
    h[0, 0] = b3 * (wxe @ x[:, 0])
    h[0, 2] = h[2, 0] = wxe.sum()
    return h


def ref_exp_intercept_mean(x, beta):
    b1, b2, b3, b4 = beta
    return b1 * np.exp(b2 * x[:, 0]) + b3 + b4 * x[:, 1]


def ref_exp_intercept_gradient(x, beta):
    b1, b2, _, _ = beta
    e = np.exp(b2 * x[:, 0])
    return np.stack(
        [e, b1 * x[:, 0] * e, np.ones(x.shape[0]), x[:, 1]], axis=1
    )


def ref_exp_intercept_curvature(x, beta, w):
    b1, b2, _, _ = beta
    wxe = w * x[:, 0] * np.exp(b2 * x[:, 0])
    h = np.zeros((4, 4))
    h[0, 1] = h[1, 0] = wxe.sum()
    h[1, 1] = b1 * (wxe @ x[:, 0])
    return h


def ref_linear_mean(x, beta):
    b1, b2, b3 = beta
    return b1 * x[:, 0] + b2 * x[:, 1] + b3


def ref_linear_gradient(x, beta):
    return np.stack([x[:, 0], x[:, 1], np.ones(x.shape[0])], axis=1)


def ref_linear_curvature(x, beta, w):
    return np.zeros((3, 3))


REFERENCE_FORMULAS = {
    "exp_linear": (ref_exp_mean, ref_exp_gradient, ref_exp_curvature),
    "exp_linear_intercept": (ref_exp_intercept_mean,
                             ref_exp_intercept_gradient,
                             ref_exp_intercept_curvature),
    "linear": (ref_linear_mean, ref_linear_gradient, ref_linear_curvature),
}


@pytest.mark.parametrize("model_id", sorted(MODELS))
def test_terms_give_the_hand_written_formulas_bit_for_bit(model_id):
    """The mean and derivatives summed from the terms are the hand-written
    ones to the last bit, also for a (dim_beta, C, 1) stack of betas."""
    model = MODELS[model_id]
    mean, gradient, curvature = REFERENCE_FORMULAS[model_id]
    rng = np.random.default_rng(17)
    x = np.column_stack([rng.uniform(-1, 2, 60), rng.normal(0, 1, 60)])
    w = rng.normal(0, 1, 60)
    for _ in range(20):
        beta = rng.normal(0, 2, model.dim_beta)
        assert model.mean(x, beta).tobytes() == mean(x, beta).tobytes()
        assert (model.gradient(x, beta).tobytes()
                == gradient(x, beta).tobytes())
        assert (model.curvature(x, beta, w).tobytes()
                == curvature(x, beta, w).tobytes())
    stack = rng.normal(0, 2, (model.dim_beta, 7, 1))
    assert model.mean(x, stack).shape == (7, 60)
    assert model.mean(x, stack).tobytes() == mean(x, stack).tobytes()


@pytest.mark.parametrize("terms", [
    ("x1", "rate"), ("exp", "x2"), ("x1", "x1", "1"), ("x1", "x3"),
])
def test_model_terms_are_checked(terms):
    with pytest.raises(ValueError, match="invalid model terms"):
        RegressionModel("bad", terms)


class TestFitQuality:
    def test_recovers_true_beta_within_mc_bands(self):
        data = gen_nonlinear(100, np.random.default_rng(1000))
        fit = fit_mm(MODELS["exp_linear"], data, seed=0)
        assert fit.converged
        assert np.all(np.abs(fit.beta - BETA_TRUE) <= 3.0 * MC_SD_N100)
        assert fit.complete_case_count == 100
        assert 0.7 < fit.residual_scale < 1.4  # true noise SD is 1

    def test_vertical_outliers_barely_move_mm_but_break_least_squares(self):
        model = MODELS["exp_linear"]
        mm_clean, mm_bad, ls_clean, ls_bad = [], [], [], []
        for r in range(20):
            clean = gen_nonlinear(100, np.random.default_rng(3000 + r))
            bad = gen_nonlinear(
                100, np.random.default_rng(3000 + r), contaminate=True
            )
            mm_clean.append(
                np.linalg.norm(fit_mm(model, clean, seed=0).beta - BETA_TRUE)
            )
            mm_bad.append(
                np.linalg.norm(fit_mm(model, bad, seed=0).beta - BETA_TRUE)
            )
            ls_clean.append(
                np.linalg.norm(
                    gauss_newton_least_squares(model, clean, BETA_TRUE)
                    - BETA_TRUE
                )
            )
            ls_bad.append(
                np.linalg.norm(
                    gauss_newton_least_squares(model, bad, BETA_TRUE)
                    - BETA_TRUE
                )
            )
        mm_ratio = np.median(mm_bad) / np.median(mm_clean)
        ls_ratio = np.median(ls_bad) / np.median(ls_clean)
        assert mm_ratio < 1.5
        assert ls_ratio >= 2.0

    def test_consistency_error_decreases_with_n(self):
        model = MODELS["exp_linear"]
        medians = []
        for n in (100, 400, 1600):
            errs = [
                np.linalg.norm(
                    fit_mm(
                        model, gen_nonlinear(n, np.random.default_rng(5000 + r)),
                        seed=0,
                    ).beta
                    - BETA_TRUE
                )
                for r in range(11)
            ]
            medians.append(np.median(errs))
        assert medians[0] > medians[1] > medians[2]

    def test_exp_intercept_variant_fits(self):
        rng = np.random.default_rng(8)
        n = 300
        x1 = rng.uniform(0, 3, n)
        x2 = rng.normal(0, 1, n)
        y = 4.0 * np.exp(0.8 * x1) + 2.0 + 0.7 * x2 + rng.normal(0, 1, n)
        data = ObservedDataset(
            y=y, x=np.column_stack([x1, x2]), z_index=(0,),
            delta=np.ones(n, dtype=int),
        )
        fit = fit_mm(MODELS["exp_linear_intercept"], data, seed=0)
        assert fit.converged
        pred = predict(fit, data.x)
        truth = 4.0 * np.exp(0.8 * x1) + 2.0 + 0.7 * x2
        assert np.median(np.abs(pred - truth)) < 0.5


class TestDegenerateAndErrors:
    def test_zero_noise_raises_degenerate(self):
        rng = np.random.default_rng(3)
        n = 80
        x1 = rng.uniform(0, 1, n)
        x2 = rng.normal(0, 1, n)
        y = 2.0 * x1 + 0.5 * x2 + 3.0
        data = ObservedDataset(
            y=y, x=np.column_stack([x1, x2]), z_index=(0,),
            delta=np.ones(n, dtype=int),
        )
        with pytest.raises(ValueError, match="degenerate scale"):
            fit_mm(MODELS["linear"], data, seed=0)

    def test_near_interpolation_recovers_exact_beta(self):
        rng = np.random.default_rng(3)
        n = 80
        x1 = rng.uniform(0, 1, n)
        x2 = rng.normal(0, 1, n)
        y = 2.0 * x1 + 0.5 * x2 + 3.0 + rng.normal(0, 1e-8, n)
        data = ObservedDataset(
            y=y, x=np.column_stack([x1, x2]), z_index=(0,),
            delta=np.ones(n, dtype=int),
        )
        fit = fit_mm(MODELS["linear"], data, seed=0)
        assert np.max(np.abs(fit.beta - [2.0, 0.5, 3.0])) < 1e-6

    def test_insufficient_complete_cases(self):
        rng = np.random.default_rng(4)
        n = 14  # below 5 * dim_beta = 15
        data = ObservedDataset(
            y=rng.normal(size=n),
            x=np.column_stack([rng.uniform(size=n), rng.normal(size=n)]),
            z_index=(0,),
            delta=np.ones(n, dtype=int),
        )
        with pytest.raises(ValueError, match="insufficient complete cases"):
            fit_mm(MODELS["linear"], data, seed=0)

    @pytest.mark.parametrize("columns", [1, 3])
    def test_fit_requires_two_covariate_columns(self, columns):
        rng = np.random.default_rng(9)
        n = 60
        data = ObservedDataset(
            y=rng.normal(size=n), x=rng.uniform(size=(n, columns)),
            z_index=(0,), delta=np.ones(n, dtype=int),
        )
        with pytest.raises(ValueError, match="dimension mismatch"):
            fit_mm(MODELS["linear"], data, seed=0)

    def test_only_complete_cases_enter_the_fit(self):
        rng = np.random.default_rng(12)
        n = 120
        x1 = rng.uniform(0, 1, n)
        x2 = rng.normal(0, 1, n)
        y = 2.0 * x1 + 0.5 * x2 + 3.0 + rng.normal(0, 1, n)
        delta = (rng.uniform(size=n) < 0.7).astype(int)
        y_masked = np.where(delta == 1, y, np.nan)
        x2_masked = np.where(delta == 1, x2, np.nan)
        data = ObservedDataset(
            y=y_masked,
            x=np.column_stack([x1, x2_masked]),
            z_index=(0,),
            delta=delta,
        )
        sub = ObservedDataset(
            y=y[delta == 1],
            x=np.column_stack([x1, x2])[delta == 1],
            z_index=(0,),
            delta=np.ones(int(delta.sum()), dtype=int),
        )
        fit_full = fit_mm(MODELS["linear"], data, seed=0)
        fit_sub = fit_mm(MODELS["linear"], sub, seed=0)
        assert fit_full.complete_case_count == data.n_obs
        assert np.array_equal(fit_full.beta, fit_sub.beta)


class TestEquivarianceAndStructure:
    def test_linear_regression_equivariance(self):
        rng = np.random.default_rng(21)
        n = 90
        x = np.column_stack([rng.uniform(0, 1, n), rng.normal(0, 1, n)])
        y = 2.0 * x[:, 0] + 0.5 * x[:, 1] + 3.0 + rng.normal(0, 1, n)
        gamma = np.array([1.5, -2.0, 0.7])
        base = ObservedDataset(
            y=y, x=x, z_index=(0,), delta=np.ones(n, dtype=int)
        )
        shifted = ObservedDataset(
            y=y + x @ gamma[:2] + gamma[2], x=x, z_index=(0,),
            delta=np.ones(n, dtype=int),
        )
        fit0 = fit_mm(MODELS["linear"], base, seed=0)
        fit1 = fit_mm(MODELS["linear"], shifted, seed=0)
        assert np.max(np.abs(fit1.beta - fit0.beta - gamma)) < 1e-6

    def test_residual_scale_equivariance(self):
        rng = np.random.default_rng(22)
        n = 90
        x = np.column_stack([rng.uniform(0, 1, n), rng.normal(0, 1, n)])
        y = 2.0 * x[:, 0] + 0.5 * x[:, 1] + 3.0 + rng.normal(0, 1, n)
        k = 3.7
        base = ObservedDataset(
            y=y, x=x, z_index=(0,), delta=np.ones(n, dtype=int)
        )
        scaled = ObservedDataset(
            y=k * y, x=x, z_index=(0,), delta=np.ones(n, dtype=int)
        )
        fit0 = fit_mm(MODELS["linear"], base, seed=0)
        fit1 = fit_mm(MODELS["linear"], scaled, seed=0)
        assert fit1.residual_scale == pytest.approx(
            k * fit0.residual_scale, rel=1e-6
        )
        assert np.allclose(fit1.beta, k * fit0.beta, rtol=1e-5, atol=1e-7)

    def test_m_step_objective_dominates_s_step_candidate(self):
        rho = location_bisquare()
        model = MODELS["exp_linear"]
        for r in range(5):
            data = gen_nonlinear(100, np.random.default_rng(7000 + r))
            fit = fit_mm(model, data, seed=0)

            def objective(beta):
                res = data.y - model.mean(data.x, beta)
                return float(np.sum(rho.rho(res / fit.residual_scale)))

            assert objective(fit.beta) <= objective(fit.s_step_beta) + 1e-12

    def test_deterministic_given_seed(self):
        data = gen_nonlinear(100, np.random.default_rng(31))
        fit_a = fit_mm(MODELS["exp_linear"], data, seed=42)
        fit_b = fit_mm(MODELS["exp_linear"], data, seed=42)
        assert np.array_equal(fit_a.beta, fit_b.beta)
        assert fit_a.residual_scale == fit_b.residual_scale

    def test_large_sample_draws_each_subset_by_itself(self, monkeypatch):
        """Past 4096 complete cases the fit is the same for a seed, every
        subset has distinct in-range rows, and the polish converges."""
        data, _ = generate_sample(7500, 11, missing="M1")
        assert data.n_obs > 4096
        drawn = []
        real = regression._subsets

        def recorded(m, q, rng):
            drawn.append((m, real(m, q, rng)))
            return drawn[-1][1]

        monkeypatch.setattr(regression, "_subsets", recorded)
        model = MODELS["exp_linear"]
        fit = fit_mm(model, data, seed=5)
        again = fit_mm(model, data, seed=5)
        assert np.array_equal(again.s_step_beta, fit.s_step_beta)
        assert np.array_equal(again.beta, fit.beta)
        assert again.residual_scale == fit.residual_scale
        assert fit.polish_converged
        (m, first), (_, second) = drawn
        assert m == data.n_obs
        assert first.shape == (500, model.dim_beta + 1)
        assert np.array_equal(first, second)
        assert first.min() >= 0 and first.max() < m
        sorted_rows = np.sort(first, axis=1)
        assert np.all(sorted_rows[:, 1:] > sorted_rows[:, :-1])


def ref_subsets(m, q, rng):
    """The subset draw before it had one path: a sort of 500 x m uniforms
    up to 4096 rows, past that one ``rng.choice`` per subset."""
    if m <= 4096:
        return np.argsort(rng.random((500, m)), axis=1)[:, :q]
    return np.array([rng.choice(m, size=q, replace=False)
                     for _ in range(500)])


@pytest.mark.parametrize("m", [15, 57, 111, 1830, 4096])
@pytest.mark.parametrize("q", [3, 4, 5])
def test_subsets_match_the_sorted_draw(m, q):
    """Up to 4096 rows the q least uniforms, found by partition and ordered
    by their values, are the sorted draw's first q, row for row."""
    for seed in (0, 1, 7, 2**31 - 1):
        got = regression._subsets(m, q, np.random.default_rng(seed))
        want = ref_subsets(m, q, np.random.default_rng(seed))
        assert got.dtype == want.dtype and np.array_equal(got, want)


class TestHardRejectionWeights:
    def test_closed_form_values(self):
        # median 0 and raw MAD 0.6745, so the normalized MAD is exactly 1
        # and |t| = [3, 0.6745, 0, 0.6745, 2.5]
        x1 = np.array([-3.0, -0.6745, 0.0, 0.6745, 2.5])
        w = hard_rejection_weights(x1)
        expected = [0.0, 1.0, 1.0, 1.0, (1.0 - 0.5**2) ** 2]
        assert np.allclose(w, expected)

    def test_zero_mad_gives_unit_weights(self):
        x1 = np.array([2.0, 2.0, 2.0, 2.0, 9.0])
        assert np.array_equal(hard_rejection_weights(x1), np.ones(5))

    def test_accepts_covariate_matrix(self):
        x = np.column_stack([np.array([-3.0, 0.0, 3.0]), np.zeros(3)])
        w = hard_rejection_weights(x)
        assert w.shape == (3,)

    def test_boundary_is_continuous(self):
        # Bulk points pin median = 0 and normalized MAD = 1; probes sit just
        # inside the taper endpoints |t| = 2 and |t| = 3.
        base = [-0.6745] * 10 + [0.0] * 10 + [0.6745] * 10
        x1 = np.array(base + [2.0 + 1e-9, 3.0 - 1e-9])
        w = hard_rejection_weights(x1)
        assert w[-2] == pytest.approx(1.0, abs=1e-6)
        assert w[-1] == pytest.approx(0.0, abs=1e-6)

    def test_weights_are_recorded_and_validated(self):
        rng = np.random.default_rng(55)
        n = 100
        x1 = rng.uniform(0, 1, n)
        x1[0] = 50.0  # gross covariate outlier
        x2 = rng.normal(0, 1, n)
        y = 2.0 * x1 + 0.5 * x2 + 3.0 + rng.normal(0, 1, n)
        data = ObservedDataset(
            y=y, x=np.column_stack([x1, x2]), z_index=(0,),
            delta=np.ones(n, dtype=int),
        )
        fit = fit_mm(
            MODELS["linear"], data, covariate_weights=hard_rejection_weights,
            seed=0,
        )
        assert fit.weights_used is not None
        assert fit.weights_used[0] == 0.0
        assert np.all(np.isfinite(fit.beta))

        with pytest.raises(ValueError, match="one value per row"):
            fit_mm(
                MODELS["linear"], data,
                covariate_weights=lambda x: np.ones(3), seed=0,
            )
        with pytest.raises(ValueError, match="lie in"):
            fit_mm(
                MODELS["linear"], data,
                covariate_weights=lambda x: np.full(x.shape[0], 2.0), seed=0,
            )
        with pytest.raises(ValueError, match="all zero"):
            fit_mm(
                MODELS["linear"], data,
                covariate_weights=lambda x: np.zeros(x.shape[0]), seed=0,
            )


# ---------------------------------------------------------------------------
# Scalar reference: the screen, the S-polish and the M-step of one fit at a
# time, as they were before fits were solved as a stack (numpy and LAPACK
# sums over one fit's rows, Cholesky for the Newton test).

_RHO0 = scale_bisquare()
_RHO_M = location_bisquare()


def ref_solve_step(a, g):
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(g))):
        return np.zeros_like(g)
    try:
        step = np.linalg.solve(a, g)
        if np.all(np.isfinite(step)):
            return step
    except np.linalg.LinAlgError:
        pass
    try:
        return np.linalg.solve(a + 1e-8 * np.eye(g.size), g)
    except np.linalg.LinAlgError:
        return np.zeros_like(g)


def ref_descent_step(hess, grad, jac, wts, r):
    if np.all(np.isfinite(hess)) and np.all(np.isfinite(grad)):
        try:
            np.linalg.cholesky(hess)
            step = np.linalg.solve(hess, -grad)
            if np.all(np.isfinite(step)):
                return step
        except np.linalg.LinAlgError:
            pass
    return ref_solve_step(jac.T @ (jac * wts[:, None]), jac.T @ (wts * r))


def ref_screened_scales(resid):
    scores = np.full(resid.shape[0], np.inf)
    finite = np.all(np.isfinite(resid), axis=1)
    with np.errstate(invalid="ignore"):
        med = np.median(np.abs(resid), axis=1)
    med[~finite] = np.inf
    zero = med <= 0.0
    if zero.any():
        scores[zero] = 0.0
        return scores, 0
    pivot = int(np.argmin(med))
    if not np.isfinite(med[pivot]):
        return scores, 0
    one = slice(pivot, pivot + 1)
    scores[pivot] = scaleloc.residual_scales(resid[one], med[one])[0]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        m_avg = np.mean(_RHO0.rho(resid / scores[pivot]), axis=1)
    survive = finite & (m_avg <= SCALE_B_TARGET * (1.0 + 1e-8))
    survive[pivot] = False
    rows = np.flatnonzero(survive)
    scores[rows] = scaleloc.residual_scales(resid[rows], med[rows])
    return scores, rows.size + 1


def ref_polish(model, yc, xc, beta, s, floor):
    for steps in range(100):
        if s <= floor:
            return beta, s, steps, True
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            r = yc - model.mean(xc, beta)
            u = r / s
            wts = _RHO0.weight(u)
            jac = model.gradient(xc, beta)
            psi = wts * u
            dpsi = _RHO0.psi_prime(u)
            a = float(psi @ u)
            bv = jac.T @ psi
            grad = -bv / a
            d = (-jac - u[:, None] * grad) / s
            hess = (np.outer(bv, (dpsi * u + psi) @ d) / a
                    - jac.T @ (d * dpsi[:, None])
                    - model.curvature(xc, beta, psi)) / a
        step = ref_descent_step(0.5 * (hess + hess.T), grad, jac, wts, r)
        t = 1.0
        for _ in range(30):
            cand = beta + t * step
            with np.errstate(over="ignore", invalid="ignore"):
                r_new = yc - model.mean(xc, cand)
            if np.all(np.isfinite(r_new)) and np.mean(
                _RHO0.rho(r_new / s)
            ) < SCALE_B_TARGET:
                s_new = float(scaleloc.residual_scales(
                    r_new[None, :], np.array([s]))[0])
                if s_new < s:
                    break
            t *= 0.5
        else:
            return beta, s, steps, True
        small = (s - s_new <= 1e-12 * s
                 or t * np.max(np.abs(step))
                 <= 1e-10 * (1.0 + np.max(np.abs(cand))))
        beta, s = cand, s_new
        if small:
            return beta, s, steps + 1, True
    return beta, s, 100, False


def ref_m_step(model, yc, xc, w_cov, beta, s):
    def objective(b):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            r = yc - model.mean(xc, b)
            v = float(w_cov @ _RHO_M.rho(r / s))
        return v if np.isfinite(v) else np.inf

    beta_m = beta.copy()
    f = objective(beta_m)
    converged = False
    iterations = 0
    for iterations in range(1, 201):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            r = yc - model.mean(xc, beta_m)
            u = r / s
            wts = w_cov * _RHO_M.weight(u)
            jac = model.gradient(xc, beta_m)
            wpsi = wts * u
            hess = (jac.T @ (jac * (w_cov * _RHO_M.psi_prime(u))[:, None])
                    / s - model.curvature(xc, beta_m, wpsi)) / s
        step = ref_descent_step(hess, -(jac.T @ wpsi) / s, jac, wts, r)
        t, accepted = 1.0, False
        for _ in range(30):
            cand = beta_m + t * step
            fc = objective(cand)
            if fc < f:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            converged = True
            break
        moved = float(np.max(np.abs(cand - beta_m)))
        beta_m, f = cand, fc
        if moved <= 1e-8 * (1.0 + float(np.max(np.abs(beta_m)))):
            converged = True
            break
    return beta_m, converged, iterations


def ref_fit_mm(model, data, covariate_weights=None, seed=0):
    """One fit by the scalar references, from the same elemental
    candidates as fit_mm.  Returns (beta, scale, s-step beta,
    candidates solved)."""
    obs = data.delta == 1
    yc, xc = data.y[obs], data.x[obs]
    w_cov = (
        np.ones(yc.size) if covariate_weights is None
        else np.clip(covariate_weights(xc), 0.0, 1.0)
    )
    rng = np.random.default_rng(seed)
    betas = regression._elemental_candidates(model, yc, xc, rng)
    with np.errstate(over="ignore", invalid="ignore"):
        resid = yc - model.mean(xc, betas.T[:, :, None])
    scores, solved = ref_screened_scales(resid)
    best = int(np.argmin(scores))
    floor = 1e-12 * max(float(np.ptp(yc)), 1e-300)
    beta, s, _, _ = ref_polish(model, yc, xc, betas[best].astype(float),
                               float(scores[best]), floor)
    beta_m, _, _ = ref_m_step(model, yc, xc, w_cov, beta, s)
    return beta_m, s, beta, solved


# ---------------------------------------------------------------------------
# Dense reference: the S-step as it was before candidate screening, the
# Newton scale solver and the Newton polish, i.e. fixed-point S-scales for
# every candidate (the batch stops when its slowest row converges) and an
# IRWLS polish with a full scale solve for every halving trial.  The M-step
# is the scalar reference's.


def dense_residual_scale(r, start=None):
    if not np.all(np.isfinite(r)):
        return np.inf
    s = float(np.median(np.abs(r))) if start is None else float(start)
    if s <= 0.0:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(100):
            m_avg = float(np.mean(_RHO0.rho(r / s)))
            if m_avg <= 0.0:
                return 0.0
            s_new = s * float(np.sqrt(m_avg / SCALE_B_TARGET))
            if abs(s_new - s) <= 1e-10 * s_new:
                return s_new
            s = s_new
    return s


def dense_batch_residual_scale(resid):
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.all(np.isfinite(resid), axis=1)
        safe = np.where(finite[:, None], resid, 0.0)
        s = np.median(np.abs(safe), axis=1)
        zero = s <= 0.0
        work = np.where(zero | ~finite, 1.0, s)
        for _ in range(100):
            m_avg = np.mean(_RHO0.rho(safe / work[:, None]), axis=1)
            s_new = work * np.sqrt(np.maximum(m_avg, 0.0) / SCALE_B_TARGET)
            tol = 1e-10 * np.maximum(s_new, 1e-300)
            if np.all(np.abs(s_new - work) <= tol):
                work = s_new
                break
            work = s_new
    out = np.where(zero, 0.0, work)
    out[~finite | ~np.isfinite(out)] = np.inf
    return out


def dense_fit_mm(model, data, covariate_weights=None, seed=0, max_steps=20):
    """fit_mm with the dense S-step and the IRWLS polish it had before the
    Newton polish: at most ``max_steps`` accepted steps (20, as it was), or,
    with None, every step until none is accepted, which converges to the
    S-minimum.  The M-step is the scalar reference's.  Returns (beta, scale,
    s-step beta).
    """
    obs = data.delta == 1
    yc, xc = data.y[obs], data.x[obs]
    w_cov = (
        np.ones(yc.size) if covariate_weights is None
        else np.clip(covariate_weights(xc), 0.0, 1.0)
    )
    rng = np.random.default_rng(seed)
    betas = regression._elemental_candidates(model, yc, xc, rng)
    resid = np.empty((betas.shape[0], yc.size))
    with np.errstate(over="ignore", invalid="ignore"):
        for i, b in enumerate(betas):
            resid[i] = yc - model.mean(xc, b)
    scores = dense_batch_residual_scale(resid)
    best = int(np.argmin(scores))
    beta, s = betas[best].astype(float), float(scores[best])
    floor = 1e-12 * max(float(np.ptp(yc)), 1e-300)
    assert s > floor
    steps = 0
    while max_steps is None or steps < max_steps:
        if s <= floor:
            break
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            r = yc - model.mean(xc, beta)
            wts = _RHO0.weight(r / s)
            jac = model.gradient(xc, beta)
        step = ref_solve_step(jac.T @ (jac * wts[:, None]), jac.T @ (wts * r))
        t, accepted = 1.0, False
        for _ in range(30):
            cand = beta + t * step
            with np.errstate(over="ignore", invalid="ignore"):
                r_new = yc - model.mean(xc, cand)
            s_new = dense_residual_scale(r_new, start=s) if np.all(
                np.isfinite(r_new)
            ) else np.inf
            if s_new < s:
                beta, s, accepted = cand, float(s_new), True
                break
            t *= 0.5
        if not accepted:
            break
        steps += 1
        assert steps < 10_000, "the IRWLS polish did not stop"
    beta_m, _, _ = ref_m_step(model, yc, xc, w_cov, beta, s)
    return beta_m, s, beta


def rel(a, b):
    return float(np.linalg.norm(np.subtract(a, b)) / np.linalg.norm(b))


def ozone_data():
    path = str(resources.files("robmarg") / "data" / "airquality.csv")
    tab = _read_csv_columns(path, ["ozone", "wind", "solar"])
    obs = np.isfinite(tab["ozone"]) & np.isfinite(tab["solar"])
    return ObservedDataset(
        y=tab["ozone"], x=np.column_stack([tab["wind"], tab["solar"]]),
        z_index=(0,), delta=obs.astype(int),
    )


class TestScreenedSearchMatchesDense:
    @staticmethod
    @st.composite
    def residual_matrices(draw):
        """Random candidate residuals with exact duplicates, non-finite rows
        and rows whose median |r| is zero planted at random positions."""
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        rows = draw(st.integers(1, 40))
        m = draw(st.integers(15, 60))  # fit_mm needs m >= 5 * dim_beta
        spread = np.exp(rng.normal(0.0, 1.0, (rows, 1)))
        resid = rng.standard_t(3, (rows, m)) * spread
        for _ in range(draw(st.integers(0, 4))):
            src, dst = rng.integers(rows, size=2)
            resid[dst] = resid[src]
        for _ in range(draw(st.integers(0, 3))):
            i = rng.integers(rows)
            resid[i, rng.integers(m)] = rng.choice([np.nan, np.inf, -np.inf])
        if draw(st.booleans()):
            i = rng.integers(rows)
            resid[i, rng.permutation(m)[: m // 2 + 1]] = 0.0
        return resid

    @given(residual_matrices())
    @settings(max_examples=200, deadline=None)
    def test_argmin_and_winning_scale(self, resid):
        dense = dense_batch_residual_scale(resid)
        screened, solved = regression._screened_scales([resid])[0]
        assert int(np.argmin(screened)) == int(np.argmin(dense))
        assert 0 <= solved <= resid.shape[0]
        best = int(np.argmin(dense))
        if not (np.isfinite(dense[best]) and dense[best] > 0.0):
            assert screened[best] == dense[best]
        # Every row the screen solved carries its own S-scale: it solves
        # mean rho0(r/s) = b, and it agrees with the fixed-point value up to
        # that solver's stopping error (a 1e-10 step on a slowly contracting
        # row leaves up to about 1e-6 relative).
        done = np.isfinite(screened) & (screened > 0.0)
        m_avg = np.mean(_RHO0.rho(resid[done] / screened[done, None]), axis=1)
        assert np.allclose(m_avg, SCALE_B_TARGET, rtol=0.0, atol=1e-12)
        assert np.allclose(screened[done], dense[done], rtol=1e-5, atol=0.0)

    def test_first_duplicate_wins(self):
        rng = np.random.default_rng(5)
        resid = rng.normal(0.0, 3.0, (30, 25))
        resid[7] = rng.normal(0.0, 0.5, 25)
        resid[[3, 19]] = resid[7]
        scores, _ = regression._screened_scales([resid])[0]
        assert int(np.argmin(scores)) == 3
        assert scores[3] == scores[7] == scores[19]

    def test_zero_median_row_wins_with_zero_scale(self):
        rng = np.random.default_rng(6)
        resid = rng.normal(0.0, 1.0, (10, 9))
        resid[4, :5] = 0.0
        resid[8, :6] = 0.0
        resid[2, 0] = np.nan
        scores, solved = regression._screened_scales([resid])[0]
        assert int(np.argmin(scores)) == 4 and scores[4] == 0.0
        assert np.isinf(scores[2]) and solved == 0

    def test_all_rows_non_finite(self):
        resid = np.full((3, 5), np.inf)
        scores, solved = regression._screened_scales([resid])[0]
        assert np.all(np.isinf(scores)) and solved == 0

    def test_rows_solve_independently(self):
        rng = np.random.default_rng(8)
        resid = rng.normal(0.0, 1.0, (6, 40)) * np.arange(1, 7)[:, None]
        start = np.median(np.abs(resid), axis=1)
        batch = scaleloc.residual_scales(resid, start)
        for i in range(6):
            row = slice(i, i + 1)
            one = scaleloc.residual_scales(resid[row], start[row])
            assert one[0] == batch[i]
            assert np.mean(_RHO0.rho(resid[i] / batch[i])) == pytest.approx(
                SCALE_B_TARGET, abs=1e-12
            )


EQUIVALENCE_CASES = [
    (data, model, weights)
    for data in ["ozone", 100, 400, 1600]
    for model in MODELS
    for weights in (False, True)
]


@pytest.mark.parametrize(
    "data,model,weights", EQUIVALENCE_CASES,
    ids=[f"{d}-{short_id(m)}-{'hr' if w else 'plain'}"
         for d, m, w in EQUIVALENCE_CASES],
)
def test_fit_mm_matches_dense_reference(data, model, weights):
    """The polish reaches the S-minimum: no higher than the 20-step IRWLS
    polish, and at the scale of the IRWLS polish run until no step is
    accepted."""
    data = ozone_data() if data == "ozone" else generate_sample(data, 11)[0]
    model = MODELS[model]
    cw = hard_rejection_weights if weights else None
    fit = fit_mm(model, data, covariate_weights=cw, seed=0)
    assert fit.polish_converged
    _, s_20, _ = dense_fit_mm(model, data, covariate_weights=cw, seed=0)
    beta, s, s_beta = dense_fit_mm(
        model, data, covariate_weights=cw, seed=0, max_steps=None
    )
    assert fit.residual_scale <= s_20
    assert fit.residual_scale == pytest.approx(s, rel=1e-12)
    # A minimum is located by comparing objective values, which pins a
    # minimizer only to about sqrt(machine epsilon) relative: the S-step
    # betas differ by up to 1.4e-8 where the scales agree to 1e-15.
    tol = 2.0 * np.sqrt(np.finfo(float).eps)
    assert rel(fit.s_step_beta, s_beta) <= tol
    assert rel(fit.beta, beta) <= tol


def per_model_candidates(model, yc, xc, rng):
    """The candidate builder as it was before the models were described by
    their terms: least squares on each elemental subset, with a different
    method per model (batched LAPACK on ridged normal equations for
    ``linear`` and, over the rate grid, ``exp_linear_intercept``; Cramer's
    rule, unridged, for ``exp_linear``)."""
    n_subsets = 500
    m = yc.size
    q = model.dim_beta + 1
    if m <= 4096:
        idx = np.argsort(rng.random((n_subsets, m)), axis=1)[:, :q]
    else:
        idx = np.empty((n_subsets, q), dtype=np.intp)
        for i in range(n_subsets):
            idx[i] = rng.choice(m, size=q, replace=False)
    ys = yc[idx]
    x1 = xc[idx, 0]
    x2 = xc[idx, 1]
    rows = np.arange(n_subsets)

    if model.id == "linear":
        design = np.stack([x1, x2, np.ones_like(x1)], axis=2)
        ata = np.einsum("cqi,cqj->cij", design, design)
        ata += 1e-9 * np.eye(3) * (
            np.trace(ata, axis1=1, axis2=2) / 3.0 + 1.0)[:, None, None]
        aty = np.einsum("cqi,cq->ci", design, ys)
        return np.linalg.solve(ata, aty[:, :, None])[:, :, 0]

    span = float(np.ptp(xc[:, 0]))
    if span <= 0.0:
        span = 1.0
    grid = np.linspace(-8.0, 8.0, 25) / span
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.exp(grid[None, None, :] * x1[:, :, None])
        if model.id == "exp_linear":
            saa = np.sum(x2 * x2, axis=1)[:, None]
            sab = np.einsum("cq,cqg->cg", x2, e)
            sbb = np.sum(e * e, axis=1)
            say = np.sum(x2 * ys, axis=1)[:, None]
            sby = np.einsum("cqg,cq->cg", e, ys)
            det = saa * sbb - sab * sab
            det = np.where(np.abs(det) > 1e-300, det, np.nan)
            coef_x2 = (sbb * say - sab * sby) / det
            coef_e = (saa * sby - sab * say) / det
            fitted = (coef_x2[:, None, :] * x2[:, :, None]
                      + coef_e[:, None, :] * e)
            sse = np.sum((ys[:, :, None] - fitted) ** 2, axis=1)
            sse = np.where(np.isfinite(sse), sse, np.inf)
            gi = np.argmin(sse, axis=1)
            return np.stack(
                [grid[gi], coef_x2[rows, gi], coef_e[rows, gi]], axis=1)
        ones = np.ones_like(x1)[:, :, None] * np.ones(grid.size)
        design = np.stack(
            [e, ones, x2[:, :, None] * np.ones(grid.size)], axis=3)
        ata = np.einsum("cqgi,cqgj->cgij", design, design)
        ata += 1e-9 * np.eye(3) * (
            np.trace(ata, axis1=2, axis2=3) / 3.0 + 1.0)[:, :, None, None]
        aty = np.einsum("cqgi,cq->cgi", design, ys)
        ata = np.where(np.isfinite(ata), ata, 0.0)
        aty = np.where(np.isfinite(aty), aty, 0.0)
        coef = np.linalg.solve(ata, aty[..., None])[..., 0]
        fitted = np.einsum("cqgi,cgi->cqg", design, coef)
        sse = np.sum((ys[:, :, None] - fitted) ** 2, axis=1)
        sse = np.where(np.isfinite(sse), sse, np.inf)
        gi = np.argmin(sse, axis=1)
        return np.column_stack([coef[rows, gi, 0], grid[gi],
                                coef[rows, gi, 1], coef[rows, gi, 2]])


@pytest.mark.parametrize(
    "data,model,weights", EQUIVALENCE_CASES,
    ids=[f"{d}-{short_id(m)}-{'hr' if w else 'plain'}"
         for d, m, w in EQUIVALENCE_CASES],
)
def test_term_builder_matches_per_model_builder(data, model, weights,
                                                monkeypatch):
    """One candidate builder for every model gives the fits of the
    per-model builders: the same S-scale up to rounding, and betas within
    the sqrt(eps) that a minimum located by its objective allows."""
    data = ozone_data() if data == "ozone" else generate_sample(data, 11)[0]
    model = MODELS[model]
    cw = hard_rejection_weights if weights else None
    fit = fit_mm(model, data, covariate_weights=cw, seed=0)
    monkeypatch.setattr(regression, "_elemental_candidates",
                        per_model_candidates)
    ref = fit_mm(model, data, covariate_weights=cw, seed=0)
    assert fit.residual_scale == pytest.approx(ref.residual_scale, rel=1e-13)
    tol = 2.0 * np.sqrt(np.finfo(float).eps)
    assert rel(fit.s_step_beta, ref.s_step_beta) <= tol
    assert rel(fit.beta, ref.beta) <= tol


@pytest.mark.parametrize("model_id", sorted(MODELS))
def test_polish_converges_on_simulated_samples(model_id):
    model = MODELS[model_id]
    for seed in range(50):
        data, _ = generate_sample(100, seed)
        fit = fit_mm(model, data, seed=seed)
        assert fit.polish_converged, seed
        assert fit.polish_steps < regression._POLISH_ITER


def test_work_counters_leave_the_fit_unchanged():
    data = ozone_data()
    model = MODELS["exp_linear_intercept"]
    fit = fit_mm(model, data, covariate_weights=hard_rejection_weights, seed=0)
    assert 1 <= fit.candidates_solved < 500
    assert 0 <= fit.polish_steps <= regression._POLISH_ITER
    assert fit.polish_converged
    assert 1 <= fit.m_iterations <= 200
    again = fit_mm(
        model, data, covariate_weights=hard_rejection_weights, seed=0
    )
    assert np.array_equal(again.beta, fit.beta)
    assert again.residual_scale == fit.residual_scale
    other = dataclasses.replace(
        fit, candidates_solved=-1, polish_steps=-1, polish_converged=False,
        m_iterations=-1,
    )
    assert other == fit
    beta, s, _ = dense_fit_mm(
        model, data, covariate_weights=hard_rejection_weights, seed=0,
        max_steps=None,
    )
    assert fit.residual_scale == pytest.approx(s, rel=1e-12)
    assert rel(fit.beta, beta) <= 1e-8


# A minimum located by comparing objective values pins the minimizer only to
# about sqrt(machine epsilon) relative, and to a few times that where the
# exponential models' rate and coefficient trade off: summing the same terms
# in another order moves the S-step and M-step betas by up to 4.7e-8 on
# generate_sample(100, 0..59), where the scales agree to 2.4e-15.
STACK_BETA_RTOL = 1e-7


@pytest.mark.parametrize("weights", [False, True], ids=["plain", "hr"])
@pytest.mark.parametrize("model_id", sorted(MODELS))
def test_stack_matches_scalar_reference(model_id, weights):
    """Sixty fits solved as one stack reach the scalar descents' minima:
    the same S-scale to 1e-12, betas within STACK_BETA_RTOL, and the same
    number of candidate scales solved."""
    model = MODELS[model_id]
    cw = hard_rejection_weights if weights else None
    datasets = [generate_sample(100, seed)[0] for seed in range(60)]
    fits = regression.fit_mm_stack(model, datasets, list(range(60)), cw)
    for seed, (data, fit) in enumerate(zip(datasets, fits)):
        beta, s, s_beta, solved = ref_fit_mm(model, data, cw, seed)
        assert fit.residual_scale == pytest.approx(s, rel=1e-12), seed
        assert rel(fit.s_step_beta, s_beta) <= STACK_BETA_RTOL, seed
        assert rel(fit.beta, beta) <= STACK_BETA_RTOL, seed
        assert fit.candidates_solved == solved, seed


def test_replication_350_keeps_its_basin():
    """Criterion 4's replication 350, where a Newton M-step leaves the
    basin that IRWLS stays in, ends at the scalar fit's minimum inside a
    block of 64 (replications 320-383) as alone."""
    model = MODELS["linear"]
    seeds = list(range(320, 384))
    datasets = [generate_sample(100, seed)[0] for seed in seeds]
    fit = regression.fit_mm_stack(model, datasets, seeds)[seeds.index(350)]
    alone = fit_mm(model, datasets[seeds.index(350)], seed=350)
    assert fit.beta.tobytes() == alone.beta.tobytes()
    beta, s, _, _ = ref_fit_mm(model, datasets[seeds.index(350)], None, 350)
    assert fit.residual_scale == pytest.approx(s, rel=1e-12)
    assert rel(fit.beta, beta) <= STACK_BETA_RTOL
    assert fit.beta[0] == pytest.approx(33.44, abs=0.01)


def same_fit(a, b):
    return (a.beta.tobytes() == b.beta.tobytes()
            and a.s_step_beta.tobytes() == b.s_step_beta.tobytes()
            and a.residual_scale == b.residual_scale
            and (a.candidates_solved, a.polish_steps, a.polish_converged,
                 a.m_iterations, a.converged)
            == (b.candidates_solved, b.polish_steps, b.polish_converged,
                b.m_iterations, b.converged))


@pytest.mark.parametrize("model_id", sorted(MODELS))
def test_stacked_fit_is_the_fit_alone(model_id):
    """Each fit of a stack is bit for bit the fit its dataset gets alone,
    in any order and beside a dataset that raises, which gets its own
    ValueError."""
    model = MODELS[model_id]
    seeds = list(range(40, 64))
    datasets = [generate_sample(100, seed)[0] for seed in seeds]
    datasets[5] = generate_sample(20, 5)[0]  # too few complete cases
    fits = regression.fit_mm_stack(model, datasets, seeds,
                                   hard_rejection_weights)
    reversed_fits = regression.fit_mm_stack(
        model, datasets[::-1], seeds[::-1], hard_rejection_weights)[::-1]
    assert isinstance(fits[5], ValueError)
    assert str(fits[5]) == "insufficient complete cases"
    for k, (data, seed) in enumerate(zip(datasets, seeds)):
        if k == 5:
            continue
        alone = fit_mm(model, data, hard_rejection_weights, seed)
        assert same_fit(fits[k], alone), k
        assert same_fit(reversed_fits[k], alone), k
        assert fits[k].weights_used.tobytes() == alone.weights_used.tobytes()


def test_repeated_datasets_get_their_fits_alone():
    """A stack of [A, B, A, A'] at one seed, A' being A without one
    incomplete row, gives each dataset the fit it gets alone, bit for bit;
    so does a stack of A at two seeds."""
    model = MODELS["exp_linear"]
    a, b = generate_sample(100, 3)[0], generate_sample(100, 4)[0]
    keep = np.arange(a.n) != np.flatnonzero(a.delta == 0)[0]
    a_less = ObservedDataset(y=a.y[keep], x=a.x[keep], z_index=a.z_index,
                             delta=a.delta[keep])
    datasets = [a, b, a, a_less]
    fits = regression.fit_mm_stack(model, datasets, [7] * 4,
                                   hard_rejection_weights)
    for fit, data in zip(fits, datasets):
        alone = fit_mm(model, data, hard_rejection_weights, 7)
        assert same_fit(fit, alone)
        assert fit.weights_used.tobytes() == alone.weights_used.tobytes()
    fits = regression.fit_mm_stack(model, [a, a], [7, 8])
    for fit, seed in zip(fits, (7, 8)):
        assert same_fit(fit, fit_mm(model, a, seed=seed))


def ozone_leave_complete_out():
    """The packaged ozone data and its 111 leave-one-out sets that leave out
    a complete row (the sets the CLI's jackknife refits)."""
    data = ozone_data()
    return data, [ObservedDataset(
        y=np.delete(data.y, i), x=np.delete(data.x, i, axis=0),
        z_index=data.z_index, delta=np.delete(data.delta, i))
        for i in np.flatnonzero(data.delta == 1)]


def rel_scale(a, b):
    return abs(a.residual_scale - b.residual_scale) / b.residual_scale


@pytest.mark.parametrize("weights", [None, hard_rejection_weights],
                         ids=["plain", "hr"])
@pytest.mark.parametrize("model_id", sorted(MODELS))
def test_refit_of_the_full_data_is_the_full_fit(model_id, weights):
    """Refitted from its own fit, the ozone data gets that fit back, to the
    polish's rounding: at most one more polish step, the S-scale within
    1e-15 relative and both betas within 1e-12 relative (measured: 2.2e-16
    and 8.3e-14)."""
    model = MODELS[model_id]
    full = fit_mm(model, ozone_data(), weights)
    (warm,) = regression.refit_mm_stack(full, [ozone_data()], weights)
    assert warm.candidates_solved == 0
    assert warm.polish_steps <= 1 and warm.polish_converged
    assert warm.converged and warm.complete_case_count == 111
    assert rel_scale(warm, full) <= 1e-15
    assert rel(warm.s_step_beta, full.s_step_beta) <= 1e-12
    assert rel(warm.beta, full.beta) <= 1e-12


@pytest.mark.parametrize("model_id", sorted(MODELS))
def test_refit_is_the_refit_alone(model_id):
    """Each ozone leave-one-out set's refit is bit for bit the same alone
    and in stacks of 19 and 64."""
    model = MODELS[model_id]
    data, sets = ozone_leave_complete_out()
    full = fit_mm(model, data, hard_rejection_weights)
    alone = [regression.refit_mm_stack(full, [d], hard_rejection_weights)[0]
             for d in sets]
    for size in (19, 64):
        for k in range(0, len(sets), size):
            fits = regression.refit_mm_stack(full, sets[k:k + size],
                                             hard_rejection_weights)
            for j, fit in enumerate(fits):
                assert same_fit(fit, alone[k + j]), (size, k + j)
                assert (fit.weights_used.tobytes()
                        == alone[k + j].weights_used.tobytes())


@pytest.mark.parametrize("weights", [None, hard_rejection_weights],
                         ids=["plain", "hr"])
@pytest.mark.parametrize("model_id", sorted(MODELS))
def test_refit_matches_the_searched_fit(model_id, weights, monkeypatch):
    """On every ozone set that leaves out a complete row, the refit from
    the full fit finds the searched fit's minimum: S-scales within 1e-14
    relative, and betas within 1e-6 relative, a step the M-step's stopping
    rule (1e-8 (1 + |beta|_inf)) can leave between two starts (measured:
    8.9e-16 and 5.0e-8).  The refit draws no subsets."""
    model = MODELS[model_id]
    data, sets = ozone_leave_complete_out()
    full = fit_mm(model, data, weights)
    searched = regression.fit_mm_stack(model, sets, [0] * len(sets), weights)
    monkeypatch.setattr(regression, "_s_search", None)
    warm = regression.refit_mm_stack(full, sets, weights)
    for a, b in zip(warm, searched):
        assert a.converged and a.polish_converged
        assert a.complete_case_count == b.complete_case_count == 110
        assert rel_scale(a, b) <= 1e-14
        assert rel(a.s_step_beta, b.s_step_beta) <= 1e-6
        assert rel(a.beta, b.beta) <= 1e-6


def test_refit_without_a_finite_spread_raises(monkeypatch):
    """A set whose residuals at the full fit's S-step point have no spread,
    or no finite scale, gets its ValueError beside the others' fits, and
    nothing falls back to the search; a set with too few complete cases
    raises as it does in a search."""
    model = MODELS["exp_linear"]
    data, sets = ozone_leave_complete_out()
    full = fit_mm(model, data)
    obs = data.delta == 1
    exact = data.y.copy()
    exact[obs] = model.mean(data.x[obs], full.s_step_beta)
    overflow = data.x.copy()
    overflow[np.flatnonzero(obs)[0], 0] = -1e6  # exp(rate x1) is inf
    few = np.flatnonzero(obs)[10:]
    stubs = [
        ObservedDataset(y=exact, x=data.x, z_index=data.z_index,
                        delta=data.delta),
        ObservedDataset(y=data.y, x=overflow, z_index=data.z_index,
                        delta=data.delta),
        ObservedDataset(y=np.delete(data.y, few),
                        x=np.delete(data.x, few, axis=0), z_index=data.z_index,
                        delta=np.delete(data.delta, few)),
    ]
    monkeypatch.setattr(regression, "_s_search", None)
    fits = regression.refit_mm_stack(full, [sets[0], *stubs, sets[1]])
    assert [str(f) if isinstance(f, ValueError) else None for f in fits] == [
        None, "degenerate scale: residuals have no spread",
        "infinite scale: residuals at the start are not finite",
        "insufficient complete cases", None]
    for fit, d in ((fits[0], sets[0]), (fits[-1], sets[1])):
        assert same_fit(fit, regression.refit_mm_stack(full, [d])[0])


def test_median_is_numpy_median_bit_for_bit():
    rng = np.random.default_rng(3)
    for m in (1, 2, 7, 8, 57, 100):
        a = rng.standard_t(2, (9, m))
        assert (regression._median(a, axis=1).tobytes()
                == np.median(a, axis=1).tobytes())
        assert float(regression._median(a[0])) == float(np.median(a[0]))
