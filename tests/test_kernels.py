"""The sorted-window kernel sums against dense kernel panels.

The dense panels below are the query-by-training kernel matrices the
propensity, augmented-estimator and plug-in-variance code built before the
windowed primitive, kept as the reference.  The window computes the same
kernel values and adds the nonzero ones in another order, so sums agree to
1e-12 relative to the sum of the absolute terms.
"""

import json
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robmarg import cli
from robmarg.dataset import ObservedDataset
from robmarg.inference import plugin_var_ipw
from robmarg.kernels import SortedWindow
from robmarg.marginal import _spread, estimate_aipw
from robmarg.propensity import (
    auto_bandwidth,
    cv_bandwidth,
    kernel_propensity,
    known_propensity,
)
from robmarg.scores import location_bisquare
from robmarg.simulation import generate_sample

SF = location_bisquare()
RTOL = 1e-12


def epanechnikov_panel(z_train, z_query, b_n):
    """Product Epanechnikov kernel matrix, shape (len(query), len(train))."""
    t = (z_train[None, :, :] - z_query[:, None, :]) / b_n
    k = np.where(np.abs(t) <= 1.0, 0.75 * (1.0 - t * t), 0.0)
    return k.prod(axis=2)


def biweight_panel(z_train, z_query, a_n):
    """Product biweight kernel matrix, shape (len(query), len(train))."""
    t = (z_train[None, :, :] - z_query[:, None, :]) / a_n
    k = np.where(np.abs(t) < 1.0, (15.0 / 16.0) * (1.0 - t * t) ** 2, 0.0)
    return k.prod(axis=2)


PANELS = {"epanechnikov": epanechnikov_panel, "biweight": biweight_panel}


def assert_sums_match(got, panel, values):
    """Window sums equal the dense ones to RTOL of the absolute-term sums;
    rows of exact zeros (empty windows) stay exactly zero."""
    ref = panel @ values
    scale = np.abs(panel) @ np.abs(values)
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= RTOL * scale)
    empty = ~panel.any(axis=1)
    assert np.all(got[empty] == 0.0)


# -- dense references of the five callers ------------------------------------


def dense_kernel_propensity(z, d, b_n, query):
    panel = epanechnikov_panel(z, query, b_n)
    den, num = panel.sum(axis=1), panel @ d
    return np.where(den > 0.0, num / np.where(den > 0, den, 1.0), d.mean())


def dense_cv_bandwidth(z, d, grid):
    """A grid of bandwidths or of rows, one per column, taken in the order
    of their first entries."""
    n, k = z.shape
    loo_mean = (d.sum() - d) / (n - 1)
    grid = np.asarray(grid, dtype=float)
    bandwidths = grid[np.argsort(grid.reshape(len(grid), -1)[:, 0],
                                 kind="stable")]
    scores = []
    for b in bandwidths:
        panel = epanechnikov_panel(z, z, b)
        self_k = np.diag(panel)
        den = panel.sum(axis=1) - self_k
        num = panel @ d - self_k * d
        p_loo = np.where(den > 0.0, num / np.where(den > 0, den, 1.0), loo_mean)
        scores.append(float(((d - p_loo) ** 2).sum()))
    scores = np.asarray(scores)
    cutoff = scores.min() * (1.0 + 1e-10) + 1e-12
    best = bandwidths[np.argmax(scores <= cutoff)]
    return best.item() if best.size == 1 else tuple(best.tolist())


def dense_shares(z_obs, z_rows, a_n):
    """(n_obs, rows) kernel share profiles; empty windows share uniformly."""
    panel = biweight_panel(z_obs, z_rows, a_n).T
    den = panel.sum(axis=0)
    good = den > 0.0
    return np.where(good, panel / np.where(good, den, 1.0), 1.0 / z_obs.shape[0])


def auto_grid(z):
    """Rows of one bandwidth per column, each scaled by its column's sd."""
    n = z.shape[0]
    spread = np.array([max(float(np.std(col)), 1e-8) for col in z.T])
    return spread * n ** (-0.2) * np.geomspace(0.3, 3.0, 8)[:, None]


def ozone_data():
    config = json.loads(
        (resources.files("robmarg") / "data" / "ozone_config.json").read_text()
    )
    settings_ = cli._build_estimate_settings(config)
    columns = [settings_["response"], *settings_["covariates"]]
    path = str(resources.files("robmarg") / "data" / "airquality.csv")
    return cli._build_dataset(cli._read_csv_columns(path, columns), settings_)


def linear_propensity(k):
    return known_propensity(lambda zz: 0.35 + 0.5 * zz[:, 0], k=k)


def mar_dataset(z, seed):
    rng = np.random.default_rng(seed)
    n = z.shape[0]
    delta = (rng.random(n) < 0.6).astype(int)
    delta[:2] = 1
    y = z[:, 0] + rng.standard_normal(n)
    x = np.column_stack([z, rng.standard_normal(n)])
    return ObservedDataset(
        y=np.where(delta == 1, y, np.nan),
        x=x,
        z_index=tuple(range(z.shape[1])),
        delta=delta,
    )


# -- the primitive -----------------------------------------------------------


@st.composite
def window_cases(draw):
    k = draw(st.integers(1, 2))
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 30))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    # Coarse grids make exact duplicates in z and in the queries.
    grid_step = draw(st.sampled_from([0.0, 0.25, 0.1]))
    z = rng.uniform(-1.0, 1.0, (n, k))
    if grid_step:
        z = np.round(z / grid_step) * grid_step
    dup = draw(st.integers(0, n - 1))
    z[dup:] = z[: n - dup] if draw(st.booleans()) else z[dup:]
    # Queries span beyond the training range on both sides.
    q = rng.uniform(-2.5, 2.5, (m, k))
    if draw(st.booleans()):
        q[: min(m, n)] = z[: min(m, n)]
    gaps = np.diff(np.unique(z[:, 0]))
    smallest = float(gaps.min()) if gaps.size else 1.0
    h = draw(
        st.sampled_from(["below_gaps", "small", "medium", "wide"])
    )
    h = {
        "below_gaps": 0.4 * smallest,
        "small": 0.05,
        "medium": 0.4,
        "wide": 3.0,
    }[h]
    if draw(st.booleans()):  # one bandwidth per column
        h = h * rng.uniform(0.5, 2.0, k)
    c = draw(st.integers(1, 3))
    values = rng.standard_normal((n, c))
    family = draw(st.sampled_from(sorted(PANELS)))
    return z, q, h, values, family


@settings(max_examples=300, deadline=None)
@given(window_cases())
def test_window_sums_match_dense_panel(case):
    z, q, h, values, family = case
    got = SortedWindow(z, values.T).sums(q, h, family)
    assert_sums_match(got, PANELS[family](z, q, h), values)


@pytest.mark.parametrize("family", sorted(PANELS))
@pytest.mark.parametrize("k", [1, 2])
def test_window_sums_many_blocks(family, k):
    # Several query blocks, clustered duplicates and queries off the range.
    rng = np.random.default_rng(3)
    z = np.round(rng.standard_normal((700, k)), 2)
    q = np.concatenate([rng.uniform(-5.0, 5.0, (500, k)), z[:200]])
    values = np.column_stack([np.ones(700), rng.standard_normal(700)])
    for h in (1e-4, 0.03, 0.5, 10.0):
        got = SortedWindow(z, values.T).sums(q, h, family)
        assert_sums_match(got, PANELS[family](z, q, h), values)


def test_bandwidth_below_every_gap_leaves_only_coincident_points():
    z = np.array([0.0, 1.0, 1.0, 3.0])
    window = SortedWindow(z, np.ones(4))
    got = window.sums(np.array([0.0, 0.5, 1.0, 7.0]), 0.1, "biweight")[:, 0]
    np.testing.assert_array_equal(got, [15.0 / 16.0, 0.0, 15.0 / 8.0, 0.0])


def test_rejects_bad_arguments():
    window = SortedWindow(np.zeros((3, 2)), np.ones(3))
    with pytest.raises(ValueError, match="family"):
        window.sums(np.zeros((1, 2)), 1.0, "gaussian")
    with pytest.raises(ValueError, match="positive"):
        window.sums(np.zeros((1, 2)), 0.0, "biweight")
    with pytest.raises(ValueError, match="positive"):
        window.sums(np.zeros((1, 2)), [1.0, -1.0], "biweight")
    with pytest.raises(ValueError, match="one value or 2"):
        window.sums(np.zeros((1, 2)), [1.0, 1.0, 1.0], "biweight")
    with pytest.raises(ValueError, match="2 columns"):
        window.sums(np.zeros(4), 1.0, "biweight")
    with pytest.raises(ValueError, match="one entry per point"):
        SortedWindow(np.zeros(3), np.ones(4))


# -- the callers -------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2])
def test_kernel_propensity_matches_dense(k):
    rng = np.random.default_rng(11 + k)
    z = np.round(rng.random((300, k)), 2)
    d = (rng.random(300) < 0.6).astype(float)
    query = np.concatenate([z, rng.uniform(-1.0, 2.0, (50, k))])
    for b in (0.004, 0.05, 0.3, np.linspace(0.02, 0.3, k)):
        fit = kernel_propensity(z, d, b, floor=1e-9)
        ref = np.clip(dense_kernel_propensity(z, d, b, query), 1e-9, 1.0)
        np.testing.assert_allclose(fit.predict(query), ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("n", [5, 17, 101, 1023, 3201])
def test_kernel_propensity_all_observed_is_exactly_one(n):
    rng = np.random.default_rng(n)
    z = rng.random(n)
    fit = kernel_propensity(z, np.ones(n, dtype=int), b_n=0.2)
    assert np.all(fit.predict(np.concatenate([z, rng.random(300)])) == 1.0)


@pytest.mark.parametrize("k", [1, 2])
def test_cv_bandwidth_matches_dense_on_random_grids(k):
    rng = np.random.default_rng(5 + k)
    z = np.round(rng.random((250, k)), 2)
    d = (rng.random(250) < 0.55).astype(float)
    for grid in (auto_grid(z), [0.001, 0.004, 0.02, 0.1, 0.5, 2.0]):
        assert cv_bandwidth(z, d, grid) == dense_cv_bandwidth(z, d, grid)


@pytest.mark.parametrize("n, k", [(100, 1), (400, 1), (1600, 1), (400, 2)],
                         ids=["100", "400", "1600", "400-k2"])
def test_cv_bandwidth_matches_dense_on_benchmark_samples(n, k):
    data, _ = generate_sample(n, 1)
    z, d = data.z, data.delta.astype(float)
    if k == 2:  # a second column, on another scale
        z = np.column_stack([z, 30.0 * np.random.default_rng(n).random(n)])
    assert auto_bandwidth(z, d) == dense_cv_bandwidth(z, d, auto_grid(z))


def test_cv_bandwidth_matches_dense_on_ozone_wind():
    data = ozone_data()
    z, d = data.z, data.delta.astype(float)
    assert auto_bandwidth(z, d) == dense_cv_bandwidth(z, d, auto_grid(z))


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("a_n", [1e-4, 0.05, 0.3])
def test_aipw_weights_match_dense_shares(k, a_n):
    rng = np.random.default_rng(21 + k)
    data = mar_dataset(np.round(rng.random((200, k)), 2), seed=k)
    pf = linear_propensity(k)
    est = estimate_aipw(data, pf, a_n)
    obs = data.delta == 1
    zeta = data.delta / pf.predict(data.z)
    shares = dense_shares(data.z[obs], data.z, a_n)
    ref = (zeta[obs] + shares @ (1.0 - zeta)) / data.n
    scale = (np.abs(zeta[obs]) + shares @ np.abs(1.0 - zeta)) / data.n
    assert np.all(np.abs(est.signed_weights - ref) <= RTOL * scale)


@pytest.mark.parametrize("a_n", [1e-4, 0.05, 0.3])
def test_conditional_cdf_matches_dense_shares(a_n):
    rng = np.random.default_rng(8)
    data = mar_dataset(np.round(rng.random((150, 1)), 2), seed=4)
    obs = data.delta == 1
    y_obs = data.y[obs]
    ys = np.sort(y_obs)
    for zq in (0.3, 0.55, 5.0):  # 5.0 has an empty window
        w = dense_shares(data.z[obs], np.array([[zq]]), a_n)[:, 0]
        ref = np.array([w[y_obs <= y].sum() for y in ys])
        shares = _spread(data.z[obs], np.array([[zq]]), a_n, [1.0])
        cdf = np.array([shares[y_obs <= y].sum() for y in ys])
        np.testing.assert_allclose(cdf[:-1], ref[:-1], rtol=0, atol=1e-12)


@pytest.mark.parametrize("k", [1, 2])
def test_plugin_kernel_correction_matches_dense(k):
    rng = np.random.default_rng(31 + k)
    data = mar_dataset(np.round(rng.random((300, k)), 2), seed=9 + k)
    pf = linear_propensity(k)
    args = (data, pf, 0.2, 1.3)
    for b in (0.003, 0.08, 0.4, np.linspace(0.05, 0.4, k)):
        known = plugin_var_ipw(*args, variant="known", scale_method=None)
        kernel = plugin_var_ipw(*args, variant="kernel", bandwidth=b,
                                scale_method=None)
        obs = data.delta == 1
        u = (data.y[obs] - 0.2) / 1.3
        phi = SF.psi(u)
        panel = epanechnikov_panel(data.z[obs], data.z, b)
        den = panel.sum(axis=1)
        r_hat = np.where(den > 0.0, panel @ phi / np.where(den > 0.0, den, 1.0),
                         phi.mean())
        p_all = pf.predict(data.z)
        correction = float(np.mean((1.0 - p_all) / p_all * r_hat**2))
        p_obs = pf.predict(data.z[obs])
        tau = (1.0 / p_obs) / (1.0 / p_obs).sum()
        a_hat = float(tau @ SF.psi_prime(u))
        gamma = max(float(tau @ (phi**2 / p_obs)) - correction, 0.0)
        ref = 1.3 * np.sqrt(gamma / (data.n * a_hat**2))
        assert kernel.se == pytest.approx(ref, rel=1e-10)
        assert kernel.se <= known.se
