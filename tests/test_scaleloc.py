"""Tests for the S-scale and M-location solvers.

``reference_s_scale`` is the version that came before the S-scale descent:
an alternating loop followed by a 100-step fixed-point polish.
``ref_m_location`` is the M-location loop as it was when it took its score
as a parameter.  Both are kept as the reference the current code is checked
against.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robmarg import (
    LOCATION_BISQUARE_C,
    SCALE_B_TARGET,
    ScoreFamily,
    WeightedSample,
    location_bisquare,
    m_location,
    mad_scale,
    s_scale,
    scale_bisquare,
    weighted_quantile,
)
from robmarg.regression import residual_scales
from robmarg.weighted import serial_dot


def ws(atoms, weights=None):
    atoms = np.asarray(atoms, dtype=float)
    if weights is None:
        weights = np.ones_like(atoms)
    return WeightedSample(atoms, np.asarray(weights, dtype=float))


def d_n(sample, rho, scale, a):
    u = (sample.atoms - a) / scale
    return float(sample.normalized_weights @ rho.rho(u))


class TestSScale:
    def test_normal_consistency(self):
        # The (c0, b) = (1.54764, 0.5) pairing makes the S-scale consistent
        # for the standard deviation at the normal distribution.
        rng = np.random.default_rng(7)
        y = rng.standard_normal(100_000)
        fit = s_scale(ws(y))
        assert fit.converged
        assert abs(fit.scale - 1.0) < 0.02
        assert abs(fit.s_location) < 0.02

    def test_defining_identity(self):
        rng = np.random.default_rng(11)
        y = rng.standard_cauchy(500)
        w = rng.random(500) + 0.1
        sample = ws(y, w)
        rho0 = scale_bisquare()
        fit = s_scale(sample)
        avg = float(
            sample.normalized_weights
            @ rho0.rho((sample.atoms - fit.s_location) / fit.scale)
        )
        assert abs(avg - 0.5) < 1e-9

    def test_location_is_a_minimizer(self):
        # The reported s_location must not be beaten by nearby locations:
        # solving the scale equation at shifted locations gives larger scale.
        rng = np.random.default_rng(3)
        y = np.concatenate([rng.standard_normal(200), rng.standard_normal(30) + 8])
        sample = ws(y)
        rho0 = scale_bisquare()
        fit = s_scale(sample)

        def scale_at(a):
            s = fit.scale
            for _ in range(400):
                m = d_n(sample, rho0, s, a)
                s_new = s * np.sqrt(m / 0.5)
                if abs(s_new - s) <= 1e-13 * s_new:
                    return s_new
                s = s_new
            return s

        for shift in (-1.0, -0.25, 0.25, 1.0):
            assert scale_at(fit.s_location + shift) >= fit.scale - 1e-8

    def test_scale_equivariance(self):
        rng = np.random.default_rng(5)
        y = rng.standard_normal(300) * 3 + 2
        w = rng.random(300) + 0.5
        base = s_scale(ws(y, w))
        for k in (0.01, 3.7, 250.0):
            scaled = s_scale(ws(k * y, w))
            assert scaled.scale == pytest.approx(k * base.scale, rel=1e-7)
            assert scaled.s_location == pytest.approx(k * base.s_location, rel=1e-7)

    def test_weight_scaling_leaves_fit_unchanged(self):
        rng = np.random.default_rng(9)
        y = rng.standard_normal(100)
        w = rng.random(100) + 0.1
        a = s_scale(ws(y, w))
        b = s_scale(ws(y, 17.0 * w))
        assert a.scale == pytest.approx(b.scale, rel=1e-12)
        # Rounding decides whether the descent's last, tiny step is taken;
        # s(a) is too flat at its minimum to place a closer than ~1e-8 s.
        assert abs(a.s_location - b.s_location) <= 1e-7 * a.scale

    def test_degenerate_atoms(self):
        with pytest.raises(ValueError, match="degenerate scale"):
            s_scale(ws([2.0, 2.0, 2.0]))

    def test_single_positive_weight_atom(self):
        with pytest.raises(ValueError, match="degenerate scale"):
            s_scale(ws([1.0, 2.0], [1.0, 0.0]))

    @pytest.mark.parametrize(
        "atoms,weights",
        [([0.1257, -0.1321], [0.051, 0.027]),
         ([0.0, 0.0, 1.0, 2.0], [1.0, 1.0, 1.0, 1.0])],
    )
    def test_heavy_atom_is_degenerate(self, atoms, weights):
        # One atom value holds at least 1 - b of the weight, so avg rho0 at
        # that location never exceeds b and the S-scale has no positive root.
        with pytest.raises(ValueError, match="degenerate scale"):
            s_scale(ws(atoms, weights))

    @pytest.mark.parametrize("seed", range(4))
    def test_integer_weights_repeat_rows(self, seed):
        # Weight k on an atom is the atom repeated k times: the same
        # weighted averages, summed in another order.
        rng = np.random.default_rng(seed)
        y = rng.standard_t(2, 40) * 5.0 + 3.0
        k = rng.integers(1, 6, 40)
        weighted = s_scale(ws(y, k))
        repeated = s_scale(ws(np.repeat(y, k)))
        assert weighted.scale == pytest.approx(repeated.scale, rel=1e-12)
        assert abs(weighted.s_location - repeated.s_location) <= (
            1e-7 * weighted.scale)


class TestMad:
    def test_matches_documented_formula(self):
        sample = ws([1.0, 2.0, 4.0, 9.0, 10.0], [1.0, 1.0, 2.0, 1.0, 1.0])
        med = weighted_quantile(sample, 0.5)
        dev = WeightedSample(np.abs(sample.atoms - med), sample.weights)
        expected = weighted_quantile(dev, 0.5)
        fit = mad_scale(sample)
        assert fit.scale == expected
        assert fit.s_location == med
        assert fit.iterations == 0 and fit.converged

    def test_normal_consistency_option(self):
        sample = ws([0.0, 1.0, 2.0, 3.0, 10.0])
        raw = mad_scale(sample).scale
        assert mad_scale(sample, normal_consistency=True).scale == pytest.approx(
            raw / 0.6745
        )

    def test_two_point_degeneracy(self):
        # Under the lower-median convention the median of {-1, 1} is -1 and
        # the deviations {0, 2} have lower median 0, so the least-median
        # scale is 0 and must be reported as degenerate.
        with pytest.raises(ValueError, match="degenerate scale"):
            mad_scale(ws([-1.0, 1.0]))


def ref_m_location(sample, rho, scale):
    """The M-location loop with its score as a parameter: IRWLS from the
    weighted median, to 1e-10 * scale or 500 iterations."""
    if not scale > 0.0:
        raise ValueError("scale must be positive")
    y, w = sample.positive_part()
    th = float(weighted_quantile(sample, 0.5))
    for _ in range(500):
        wt = w * rho.weight((y - th) / scale)
        denom = float(wt.sum())
        if denom <= 0.0:
            break
        th_new = float(serial_dot(wt, y)) / denom
        delta = abs(th_new - th)
        th = th_new
        if delta <= 1e-10 * scale:
            break
    return th


class TestMLocation:
    @pytest.mark.parametrize("rho", [location_bisquare()], ids=["bisquare"])
    def test_symmetric_three_points(self, rho):
        sample = ws([-1.0, 0.0, 1.0])
        assert m_location(sample, scale=1.0) == pytest.approx(0.0, abs=1e-12)
        assert m_location(sample, 1.0) == ref_m_location(sample, rho, 1.0)

    def test_huge_c_tends_to_mean(self):
        # As c grows the bisquare becomes quadratic, so the M-location
        # approaches the weighted mean; oracle is the exact mean 2.  Tuning
        # c at scale 1 is the package's c = 4.685 at scale c / 4.685.
        got = m_location(ws([1.0, 2.0, 3.0]), scale=1e6 / LOCATION_BISQUARE_C)
        assert got == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("k", [0.5, 2.0, 1000.0])
    def test_tuning_is_a_scale(self, k):
        # rho_c(u) = rho*(u/c): the M-location at tuning k * 4.685 and scale
        # s is the package's at scale k * s.  The two loops take the same
        # steps up to rounding in u / c against u, and stop on 1e-10 of
        # their own scale, so they agree to a few 1e-10 of k * s.
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(3, 200))
            y = rng.standard_cauchy(n) * rng.uniform(0.5, 5.0)
            sample = ws(y, rng.random(n) + 0.05)
            s = mad_scale(sample, normal_consistency=True).scale
            want = ref_m_location(sample, ScoreFamily(k * LOCATION_BISQUARE_C),
                                  s)
            assert abs(m_location(sample, k * s) - want) <= 1e-8 * k * s

    def test_weight_invariance_under_common_scaling(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal(50) * 2 + 1
        a = m_location(ws(y), scale=2.0)
        b = m_location(ws(y, np.full(50, 4.0)), scale=2.0)
        assert a == pytest.approx(b, abs=1e-12)

    def test_affine_equivariance(self):
        rng = np.random.default_rng(13)
        y = rng.standard_cauchy(80)
        w = rng.random(80) + 0.2
        base = m_location(ws(y, w), scale=1.5)
        for a, b in ((2.0, -3.0), (0.25, 10.0)):
            got = m_location(ws(a * y + b, w), scale=a * 1.5)
            assert got == pytest.approx(a * base + b, abs=1e-8 * max(1.0, abs(a)))

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError, match="scale must be positive"):
            m_location(ws([1.0, 2.0]), scale=0.0)

    def test_root_certificate(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = rng.integers(5, 60)
            y = rng.standard_cauchy(n) * rng.uniform(0.5, 5)
            w = rng.random(n) + 0.05
            sample = ws(y, w)
            rho = location_bisquare()
            sfit = s_scale(sample)
            th = m_location(sample, sfit.scale)
            resid = float(w @ rho.psi((y - th) / sfit.scale)) / float(w.sum())
            assert abs(resid) < 1e-8

    def test_descends_from_start(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            y = rng.standard_cauchy(40)
            sample = ws(y)
            rho = location_bisquare()
            sfit = s_scale(sample)
            start = weighted_quantile(sample, 0.5)
            th = m_location(sample, sfit.scale)
            assert d_n(sample, rho, sfit.scale, th) <= d_n(
                sample, rho, sfit.scale, start
            ) + 1e-12

    def test_grid_oracle(self):
        # Brute-force scan of the objective: no grid point may beat the
        # solver by more than 1e-6 when the scale comes from the production
        # S-scale pairing.
        rng = np.random.default_rng(29)
        rho = location_bisquare()
        for _ in range(12):
            n = int(rng.integers(5, 50))
            y = rng.standard_cauchy(n) * rng.uniform(0.2, 4.0) + rng.uniform(-5, 5)
            w = rng.random(n) + 0.05
            sample = ws(y, w)
            sfit = s_scale(sample)
            th = m_location(sample, sfit.scale)
            grid = np.linspace(y.min(), y.max(), 100_000)
            u = (y[None, :] - grid[:, None]) / sfit.scale
            vals = rho.rho(u) @ w
            assert vals.min() >= d_n(sample, rho, sfit.scale, th) * w.sum() - 1e-6


def reference_s_scale(sample, rho0, b):
    """The S-scale as solved before the one solver: the same alternating
    loop, then a fixed-point polish s <- s sqrt(avg rho0 / b) at the final
    location, at most 100 steps, until a step is below 1e-13 relative.
    Returns (scale, location, whether the polish stopped before its cap);
    raises as the package does."""
    if not 0.0 < b < 1.0:
        raise ValueError("b must lie strictly between 0 and 1")
    keep = sample.weights > 0
    y, w = sample.atoms[keep], sample.weights[keep]
    if y.size < 2 or np.all(y == y[0]):
        raise ValueError("degenerate scale")
    sw = float(w.sum())
    a = weighted_quantile(sample, 0.5)
    dev = np.abs(y - a)
    s = float(weighted_quantile(WeightedSample(dev, w), 0.5))
    if s <= 0.0:
        s = float(serial_dot(w, dev) / sw)
    for _ in range(200):
        m = float(serial_dot(w, rho0.rho((y - a) / s))) / sw
        if m <= 0.0:
            raise ValueError("degenerate scale")
        s_new = s * np.sqrt(m / b)
        wt = w * rho0.weight((y - a) / s_new)
        denom = float(wt.sum())
        a_new = float(serial_dot(wt, y)) / denom if denom > 0.0 else a
        done = abs(s_new - s) <= 1e-9 * s_new and abs(a_new - a) <= 1e-9 * s_new
        s, a = float(s_new), a_new
        if done:
            break
    for _ in range(100):
        m = float(serial_dot(w, rho0.rho((y - a) / s))) / sw
        s_next = s * float(np.sqrt(m / b))
        step = abs(s_next - s)
        s = s_next
        if step <= 1e-13 * s:
            return s, a, True
    return s, a, False


@st.composite
def weighted_samples(draw):
    """Weighted normal, Cauchy or bimodal samples with some zero weights,
    planted ties, and a random location and spread."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 80))
    kind = draw(st.sampled_from(["normal", "cauchy", "bimodal"]))
    if kind == "normal":
        y = rng.standard_normal(n)
    elif kind == "cauchy":
        y = rng.standard_cauchy(n)
    else:
        y = rng.standard_normal(n) + np.where(rng.random(n) < 0.3, 6.0, 0.0)
    y = y * draw(st.floats(1e-3, 1e3)) + draw(st.floats(-100.0, 100.0))
    ties = draw(st.integers(0, n // 2))
    y[rng.integers(0, n, ties)] = y[rng.integers(0, n, ties)]
    w = rng.random(n) + 0.01
    zero = rng.random(n) < draw(st.floats(0.0, 0.5))
    zero[rng.integers(0, n)] = False
    w[zero] = 0.0
    return ws(y, w)


def scale_about(sample, a, start):
    """The S-scale about a fixed location a, solved to the identity."""
    keep = sample.weights > 0
    return residual_scales(sample.atoms[keep] - a, [start],
                           weights=sample.weights[keep])[0]


def scale_slope_sign(sample, a, start):
    """The sign of ds/da, where s(a) is the S-scale about a.

    Differentiating sum w rho0((y - a)/s(a)) = b sum w gives
    ds/da = -sum w psi0(u) / sum w psi0(u) u with a positive denominator.
    """
    s = scale_about(sample, a, start)
    return -np.sign(sample.weights @ scale_bisquare().psi((sample.atoms - a) / s))


@given(weighted_samples())
@settings(max_examples=300, deadline=None)
def test_s_scale_matches_reference(sample):
    rho0 = scale_bisquare()
    # When one atom value carries a share m >= 1 - b of the weight, avg rho0
    # at that location rises only to 1 - m <= b as s falls, so the identity
    # has no positive root: the scale is degenerate.
    keep = sample.weights > 0
    _, value = np.unique(sample.atoms[keep], return_inverse=True)
    heaviest = np.bincount(value, sample.weights[keep]).max()
    if heaviest >= (1.0 - SCALE_B_TARGET) * sample.weights[keep].sum():
        with pytest.raises(ValueError, match="degenerate scale"):
            s_scale(sample)
        return
    try:
        ref = reference_s_scale(sample, rho0, SCALE_B_TARGET)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            s_scale(sample)
        return
    fit = s_scale(sample)
    # The reference's fixed-point polish approaches its root from below and
    # stops short of it (by up to 1e-12 relative when it stops on its own,
    # by far more at its cap), so the descent is held to the scale about
    # the reference's location solved to the identity.
    ref_scale = scale_about(sample, ref[1], ref[0])
    assert fit.scale <= ref_scale * (1.0 + 1e-12)
    assert abs(d_n(sample, rho0, fit.scale, fit.s_location) - 0.5) <= 1e-12
    if fit.converged:
        # s(a) is flat at its minimum: s(a* + d) - s(a*) ~ d^2 / s drops
        # below rounding once |d| < sqrt(eps) s = 1.5e-8 s, so no descent on
        # s can place a closer than that; and the polish's step test,
        # 1e-10 (1 + |a|), is not scale-equivariant, which shows on samples
        # of spread 1e-3 far from zero.  Within that tolerance ds/da must
        # change sign from - to +: a minimizer of s(a) lies in the bracket.
        a = fit.s_location
        tol = 1e-7 * fit.scale + 1e-10 * (1.0 + abs(a))
        assert scale_slope_sign(sample, a - tol, fit.scale) <= 0.0
        assert scale_slope_sign(sample, a + tol, fit.scale) >= 0.0


def test_s_scale_degenerate_errors_match_reference():
    rho0 = scale_bisquare()
    for sample in (ws([2.0, 2.0, 2.0]), ws([1.0, 2.0], [1.0, 0.0]),
                   ws([3.0, 3.0, 5.0], [1.0, 1.0, 0.0])):
        with pytest.raises(ValueError, match="degenerate scale"):
            reference_s_scale(sample, rho0, SCALE_B_TARGET)
        with pytest.raises(ValueError, match="degenerate scale"):
            s_scale(sample)


@st.composite
def loose_samples(draw):
    n = draw(st.integers(3, 25))
    atoms = draw(
        st.lists(
            st.floats(min_value=-100.0, max_value=100.0),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    return ws(atoms)


@given(loose_samples(), st.floats(0.1, 10.0))
@settings(max_examples=50, deadline=None)
def test_m_location_within_data_range(sample, scale):
    th = m_location(sample, scale)
    assert sample.atoms.min() - 1e-9 <= th <= sample.atoms.max() + 1e-9


@st.composite
def tie_heavy_samples(draw):
    """1 to 300 atoms drawn from as few as one distinct value, at a random
    location and spread, with some zero weights (never all)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 300))
    values = rng.standard_cauchy(draw(st.integers(1, n)))
    y = rng.choice(values, n) * draw(st.floats(1e-3, 1e3)) + draw(
        st.floats(-100.0, 100.0))
    w = rng.random(n) + 0.01
    zero = rng.random(n) < draw(st.floats(0.0, 0.9))
    zero[rng.integers(0, n)] = False
    w[zero] = 0.0
    return ws(y, w)


@given(tie_heavy_samples(), st.floats(1e-3, 1e3))
@settings(max_examples=300, deadline=None)
def test_m_location_matches_score_parameter_loop(sample, scale):
    """The fixed-score solver is the loop that took the score as a
    parameter, given the location bisquare, bit for bit."""
    assert m_location(sample, scale) == ref_m_location(
        sample, location_bisquare(), scale)


def test_rows_of_different_lengths_solve_as_alone():
    """Rows of different lengths solved in one call get the scales they get
    alone, bit for bit, in any order and with unit weights; a non-finite row
    scores inf and a zero start 0."""
    rng = np.random.default_rng(4)
    rows = [rng.standard_t(3, m) * k
            for k, m in enumerate((15, 57, 8, 120, 57, 33, 9), 1)]
    rows[2][0] = np.inf
    starts = np.array([np.median(np.abs(r)) for r in rows])
    starts[5] = 0.0
    alone = [residual_scales(r[None], starts[k:k + 1])[0]
             for k, r in enumerate(rows)]
    for order in (range(len(rows)), [3, 6, 0, 5, 1, 4, 2]):
        order = list(order)
        together = residual_scales(
            np.concatenate([rows[k] for k in order]), starts[order],
            counts=np.array([rows[k].size for k in order]))
        assert together.tolist() == [alone[k] for k in order]
    # Unit weights are the plain mean, bit for bit.
    unit = residual_scales(np.concatenate(rows), starts,
                           np.array([r.size for r in rows]),
                           np.ones(sum(r.size for r in rows)))
    assert unit.tolist() == alone
    assert np.isinf(alone[2]) and alone[5] == 0.0
    for k in (0, 1, 3, 4, 6):
        avg = np.mean(scale_bisquare().rho(rows[k] / alone[k]))
        assert avg == pytest.approx(SCALE_B_TARGET, abs=1e-12)
