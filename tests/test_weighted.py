"""Tests for weighted empirical distributions.

``reference_cdf_table`` and ``ref_mad`` are the routes that came before the
one sorted table per sample: a CDF table padded by a leading 0, and a MAD
that sorts the deviations as a second sample.  They are kept as the
reference the current code is checked against.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robmarg import (
    WeightedSample,
    kolmogorov_distance,
    mad_scale,
    s_scale,
    scaleloc,
    weighted_cdf,
    weighted_quantile,
)
from robmarg.weighted import serial_dot, weighted_mad


def ws(atoms, weights=None):
    atoms = np.asarray(atoms, dtype=float)
    if weights is None:
        weights = np.ones_like(atoms)
    return WeightedSample(atoms, np.asarray(weights, dtype=float))


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty distribution"):
            ws([])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            ws([1.0, 2.0], [1.0])

    def test_negative_weight(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ws([1.0, 2.0], [1.0, -0.5])

    def test_zero_total(self):
        with pytest.raises(ValueError, match="positive total"):
            ws([1.0, 2.0], [0.0, 0.0])

    def test_nan_atom(self):
        with pytest.raises(ValueError, match="finite"):
            ws([1.0, np.nan])

    def test_normalized_view(self):
        s = ws([1.0, 2.0, 3.0], [2.0, 3.0, 5.0])
        assert abs(s.normalized_weights.sum() - 1.0) < 1e-12

    def test_positive_part_copies_only_to_drop_zero_weights(self):
        # A conv law holds millions of atoms: with every weight positive the
        # solvers read the sample's own arrays.
        s = ws([3.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        y, w = s.positive_part()
        assert y is s.atoms and w is s.weights
        y, w = ws([3.0, 1.0, 2.0], [1.0, 0.0, 3.0]).positive_part()
        assert y.tolist() == [3.0, 2.0] and w.tolist() == [1.0, 3.0]


class TestCdf:
    def test_counting(self):
        # atoms {1,2,3} equal weights at y=2: two of three atoms are <= 2
        assert weighted_cdf(ws([1, 2, 3]), 2.0) == pytest.approx(2.0 / 3.0)

    def test_boundaries(self):
        s = ws([4.0, -1.0, 2.0], [1.0, 2.0, 3.0])
        assert weighted_cdf(s, -1.5) == 0.0
        assert weighted_cdf(s, 4.0) == 1.0
        assert weighted_cdf(s, 100.0) == 1.0

    def test_weight_readout(self):
        assert weighted_cdf(ws([0, 1], [0.25, 0.75]), 0.0) == pytest.approx(0.25)

    def test_right_continuity(self):
        s = ws([0.0, 1.0])
        assert weighted_cdf(s, 1.0) == 1.0
        assert weighted_cdf(s, 1.0 - 1e-9) == 0.5

    def test_vectorized(self):
        s = ws([1, 2, 3])
        out = weighted_cdf(s, np.array([0.0, 2.0, 5.0]))
        assert np.allclose(out, [0.0, 2.0 / 3.0, 1.0])


class TestQuantile:
    def test_lower_median_convention(self):
        # {1,2,3,4} equal weights: F(2) = 0.5 >= 0.5, so the lower median 2
        assert weighted_quantile(ws([1, 2, 3, 4]), 0.5) == 2.0

    def test_single_atom(self):
        assert weighted_quantile(ws([5.0], [3.7]), 0.01) == 5.0
        assert weighted_quantile(ws([5.0], [3.7]), 0.99) == 5.0

    def test_cumulative_enumeration(self):
        # cumulative weights are 0.6, 0.8, 1.0: the first atom already has
        # F(1) = 0.6 >= 0.5
        assert weighted_quantile(ws([1, 2, 3], [0.6, 0.2, 0.2]), 0.5) == 1.0

    def test_q_range_validated(self):
        s = ws([1, 2])
        for q in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError, match="strictly between"):
                weighted_quantile(s, q)

    def test_vectorized(self):
        s = ws([1, 2, 3, 4])
        out = weighted_quantile(s, np.array([0.2, 0.5, 0.9]))
        assert np.allclose(out, [1.0, 2.0, 4.0])

    def test_unsorted_input(self):
        assert weighted_quantile(ws([4, 1, 3, 2]), 0.5) == 2.0


class TestKolmogorov:
    def test_identity(self):
        s = ws([1, 5, 2], [0.2, 0.5, 0.3])
        assert kolmogorov_distance(s, s) == 0.0

    def test_disjoint_point_masses(self):
        assert kolmogorov_distance(ws([0.0]), ws([1.0])) == 1.0

    def test_half_overlap(self):
        # F1 jumps to 0.5 at 0 and to 1 at 1; F2 jumps to 1 at 0.
        # Largest gap is |0.5 - 1| = 0.5 at y = 0.
        assert kolmogorov_distance(ws([0, 1]), ws([0.0])) == pytest.approx(0.5)

    def test_interleaved_atoms(self):
        # Against a point mass at 1, the empirical {0, 2} never gets further
        # away than 0.5: F1 = 0.5 on [0, 2) while F2 jumps 0 -> 1 at 1.
        d = kolmogorov_distance(ws([0.0, 2.0]), ws([1.0]))
        assert d == pytest.approx(0.5)

    def test_duplicate_atoms(self):
        # duplicated atom mass must aggregate before comparing
        a = ws([1.0, 1.0, 2.0], [1.0, 1.0, 2.0])
        b = ws([1.0, 2.0], [2.0, 2.0])
        assert kolmogorov_distance(a, b) == 0.0


def reference_cdf_table(sample):
    """Sorted positive-weight atoms and their cumulative normalized weights
    padded by a leading 0, so that ``pad[searchsorted(sa, y)]`` is the CDF."""
    keep = sample.weights > 0
    order = np.argsort(sample.atoms[keep], kind="stable")
    cw = np.cumsum(sample.weights[keep][order])
    cw /= cw[-1]
    cw[-1] = 1.0
    return sample.atoms[keep][order], np.concatenate(([0.0], cw))


def reference_kolmogorov_distance(ws1, ws2):
    """The distance as computed before it looked at one sample's atoms only:
    both CDFs at every atom of both samples and at the left limits there."""
    sa1, pad1 = reference_cdf_table(ws1)
    sa2, pad2 = reference_cdf_table(ws2)
    d = 0.0
    for pts in (sa1, sa2):
        for side in ("right", "left"):
            f1 = pad1[np.searchsorted(sa1, pts, side=side)]
            f2 = pad2[np.searchsorted(sa2, pts, side=side)]
            d = max(d, float(np.max(np.abs(f1 - f2))))
    return d


@st.composite
def sample_pairs(draw):
    """Two weighted samples of unequal sizes on a shared coarse grid, so
    that atoms tie within and across samples, with some zero weights."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = draw(st.integers(2, 40))
    step = draw(st.floats(0.01, 10.0))
    pair = []
    for _ in range(2):
        n = draw(st.integers(1, 60))
        atoms = rng.integers(0, grid, n) * step
        weights = rng.random(n) * (rng.random(n) > draw(st.floats(0.0, 0.5)))
        weights[rng.integers(0, n)] += 0.5
        pair.append(ws(atoms, weights))
    return pair


@given(sample_pairs())
@settings(max_examples=300, deadline=None)
def test_kolmogorov_matches_reference_exactly(pair):
    ws1, ws2 = pair
    assert kolmogorov_distance(ws1, ws2) == reference_kolmogorov_distance(
        ws1, ws2
    )
    assert kolmogorov_distance(ws2, ws1) == reference_kolmogorov_distance(
        ws2, ws1
    )


@given(sample_pairs())
@settings(max_examples=100, deadline=None)
def test_cdf_matches_reference_table_exactly(pair):
    ws1, ws2 = pair
    sa, pad = reference_cdf_table(ws1)
    for pts in (ws1.atoms, ws2.atoms, ws2.atoms - 1e-9):
        expected = pad[np.searchsorted(sa, pts, side="right")]
        np.testing.assert_array_equal(weighted_cdf(ws1, pts), expected)


def ref_mad(sample):
    """The lower median m and the raw MAD as computed before the one table:
    the lower median of |y - m| over the positive part, sorted anew."""
    m = weighted_quantile(sample, 0.5)
    keep = sample.weights > 0
    dev = WeightedSample(np.abs(sample.atoms[keep] - m), sample.weights[keep])
    return m, weighted_quantile(dev, 0.5)


@st.composite
def mad_samples(draw):
    """Tie-heavy integer atoms, scaled and shifted, with one, two or more
    atoms; equal, integer or random weights, some of them zero; and at
    times one atom carrying at least half the weight."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([1, 2, 7, 40, 300]))
    grid = draw(st.sampled_from([1, 4, 20, 100]))
    step = draw(st.sampled_from([1.0, 0.1, 3.7]))
    atoms = rng.integers(-grid, grid + 1, n) * step + draw(
        st.sampled_from([0.0, 0.05, -12.3]))
    kind = draw(st.sampled_from(["equal", "integer", "random"]))
    if kind == "equal":
        weights = np.full(n, draw(st.sampled_from([1.0, 0.1, 1.0 / 3.0])))
    elif kind == "integer":
        weights = rng.integers(1, 5, n).astype(float)
    else:
        weights = rng.random(n) + 1e-3
    weights[rng.random(n) < draw(st.floats(0.0, 0.5))] = 0.0
    heavy = rng.integers(0, n)
    weights[heavy] = draw(st.sampled_from([1.0, 2.0, weights[heavy]]))
    factor = draw(st.sampled_from([None, None, None, 1.0, 2.5]))
    if factor is not None:
        weights[heavy] = factor * (weights.sum() - weights[heavy])
    if not weights.sum() > 0.0:
        weights[heavy] = 1.0
    return WeightedSample(atoms, weights)


def outcome(fn, sample):
    """(scale, location) of a scale fit, or the message of what it raised."""
    try:
        fit = fn(sample)
    except ValueError as exc:
        return str(exc)
    return fit.scale, fit.s_location


@given(mad_samples())
@settings(max_examples=300, deadline=None)
def test_mad_matches_reference_exactly(sample):
    m, mad = ref_mad(sample)
    assert weighted_mad(sample) == (m, mad)
    assert outcome(mad_scale, sample) == (
        (mad, m) if mad > 0.0 else "degenerate scale")
    assert outcome(lambda s: mad_scale(s, normal_consistency=True),
                   sample) == ((mad / 0.6745, m) if mad > 0.0
                               else "degenerate scale")
    with mock.patch.object(scaleloc, "weighted_mad", ref_mad):
        expected = outcome(s_scale, sample)
    assert outcome(s_scale, sample) == expected


class TestSerialDot:
    # Sizes above OpenBLAS's threading thresholds (about 1e4 elements), where
    # ``@`` would hand the product to worker threads.
    def test_vector_matches_matmul(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(2, 20_000))
        assert float(serial_dot(a, b)) == pytest.approx(float(a @ b), rel=1e-12)

    def test_matrix_vector_matches_matmul(self):
        rng = np.random.default_rng(4)
        panel, d = rng.random((200, 153)), rng.random(153)
        out = serial_dot(panel, d)
        assert out.shape == (200,)
        np.testing.assert_allclose(out, panel @ d, rtol=1e-12)


finite_atoms = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=1,
    max_size=30,
)


@st.composite
def samples(draw):
    atoms = draw(finite_atoms)
    weights = draw(
        st.lists(
            # zero is a legal weight; tiny subnormals are excluded so that
            # rescaling by small factors cannot underflow a weight to zero
            st.one_of(
                st.just(0.0), st.floats(min_value=1e-12, max_value=100.0)
            ),
            min_size=len(atoms),
            max_size=len(atoms),
        )
    )
    if sum(weights) <= 0:
        weights[0] = 1.0
    return WeightedSample(np.array(atoms), np.array(weights))


class TestProperties:
    @given(samples(), st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    @settings(max_examples=100, deadline=None)
    def test_cdf_monotone(self, s, y1, y2):
        lo, hi = min(y1, y2), max(y1, y2)
        assert weighted_cdf(s, lo) <= weighted_cdf(s, hi)

    @given(samples(), st.floats(1e-6, 1.0 - 1e-6))
    @settings(max_examples=100, deadline=None)
    def test_quantile_cdf_galois(self, s, q):
        assert weighted_cdf(s, weighted_quantile(s, q)) >= q - 1e-9

    @given(samples(), st.floats(1e-3, 1e3), st.floats(1e-6, 1.0 - 1e-6))
    @settings(max_examples=100, deadline=None)
    def test_weight_scaling_invariance(self, s, k, q):
        scaled = WeightedSample(s.atoms, s.weights * k)
        assert weighted_quantile(s, q) == weighted_quantile(scaled, q)
        assert weighted_cdf(s, 0.0) == pytest.approx(
            weighted_cdf(scaled, 0.0), abs=1e-12
        )

    @given(samples(), samples())
    @settings(max_examples=100, deadline=None)
    def test_distance_symmetric_nonnegative(self, s1, s2):
        d12 = kolmogorov_distance(s1, s2)
        assert d12 >= 0.0
        assert d12 == pytest.approx(kolmogorov_distance(s2, s1), abs=1e-15)

    @given(samples())
    @settings(max_examples=50, deadline=None)
    def test_zero_weight_atoms_ignored(self, s):
        atoms = np.concatenate([s.atoms, [1e7]])
        weights = np.concatenate([s.weights, [0.0]])
        padded = WeightedSample(atoms, weights)
        assert kolmogorov_distance(s, padded) == 0.0
        assert weighted_quantile(s, 0.5) == weighted_quantile(padded, 0.5)
