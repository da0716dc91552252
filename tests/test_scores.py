"""Tests for the bisquare score."""

import ast
import importlib
import inspect
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robmarg
from robmarg import (
    LOCATION_BISQUARE_C,
    SCALE_B_TARGET,
    SCALE_BISQUARE_C0,
    ScoreFamily,
    location_bisquare,
    scale_bisquare,
)


class TestValidation:
    def test_nonpositive_c(self):
        for c in (0.0, -1.0):
            with pytest.raises(ValueError, match="positive"):
                ScoreFamily(c)


class TestBisquare:
    def test_origin(self):
        # Taylor expansion of 3t^2 - 3t^4 + t^6 at t = u/c:
        # rho(0) = 0, psi(0) = 0, psi'(0) = 6/c^2
        for c in (1.0, 2.5, 4.685):
            sf = ScoreFamily(c)
            assert (sf.rho(0.0), sf.psi(0.0), sf.psi_prime(0.0)) == (
                0.0, 0.0, pytest.approx(6.0 / c**2)
            )

    def test_interior_value(self):
        # c=1, u=0.5: 3(0.25) - 3(0.0625) + 0.015625 = 0.578125
        sf = ScoreFamily(1.0)
        assert sf.rho(0.5) == pytest.approx(0.578125, abs=1e-15)

    def test_saturation(self):
        sf = ScoreFamily(4.685)
        for u in (10.0, -10.0):
            assert (sf.rho(u), sf.psi(u), sf.psi_prime(u)) == (1.0, 0.0, 0.0)
        assert sf.rho(4.685) == 1.0

    def test_bounded_between_zero_and_one(self):
        sf = location_bisquare()
        u = np.linspace(-30, 30, 1501)
        r = sf.rho(u)
        assert np.all(r >= 0.0) and np.all(r <= 1.0)
        assert np.all(r[np.abs(u) >= sf.c] == 1.0)


def ref_rho(sf, u):
    """rho as one expression, the form ``ScoreFamily.rho`` had before it
    was evaluated in place."""
    u = np.asarray(u, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        t2 = (u / sf.c) ** 2
        out = np.where(t2 < 1.0, t2 * (3.0 + t2 * (t2 - 3.0)), 1.0)
    return float(out) if np.ndim(u) == 0 else out


_TUNINGS = (LOCATION_BISQUARE_C, SCALE_BISQUARE_C0, 1.0)
# Each tuning's edge values: +-0, +-c and their neighbours, the extremes of
# the doubles, subnormals and the non-finite values.
_EDGES = sorted({
    v for c in _TUNINGS for a in (c, -c)
    for v in (a, np.nextafter(a, np.inf), np.nextafter(a, -np.inf))
} | {0.0, 1e308, -1e308, 5e-324, -5e-324, 2.5e-310, -2.5e-310,
     2.2250738585072014e-308, np.inf, -np.inf}) + [-0.0, np.nan]
_VALUES = st.one_of(st.sampled_from(_EDGES), st.floats(width=64))


def _same(got, want):
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(c=st.sampled_from(_TUNINGS),
       shape=st.sampled_from(["scalar", "0-d", "list", "1-d", "2-d"]),
       values=st.lists(_VALUES, min_size=1, max_size=12))
def test_rho_in_place_matches_one_expression(c, shape, values):
    """rho evaluated in place is bit for bit the one-expression rho, with
    the same return type, for every kind of input it takes."""
    sf = ScoreFamily(c)
    u = {"scalar": values[0], "0-d": np.array(values[0]), "list": values,
         "1-d": np.array(values),
         "2-d": np.array(values * 2).reshape(2, -1)}[shape]
    _same(sf.rho(u), ref_rho(sf, u))


def test_rho_in_place_matches_one_expression_on_heavy_tails():
    u = np.random.default_rng(2).standard_t(2, 100_000)
    for c in _TUNINGS:
        sf = ScoreFamily(c)
        _same(sf.rho(u), ref_rho(sf, u))
        _same(sf.rho(u / 7.0), ref_rho(sf, u / 7.0))


class TestPresets:
    def test_registry_constants(self):
        assert LOCATION_BISQUARE_C == 4.685
        assert SCALE_BISQUARE_C0 == 1.54764
        assert SCALE_B_TARGET == 0.5
        assert location_bisquare() == ScoreFamily(4.685)
        assert scale_bisquare() == ScoreFamily(1.54764)

    def test_location_score_is_dominated_by_scale_score(self):
        # rho_c(u) = rho*(u/c) falls as c grows, so the fixed tunings,
        # c = 4.685 >= c0 = 1.54764, give rho(u) <= rho0(u) for every u: the
        # pairing that standardizes the M-location by the S-scale.
        u = np.linspace(0.0, 2.0 * LOCATION_BISQUARE_C, 2001)
        assert np.all(location_bisquare().rho(u) <= scale_bisquare().rho(u))


@pytest.mark.parametrize(
    "sf",
    [location_bisquare(), scale_bisquare()],
    ids=lambda sf: f"bisquare-{sf.c}",
)
class TestSymmetry:
    def test_rho_even(self, sf):
        u = np.linspace(-2 * sf.c, 2 * sf.c, 1000)
        assert np.array_equal(sf.rho(u), sf.rho(-u))

    def test_psi_odd(self, sf):
        u = np.linspace(-2 * sf.c, 2 * sf.c, 1000)
        np.testing.assert_allclose(sf.psi(u), -sf.psi(-u), atol=0.0)

    def test_rho_nondecreasing_in_abs_u(self, sf):
        u = np.linspace(0.0, 3 * sf.c, 1000)
        assert np.all(np.diff(sf.rho(u)) >= -1e-15)


@pytest.mark.parametrize(
    "sf",
    [location_bisquare(), scale_bisquare()],
    ids=lambda sf: f"bisquare-{sf.c}",
)
def test_psi_matches_rho_derivative(sf):
    h = 1e-5
    u = np.linspace(-2 * sf.c, 2 * sf.c, 1000)
    fd = (sf.rho(u + h) - sf.rho(u - h)) / (2 * h)
    assert np.max(np.abs(sf.psi(u) - fd)) < 1e-6


@pytest.mark.parametrize(
    "sf",
    [location_bisquare(), scale_bisquare()],
    ids=lambda sf: f"bisquare-{sf.c}",
)
def test_irwls_weight_is_psi_over_u(sf):
    u = np.concatenate([np.linspace(-3 * sf.c, 3 * sf.c, 999), [1e-9]])
    u = u[u != 0.0]
    np.testing.assert_allclose(sf.weight(u), sf.psi(u) / u, rtol=1e-10)
    assert sf.weight(0.0) == pytest.approx(sf.psi_prime(0.0))


_BUILDERS = ("ScoreFamily", "location_bisquare", "scale_bisquare")


def test_scores_are_built_once_and_taken_by_no_function():
    """The bisquares and the MAD's 0.6745 live in ``robmarg.scores`` alone:
    no module-level function of the package takes a score, and outside
    scores.py no module builds one or writes the constant."""
    package = os.path.dirname(robmarg.__file__)
    names = sorted(f[:-3] for f in os.listdir(package) if f.endswith(".py"))
    assert "scores" in names and "scaleloc" in names
    for name in names:
        module = (robmarg if name == "__init__"
                  else importlib.import_module(f"robmarg.{name}"))
        for fn in vars(module).values():
            if not (inspect.isfunction(fn)
                    and fn.__module__ == module.__name__):
                continue
            for p in inspect.signature(fn).parameters.values():
                assert "ScoreFamily" not in str(p.annotation), (name, fn)
                assert not isinstance(p.default, ScoreFamily), (name, fn)
        if name == "scores":
            continue
        with open(os.path.join(package, name + ".py"),
                  encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = getattr(func, "id", getattr(func, "attr", None))
                assert called not in _BUILDERS, (name, node.lineno)
            if isinstance(node, ast.Constant):
                assert node.value != 0.6745, (name, node.lineno)


def test_scores_are_evaluated_only_in_scores_module():
    """No module but scores.py reads a score's tuning constant ``c``, so
    none can evaluate a bisquare but through its methods."""
    package = os.path.dirname(robmarg.__file__)
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name == "scores.py":
            continue
        with open(os.path.join(package, name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            reads_c = isinstance(node, ast.Attribute) and node.attr == "c"
            assert not reads_c, (name, node.lineno)
