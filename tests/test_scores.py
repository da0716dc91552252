"""Tests for the bisquare score."""

import ast
import importlib
import inspect
import os

import numpy as np
import pytest

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
