"""Tukey's bisquare score: rho, psi = rho', psi' and the IRWLS weight.

rho is written in normalized form, rho_c(u) = rho*(u/c) with rho* of
sup-norm 1, so it saturates at exactly 1 for |u| >= c.  Derivatives are
closed form because the plug-in variance formulas need accurate psi'.  The
package uses two tunings, each built once here and read by every solver:
c = 4.685 for the M-location (and the MM fit's M-step) and c0 = 1.54764
(with b = 0.5) for the S-scale.  Since rho_c(u) = rho*(u/c), another
location tuning c at scale s is the package's at scale s c / 4.685.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ScoreFamily",
    "LOCATION_BISQUARE",
    "SCALE_BISQUARE",
    "location_bisquare",
    "scale_bisquare",
    "LOCATION_BISQUARE_C",
    "SCALE_BISQUARE_C0",
    "SCALE_B_TARGET",
    "NORMAL_MAD",
]

# Constant registry.  The location constant gives the bisquare M-estimator
# 95% efficiency relative to the mean under normality; the scale pair
# (c0, b) gives the bisquare S-scale a 50% breakdown point together with
# consistency for the standard deviation at the normal.
LOCATION_BISQUARE_C = 4.685
SCALE_BISQUARE_C0 = 1.54764
SCALE_B_TARGET = 0.5
# The raw MAD of the standard normal, Phi^-1(3/4) rounded: a MAD divided by
# it is consistent for the standard deviation at the normal.
NORMAL_MAD = 0.6745


def _match(u, out):
    if np.ndim(u) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class ScoreFamily:
    """The bisquare rho-function with tuning constant ``c`` > 0, in
    standardized-residual units, and its derivatives.

    np.where evaluates both branches, so saturation-side overflow for
    extreme u is expected and discarded; each method silences it once.
    """

    c: float

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError("tuning constant c must be positive")

    def rho(self, u):
        """rho* in place: ((t2 - 3) t2 + 3) t2 with t2 = fmin((u/c)^2, 1)."""
        u = np.asarray(u, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            t2 = np.divide(u, self.c, out=np.empty_like(u))
            np.square(t2, out=t2)
            np.fmin(t2, 1.0, out=t2)
            out = np.subtract(t2, 3.0, out=np.empty_like(t2))
            out *= t2
            out += 3.0
            out *= t2
        return _match(u, out)

    def psi(self, u):
        u = np.asarray(u, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            t = u / self.c
            t2 = t * t
            out = np.where(t2 < 1.0, 6.0 * t * (1.0 - t2) ** 2 / self.c, 0.0)
        return _match(u, out)

    def psi_prime(self, u):
        u = np.asarray(u, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            t2 = (u / self.c) ** 2
            out = np.where(
                t2 < 1.0, 6.0 * (1.0 - t2) * (1.0 - 5.0 * t2) / self.c**2, 0.0
            )
        return _match(u, out)

    def weight(self, u):
        """IRWLS weight psi(u)/u, in closed form so that no 0/0 is ever
        evaluated; psi'(0) at u = 0."""
        u = np.asarray(u, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            t2 = (u / self.c) ** 2
            out = np.where(t2 < 1.0, 6.0 * (1.0 - t2) ** 2 / self.c**2, 0.0)
        return _match(u, out)


LOCATION_BISQUARE = ScoreFamily(LOCATION_BISQUARE_C)
SCALE_BISQUARE = ScoreFamily(SCALE_BISQUARE_C0)


def location_bisquare() -> ScoreFamily:
    """Bisquare location preset, c = 4.685."""
    return LOCATION_BISQUARE


def scale_bisquare() -> ScoreFamily:
    """Bisquare S-scale preset, c0 = 1.54764 (pair with b = 0.5)."""
    return SCALE_BISQUARE
