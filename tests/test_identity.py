"""Containers of arrays compare by identity and hash: ``==`` between two
equal copies gives a bool instead of asking numpy for an array's truth
value."""

import numpy as np
import pytest

from robmarg.propensity import fit_logistic
from robmarg.regression import MODELS, fit_mm
from robmarg.simulation import generate_sample
from robmarg.weighted import WeightedSample


def _make(kind):
    data, truth = generate_sample(100, 1)
    return {
        "WeightedSample": lambda: WeightedSample(np.arange(3.0), np.ones(3)),
        "ObservedDataset": lambda: data,
        "TruthRecord": lambda: truth,
        "RegressionFit": lambda: fit_mm(MODELS["linear"], data, seed=0),
        "PropensityFit": lambda: fit_logistic(data.z, data.delta),
    }[kind]()


@pytest.mark.parametrize("kind", ["WeightedSample", "ObservedDataset",
                                  "TruthRecord", "RegressionFit",
                                  "PropensityFit"])
def test_equal_copies_compare_by_identity(kind):
    a = _make(kind)
    b = _make(kind)
    assert type(a).__name__ == kind
    assert a == a
    assert (a == b) is False and (a != b) is True
    assert hash(a) == hash(a)
    assert len({a, b}) == 2
