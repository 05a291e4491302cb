"""Tests of the exact exit-probability reference (run: pytest perfbench)."""

import numpy as np
import pytest
from scipy import special

from exact import exit_right_probability

SIGMAS = (0.8, 1.5, 1.9)


@pytest.mark.parametrize("sigma", SIGMAS)
def test_centre_is_one_half(sigma):
    assert exit_right_probability(0.0, sigma) == pytest.approx(0.5, abs=1e-10)


@pytest.mark.parametrize("sigma", SIGMAS)
def test_reflection_symmetry(sigma):
    for x in (0.1, 0.37, 0.6, 0.95):
        total = exit_right_probability(x, sigma) + exit_right_probability(-x, sigma)
        assert total == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("sigma", SIGMAS)
def test_increasing_in_x(sigma):
    xs = np.linspace(-0.99, 0.99, 41)
    p = np.array([exit_right_probability(x, sigma) for x in xs])
    assert np.all(np.diff(p) > 0)
    assert 0.0 < p[0] and p[-1] < 1.0


@pytest.mark.parametrize("sigma", SIGMAS)
def test_matches_beta_law(sigma):
    # the same law in closed form: I_{(1+x)/2}(sigma/2, sigma/2)
    for x in (-0.8, -0.25, 0.4, 0.9):
        exact = special.betainc(sigma / 2, sigma / 2, (1.0 + x) / 2.0)
        assert exit_right_probability(x, sigma) == pytest.approx(exact, abs=1e-10)


def test_rejects_points_outside():
    with pytest.raises(ValueError):
        exit_right_probability(1.0, 1.5)
