import numpy as np
import pytest

from maslab.errors import ConfigurationError, DataError
from maslab.grid import (AnalyticField, GridFunction, constant_rule,
                         gaussian_rule, halfspace_rule, indicator_box_rule,
                         make_rule, tensor_points, zero_rule)


def _ramp(p):
    return 2.0 * p[:, 0] + 1.0


def test_interpolation_exact_on_affine():
    u = GridFunction.from_callable([-1], [1], 0.125, _ramp, zero_rule())
    xs = np.linspace(-0.99, 0.99, 37)[:, None]
    assert np.allclose(u.eval(xs), _ramp(xs), atol=1e-13)


def test_nodes_reproduced_exactly():
    u = GridFunction.from_callable([-1, -1], [1, 1], 0.25,
                                   lambda p: np.sin(p[:, 0]) + p[:, 1] ** 2,
                                   zero_rule())
    pts = u.points()
    assert np.allclose(u.eval(pts), u.values.ravel(), atol=0.0)


def test_inside_matches_rowwise_reference(rng):
    # per-column test against the former np.all over the (N, dim) comparison,
    # with points on and just beyond the 1e-12 margin
    for lo, hi in (([-1.0], [1.0]), ([-1.0, -0.5], [1.0, 2.0])):
        u = GridFunction.from_callable(lo, hi, 0.5, lambda p: np.zeros(p.shape[0]),
                                       zero_rule())
        pts = rng.uniform(-2.5, 2.5, size=(4000, len(lo)))
        edge = np.array([lo, hi])
        pts[:8] = edge[rng.integers(2, size=(8, len(lo))), np.arange(len(lo))]
        pts[8:16] = pts[:8] + rng.choice([-2e-12, -5e-13, 5e-13, 2e-12], size=(8, len(lo)))
        want = np.all((pts >= u.lo - 1e-12) & (pts <= u.hi + 1e-12), axis=1)
        assert np.array_equal(u.inside(pts), want)


def test_tensor_points_row_major():
    ax0, ax1 = np.linspace(-1.0, 1.0, 3), np.arange(0.0, 0.5, 0.25)
    assert np.array_equal(tensor_points([ax0]), ax0[:, None])
    pts = tensor_points([ax0, ax1])
    assert pts.shape == (6, 2)
    assert np.array_equal(pts[:2], [[-1.0, 0.0], [-1.0, 0.25]])
    assert np.array_equal(pts[-1], [1.0, 0.25])


def test_exterior_rule_applies_outside():
    u = GridFunction.from_callable([-1], [1], 0.5, lambda p: np.zeros(len(p)),
                                   constant_rule(7.0))
    assert u.eval([[2.0]])[0] == 7.0
    assert u.eval([[0.5]])[0] == 0.0


def test_sup_bound_covers_exterior():
    u = GridFunction.from_callable([-1], [1], 0.5, lambda p: np.zeros(len(p)),
                                   constant_rule(7.0))
    assert u.sup_bound == 7.0


def test_nonfinite_values_rejected():
    with pytest.raises(DataError):
        GridFunction([-1], [1], np.array([0.0, np.nan, 1.0]), zero_rule())


def test_rules_catalog():
    assert make_rule("constant", [3.0])([[9.0]])[0] == 3.0
    g = make_rule("halfspace", [0, 1.0, 2.0])
    assert g(np.array([[1.5], [0.5]])).tolist() == [2.0, 0.0]
    box = indicator_box_rule([0.0], [1.0], 5.0)
    assert box(np.array([[0.5], [2.0]])).tolist() == [5.0, 0.0]
    with pytest.raises(ConfigurationError):
        make_rule("nope")


def test_gaussian_rule_bounded():
    g = gaussian_rule(2.0, 1.0)
    assert g(np.array([[50.0]]))[0] == 0.0
    assert g.sup_bound == 2.0


def test_analytic_field_eval():
    f = AnalyticField("sq", lambda p: p[:, 0] ** 2, 4.0, 1)
    assert f.eval([[1.5]])[0] == 2.25
