import numpy as np
import pytest

from maslab.errors import ConfigurationError, DataError
from maslab.grid import (AnalyticField, GridFunction, _rows, constant_rule,
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


def _per_corner_stencil(u, pts):
    # the former construction: an int64 base table and a matmul per corner
    rel = (pts - u.lo) / u.h
    base = np.maximum(np.minimum(np.floor(rel).astype(int), np.array(u.shape) - 2), 0)
    frac = rel - base
    strides = np.array([1]) if u.dim == 1 else np.array([u.shape[1], 1])
    idx, wts = [], []
    for corner in range(1 << u.dim):
        offs = np.array([(corner >> (u.dim - 1 - d)) & 1 for d in range(u.dim)])
        idx.append((base + offs) @ strides)
        w = np.ones(pts.shape[0])
        for d in range(u.dim):
            w = w * (frac[:, d] if offs[d] else 1.0 - frac[:, d])
        wts.append(w)
    return np.stack(idx, axis=1), np.stack(wts, axis=1)


@pytest.mark.parametrize("lo, hi, h", [([-1.0], [1.0], 1 / 64),
                                       ([-1.0, 0.0], [1.0, 0.5], 1 / 16)])
def test_interp_weights_int32_match_per_corner_formula(lo, hi, h, rng):
    # column arithmetic in int32 gives the same stencil bit for bit, on a
    # non-square box too, with points on the lower and upper faces (clamped
    # into the last cell) and on interior lattice lines
    u = GridFunction.from_callable(lo, hi, h, lambda p: np.zeros(p.shape[0]), zero_rule())
    n = len(lo)
    pts = rng.uniform(lo, hi, size=(5000, n))
    for d in range(n):
        pts[100 * d:100 * d + 50, d] = lo[d]
        pts[100 * d + 50:100 * d + 100, d] = hi[d]
    pts[400:450] = u.points()[rng.integers(u.values.size, size=50)]
    idx, wts = u.interp_weights(pts)
    want_idx, want_wts = _per_corner_stencil(u, pts)
    assert idx.dtype == np.int32 and idx.shape == (pts.shape[0], 1 << n)
    assert np.array_equal(idx, want_idx)
    assert np.array_equal(wts, want_wts)
    # column-major input, as the compile passes it, changes nothing
    idx_f, wts_f = u.interp_weights(np.asfortranarray(pts))
    assert np.array_equal(idx_f, idx) and np.array_equal(wts_f, wts)


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


@pytest.mark.parametrize("lo, hi, h", [([-1], [1], 0.3), ([-1], [1], 4.0),
                                       ([-1, 0], [1, 1], 0.4), ([-1], [1], -0.5)])
def test_from_callable_needs_a_step_that_divides_every_side(lo, hi, h):
    # h = 0.3 on [-1, 1] would build spacing 2/7, and h = 4 one point per side
    with pytest.raises(ConfigurationError, match="does not divide"):
        GridFunction.from_callable(lo, hi, h, lambda p: np.zeros(len(p)), zero_rule())


def test_from_callable_keeps_a_step_that_divides_every_side():
    u = GridFunction.from_callable([-1, 0], [1, 1], 1 / 3, lambda p: np.zeros(len(p)),
                                   zero_rule())
    assert u.shape == (7, 4) and u.h == pytest.approx(1 / 3, rel=1e-12)


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
    neg = make_rule("halfspace", [0, 1.0, -2.0])(np.array([[1.5], [0.5]]))
    assert neg.tolist() == [-2.0, 0.0] and not np.signbit(neg[1])  # +0.0, not -0.0
    box = indicator_box_rule([0.0], [1.0], 5.0)
    assert box(np.array([[0.5], [2.0]])).tolist() == [5.0, 0.0]
    with pytest.raises(ConfigurationError):
        make_rule("nope")


def test_gaussian_rule_bounded():
    g = gaussian_rule(2.0, 1.0)
    assert g(np.array([[50.0]]))[0] == 0.0
    assert g.sup_bound == 2.0


def test_gaussian_rule_centre_and_width():
    # the flat params are amp, width and one centre coordinate per dimension
    g = make_rule("gaussian", [2.0, 1.0, 0.5, -0.5])
    assert g(np.array([[0.5, -0.5], [1.5, -0.5]])).tolist() == [2.0, 2.0 * np.exp(-1.0)]
    with pytest.raises(ConfigurationError, match="2-dimensional centre"):
        g(np.zeros((1, 1)))
    with pytest.raises(ConfigurationError, match="1-dimensional centre"):
        gaussian_rule(1.0, 1.0, [0.5])(np.zeros((1, 2)))
    # the centre is in the name, which harnack reports key their runs by
    assert g.name == "gaussian(2,1,[0.5, -0.5])"
    assert gaussian_rule(2.0, 1.0).name == "gaussian(2,1)"
    for width in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ConfigurationError, match="width"):
            gaussian_rule(1.0, width)


def test_analytic_field_eval():
    f = AnalyticField("sq", lambda p: p[:, 0] ** 2, 4.0, 1)
    assert f.eval([[1.5]])[0] == 2.25


def test_eval_rejects_points_of_another_dimension():
    # a 2D point with a third coordinate is not dropped silently
    u = GridFunction.from_callable([0, 0], [1, 1], 0.25, lambda p: p.sum(axis=1), zero_rule())
    f = AnalyticField("sum", lambda p: p.sum(axis=1), 2.0, 2)
    for field in (u, f):
        assert field.eval([0.25, 0.5])[0] == pytest.approx(0.75)
        with pytest.raises(ConfigurationError, match="dimension"):
            field.eval([[0.25, 0.5, 99.0]])


def test_rows_select_column_by_column(rng):
    # the rows of pts[mask], bit for bit, in a column-major array, from
    # row-major and column-major points alike
    pts = rng.normal(size=(500, 2))
    mask = rng.uniform(size=500) < 0.4
    for p in (pts, np.asfortranarray(pts)):
        got = _rows(mask, p)
        assert np.array_equal(got, pts[mask])
        assert got.flags.f_contiguous
    assert _rows(np.zeros(500, dtype=bool), pts).shape == (0, 2)
