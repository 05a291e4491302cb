import dataclasses
import re

import numpy as np
import pytest

from maslab import kernels, solver
from maslab.errors import ConfigurationError, KernelClassError
from maslab.grid import (AnalyticField, ExteriorRule, GridFunction, gaussian_rule,
                         halfspace_rule, zero_rule)
from maslab.kernels import (KernelSpec, checkerboard_rule, evaluate, lower_rule,
                            make_plan, midpoint_rule, point_quadrature,
                            rule_multipliers, second_difference, upper_rule)
from maslab.potential import make_potential
from maslab.regularity import kernel_shift_check
from maslab.sections import sphere_measure, unit_directions
from maslab.solver import DiscreteProblem


# ---------------------------------------------------------------------------
# oracles (independent of the package quadrature path)
# ---------------------------------------------------------------------------

def delta_cap_parabola(x, y):
    """delta(u,x,y) for u = max(0, 1-t^2), branch-wise and cancellation-free."""
    xp, xm = x + y, x - y
    up = np.where(np.abs(xp) <= 1, 1 - xp ** 2, 0.0)
    um = np.where(np.abs(xm) <= 1, 1 - xm ** 2, 0.0)
    ux = max(0.0, 1 - x ** 2)
    both_in = (np.abs(xp) <= 1) & (np.abs(xm) <= 1)
    return np.where(both_in, -2.0 * y ** 2, up + um - 2.0 * ux)


def brute_force_cap_parabola(x, sigma, nodes=1_000_000):
    """(2-sigma) int delta * (y^2/2)^{-(1+sigma)/2} dy by log-graded trapezoid
    plus the exact constant-delta tail."""
    y = np.logspace(-60, 8, nodes)
    d = delta_cap_parabola(x, y)
    k = (2 - sigma) * (0.5 * y ** 2) ** (-(1 + sigma) / 2)
    core = 2.0 * np.trapezoid(d * k, y)
    R = 1e8
    tail = 2.0 * (-2.0 * max(0.0, 1 - x ** 2)) * (2 - sigma) \
        * 2 ** ((1 + sigma) / 2) * R ** (-sigma) / sigma
    return core + tail


def brute_force_smooth(ufn, d2fn, d4fn, x, sigma, nodes=1_000_000, split=1e-3):
    """Direct quadrature with closed-form u; the inner [0, split] piece uses
    the exact Taylor expansion of delta to dodge float cancellation."""
    y = np.logspace(np.log10(split), 8, nodes)
    d = ufn(x + y) + ufn(x - y) - 2 * ufn(x)
    k = (2 - sigma) * (0.5 * y ** 2) ** (-(1 + sigma) / 2)
    core = 2.0 * np.trapezoid(d * k, y)
    c = (2 - sigma) * 2 ** ((1 + sigma) / 2)
    inner = 2.0 * c * (d2fn(x) * split ** (2 - sigma) / (2 - sigma)
                       + d4fn(x) / 12.0 * split ** (4 - sigma) / (4 - sigma))
    tail = 2.0 * (-2.0 * ufn(x)) * (2 - sigma) * 2 ** ((1 + sigma) / 2) \
        * 1e8 ** (-sigma) / sigma
    return core + inner + tail


def gauss(t):
    return np.exp(-t ** 2)


def gauss_d2(t):
    return (4 * t ** 2 - 2) * np.exp(-t ** 2)


def gauss_d4(t):
    return (16 * t ** 4 - 48 * t ** 2 + 12) * np.exp(-t ** 2)


# ---------------------------------------------------------------------------
# second differences and heights
# ---------------------------------------------------------------------------

def test_second_difference_affine_zero(iso1):
    aff = ExteriorRule("aff", lambda p: 3 * p[:, 0] - 1, 100.0)
    u = GridFunction.from_callable([-1], [1], 0.125, lambda p: 3 * p[:, 0] - 1, aff)
    assert second_difference(u, [0.25], [0.5])[0] == pytest.approx(0.0, abs=1e-13)


def test_second_difference_quadratic(iso2):
    u = AnalyticField("sq", lambda p: (p ** 2).sum(axis=1), np.inf, 2)
    y = np.array([0.3, -0.4])
    assert second_difference(u, [0.1, 0.2], y)[0] == pytest.approx(2 * (y ** 2).sum())


def test_second_difference_symmetry_exact():
    u = GridFunction.from_callable([-2], [2], 1 / 64,
                                   lambda p: np.sin(3 * p[:, 0]), zero_rule())
    y = np.array([0.3, 0.7, 1.9])
    a = second_difference(u, [0.1], y)
    b = second_difference(u, [0.1], -y)
    assert a.shape == (3,)
    assert np.array_equal(a, b)  # exact, not approximate


def test_second_difference_gaussian_grid(iso1):
    u = GridFunction.from_callable([-2], [2], 4 / 512,
                                   lambda p: np.exp(-(p ** 2).sum(axis=1)),
                                   gaussian_rule(1.0, 1.0))
    got = second_difference(u, [0.0], [0.5])[0]
    assert got == pytest.approx(2 * (np.exp(-0.25) - 1.0), abs=1e-4)


def test_sym_height_reduces_to_quadratic(aniso2):
    y = np.array([[0.3, 0.5]])
    w = aniso2.sym_height(np.array([0.7, -0.1]), y)[0]
    assert w == pytest.approx(0.5 * (4 * 0.09 + 0.25), rel=1e-12)


@pytest.mark.parametrize("name, dim, params, h", [
    ("iso_quadratic", 1, (), 1 / 64), ("iso_quadratic", 2, (), 1 / 8),
    ("aniso_quadratic", 2, [4.0, 0.0, 0.0, 1.0], 1 / 8),
    ("aniso_quadratic", 2, [25.0, 3.0, 3.0, 1.0], 1 / 8)])
def test_sym_height_of_a_quadratic_is_its_shifted_height(name, dim, params, h, rng):
    # sym_height returns w_x(y) alone for quadratics: w(-y) equals w(y) bit
    # for bit and sqrt(w * w) equals w, so the shortcut changes no bit
    pot = make_potential(name, dim, params)
    plan = make_plan(pot, KernelSpec(1.0, 2.0, 1.5), h, 2.0 * np.sqrt(dim))
    pq = point_quadrature(plan, rng.uniform(-1, 1, size=(8, dim)))
    x = np.vstack([pq.x[pq.pid], rng.uniform(-1, 1, size=(1000, dim))])
    y = np.vstack([pq.y, rng.normal(size=(1000, dim)) * 10.0 ** rng.uniform(-6, 6, (1000, 1))])
    want = np.sqrt(pot.shifted_height(x, y) * pot.shifted_height(x, -y))
    assert np.array_equal(pot.sym_height(x, y), want)


# ---------------------------------------------------------------------------
# operator values against the brute-force oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sigma", [0.5, 1.5, 1.9])
def test_extremal_matches_brute_force_cap_parabola(iso1, sigma):
    spec = KernelSpec(1.0, 1.0, sigma)
    u = GridFunction.from_callable([-1], [1], 1 / 256,
                                   lambda p: np.maximum(0, 1 - p[:, 0] ** 2),
                                   zero_rule())
    plan = make_plan(iso1, spec, u.h, 2.0)
    xs = (0.0, 0.25, -0.5)
    vals = evaluate(u, xs, plan, "extremal_plus")
    for x, val in zip(xs, vals):
        oracle = brute_force_cap_parabola(x, sigma, nodes=200_000)
        assert val == pytest.approx(oracle, rel=0.01)


def test_extremal_gaussian_oracle_sigma19(iso1):
    sigma = 1.9
    spec = KernelSpec(1.0, 1.0, sigma)
    u = GridFunction.from_callable([-3], [3], 1 / 256, lambda p: gauss(p[:, 0]),
                                   gaussian_rule(1.0, 1.0))
    plan = make_plan(iso1, spec, u.h, 6.0)
    val = evaluate(u, [0.25], plan, "extremal_plus")[0]
    oracle = brute_force_smooth(gauss, gauss_d2, gauss_d4, 0.25, sigma,
                                nodes=400_000)
    assert val == pytest.approx(oracle, rel=0.01)


def test_sigma_to_two_stability(iso1):
    # values stay bounded by the Hessian scale; no (2-sigma) blow-up
    u = GridFunction.from_callable([-3], [3], 1 / 128, lambda p: gauss(p[:, 0]),
                                   gaussian_rule(1.0, 1.0))
    vals = []
    for sigma in (1.5, 1.9, 1.99):
        spec = KernelSpec(1.0, 2.0, sigma)
        plan = make_plan(iso1, spec, u.h, 6.0)
        vals.append(evaluate(u, [0.0], plan, "extremal_plus")[0])
    assert np.all(np.isfinite(vals))
    assert max(abs(v) for v in vals) < 50.0


# ---------------------------------------------------------------------------
# algebraic invariants (exact tolerances)
# ---------------------------------------------------------------------------

def _random_grid_function(rng, h=1 / 64):
    coef = rng.normal(size=5)
    fn = lambda p: sum(c * np.cos((k + 1) * p[:, 0] + k) for k, c in enumerate(coef))
    return GridFunction.from_callable([-2], [2], h, fn,
                                      gaussian_rule(float(np.abs(coef).sum()), 2.0))


def test_affine_invariance(iso1, rng):
    spec = KernelSpec(1.0, 2.0, 1.5)
    u = _random_grid_function(rng)
    ext = ExteriorRule("aff", lambda p: u.exterior(p) + 3.0 + 2.0 * p[:, 0],
                       u.exterior.sup_bound + 3.0)
    shifted = GridFunction(u.lo, u.hi,
                           u.values + 3.0 + 2.0 * u.points()[:, 0].reshape(u.shape),
                           ext)
    plan = make_plan(iso1, spec, u.h, 4.0)
    xs = np.linspace(-1.5, 1.5, 25)
    a = evaluate(u, xs, plan, "extremal_plus")
    b = evaluate(shifted, xs, plan, "extremal_plus")
    assert b == pytest.approx(a, rel=1e-10, abs=1e-10)


def test_positive_homogeneity_and_sign_symmetry(iso1, rng):
    u = _random_grid_function(rng)
    plan = make_plan(iso1, KernelSpec(1.0, 2.0, 1.5), u.h, 4.0)
    xs = np.linspace(-1.0, 1.0, 11)

    def scaled(c):
        ext = ExteriorRule("s", lambda p, c=c: c * u.exterior(p),
                           abs(c) * u.exterior.sup_bound)
        return GridFunction(u.lo, u.hi, c * u.values, ext)

    for equation, c in (("extremal_plus", 2.5), ("extremal_minus", 0.3)):
        assert evaluate(scaled(c), xs, plan, equation) == pytest.approx(
            c * evaluate(u, xs, plan, equation), rel=1e-10, abs=1e-12)
    assert evaluate(scaled(-1.0), xs, plan, "extremal_plus") == pytest.approx(
        -evaluate(u, xs, plan, "extremal_minus"), rel=1e-10, abs=1e-12)


def test_order_minus_isaacs_plus(iso1, rng):
    spec = KernelSpec(1.0, 2.0, 1.5)
    u = _random_grid_function(rng)
    plan = make_plan(iso1, spec, u.h, 4.0)
    fams = [[lower_rule(spec), midpoint_rule(spec)], [upper_rule(spec)]]
    xs = np.linspace(-1.2, 1.2, 20)
    lo = evaluate(u, xs, plan, "extremal_minus")
    hi = evaluate(u, xs, plan, "extremal_plus")
    mid = evaluate(u, xs, plan, "isaacs", families=fams)
    assert np.all((lo - 1e-12 <= mid) & (mid <= hi + 1e-12))


def test_linear_sandwiched(iso1, rng):
    spec = KernelSpec(1.0, 2.0, 1.5)
    u = _random_grid_function(rng)
    plan = make_plan(iso1, spec, u.h, 4.0)
    rule = midpoint_rule(spec)
    xs = np.linspace(-1.2, 1.2, 15)
    lo = evaluate(u, xs, plan, "extremal_minus")
    hi = evaluate(u, xs, plan, "extremal_plus")
    val = evaluate(u, xs, plan, "linear", kernel_rule=rule)
    assert np.all((lo - 1e-12 <= val) & (val <= hi + 1e-12))


def test_linear_attains_extremal_on_signed_delta(iso1):
    # u concave cap: delta <= 0 everywhere, so the lower-bound kernel gives M+
    spec = KernelSpec(1.0, 2.0, 1.5)
    u = GridFunction.from_callable([-1], [1], 1 / 128,
                                   lambda p: np.maximum(0, 1 - p[:, 0] ** 2),
                                   zero_rule())
    plan = make_plan(iso1, spec, u.h, 2.0)
    val = evaluate(u, [0.0], plan, "linear", kernel_rule=lower_rule(spec))[0]
    mplus = evaluate(u, [0.0], plan, "extremal_plus")[0]
    assert val == pytest.approx(mplus, rel=1e-12)


def test_isaacs_single_family_equals_linear(iso1, rng):
    spec = KernelSpec(1.0, 2.0, 1.5)
    u = _random_grid_function(rng)
    plan = make_plan(iso1, spec, u.h, 4.0)
    rule = midpoint_rule(spec)
    a = evaluate(u, [0.3], plan, "isaacs", families=[[rule]])[0]
    b = evaluate(u, [0.3], plan, "linear", kernel_rule=rule)[0]
    assert a == pytest.approx(b, rel=1e-13)


def test_isaacs_affine_zero(iso1):
    spec = KernelSpec(1.0, 2.0, 1.5)
    aff = ExteriorRule("aff", lambda p: 2 * p[:, 0] + 1, 100.0)
    u = GridFunction.from_callable([-1], [1], 0.125, lambda p: 2 * p[:, 0] + 1, aff)
    plan = make_plan(iso1, spec, u.h, 2.0)
    val = evaluate(u, [0.0], plan, "isaacs", families=[[midpoint_rule(spec)]])[0]
    assert val == pytest.approx(0.0, abs=1e-9)


def test_evaluate_rejects_non_operator_equations(iso1, rng):
    # evaluate takes the solver's equation names and nothing else; the
    # default is M+
    spec = KernelSpec(1.0, 2.0, 1.5)
    u = _random_grid_function(rng)
    plan = make_plan(iso1, spec, u.h, 4.0)
    for equation in ("fixed_midpoint", "bogus"):
        with pytest.raises(ConfigurationError):
            evaluate(u, [0.0], plan, equation)
    with pytest.raises(ConfigurationError):
        evaluate(u, [0.0], plan, "linear")
    xs = np.linspace(-1.0, 1.0, 5)
    assert np.array_equal(evaluate(u, xs, plan), evaluate(u, xs, plan, "extremal_plus"))


@pytest.mark.parametrize("equation, unread", [
    ("extremal_plus", "kernel_rule"), ("isaacs", "kernel_rule"),
    ("extremal_minus", "families"), ("linear", "families")])
def test_a_rule_the_equation_does_not_read_is_refused(iso1, rng, equation, unread):
    # the solver and evaluate dropped such a rule without a word
    spec = KernelSpec(1.0, 2.0, 1.5)
    rule = midpoint_rule(spec)
    given = {"kernel_rule": rule, "families": [[rule]]}
    read = {"linear": "kernel_rule", "isaacs": "families"}.get(equation)
    kw = {k: given[k] for k in (unread, read) if k}
    u = _random_grid_function(rng)
    with pytest.raises(ConfigurationError, match="no other"):
        evaluate(u, [0.0], make_plan(iso1, spec, u.h, 4.0), equation, **kw)
    with pytest.raises(ConfigurationError, match="no other"):
        DiscreteProblem(iso1, spec, [-1], [1], 1 / 8, zero_rule(), equation, **kw)


def test_plan_rays_follow_the_shared_sphere_rule(iso1, iso2):
    # the scheme's rays are the first half of unit_directions at half-step
    # angles, one per antipodal pair: with their negatives they are the whole
    # rule, and each carries its pair's share of the sphere
    spec = KernelSpec(1.0, 2.0, 1.5)
    for pot, rays in ((iso1, 1), (iso2, 8)):
        n = pot.dim
        plan = make_plan(pot, spec, 1 / 16, 4.0)
        full = unit_directions(n, 16, 0.5)
        assert plan.angles.shape == (rays, n)
        assert np.array_equal(plan.angles, full[:rays])
        np.testing.assert_allclose(np.vstack([plan.angles, -plan.angles]), full,
                                   rtol=0.0, atol=1e-15)
        assert plan.ang_weight * rays == pytest.approx(sphere_measure(n), rel=1e-15)


def _full_ray_plan(plan):
    """The plan with a ray along every direction of the rule, antipodes
    included, each with half a pair's weight."""
    n = plan.potential.dim
    dirs = unit_directions(n, 16, 0.5)
    return dataclasses.replace(plan, angles=dirs, ang_weight=sphere_measure(n) / len(dirs))


def _operator_cases(spec):
    rough = checkerboard_rule(spec)
    families = [[lower_rule(spec), rough], [upper_rule(spec), midpoint_rule(spec)]]
    return {"extremal_plus": {}, "extremal_minus": {},
            "linear": {"kernel_rule": rough}, "isaacs": {"families": families}}


@pytest.mark.parametrize("pot_id, dim, params", [
    ("iso_quadratic", 1, []), ("perturbed_quadratic", 1, [0.1]),
    ("iso_quadratic", 2, []), ("aniso_quadratic", 2, [25.0, 3.0, 3.0, 1.0]),
    ("perturbed_quadratic", 2, [0.1])])
def test_half_ray_plan_equals_the_antipodal_sum(pot_id, dim, params, rng):
    # the integrand is even in y, so one ray per antipodal pair with the
    # pair's weight gives every operator of the rule with both rays cast
    pot = make_potential(pot_id, dim, params)
    spec = KernelSpec(1.0, 2.0, 1.5)
    h = 1 / 32 if dim == 1 else 1 / 8
    values = rng.normal(size=(round(2 / h) + 1,) * dim)
    u = GridFunction([-1] * dim, [1] * dim, values, gaussian_rule(1.0, 0.7, [0.3] * dim))
    plan = make_plan(pot, spec, h, 2.0 * np.sqrt(dim))
    full = _full_ray_plan(plan)
    xs = rng.uniform(-0.9, 0.9, size=(20, dim))
    for equation, kw in _operator_cases(spec).items():
        half_vals = evaluate(u, xs, plan, equation, **kw)
        full_vals = evaluate(u, xs, full, equation, **kw)
        np.testing.assert_allclose(half_vals, full_vals, rtol=1e-13,
                                   atol=1e-13 * np.abs(full_vals).max(), err_msg=equation)


def test_half_ray_plan_compiles_the_antipodal_sum(monkeypatch, rng):
    # the same for the compiled grid operator: twins share their pair points,
    # so they are kept or folded together, and with piecewise constant data
    # into the same exterior groups
    pot = make_potential("aniso_quadratic", 2, [25.0, 3.0, 3.0, 1.0])
    spec = KernelSpec(1.0, 2.0, 1.5)
    data = halfspace_rule(0, 1.0)
    values = rng.normal(size=17 * 17)
    for equation, kw in _operator_cases(spec).items():
        problems = []
        for wrap in (lambda plan: plan, _full_ray_plan):
            monkeypatch.setattr(solver, "make_plan",
                                lambda *a, _w=wrap: _w(kernels.make_plan(*a)))
            problems.append(DiscreteProblem(pot, spec, [-1, -1], [1, 1], 1 / 8, data,
                                            equation, **kw))
        half, full = problems
        assert 2 * half.node_counts["quadrature_nodes"] == full.node_counts["quadrature_nodes"]
        assert half.node_counts["exterior_groups"] == full.node_counts["exterior_groups"]
        # the same summed pattern of S; a fixed policy stores every triplet,
        # and each full-ray node's twin repeats its triplets
        pairs = [np.unique(p.PID[p.CROW] * p.N + p.CCOL).size for p in problems]
        assert pairs[0] == pairs[1]
        entries = [p.node_counts["policy_entries"] for p in problems]
        assert entries == ([pairs[0]] * 2 if not half.fixed_policy
                           else [half.CROW.size, 2 * half.CROW.size]), equation
        want = full.apply(values)
        np.testing.assert_allclose(half.apply(values), want, rtol=1e-13,
                                   atol=1e-13 * np.abs(want).max(), err_msg=equation)


def test_isaacs_empty_family_rejected(iso1):
    spec = KernelSpec(1.0, 2.0, 1.5)
    u = _random_grid_function(np.random.default_rng(0))
    plan = make_plan(iso1, spec, u.h, 4.0)
    with pytest.raises(ConfigurationError):
        evaluate(u, [0.0], plan, "isaacs", families=[])


def test_kernel_class_violation_detected(iso1, rng):
    spec = KernelSpec(1.0, 2.0, 1.5)
    u = _random_grid_function(rng)
    plan = make_plan(iso1, spec, u.h, 4.0)
    from maslab.kernels import KernelRule
    bad = KernelRule("bad", lambda x, y, w: 5.0)
    with pytest.raises(KernelClassError):
        evaluate(u, [0.0], plan, "linear", kernel_rule=bad)
    with pytest.raises(KernelClassError):  # the shift certificate read it unchecked
        kernel_shift_check(iso1, spec, bad, 0.5, [[0.05]])


@pytest.mark.parametrize("shape", ["one number", "one per node"])
def test_rule_outside_the_class_is_refused_by_the_compile(iso1, shape):
    # a one-number rule is checked as one number, with the same message
    from maslab.kernels import KernelRule
    spec = KernelSpec(1.0, 2.0, 1.5)
    bad = KernelRule("bad", {"one number": lambda x, y, w: 5.0,
                             "one per node": lambda x, y, w: np.full(y.shape[0], 5.0)}[shape])
    with pytest.raises(KernelClassError,
                       match=re.escape("kernel rule 'bad' leaves [1.0, 2.0] at a node")):
        DiscreteProblem(iso1, spec, [-1], [1], 1 / 8, halfspace_rule(0, 1.0), "linear",
                        kernel_rule=bad)
    y = np.array([[0.3], [0.7]])
    m = rule_multipliers(midpoint_rule(spec), spec, np.zeros(1), y, np.ones(2))
    assert isinstance(m, float) and m == 1.5
    m = rule_multipliers(checkerboard_rule(spec), spec, np.zeros(1), y, np.ones(2))
    assert m.shape == (2,)


def _isaacs_and_extremal_of_difference(u, v, xs, plan):
    """I u, I v, M-(u - v) and M+(u - v) at xs, I being the Isaacs operator
    of the families [lower], [upper] over plan.spec."""
    families = [[lower_rule(plan.spec)], [upper_rule(plan.spec)]]
    w = AnalyticField("u-v", lambda p: u.eval(p) - v.eval(p),
                      u.exterior.sup_bound + v.exterior.sup_bound, u.dim)
    return (evaluate(u, xs, plan, "isaacs", families=families),
            evaluate(v, xs, plan, "isaacs", families=families),
            evaluate(w, xs, plan, "extremal_minus"), evaluate(w, xs, plan, "extremal_plus"))


def test_ellipticity_sandwich(iso1, perturbed1, rng):
    # M-(u - v) <= I u - I v <= M+(u - v) for two unrelated fields
    for pot in (iso1, perturbed1):
        spec = KernelSpec(1.0, 2.0, 1.5)
        u = _random_grid_function(rng)
        v = _random_grid_function(rng)
        plan = make_plan(pot, spec, u.h, 4.0)
        iu, iv, mminus, mplus = _isaacs_and_extremal_of_difference(
            u, v, np.linspace(-1.0, 1.0, 7), plan)
        tol = 1e-6 * np.maximum(1.0, np.abs([iu, iv, mminus, mplus]).max(axis=0))
        assert np.all(mminus - tol <= iu - iv)
        assert np.all(iu - iv <= mplus + tol)


def test_ellipticity_affine_shift_zero(iso1, rng):
    spec = KernelSpec(1.0, 2.0, 1.5)
    u = _random_grid_function(rng)
    ext = ExteriorRule("af", lambda p: u.exterior(p) + 1.0 + 0.5 * p[:, 0],
                       u.exterior.sup_bound + 5.0)
    v = GridFunction(u.lo, u.hi,
                     u.values + 1.0 + 0.5 * u.points()[:, 0].reshape(u.shape), ext)
    plan = make_plan(iso1, spec, u.h, 4.0)
    iu, iv, mminus, mplus = _isaacs_and_extremal_of_difference(u, v, [0.3], plan)
    assert iu[0] - iv[0] == pytest.approx(0.0, abs=1e-9)
    assert mplus[0] == pytest.approx(0.0, abs=1e-9)
    assert mminus[0] == pytest.approx(0.0, abs=1e-9)


def test_extremal_affine_zero(iso1):
    aff = ExteriorRule("aff", lambda p: 4.0 - 3.0 * p[:, 0], 1000.0)
    u = GridFunction.from_callable([-1], [1], 1 / 32, lambda p: 4.0 - 3.0 * p[:, 0], aff)
    plan = make_plan(iso1, KernelSpec(1.0, 2.0, 1.5), u.h, 2.0)
    for equation in ("extremal_plus", "extremal_minus"):
        assert evaluate(u, [0.1], plan, equation)[0] == pytest.approx(0.0, abs=1e-9)


def test_ellipticity_equal_fields_zero(iso1, rng):
    spec = KernelSpec(1.0, 2.0, 1.5)
    u = _random_grid_function(rng)
    plan = make_plan(iso1, spec, u.h, 4.0)
    iu, iv, _, mplus = _isaacs_and_extremal_of_difference(u, u, [0.2], plan)
    assert mplus[0] == pytest.approx(0.0, abs=1e-12)
    assert iu[0] == iv[0]


def test_checkerboard_rule_within_class(iso1):
    spec = KernelSpec(1.0, 2.0, 1.5)
    rule = checkerboard_rule(spec)
    y = np.array([[0.3], [0.7], [2.0]])
    w = iso1.sym_height(np.zeros(1), y)
    m = rule_multipliers(rule, spec, np.zeros(1), y, w)
    assert np.all((m >= 1.0) & (m <= 2.0))


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        KernelSpec(2.0, 1.0, 1.5)
    with pytest.raises(ConfigurationError):
        KernelSpec(1.0, 2.0, 2.5)
    for selection in ("bogus", "table"):      # "table" was never implemented
        with pytest.raises(ConfigurationError):
            KernelSpec(1.0, 2.0, 1.5, selection)


def test_extremal_2d_matches_polar_brute_force(iso2):
    # full polar quadrature of the closed-form kernel with exact u, plus the
    # exact Taylor core below the split radius
    sigma = 1.5
    spec = KernelSpec(1.0, 1.0, sigma)
    u = GridFunction.from_callable([-3, -3], [3, 3], 6 / 192,
                                   lambda p: np.exp(-(p * p).sum(-1)),
                                   gaussian_rule(1.0, 1.0))
    plan = make_plan(iso2, spec, u.h, 8.49)

    def brute2(x, n_ang=360, n_rad=20000, split=1e-3):
        ang = 2 * np.pi * (np.arange(n_ang) + 0.5) / n_ang
        dirs = np.stack([np.cos(ang), np.sin(ang)], -1)
        t = np.logspace(np.log10(split), 7, n_rad)
        uex = lambda p: np.exp(-(p * p).sum(-1))
        total = 0.0
        for d in dirs:
            dd = (uex(x[None, :] + t[:, None] * d[None, :])
                  + uex(x[None, :] - t[:, None] * d[None, :])
                  - 2 * uex(x[None, :]))
            k = (2 - sigma) * (0.5 * t * t) ** (-(2 + sigma) / 2) * t
            total += np.trapezoid(dd * k, t)
        total *= 2 * np.pi / n_ang
        r2 = float((x * x).sum())
        lap = (4 * r2 - 4) * np.exp(-r2)
        # int_{S^1} th^T H th dth = pi tr H; radial core integral in closed form
        core = (2 - sigma) * np.pi * lap * 2 ** ((2 + sigma) / 2) \
            * split ** (2 - sigma) / (2 - sigma)
        return total + core

    x0s = np.array([[0.0, 0.0], [-0.5, 0.25]])
    for x0, val in zip(x0s, evaluate(u, x0s, plan, "extremal_plus")):
        oracle = brute2(x0)
        assert val == pytest.approx(oracle, rel=0.01)


def test_sigma_to_two_local_limit(iso1):
    # as sigma -> 2 the operator approaches the second-order limit
    # 2^{5/2} u''(x) for the isotropic quadratic potential with lam = Lam = 1
    u = GridFunction.from_callable([-3], [3], 6 / 1024, lambda p: gauss(p[:, 0]),
                                   gaussian_rule(1.0, 1.0))
    x0s = np.array([0.0, 0.5])
    for sigma in (1.99, 1.999):
        spec = KernelSpec(1.0, 1.0, sigma)
        plan = make_plan(iso1, spec, u.h, 6.0)
        val = evaluate(u, x0s, plan, "extremal_plus")
        assert val == pytest.approx(2 ** 2.5 * gauss_d2(x0s), rel=0.01)


def test_nonfinite_field_rejected(iso1):
    from maslab.grid import AnalyticField
    from maslab.errors import DataError
    bad = AnalyticField("bad", lambda p: np.where(p[:, 0] > 1.0, np.inf, 0.0),
                        1.0, 1)
    spec = KernelSpec(1.0, 2.0, 1.5)
    plan = make_plan(iso1, spec, 1 / 32, 2.0)
    with pytest.raises(DataError):
        evaluate(bad, [0.0], plan, "extremal_plus")


# ---------------------------------------------------------------------------
# batched node sets
# ---------------------------------------------------------------------------

def _reference_point_quadrature(plan, x):
    """One point's (y, coef, wbar) and near-slice size, built angle by angle
    (the scheme's node order: inner model nodes, then each angle's ring
    panels with lower edge below far_radius; then each angle's remaining
    panels)."""
    pot, sigma = plan.potential, plan.spec.sigma
    n = pot.dim
    G = pot.hessian(x)[0]
    ang, aw = plan.angles, plan.ang_weight
    q = 0.5 * np.einsum("ai,ij,aj->a", ang, G, ang)
    t_in = plan.inner_radius / np.sqrt(q)
    near = [(t_in[:, None] * ang, aw * q ** (-(n + sigma) / 2.0) * t_in ** (-sigma),
             np.full(ang.shape[0], plan.inner_radius ** 2))]
    far = []
    gl_x, gl_w = np.polynomial.legendre.leggauss(plan.ring_nodes)
    for a in range(ang.shape[0]):
        knots = plan.ring_heights / np.sqrt(q[a])
        knots = knots[(knots > t_in[a] * (1 + 1e-12)) & (knots < plan.tail_radius)]
        knots = np.concatenate([[t_in[a]], knots, [plan.tail_radius]])
        for lo, hi in zip(knots[:-1], knots[1:]):
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            t = mid + half * gl_x
            w = half * gl_w
            y = t[:, None] * ang[a]
            wb = pot.sym_height(x, y)
            c = aw * w * t ** (n - 1) * (2.0 - sigma) * wb ** (-(n + sigma) / 2.0)
            (far if lo >= plan.far_radius else near).append((y, c, wb))
    ys, cs, ws = zip(*near, *far)
    return np.vstack(ys), np.concatenate(cs), np.concatenate(ws), \
        sum(c.size for _, c, _ in near)


_BATCH_POINTS = {1: np.array([[-0.9], [0.0], [0.35], [1.0]]),
                 2: np.array([[0.0, 0.0], [0.5, -0.25], [-0.75, 0.9], [1.0, 1.0]])}


@pytest.mark.parametrize("pot_name", ["iso1", "iso2", "aniso2", "perturbed1",
                                      "perturbed2"])
def test_batched_node_sets_match_single_points(request, pot_name):
    pot = request.getfixturevalue(pot_name)
    spec = KernelSpec(1.0, 2.0, 1.5)
    plan = make_plan(pot, spec, 1 / 8, 3.0)
    pts = _BATCH_POINTS[pot.dim]
    batch = point_quadrature(plan, pts)
    singles = [point_quadrature(plan, x) for x in pts]
    # [near | far], each slice point-major
    near = [s.near for s in singles]
    far = [s.coef.size - s.near for s in singles]
    assert min(near) > 0 and min(far) > 0
    assert batch.near == sum(near)
    idx = np.arange(len(pts))
    assert np.array_equal(batch.pid, np.concatenate([np.repeat(idx, near),
                                                     np.repeat(idx, far)]))
    assert np.array_equal(batch.x, pts)
    assert np.array_equal(batch.xj, pts[batch.pid])
    # each point's nodes, selected stably by pid, are its single-point call's
    for i, s in enumerate(singles):
        mine = np.flatnonzero(batch.pid == i)
        for name in ("y", "coef", "wbar"):
            assert np.array_equal(getattr(batch, name)[mine], getattr(s, name)), name
    # exact against the per-angle construction for quadratics; the perturbed
    # height differs only by rounding in its base-point terms
    rtol = 1e-14 if pot.eps else 0.0
    for x, s in zip(pts, singles):
        *want, want_near = _reference_point_quadrature(plan, x)
        assert s.near == want_near
        for got, w in zip((s.y, s.coef, s.wbar), want):
            np.testing.assert_allclose(got, w, rtol=rtol, atol=0.0)


@pytest.mark.parametrize("pot_name", ["iso1", "iso2", "aniso2"])
def test_quadratic_node_sets_shift_invariant(request, pot_name):
    # single-point calls take the general per-point construction: a
    # quadratic's node set is the same numbers at every point, slice by
    # slice, which is what lets a batch repeat its first point's set
    pot = request.getfixturevalue(pot_name)
    spec = KernelSpec(1.0, 2.0, 1.5)
    plan = make_plan(pot, spec, 1 / 8, 3.0)
    first, *rest = [point_quadrature(plan, x) for x in _BATCH_POINTS[pot.dim]]
    assert 0 < first.near < first.coef.size
    for s in rest:
        assert s.near == first.near
        for part in (slice(None, s.near), slice(s.near, None)):
            for name in ("y", "coef", "wbar"):
                assert np.array_equal(getattr(s, name)[part], getattr(first, name)[part])


@pytest.mark.parametrize("pot_id, dim, params", [
    ("iso_quadratic", 1, []), ("aniso_quadratic", 2, [25.0, 3.0, 3.0, 1.0])])
def test_quadratic_batch_evaluates_as_single_points(pot_id, dim, params, rng):
    # a batch repeats its first point's node set; each value equals that of
    # the point's own call, bit for bit, for every operator
    pot = make_potential(pot_id, dim, params)
    spec = KernelSpec(1.0, 2.0, 1.5)
    h = 1 / 32 if dim == 1 else 1 / 8
    values = rng.normal(size=(round(2 / h) + 1,) * dim)
    u = GridFunction([-1] * dim, [1] * dim, values, gaussian_rule(1.0, 0.7, [0.3] * dim))
    plan = make_plan(pot, spec, h, 2.0 * np.sqrt(dim))
    xs = rng.uniform(-0.9, 0.9, size=(40, dim))
    for equation, kw in _operator_cases(spec).items():
        batch = evaluate(u, xs, plan, equation, **kw)
        singles = [evaluate(u, x[None], plan, equation, **kw)[0] for x in xs]
        assert np.array_equal(batch, singles), equation


@pytest.mark.parametrize("pot_name", ["iso1", "aniso2", "perturbed1", "perturbed2"])
def test_heights_of_a_batch(request, pot_name, monkeypatch):
    # a work count, not a time: a quadratic batch takes the heights of one
    # point's nodes, a perturbed batch those of every node
    pot = request.getfixturevalue(pot_name)
    plan = make_plan(pot, KernelSpec(1.0, 2.0, 1.5), 1 / 8, 3.0)
    rows = []
    sym_height = type(pot).sym_height

    def counted(self, x, y):
        rows.append(y.shape[0])
        return sym_height(self, x, y)

    monkeypatch.setattr(type(pot), "sym_height", counted)
    pts = _BATCH_POINTS[pot.dim]
    batch = point_quadrature(plan, pts)
    one = point_quadrature(plan, pts[:1])
    want = one.coef.size if pot.quadratic else batch.coef.size
    assert rows == [want, one.coef.size]
