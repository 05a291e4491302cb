import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from dataclasses import replace

from maslab import solver
from maslab.errors import ConfigurationError
from maslab.grid import (GridFunction, callable_rule, constant_rule, gaussian_rule,
                         halfspace_rule, indicator_box_rule, zero_rule)
from maslab.kernels import (KernelSpec, checkerboard_rule, extremal, isaacs_apply,
                            linear_apply, lower_rule, make_kernel_rule,
                            midpoint_rule, operator_values, upper_rule)
from maslab.solver import DiscreteProblem, comparison_check, solve


def test_zero_data_zero_solution(iso1):
    spec = KernelSpec(1.0, 2.0, 1.5, "extremal_plus")
    prob = DiscreteProblem(iso1, spec, [-1], [1], 1 / 32, zero_rule())
    u, rep = solve(prob)
    assert rep.converged
    assert np.abs(u.values).max() == 0.0


def test_constant_data_constant_solution(iso1):
    spec = KernelSpec(1.0, 2.0, 1.5, "extremal_minus")
    prob = DiscreteProblem(iso1, spec, [-1], [1], 1 / 32, constant_rule(3.0),
                           "extremal_minus")
    u, rep = solve(prob)
    assert rep.converged
    assert np.abs(u.values - 3.0).max() < 1e-10


def test_dirichlet_symmetry(iso1):
    spec = KernelSpec(1.0, 1.0, 1.5, "extremal_plus")
    prob = DiscreteProblem(iso1, spec, [-1], [1], 1 / 64, halfspace_rule(0, 1.0))
    u, rep = solve(prob)
    assert rep.converged
    assert rep.method == "policy+polish"
    assert rep.details["fallback_sweeps"] == 0
    assert float(u.eval([0.0])[0]) == pytest.approx(0.5, abs=1e-10)
    assert np.all(np.diff(u.values) > -1e-12)  # monotone profile


def test_iteration_map_monotone(iso1, rng):
    spec = KernelSpec(1.0, 2.0, 1.9, "extremal_plus")
    prob = DiscreteProblem(iso1, spec, [-1], [1], 1 / 24,
                           indicator_box_rule([1.5], [2.0], 1.0))
    f = np.zeros(prob.P)
    for _ in range(25):
        a = rng.normal(size=prob.N)
        b = a + np.abs(rng.normal(size=prob.N))
        assert np.all(prob.iterate(a, f) <= prob.iterate(b, f) + 1e-12)


def test_residual_nonincreasing_explicit(iso1):
    spec = KernelSpec(1.0, 2.0, 1.5, "extremal_minus")
    prob = DiscreteProblem(iso1, spec, [-1], [1], 1 / 32,
                           indicator_box_rule([1.1], [1.6], 1.0), "extremal_minus")
    u = prob.data_values()
    f = np.zeros(prob.P)
    res = [prob.residual(u, f)]
    for _ in range(40):
        u = prob.iterate(u, f)
        res.append(prob.residual(u, f))
    assert all(res[i + 1] <= res[i] * (1 + 1e-12) for i in range(len(res) - 1))


def test_explicit_method_converges_small(iso1):
    spec = KernelSpec(1.0, 1.0, 0.8, "extremal_plus")
    prob = DiscreteProblem(iso1, spec, [-1], [1], 1 / 16, halfspace_rule(0, 1.0))
    u_exp, rep_exp = solve(prob, method="explicit", tolerance=1e-8, max_iter=20000)
    u_pol, rep_pol = solve(prob, tolerance=1e-10)
    assert rep_exp.converged
    assert np.abs(u_exp.values - u_pol.values).max() < 1e-6


def test_grid_convergence_reported(iso1):
    spec = KernelSpec(1.0, 1.0, 1.5, "extremal_plus")
    sols = []
    for h in (1 / 32, 1 / 64, 1 / 128):
        prob = DiscreteProblem(iso1, spec, [-1], [1], h, halfspace_rule(0, 1.0))
        u, _ = solve(prob)
        sols.append(u)
    d1 = np.abs(sols[1].eval(sols[0].points()) - sols[0].values.ravel()).max()
    d2 = np.abs(sols[2].eval(sols[1].points()) - sols[1].values.ravel()).max()
    gamma_obs = np.log2(d1 / d2)
    assert gamma_obs > 0  # reported, not asserted against a target


def test_solve_perturbed_potential(perturbed1):
    spec = KernelSpec(1.0, 2.0, 1.5, "extremal_plus")
    prob = DiscreteProblem(perturbed1, spec, [-1], [1], 1 / 32,
                           halfspace_rule(0, 1.0))
    u, rep = solve(prob)
    assert rep.converged
    assert 0.0 <= float(u.eval([0.0])[0]) <= 1.0


def test_solve_isaacs_between_extremals(iso1):
    g = indicator_box_rule([1.2], [1.8], 1.0)
    spec = KernelSpec(1.0, 2.0, 1.5, "fixed_midpoint")
    fams = [["lower", "midpoint"], ["upper"]]
    prob_i = DiscreteProblem(iso1, spec, [-1], [1], 1 / 32, g, "isaacs",
                             families=[[make_kernel_rule(r, spec) for r in b]
                                       for b in fams])
    u_i, rep_i = solve(prob_i)
    prob_p = DiscreteProblem(iso1, spec, [-1], [1], 1 / 32, g, "extremal_plus")
    prob_m = DiscreteProblem(iso1, spec, [-1], [1], 1 / 32, g, "extremal_minus")
    ev_p = prob_p.apply(u_i.values.ravel())
    ev_m = prob_m.apply(u_i.values.ravel())
    assert rep_i.converged
    assert np.all(ev_m <= 1e-9)  # M- u <= I u = 0
    assert np.all(ev_p >= -1e-9)


def test_solve_linear_midpoint(iso1):
    spec = KernelSpec(1.0, 2.0, 1.5, "fixed_midpoint")
    prob = DiscreteProblem(iso1, spec, [-1], [1], 1 / 32,
                           halfspace_rule(0, 1.0), "linear",
                           kernel_rule=midpoint_rule(spec))
    u, rep = solve(prob)
    assert rep.converged
    assert float(u.eval([0.0])[0]) == pytest.approx(0.5, abs=1e-9)


def test_domain_mask_holds_data(iso1):
    spec = KernelSpec(1.0, 1.0, 1.2, "extremal_plus")
    hole = indicator_box_rule([-0.05], [0.05], 2.0)
    dom = lambda pts: np.abs(pts[:, 0]) > 0.05
    prob = DiscreteProblem(iso1, spec, [-1], [1], 1 / 64, hole, domain=dom)
    u, rep = solve(prob)
    assert rep.converged
    assert float(u.eval([0.0])[0]) == pytest.approx(2.0)
    assert 0.0 < float(u.eval([0.5])[0]) < 2.0


def test_comparison_pairs(iso1):
    spec = KernelSpec(1.0, 2.0, 1.5, "extremal_plus")
    g_lo = indicator_box_rule([1.2], [1.8], 0.6)
    g_hi = indicator_box_rule([1.2], [1.9], 1.0)
    prob_lo = DiscreteProblem(iso1, spec, [-1], [1], 1 / 32, g_lo)
    prob_hi = DiscreteProblem(iso1, spec, [-1], [1], 1 / 32, g_hi)
    u, _ = solve(prob_lo, f=0.1, tolerance=1e-12)    # Iu = 0.1 >= 0
    v, _ = solve(prob_hi, f=-0.1, tolerance=1e-12)   # Iv = -0.1 <= 0
    rep = comparison_check(prob_lo, u, v, f_sub=0.0, f_super=0.0)
    assert rep["ok"]
    assert rep["mplus_diff_min_margin"] >= -1e-6


def test_comparison_trivial_equal_pair(iso1):
    spec = KernelSpec(1.0, 2.0, 1.5, "extremal_plus")
    g = indicator_box_rule([1.2], [1.8], 1.0)
    prob = DiscreteProblem(iso1, spec, [-1], [1], 1 / 32, g)
    u, _ = solve(prob, f=0.0, tolerance=1e-12)
    rep = comparison_check(prob, u, u, 0.0, 0.0)
    assert rep["ok"] and rep["max_u_minus_v"] == 0.0


def test_comparison_detects_exterior_violation(iso1):
    spec = KernelSpec(1.0, 2.0, 1.5, "extremal_plus")
    g = indicator_box_rule([1.2], [1.8], 1.0)
    prob = DiscreteProblem(iso1, spec, [-1], [1], 1 / 32, g)
    u, _ = solve(prob)
    dom = lambda pts: np.abs(pts[:, 0]) < 0.5
    prob_masked = DiscreteProblem(iso1, spec, [-1], [1], 1 / 32, g, domain=dom)
    hi = u.copy_with(u.values + 1.0)
    with pytest.raises(ConfigurationError):
        comparison_check(prob_masked, hi, u, 0.0, 0.0)


def test_unknown_equation_rejected(iso1):
    spec = KernelSpec(1.0, 2.0, 1.5, "extremal_plus")
    with pytest.raises(ConfigurationError):
        DiscreteProblem(iso1, spec, [-1], [1], 0.5, zero_rule(), "heat")


def test_other_selection_on_compiled_nodes_matches_problem(iso1, rng):
    # comparison_check and l_eps_tail evaluate M+ / M- on another problem's nodes
    spec = KernelSpec(1.0, 2.0, 1.5, "extremal_plus")
    plus = DiscreteProblem(iso1, spec, [-1], [1], 1 / 32, zero_rule())
    minus = DiscreteProblem(iso1, replace(spec, selection="extremal_minus"), [-1], [1],
                            1 / 32, zero_rule(), "extremal_minus")
    u = rng.normal(size=plus.N)
    vals = operator_values(minus.node_deltas(u), minus.COEF, minus.PID, minus.P,
                           minus.spec, "extremal_plus")
    assert np.array_equal(vals, plus.apply(u))


@pytest.mark.parametrize("pot_name", ["perturbed2", "aniso2"])
def test_compiled_operator_matches_pointwise(request, pot_name, rng):
    pot = request.getfixturevalue(pot_name)
    spec = KernelSpec(1.0, 2.0, 1.5, "extremal_plus")
    data = gaussian_rule(1.0, 0.7, [0.3, -0.2])
    rough = checkerboard_rule(spec)
    families = [[lower_rule(spec), rough], [upper_rule(spec), midpoint_rule(spec)]]
    cases = {"extremal_plus": {}, "extremal_minus": {},
             "linear": {"kernel_rule": rough}, "isaacs": {"families": families}}
    values = None
    for equation, kw in cases.items():
        prob = DiscreteProblem(pot, spec, [-1, -1], [1, 1], 1 / 4, data, equation, **kw)
        if values is None:
            values = rng.normal(size=prob.geom.shape)
        u = GridFunction(prob.geom.lo, prob.geom.hi, values, data)
        got = prob.apply(u.values.ravel())
        pts = prob.grid_pts[prob.unknown]
        if equation == "linear":
            want = [linear_apply(u, x, rough, prob.plan) for x in pts]
        elif equation == "isaacs":
            want = [isaacs_apply(u, x, families, prob.plan) for x in pts]
        else:
            want = [extremal(u, x, replace(spec, selection=equation), prob.plan)
                    for x in pts]
        scale = float(np.abs(want).max())
        assert np.abs(got - np.asarray(want)).max() <= 1e-12 * scale, equation


def test_unknown_solve_method_rejected(iso1):
    prob = DiscreteProblem(iso1, KernelSpec(1.0, 2.0, 1.5), [-1], [1], 0.25, zero_rule())
    for method in ("policy", "explict"):
        with pytest.raises(ConfigurationError):
            solve(prob, method=method)


def test_benchmark_hooks_present(iso1, monkeypatch):
    # perfbench wraps these module attributes and reads these node arrays
    calls = []
    for name in ("point_quadrature", "make_plan"):
        original = solver.__dict__[name]

        def counted(*args, _name=name, _f=original, **kwargs):
            calls.append(_name)
            return _f(*args, **kwargs)

        monkeypatch.setattr(solver, name, counted)
    prob = DiscreteProblem(iso1, KernelSpec(1.0, 2.0, 1.5), [-1], [1], 0.25, zero_rule())
    assert set(calls) == {"point_quadrature", "make_plan"}
    for attr in ("PID", "COEF", "CONST", "WBAR", "CROW", "CCOL", "CW"):
        assert isinstance(getattr(prob, attr), np.ndarray), attr
    assert prob._mults is None
    assert prob.Jtot == prob.COEF.size


def test_max_iter_exceeded_returns_best_iterate(iso1):
    spec = KernelSpec(1.0, 2.0, 1.9, "extremal_plus")
    prob = DiscreteProblem(iso1, spec, [-1], [1], 1 / 32,
                           indicator_box_rule([1.1], [1.5], 1.0))
    u, rep = solve(prob, method="explicit", tolerance=1e-14, max_iter=5)
    assert not rep.converged
    assert rep.iterations == 5
    assert np.all(np.isfinite(u.values))
    assert rep.method == "explicit"
    assert rep.details["fallback_sweeps"] == 0
    assert rep.details["linear_solver"] == "none"
    assert rep.details["factorizations"] == rep.details["krylov_iterations"] == 0
    assert rep.details["policy_residuals"] == []


def test_explicit_fallback_is_reported(iso1):
    # a tolerance below roundoff stalls the policy iteration; the explicit
    # sweeps that follow are the path taken, and each is counted
    spec = KernelSpec(1.0, 2.0, 1.9, "extremal_plus")
    prob = DiscreteProblem(iso1, spec, [-1], [1], 1 / 32,
                           indicator_box_rule([1.1], [1.5], 1.0))
    u, rep = solve(prob, tolerance=1e-30, max_iter=7)
    assert not rep.converged
    assert rep.method == "policy+explicit"
    assert rep.details["fallback_sweeps"] == 7
    assert rep.iterations > 7
    assert np.all(np.isfinite(u.values))


def test_solve_2d_symmetry_and_bounds(iso2):
    # symmetric exterior data on a symmetric 2D box: solution symmetric,
    # bounded by the data, and the center value mirrors across the family
    from maslab.grid import callable_rule
    g = callable_rule("ring", lambda p: ((p * p).sum(axis=1) >= 4.0).astype(float),
                      1.0)
    spec = KernelSpec(1.0, 1.0, 1.2, "extremal_plus")
    prob = DiscreteProblem(iso2, spec, [-1, -1], [1, 1], 1 / 12, g)
    u, rep = solve(prob)
    assert rep.converged
    vals = u.values
    assert np.allclose(vals, vals[::-1, :], atol=1e-9)
    assert np.allclose(vals, vals[:, ::-1], atol=1e-9)
    assert np.allclose(vals, vals.T, atol=1e-9)
    assert np.all((vals >= -1e-12) & (vals <= 1.0 + 1e-12))


def test_solve_2d_perturbed_smoke(perturbed2):
    from maslab.grid import callable_rule
    g = callable_rule("ring", lambda p: ((p * p).sum(axis=1) >= 4.0).astype(float),
                      1.0)
    spec = KernelSpec(1.0, 2.0, 1.5, "extremal_plus")
    prob = DiscreteProblem(perturbed2, spec, [-1, -1], [1, 1], 1 / 8, g)
    u, rep = solve(prob)
    assert rep.converged
    assert np.all((u.values >= -1e-12) & (u.values <= 1.0 + 1e-12))


def _direct_reference(prob, f, tolerance):
    """Policy iteration with a fresh scipy.linalg.solve per step on the matrix
    built from COO triplets (the inner solve the Krylov path replaces), the
    same residual test and the same three polish sweeps."""
    f_vals = np.full(prob.P, float(f))
    u = prob.data_values()
    prev, steps = np.inf, 0
    for _ in range(40):
        a = prob.COEF * prob.node_slopes(prob.node_deltas(u))
        M = sp.coo_matrix((a[prob.CROW] * prob.CW, (prob.PID[prob.CROW], prob.CCOL)),
                          shape=(prob.P, prob.N)).toarray()
        M[np.arange(prob.P), prob.unknown] -= 2.0 * np.bincount(prob.PID, weights=a,
                                                                minlength=prob.P)
        rhs = (f_vals - np.bincount(prob.PID, weights=a * prob.CONST, minlength=prob.P)
               - M[:, prob.data_idx] @ u[prob.data_idx])
        u = u.copy()
        u[prob.unknown] = scipy.linalg.solve(M[:, prob.unknown], rhs)
        steps += 1
        res = prob.residual(u, f_vals)
        if res <= max(tolerance, 1e-14) or (res >= 0.5 * prev and steps > 3):
            break
        prev = res
    for _ in range(3):
        u = prob.iterate(u, f_vals)
    return u, steps


def _krylov_cases(request):
    iso1 = request.getfixturevalue("iso1")
    mid = KernelSpec(1.0, 2.0, 1.5, "fixed_midpoint")
    ring = callable_rule("ring", lambda p: ((p * p).sum(axis=1) >= 4.0).astype(float),
                         1.0)
    return {
        "1d_plus": (lambda: DiscreteProblem(
            iso1, KernelSpec(1.0, 2.0, 1.9, "extremal_plus"), [-1], [1], 1 / 64,
            indicator_box_rule([1.1], [1.5], 1.0)), 0.0),
        "2d_aniso_minus": (lambda: DiscreteProblem(
            request.getfixturevalue("aniso2"), KernelSpec(1.0, 2.0, 1.5, "extremal_minus"),
            [-1, -1], [1, 1], 1 / 8, gaussian_rule(1.0, 0.7, [0.3, -0.2]),
            "extremal_minus"), 0.0),
        "2d_perturbed_plus": (lambda: DiscreteProblem(
            request.getfixturevalue("perturbed2"), KernelSpec(1.0, 2.0, 1.5),
            [-1, -1], [1, 1], 1 / 8, ring), 0.0),
        "isaacs": (lambda: DiscreteProblem(
            iso1, mid, [-1], [1], 1 / 64, indicator_box_rule([1.2], [1.8], 1.0), "isaacs",
            families=[[make_kernel_rule(r, mid) for r in b]
                      for b in [["lower", "midpoint"], ["upper"]]]), -0.5),
        # the hole's data columns go to the right-hand side
        "hole": (lambda: DiscreteProblem(
            iso1, KernelSpec(1.0, 2.0, 1.2), [-1], [1], 1 / 64,
            indicator_box_rule([-0.05], [0.05], 2.0),
            domain=lambda p: np.abs(p[:, 0]) > 0.05), 0.3),
    }


@pytest.mark.parametrize("case", ["1d_plus", "2d_aniso_minus", "2d_perturbed_plus",
                                  "isaacs", "hole"])
def test_krylov_path_matches_direct_reference(request, case):
    make, f = _krylov_cases(request)[case]
    prob = make()
    assert np.all(np.diff(prob.CROW) >= 0)       # node-major triplets
    u, rep = solve(prob, f=f, tolerance=1e-10)
    want, steps = _direct_reference(prob, f, 1e-10)
    d = rep.details
    assert rep.converged and rep.method == "policy+polish"
    assert d["linear_solver"] == "lu+gmres" and d["krylov_iterations"] > 0
    assert d["factorizations"] == 1
    assert len(d["policy_residuals"]) == steps
    assert d["policy_residuals"][-1] <= 1e-10
    scale = float(np.abs(want).max())
    assert np.abs(u.values.ravel() - want).max() <= 1e-12 * scale


def test_one_factorization_per_solve(iso1):
    # the criterion-10 kind of solve: M+ with indicator data, several policy
    # steps, every step after the first a Krylov step on the first factor
    spec = KernelSpec(1.0, 2.0, 1.5, "extremal_plus")
    prob = DiscreteProblem(iso1, spec, [-3], [3], 1 / 64,
                           indicator_box_rule([3.1], [4.1], 1.0))
    u, rep = solve(prob)
    d = rep.details
    assert rep.converged
    assert len(d["policy_residuals"]) >= 4
    assert d["factorizations"] == 1 and d["linear_solver"] == "lu+gmres"
    assert rep.iterations == len(d["policy_residuals"]) + 3     # + polish
    assert d["policy_residuals"][-1] <= 1e-10


def test_sparse_lu_branch(iso1, monkeypatch):
    spec = KernelSpec(1.0, 2.0, 1.9, "extremal_plus")
    prob = DiscreteProblem(iso1, spec, [-1], [1], 1 / 64,
                           indicator_box_rule([1.1], [1.5], 1.0))
    u_dense, rep_dense = solve(prob)
    monkeypatch.setattr(solver, "DENSE_MAX", prob.P - 1)
    u, rep = solve(prob)
    assert rep.converged
    assert rep_dense.details["linear_solver"] == "lu+gmres"
    assert rep.details["linear_solver"] == "splu+gmres"
    assert rep.details["factorizations"] == 1
    steps = len(rep_dense.details["policy_residuals"])
    assert len(rep.details["policy_residuals"]) == steps
    assert np.abs(u.values - u_dense.values).max() <= 1e-12 * np.abs(u_dense.values).max()
