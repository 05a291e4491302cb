import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy import integrate

from maslab import kernels, solver
from maslab.errors import ConfigurationError, DataError
from maslab.grid import (ExteriorRule, GridFunction, constant_rule, gaussian_rule,
                         halfspace_rule, indicator_box_rule, zero_rule)
from maslab.kernels import (KernelSpec, checkerboard_rule, evaluate, lower_rule,
                            make_kernel_rule,
                            midpoint_rule, operator_values, policy_slopes,
                            rule_multipliers, upper_rule)
from maslab.solver import DiscreteProblem, comparison_check, solve


def test_zero_data_zero_solution(iso1):
    spec = KernelSpec(1.0, 2.0, 1.5)
    prob = DiscreteProblem(iso1, spec, [-1], [1], 1 / 32, zero_rule())
    u, rep = solve(prob)
    assert rep.converged
    assert np.abs(u.values).max() == 0.0


def test_constant_data_constant_solution(iso1):
    spec = KernelSpec(1.0, 2.0, 1.5)
    prob = DiscreteProblem(iso1, spec, [-1], [1], 1 / 32, constant_rule(3.0),
                           "extremal_minus")
    u, rep = solve(prob)
    assert rep.converged
    assert np.abs(u.values - 3.0).max() < 1e-10


def test_dirichlet_symmetry(iso1):
    spec = KernelSpec(1.0, 1.0, 1.5)
    prob = DiscreteProblem(iso1, spec, [-1], [1], 1 / 64, halfspace_rule(0, 1.0))
    u, rep = solve(prob)
    assert rep.converged
    assert rep.details["stop"] == "tolerance"
    assert float(u.eval([0.0])[0]) == pytest.approx(0.5, abs=1e-10)
    assert np.all(np.diff(u.values) > -1e-12)  # monotone profile


def test_policy_matrices_are_monotone(request, rng):
    # the scheme is monotone through the sign structure of every policy
    # matrix S + diag(d): S >= 0, and d + (row sum of S) < 0 at every
    # unknown since kernel mass leaves the box; checked at the data, at
    # the solution and at random iterates
    iso1, mid = request.getfixturevalue("iso1"), KernelSpec(1.0, 2.0, 1.5)
    spec = KernelSpec(1.0, 2.0, 1.5)
    ring = ExteriorRule("ring", lambda p: ((p * p).sum(axis=1) >= 1.0).astype(float), 1.0)
    families = [[lower_rule(mid), checkerboard_rule(mid)], [upper_rule(mid)]]
    problems = [
        DiscreteProblem(iso1, spec, [-1], [1], 1 / 32, indicator_box_rule([-0.1], [0.1], 2.0),
                        domain=lambda p: np.abs(p[:, 0]) > 0.1),
        DiscreteProblem(request.getfixturevalue("aniso2"), spec, [-1, -1], [1, 1], 1 / 8,
                        halfspace_rule(0, 0.0), "extremal_minus"),
        DiscreteProblem(request.getfixturevalue("perturbed2"), mid, [-1, -1], [1, 1], 1 / 8,
                        ring, "isaacs", families=families),
        DiscreteProblem(iso1, mid, [-1], [1], 1 / 32, halfspace_rule(0, 0.0), "linear",
                        kernel_rule=checkerboard_rule(mid)),
    ]
    for prob in problems:
        u, _ = solve(prob)
        iterates = [prob.data_values(), u.values.ravel()]
        iterates += [rng.normal(size=prob.N) for _ in range(3)]
        for v in iterates:
            S, d = prob.assemble(prob.node_slopes(prob.node_deltas(v)))
            assert S.data.min() >= 0.0, prob.equation
            assert np.all(d + np.asarray(S.sum(axis=1)).ravel() < 0.0), prob.equation


def test_grid_convergence_reported(iso1):
    spec = KernelSpec(1.0, 1.0, 1.5)
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
    spec = KernelSpec(1.0, 2.0, 1.5)
    prob = DiscreteProblem(perturbed1, spec, [-1], [1], 1 / 32,
                           halfspace_rule(0, 1.0))
    u, rep = solve(prob)
    assert rep.converged
    assert 0.0 <= float(u.eval([0.0])[0]) <= 1.0


def test_solve_isaacs_between_extremals(iso1):
    g = indicator_box_rule([1.2], [1.8], 1.0)
    spec = KernelSpec(1.0, 2.0, 1.5)
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
    spec = KernelSpec(1.0, 2.0, 1.5)
    prob = DiscreteProblem(iso1, spec, [-1], [1], 1 / 32,
                           halfspace_rule(0, 1.0), "linear",
                           kernel_rule=midpoint_rule(spec))
    u, rep = solve(prob)
    assert rep.converged
    assert float(u.eval([0.0])[0]) == pytest.approx(0.5, abs=1e-9)


def test_domain_mask_holds_data(iso1):
    spec = KernelSpec(1.0, 1.0, 1.2)
    hole = indicator_box_rule([-0.05], [0.05], 2.0)
    dom = lambda pts: np.abs(pts[:, 0]) > 0.05
    prob = DiscreteProblem(iso1, spec, [-1], [1], 1 / 64, hole, domain=dom)
    u, rep = solve(prob)
    assert rep.converged
    assert float(u.eval([0.0])[0]) == pytest.approx(2.0)
    assert 0.0 < float(u.eval([0.5])[0]) < 2.0


def test_comparison_pairs(iso1):
    spec = KernelSpec(1.0, 2.0, 1.5)
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
    spec = KernelSpec(1.0, 2.0, 1.5)
    g = indicator_box_rule([1.2], [1.8], 1.0)
    prob = DiscreteProblem(iso1, spec, [-1], [1], 1 / 32, g)
    u, _ = solve(prob, f=0.0, tolerance=1e-12)
    rep = comparison_check(prob, u, u, 0.0, 0.0)
    assert rep["ok"] and rep["max_u_minus_v"] == 0.0


def test_comparison_detects_exterior_violation(iso1):
    spec = KernelSpec(1.0, 2.0, 1.5)
    g = indicator_box_rule([1.2], [1.8], 1.0)
    prob = DiscreteProblem(iso1, spec, [-1], [1], 1 / 32, g)
    u, _ = solve(prob)
    dom = lambda pts: np.abs(pts[:, 0]) < 0.5
    prob_masked = DiscreteProblem(iso1, spec, [-1], [1], 1 / 32, g, domain=dom)
    hi = GridFunction(u.lo, u.hi, u.values + 1.0, u.exterior)
    with pytest.raises(DataError):  # measured on u and v, not a configuration error
        comparison_check(prob_masked, hi, u, 0.0, 0.0)


def test_unknown_equation_rejected(iso1):
    spec = KernelSpec(1.0, 2.0, 1.5)
    with pytest.raises(ConfigurationError):
        DiscreteProblem(iso1, spec, [-1], [1], 0.5, zero_rule(), "heat")


def test_empty_kernel_family_rejected(iso1):
    spec = KernelSpec(1.0, 2.0, 1.5)
    for families in ([[lower_rule(spec)], []], []):
        with pytest.raises(ConfigurationError):
            DiscreteProblem(iso1, spec, [-1], [1], 0.5, zero_rule(), "isaacs",
                            families=families)


def test_other_selection_on_compiled_nodes_matches_problem(iso1, rng):
    # comparison_check and l_eps_tail evaluate M+ / M- on another problem's nodes
    spec = KernelSpec(1.0, 2.0, 1.5)
    plus = DiscreteProblem(iso1, spec, [-1], [1], 1 / 32, zero_rule())
    minus = DiscreteProblem(iso1, spec, [-1], [1], 1 / 32, zero_rule(), "extremal_minus")
    u = rng.normal(size=plus.N)
    assert np.array_equal(minus.apply(u, "extremal_plus"), plus.apply(u))
    assert np.array_equal(plus.apply(u, "extremal_minus"), minus.apply(u))
    # the other equation is what the comparison and L^eps checks evaluated
    # through kernels.operator_values on the same nodes
    assert np.array_equal(minus.apply(u, "extremal_plus"),
                          operator_values(minus.node_deltas(u), minus.COEF, minus.PID,
                                          minus.P, minus.spec, "extremal_plus"))
    for equation in ("linear", "isaacs", "fixed_midpoint"):
        with pytest.raises(ConfigurationError):
            plus.apply(u, equation)


@pytest.mark.parametrize("pot_name", ["perturbed2", "aniso2"])
def test_compiled_operator_matches_pointwise(request, pot_name, rng):
    pot = request.getfixturevalue(pot_name)
    spec = KernelSpec(1.0, 2.0, 1.5)
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
        want = evaluate(u, pts, prob.plan, equation, **kw)
        scale = float(np.abs(want).max())
        assert np.abs(got - want).max() <= 1e-12 * scale, equation


@pytest.mark.parametrize("pot_name, h", [("perturbed1", 1 / 16), ("perturbed2", 1 / 4)])
def test_batched_operators_equal_single_point_calls(request, pot_name, h, rng,
                                                    monkeypatch):
    # k points in, k values out, each bit-equal to the point's own call; each
    # point's nodes are its own, so node blocks change no value either, of
    # the pointwise operators or of the compiled apply
    pot = request.getfixturevalue(pot_name)
    n = pot.dim
    spec = KernelSpec(1.0, 2.0, 1.5)
    data = gaussian_rule(1.0, 0.7, [0.3, -0.2][:n])
    rough = checkerboard_rule(spec)
    families = [[lower_rule(spec), rough], [upper_rule(spec), midpoint_rule(spec)]]
    cases = {"extremal_plus": {}, "extremal_minus": {},
             "linear": {"kernel_rule": rough}, "isaacs": {"families": families}}
    values = rng.normal(size=(round(2 / h) + 1,) * n)
    xs = rng.uniform(-0.9, 0.9, size=(25, n))

    def run():
        out = {}
        for equation, kw in cases.items():
            prob = DiscreteProblem(pot, spec, [-1] * n, [1] * n, h, data, equation, **kw)
            u = GridFunction(prob.geom.lo, prob.geom.hi, values, data)
            out[equation] = (prob.apply(values.ravel()),
                             evaluate(u, xs, prob.plan, equation, **kw), u, prob.plan)
        return out

    whole = run()
    for equation, (_, batch, u, plan) in whole.items():
        assert batch.shape == (len(xs),)
        single = [evaluate(u, x, plan, equation, **cases[equation])[0] for x in xs]
        assert np.array_equal(batch, single), equation

    calls = {kernels: 0, solver: 0}
    for module in calls:
        def counted(*args, _module=module, _f=module.point_quadrature):
            calls[_module] += 1
            return _f(*args)

        monkeypatch.setattr(module, "point_quadrature", counted)
    monkeypatch.setattr(kernels, "NODE_BUDGET", 2500)
    blocked = run()
    # every equation blocks alike: at least 3 blocks each for the 25 points
    # (kernels) and for the unknowns (solver)
    assert min(calls.values()) >= 3 * len(cases)
    for equation in cases:
        assert np.array_equal(blocked[equation][0], whole[equation][0]), equation
        assert np.array_equal(blocked[equation][1], whole[equation][1]), equation


@pytest.mark.parametrize("pot_name", ["aniso2", "perturbed2"])
def test_solution_does_not_depend_on_node_budget(request, pot_name, monkeypatch):
    # each point's nodes stay in one block, so the solution and the
    # interpolation triplets are bit-equal at any budget: one point per
    # block, the default, and 2^19 (one block per 200 points)
    pot = request.getfixturevalue(pot_name)
    spec = KernelSpec(1.0, 2.0, 1.5)
    data = halfspace_rule(0, 1.0)
    out = []
    for budget in (5000, kernels.NODE_BUDGET, 1 << 19):
        monkeypatch.setattr(kernels, "NODE_BUDGET", budget)
        prob = DiscreteProblem(pot, spec, [-1, -1], [1, 1], 1 / 8, data)
        u, rep = solve(prob, f=0.0)
        assert rep.converged
        out.append((u.values, prob.CW, prob.CCOL))
    for got in out[1:]:
        for a, b in zip(got, out[0]):
            assert np.array_equal(a, b)


def test_compile_transients_fall_with_the_budget(aniso2, monkeypatch):
    # the peak of a compile above what the problem retains is set by one
    # block's temporaries: at the default budget it is under a quarter of
    # that at 2^19, and it does not grow with the node set (h = 1/20 has
    # 2.7 times the nodes of h = 1/12), so a temporary the size of the whole
    # node set, alive while the blocks run, fails here
    spec = KernelSpec(1.0, 2.0, 1.5)
    default, excess = kernels.NODE_BUDGET, {}
    for budget, h in ((default, 1 / 12), (1 << 19, 1 / 12), (default, 1 / 20)):
        monkeypatch.setattr(kernels, "NODE_BUDGET", budget)
        tracemalloc.start()
        try:
            prob = DiscreteProblem(aniso2, spec, [-1, -1], [1, 1], h, halfspace_rule(0, 1.0))
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert prob.node_counts["quadrature_nodes"] > 8 * default
        excess[budget, h] = peak - retained
    assert 4 * excess[default, 1 / 12] < excess[1 << 19, 1 / 12]
    assert excess[default, 1 / 20] <= excess[default, 1 / 12]


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
    assert prob.Jtot == prob.COEF.size == prob.WBAR.size
    # and these report fields of every solve
    _, rep = solve(prob)
    assert isinstance(rep.converged, bool) and rep.converged
    assert isinstance(rep.final_residual, float) and isinstance(rep.iterations, int)


def test_tolerance_below_roundoff_stops_at_the_floor(iso1):
    # a tolerance below the roundoff floor ends the policy iteration at the
    # floor: reported, and not converged
    spec = KernelSpec(1.0, 2.0, 1.9)
    prob = DiscreteProblem(iso1, spec, [-1], [1], 1 / 32,
                           indicator_box_rule([1.1], [1.5], 1.0))
    u, rep = solve(prob, tolerance=1e-30)
    d = rep.details
    assert not rep.converged
    assert d["stop"] == "floor"
    floor = np.finfo(float).eps * prob.mass.max() * np.abs(u.values).max()
    assert d["policy_residuals"][-1] <= solver.FLOOR_FACTOR * floor
    assert rep.iterations == len(d["policy_residuals"])
    assert np.all(np.isfinite(u.values))


def test_pucci_1d_below_roundoff_ends_at_the_floor(iso1):
    # the benchmark's criterion-10 problem (P = 2305) at tolerance 1e-12:
    # its policy residuals stall near the floor, about 1.6e-12
    prob = DiscreteProblem(iso1, KernelSpec(1.0, 2.0, 1.5), [-9.0], [9.0], 1 / 128,
                           indicator_box_rule([9.0], [12.0], 1.0))
    u, rep = solve(prob, tolerance=1e-12)
    d = rep.details
    assert d["stop"] == "floor" and not rep.converged
    assert d["krylov_capped"] == 0
    assert len(d["policy_residuals"]) <= 8


def _count_apply(monkeypatch):
    applied = []
    apply = DiscreteProblem.apply
    monkeypatch.setattr(DiscreteProblem, "apply",
                        lambda self, *a: applied.append(1) or apply(self, *a))
    return applied


def test_not_finite_correction_is_reported(iso1, monkeypatch):
    # a correction that is not finite ends the policy iteration before it is
    # applied: the data are returned, and the exit is named
    monkeypatch.setattr(solver._Circulant, "solve", lambda self, v: np.full_like(v, np.nan))
    spec = KernelSpec(1.0, 2.0, 1.9)
    prob = DiscreteProblem(iso1, spec, [-1], [1], 1 / 32,
                           indicator_box_rule([1.1], [1.5], 1.0))
    applied = _count_apply(monkeypatch)
    with np.errstate(invalid="ignore"):
        u, rep = solve(prob, tolerance=1e-10)
    d = rep.details
    assert d["stop"] == "not_finite" and not rep.converged
    assert rep.iterations == 0 and d["policy_residuals"] == []
    assert np.array_equal(u.values.ravel(), prob.data_values())
    # the one GMRES step ran to its cap and says so
    assert d["krylov_steps"] == [solver.KRYLOV_RESTART * solver.KRYLOV_CYCLES]
    assert d["krylov_capped"] == 1
    assert applied == []


def _criterion_10_kind_problem(iso1):
    return DiscreteProblem(iso1, KernelSpec(1.0, 2.0, 1.5), [-3], [3],
                           1 / 64, indicator_box_rule([3.1], [4.1], 1.0))


def test_stalled_policy_loop_is_reported(iso1, monkeypatch):
    # corrections cut to a tenth lower the residual by less than half a step:
    # the loop stops after its fourth step and says so, with no other solve
    krylov = solver._krylov

    def tenth(*args):
        dx, k, capped = krylov(*args)
        return 0.1 * dx, k, capped

    monkeypatch.setattr(solver, "_krylov", tenth)
    prob = _criterion_10_kind_problem(iso1)
    applied = _count_apply(monkeypatch)
    u, rep = solve(prob)
    d = rep.details
    assert d["stop"] == "stalled" and not rep.converged
    assert rep.iterations == len(d["policy_residuals"]) == 4
    assert rep.final_residual == d["policy_residuals"][-1] > 1e-10
    assert np.all(np.isfinite(u.values))
    assert applied == []


def test_policy_step_cap_is_reported(iso1, monkeypatch):
    # the criterion-10 kind of problem needs at least 4 policy steps
    monkeypatch.setattr(solver, "POLICY_STEPS", 2)
    u, rep = solve(_criterion_10_kind_problem(iso1))
    d = rep.details
    assert d["stop"] == "step_cap" and not rep.converged
    assert rep.iterations == len(d["policy_residuals"]) == 2
    assert rep.final_residual == d["policy_residuals"][-1] > 1e-10


def test_solve_2d_symmetry_and_bounds(iso2):
    # symmetric exterior data on a symmetric 2D box: solution symmetric,
    # bounded by the data, and the center value mirrors across the family
    g = ExteriorRule("ring", lambda p: ((p * p).sum(axis=1) >= 4.0).astype(float), 1.0)
    spec = KernelSpec(1.0, 1.0, 1.2)
    prob = DiscreteProblem(iso2, spec, [-1, -1], [1, 1], 1 / 12, g)
    u, rep = solve(prob)
    assert rep.converged
    vals = u.values
    assert np.allclose(vals, vals[::-1, :], atol=1e-9)
    assert np.allclose(vals, vals[:, ::-1], atol=1e-9)
    assert np.allclose(vals, vals.T, atol=1e-9)
    assert np.all((vals >= -1e-12) & (vals <= 1.0 + 1e-12))


def test_solve_2d_perturbed_smoke(perturbed2):
    g = ExteriorRule("ring", lambda p: ((p * p).sum(axis=1) >= 4.0).astype(float), 1.0)
    spec = KernelSpec(1.0, 2.0, 1.5)
    prob = DiscreteProblem(perturbed2, spec, [-1, -1], [1, 1], 1 / 8, g)
    u, rep = solve(prob)
    assert rep.converged
    assert np.all((u.values >= -1e-12) & (u.values <= 1.0 + 1e-12))


def _direct_reference(prob, f, tolerance):
    """Policy iteration with a fresh scipy.linalg.solve per step on the matrix
    built from COO triplets (the inner solve the Krylov path replaces) and
    the same residual test."""
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
        res = float(np.abs(prob.apply(u) - f_vals).max())
        if res <= max(tolerance, 1e-14) or (res >= 0.5 * prev and steps > 3):
            break
        prev = res
    return u, steps


def _krylov_cases(request):
    iso1 = request.getfixturevalue("iso1")
    mid = KernelSpec(1.0, 2.0, 1.5)
    ring = ExteriorRule("ring", lambda p: ((p * p).sum(axis=1) >= 4.0).astype(float), 1.0)
    return {
        "1d_plus": (lambda: DiscreteProblem(
            iso1, KernelSpec(1.0, 2.0, 1.9), [-1], [1], 1 / 64,
            indicator_box_rule([1.1], [1.5], 1.0)), 0.0),
        "2d_aniso_minus": (lambda: DiscreteProblem(
            request.getfixturevalue("aniso2"), KernelSpec(1.0, 2.0, 1.5),
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
    assert rep.converged and d["stop"] == "tolerance"
    assert d["krylov_capped"] == 0
    # inexact policy steps may take one step more than exact ones
    assert len(d["krylov_steps"]) == len(d["policy_residuals"]) <= steps + 1
    assert min(d["krylov_steps"]) > 0
    assert d["policy_residuals"][-1] <= 1e-10
    scale = float(np.abs(want).max())
    assert np.abs(u.values.ravel() - want).max() <= 1e-12 * scale


def test_criterion_10_kind_of_solve_runs_gmres_every_step(iso1, monkeypatch):
    # M+ with indicator data, several policy steps, each a GMRES solve on
    # the circulant preconditioner that reaches its target; the policy
    # iterate is returned as it is, with no explicit sweep after the loop
    prob = _criterion_10_kind_problem(iso1)
    applied = _count_apply(monkeypatch)
    u, rep = solve(prob)
    d = rep.details
    assert rep.converged and d["stop"] == "tolerance" and applied == []
    assert rep.final_residual == d["policy_residuals"][-1]
    assert len(d["policy_residuals"]) >= 4
    assert d["krylov_capped"] == 0
    assert len(d["krylov_steps"]) == len(d["policy_residuals"])
    assert rep.iterations == len(d["policy_residuals"])
    assert d["policy_residuals"][-1] <= 1e-10


def test_inexact_policy_steps_on_the_criterion_10_kind_of_solve(iso1):
    # forcing terms tied to the outer residual: the same 5 policy steps as
    # exact inner solves, with far fewer GMRES iterations (61 at 1e-10 each)
    _, rep = solve(_criterion_10_kind_problem(iso1))
    d = rep.details
    assert rep.converged and d["stop"] == "tolerance"
    assert rep.iterations == 5 and d["krylov_capped"] == 0
    assert sum(d["krylov_steps"]) <= 40, d["krylov_steps"]
    rtols = d["krylov_rtols"]
    assert len(rtols) == 5 and rtols[0] == solver.FORCING_MAX
    assert all(solver.KRYLOV_RTOL <= r <= solver.FORCING_MAX for r in rtols)


def _fixed_policy_problems(iso1):
    box = indicator_box_rule([1.1], [1.5], 1.0)
    mid = KernelSpec(1.0, 2.0, 1.5)
    exit_spec = KernelSpec(1.0, 1.0, 1.5, "fixed_midpoint")
    return [(DiscreteProblem(iso1, KernelSpec(1.0, 1.0, 1.5), [-1], [1], 1 / 64, box), 1e-10),
            (DiscreteProblem(iso1, mid, [-1], [1], 1 / 64, box, "linear",
                             kernel_rule=midpoint_rule(mid)), 1e-10),
            # the benchmark's exit problem, whose stop is the floor's
            (DiscreteProblem(iso1, exit_spec, [-1], [1], 1 / 1024, halfspace_rule(0, 1.0),
                             "linear", kernel_rule=midpoint_rule(exit_spec)), 1e-9)]


def test_fixed_policies_solve_in_one_step_to_the_tolerance_or_floor(iso1):
    # a linear equation and an extremal one with lam == Lam cannot change
    # their policy: one GMRES solve stops at the tolerance or at the 2-norm
    # roundoff floor FLOOR_FACTOR eps |mass|_2 sup|u|, whichever is larger,
    # sup|u| estimated by the data's bound when f = 0
    eps = np.finfo(float).eps
    stops = []
    for prob, tol in _fixed_policy_problems(iso1):
        u0 = prob.data_values()
        _, g = solver._linearize(prob, u0, np.zeros(prob.P))
        _, rep = solve(prob, tolerance=tol)
        d = rep.details
        assert rep.converged and d["stop"] == "tolerance"
        assert rep.iterations == 1 and d["krylov_capped"] == 0
        sup_u = max(np.abs(u0).max(), prob.exterior.sup_bound)
        floor = solver.FLOOR_FACTOR * eps * np.linalg.norm(prob.mass) * sup_u
        target = max(tol, floor)
        assert d["krylov_rtols"][0] * np.linalg.norm(g) == pytest.approx(target, rel=1e-12)
        stops.append(target == floor)
    assert stops == [False, False, True]


@pytest.mark.parametrize("sigma, h, f", [(1.9, 1 / 256, 0.0), (1.9, 1 / 64, 100.0)])
def test_fixed_policy_second_step_refines_without_a_cap(iso1, sigma, h, f):
    # where the first step's floor stop leaves the max-norm residual above
    # the tolerance, a second step refines it at KRYLOV_RTOL; f = 100 drives
    # sup|u| to 9 (data bound 1), which the first stop must allow for
    prob = DiscreteProblem(iso1, KernelSpec(1.0, 1.0, sigma), [-1], [1], h,
                           halfspace_rule(0, 1.0))
    _, rep = solve(prob, f=f, tolerance=1e-10)
    d = rep.details
    assert rep.converged and d["stop"] == "tolerance"
    assert d["krylov_capped"] == 0
    assert rep.iterations == 2 and d["krylov_rtols"][1] == solver.KRYLOV_RTOL


def test_fixed_policy_refines_before_accepting_the_floor(iso1):
    # the first step's residual lies between the tolerance and FLOOR_FACTOR
    # times the floor (sup|u| 681): "floor" is not accepted there, and the
    # refinement step at KRYLOV_RTOL reaches the tolerance
    prob = DiscreteProblem(iso1, KernelSpec(1.0, 1.0, 0.8), [-1], [1], 1 / 64,
                           halfspace_rule(0, 1.0))
    u, rep = solve(prob, f=-1e4, tolerance=1e-10)
    d = rep.details
    assert rep.converged and d["stop"] == "tolerance"
    assert rep.iterations == 2 and d["krylov_rtols"][1] == solver.KRYLOV_RTOL
    floor = np.finfo(float).eps * prob.mass.max() * np.abs(u.values).max()
    assert 1e-10 < d["policy_residuals"][0] <= solver.FLOOR_FACTOR * floor


def test_capped_fixed_policy_gmres_is_reported(iso1, monkeypatch):
    # with no floor, a stop below roundoff runs GMRES to its cap, which the
    # report counts
    monkeypatch.setattr(solver, "FLOOR_FACTOR", 0.0)
    prob = DiscreteProblem(iso1, KernelSpec(1.0, 1.0, 1.5), [-1], [1], 1 / 64,
                           halfspace_rule(0, 1.0))
    _, rep = solve(prob, tolerance=1e-30)
    d = rep.details
    assert not rep.converged
    assert d["krylov_capped"] >= 1
    assert solver.KRYLOV_RESTART * solver.KRYLOV_CYCLES in d["krylov_steps"]


def test_solve_above_6000_unknowns_matches_a_dense_solve(iso1):
    # P = 6145, beyond the size a dense LU was once limited to: the solution
    # solves the linear system of its own final policy.  Both carry residuals
    # up to the tolerance, 1e-10 (7.8e-12 relative apart when measured)
    spec = KernelSpec(1.0, 2.0, 1.5)
    prob = DiscreteProblem(iso1, spec, [-3], [3], 1 / 1024,
                           indicator_box_rule([3.0], [4.0], 1.0))
    assert prob.P > 6000
    u, rep = solve(prob)
    d = rep.details
    assert rep.converged and d["krylov_capped"] == 0
    uf = u.values.ravel()
    slopes = prob.node_slopes(prob.node_deltas(uf))
    S, diag = prob.assemble(slopes)
    M = S.toarray()
    del S
    M[np.diag_indices(prob.P)] += diag
    a = prob.COEF * slopes
    rhs = -np.bincount(prob.PID, weights=a * prob.CONST, minlength=prob.P)
    want = scipy.linalg.solve(M, rhs, overwrite_a=True, check_finite=False)
    assert np.abs(uf - want).max() <= 1e-10 * np.abs(want).max()


def test_tolerance_at_the_floor_is_never_a_silent_miss(iso1):
    # sigma 1.2, h = 1/64, tolerance set to the last policy residual of a
    # floor-limited solve, where residuals move by roundoff: the solve must
    # still end converged or say why not
    prob = DiscreteProblem(iso1, KernelSpec(1.0, 2.0, 1.2), [-1], [1], 1 / 64,
                           indicator_box_rule([1.1], [1.6], 1.0))
    _, first = solve(prob, tolerance=1e-30)
    tol = first.details["policy_residuals"][-1]
    _, rep = solve(prob, tolerance=tol)
    assert rep.converged or rep.details["stop"] == "floor"


def _pattern_cases(request):
    iso1, spec = request.getfixturevalue("iso1"), KernelSpec(1.0, 2.0, 1.5)
    return {
        "1d_hole": lambda: DiscreteProblem(
            iso1, spec, [-1], [1], 1 / 32, indicator_box_rule([-0.1], [0.1], 2.0),
            domain=lambda p: np.abs(p[:, 0]) > 0.1),
        "2d_aniso": lambda: DiscreteProblem(
            request.getfixturevalue("aniso2"), spec, [-1, -1], [1, 1], 1 / 8,
            gaussian_rule(1.0, 0.7, [0.3, -0.2]), "extremal_minus"),
        "isaacs": lambda: DiscreteProblem(
            iso1, spec, [-1], [1], 1 / 32, indicator_box_rule([1.2], [1.8], 1.0), "isaacs",
            families=[[lower_rule(spec), checkerboard_rule(spec)], [upper_rule(spec)]]),
    }


@pytest.mark.parametrize("case", ["1d_hole", "2d_aniso", "isaacs"])
def test_policy_matrix_has_one_entry_per_pair(request, case, rng):
    # S is canonical CSR: one entry per distinct (unknown, column) pair of
    # the triplets, each the sum of its triplets' weights
    prob = _pattern_cases(request)[case]()
    assert prob.CROW.dtype == prob.CCOL.dtype == np.int32
    slopes = prob.node_slopes(prob.node_deltas(rng.normal(size=prob.N)))
    S, _ = prob.assemble(slopes)
    assert S.indices.dtype == S.indptr.dtype == np.int32
    assert S.has_canonical_format
    rows = prob.PID[prob.CROW]
    pairs = np.unique(rows * prob.N + prob.CCOL).size
    assert S.nnz == pairs == prob.node_counts["policy_entries"] < prob.CROW.size
    a = prob.COEF * slopes
    want = sp.coo_matrix((a[prob.CROW] * prob.CW, (rows, prob.CCOL)),
                         shape=(prob.P, prob.N)).toarray()
    assert np.abs(S.toarray() - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("case", ["1d_hole", "2d_aniso", "isaacs"])
def test_slot_map_does_not_depend_on_its_row_blocks(request, case, rng, monkeypatch):
    # a table of 3 rows, or of one, splits the rows into many blocks: the
    # pattern and the summed entries are those of a single block
    make = _pattern_cases(request)[case]
    one = make()
    u = rng.normal(size=one.N)
    S_one, _ = one.assemble(one.node_slopes(one.node_deltas(u)))
    assert solver.SLOT_TABLE >= one.P * one.N          # one block
    for cells in (3 * one.N, 1):
        monkeypatch.setattr(solver, "SLOT_TABLE", cells)
        split = make()
        S, _ = split.assemble(split.node_slopes(split.node_deltas(u)))
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(S, attr), getattr(S_one, attr)), attr


@pytest.mark.parametrize("case", ["1d_hole", "2d_aniso", "isaacs"])
def test_node_deltas_match_the_triplet_sum(request, case, rng):
    # the interpolation operator gives the pair sums of the triplets
    prob = _pattern_cases(request)[case]()
    u = rng.normal(size=prob.N)
    want = (prob.CONST + np.bincount(prob.CROW, weights=prob.CW * u[prob.CCOL],
                                     minlength=prob.Jtot)
            - 2.0 * u[prob.unknown[prob.PID]])
    got = prob.node_deltas(u)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _nearest_centre(prob):
    pos = np.array(np.unravel_index(prob.unknown, prob.geom.shape)).T
    return pos, int(np.argmin(((pos - (np.array(prob.geom.shape) - 1) / 2) ** 2).sum(axis=1)))


def _is_5_smooth(m):
    for q in (2, 3, 5):
        while m % q == 0:
            m //= q
    return m == 1


@pytest.mark.parametrize("case", ["1d_hole", "2d_aniso", "2d_perturbed_disc"])
def test_preconditioner_inverts_its_circulant(request, case):
    spec = KernelSpec(1.0, 2.0, 1.5)
    prob = {
        "1d_hole": lambda: DiscreteProblem(
            request.getfixturevalue("iso1"), spec, [-1], [1], 1 / 8,
            indicator_box_rule([-0.2], [0.2], 1.0), domain=lambda p: np.abs(p[:, 0]) > 0.2),
        "2d_aniso": lambda: DiscreteProblem(
            request.getfixturevalue("aniso2"), spec, [-1, -1], [1, 1], 1 / 4, zero_rule()),
        "2d_perturbed_disc": lambda: DiscreteProblem(
            request.getfixturevalue("perturbed2"), spec, [-1, -1], [1, 1], 1 / 4,
            zero_rule(), domain=lambda p: (p * p).sum(axis=1) < 0.8),
    }[case]()
    prec = prob.preconditioner
    shape, L = np.array(prob.geom.shape), np.array(prec.shape)
    # padded, so that no two lattice offsets wrap onto each other
    assert np.all(L >= 2 * shape - 1) and all(_is_5_smooth(int(m)) for m in L)
    # the circulant, built densely from the assembled row at the midpoint
    # slopes of the unknown nearest the box centre
    pos, p0 = _nearest_centre(prob)
    S, d = prob.assemble(np.full(prob.Jtot, 0.5 * (spec.lam + spec.Lam)))
    row = S[p0].toarray().ravel()
    row[prob.unknown[p0]] += d[p0]
    offsets = np.array(np.unravel_index(np.arange(prob.N), shape)).T - pos[p0]
    cells = np.array(np.unravel_index(np.arange(L.prod()), L)).T
    C = np.zeros((L.prod(), L.prod()))
    for k in np.flatnonzero(row):
        # (C v)_i = sum_k row_k v_(i+k), i + k taken periodically
        C[np.arange(L.prod()), np.ravel_multi_index(((cells + offsets[k]) % L).T, L)] += row[k]
    idx = np.ravel_multi_index(pos.T, L)
    want = np.linalg.inv(C)[np.ix_(idx, idx)]
    got = np.column_stack([prec.solve(e) for e in np.eye(prob.P)])
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_problem_construction_assembles_nothing(aniso2, monkeypatch):
    # the preconditioner reads its row off the centre unknown's triplets
    assembled = []
    assemble = DiscreteProblem.assemble
    monkeypatch.setattr(DiscreteProblem, "assemble",
                        lambda self, *a: assembled.append(1) or assemble(self, *a))
    DiscreteProblem(aniso2, KernelSpec(1.0, 2.0, 1.5), [-1, -1], [1, 1], 1 / 8,
                    halfspace_rule(0, 1.0))
    assert assembled == []


# Each policy step's GMRES iterations, at most: the counts measured on these
# cases plus one.  A preconditioner with the stencil's axes swapped exceeds the
# aniso bound (19 in the first step), one built from a box-corner row exceeds
# the 1D bounds (the cycle cap), and one laid out with no padding, so that the
# row's offsets wrap around the lattice, exceeds the 2D bounds (16).
_QUALITY_BOUNDS = {"1d_iso": 16, "2d_iso": 15, "2d_aniso": 15, "2d_perturbed": 15,
                   "disc": 8, "criterion_8_section": 11, "criterion_11_hole": 15,
                   "sigma_1.9": 13, "Lam_over_lam_10": 37}


@pytest.mark.parametrize("case", list(_QUALITY_BOUNDS))
def test_preconditioner_quality(request, case):
    iso1, iso2 = request.getfixturevalue("iso1"), request.getfixturevalue("iso2")
    spec = KernelSpec(1.0, 2.0, 1.5)
    half = halfspace_rule(0, 1.0)
    box = indicator_box_rule([1.1], [1.6], 1.0)
    square = ([-1, -1], [1, 1], 1 / 12)
    prob, f = {
        "1d_iso": lambda: (DiscreteProblem(iso1, spec, [-3], [3], 1 / 64,
                                           indicator_box_rule([3.1], [4.1], 1.0)), 0.0),
        "2d_iso": lambda: (DiscreteProblem(iso2, spec, *square, half), 0.0),
        "2d_aniso": lambda: (DiscreteProblem(request.getfixturevalue("aniso2"), spec,
                                             *square, half), 0.0),
        "2d_perturbed": lambda: (DiscreteProblem(request.getfixturevalue("perturbed2"),
                                                 spec, *square, half), 0.0),
        "disc": lambda: (DiscreteProblem(iso2, spec, [-1.25, -1.25], [1.25, 1.25], 1 / 12,
                                         zero_rule(),
                                         domain=lambda p: (p * p).sum(axis=1) < 1), -1.0),
        "criterion_8_section": lambda: (DiscreteProblem(
            iso1, spec, [-1.5], [1.5], 1 / 128, zero_rule(),
            domain=lambda p: iso1.height(np.zeros(1), p) < 1.0), -1.0),
        "criterion_11_hole": lambda: (DiscreteProblem(
            iso1, KernelSpec(1.0, 2.0, 0.5), [-9], [9], 1 / 128,
            indicator_box_rule([-1 / 32], [1 / 32], 1.0), "extremal_minus",
            domain=lambda p: np.abs(p[:, 0]) > 1 / 32), 0.0),
        "sigma_1.9": lambda: (DiscreteProblem(iso1, KernelSpec(1.0, 2.0, 1.9), [-1], [1],
                                              1 / 128, box), 0.0),
        "Lam_over_lam_10": lambda: (DiscreteProblem(iso1, KernelSpec(1.0, 10.0, 1.5),
                                                    [-1], [1], 1 / 128, box), 0.0),
    }[case]()
    _, rep = solve(prob, f=f)
    d = rep.details
    assert rep.converged and d["krylov_capped"] == 0
    assert len(d["krylov_steps"]) == len(d["policy_residuals"])
    assert max(d["krylov_steps"]) <= _QUALITY_BOUNDS[case], d["krylov_steps"]


def test_solve_memory_has_no_p_by_p_array(iso1):
    # the pucci_1d problem, P = 2305: a P x P float array would be 42.5 MB.
    # The peak is the triplet-sized temporaries of a node pass and of the
    # policy matrix (1.37M triplets, 11 MB each)
    import tracemalloc
    prob = DiscreteProblem(iso1, KernelSpec(1.0, 2.0, 1.5), [-9.0], [9.0], 1 / 128,
                           indicator_box_rule([9.0], [12.0], 1.0))
    tracemalloc.start()
    try:
        _, rep = solve(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.converged
    assert peak <= 0.75 * prob.P ** 2 * 8


def _per_node_reference(prob, u):
    """The operator on the un-aggregated node set, built per node from
    point_quadrature, the exterior rule and interp_weights: A u, the mass and
    the frozen-policy matrix (all lattice columns, centre weights included),
    with the nodes, their pair sums S and which nodes are fully exterior."""
    pq = solver.point_quadrature(prob.plan, prob.grid_pts[prob.unknown])
    x = pq.x[pq.pid]
    S = np.zeros(pq.coef.size)
    outside = np.ones(pq.coef.size, dtype=bool)
    stencils = []
    for sign in (1.0, -1.0):
        pts = x + sign * pq.y
        ins = prob.geom.inside(pts)
        idx, wts = prob.geom.interp_weights(pts[ins])
        S[ins] += (u[idx] * wts).sum(axis=1)
        S[~ins] += prob.exterior(pts[~ins])
        outside &= ~ins
        stencils.append((ins, idx, wts))
    delta = S - 2.0 * u[prob.unknown[pq.pid]]
    if prob.equation == "linear":
        mults = rule_multipliers(prob.kernel_rule, prob.spec, x, pq.y, pq.wbar)
    elif prob.equation == "isaacs":
        mults = [[rule_multipliers(r, prob.spec, x, pq.y, pq.wbar) for r in beta]
                 for beta in prob.families]
    else:
        mults = None
    args = (delta, pq.coef, pq.pid, prob.P, prob.spec, prob.equation, mults)
    a = pq.coef * policy_slopes(*args)
    M = np.zeros((prob.P, prob.N))
    for ins, idx, wts in stencils:
        np.add.at(M, (np.repeat(pq.pid[ins], idx.shape[1]), idx.ravel()),
                  (a[ins][:, None] * wts).ravel())
    M[np.arange(prob.P), prob.unknown] -= 2.0 * np.bincount(pq.pid, weights=a,
                                                            minlength=prob.P)
    mass = np.bincount(pq.pid, weights=pq.coef, minlength=prob.P) * 2.0 * prob.spec.Lam
    return operator_values(*args), mass, M, pq, S, outside


def _aggregation_cases(request):
    iso1 = request.getfixturevalue("iso1")
    spec = KernelSpec(1.0, 2.0, 1.5)
    mid = KernelSpec(1.0, 2.0, 1.5)
    box = indicator_box_rule([1.1], [1.6], 1.0)
    rough = checkerboard_rule(mid)
    return {
        "plus": lambda: DiscreteProblem(iso1, spec, [-1], [1], 1 / 32, box),
        "minus": lambda: DiscreteProblem(iso1, spec, [-1], [1], 1 / 32, box,
                                         "extremal_minus"),
        "linear": lambda: DiscreteProblem(iso1, mid, [-1], [1], 1 / 32, box, "linear",
                                          kernel_rule=rough),
        "isaacs": lambda: DiscreteProblem(
            iso1, mid, [-1], [1], 1 / 32, box, "isaacs",
            families=[[lower_rule(mid), rough], [upper_rule(mid), midpoint_rule(mid)]]),
        "hole": lambda: DiscreteProblem(iso1, spec, [-1], [1], 1 / 32,
                                        indicator_box_rule([-0.1], [0.1], 2.0),
                                        domain=lambda p: np.abs(p[:, 0]) > 0.1),
        # continuous data: one group per distinct value
        "gaussian_2d": lambda: DiscreteProblem(
            request.getfixturevalue("aniso2"), spec, [-1, -1], [1, 1], 1 / 4,
            gaussian_rule(1.0, 0.7, [0.3, -0.2])),
        # a long, thin box with a hole: the far slice starts past its diameter
        "masked_2d": lambda: DiscreteProblem(
            request.getfixturevalue("perturbed2"), spec, [-1, 0], [3, 0.5], 1 / 8,
            halfspace_rule(0, 2.0), domain=_off_disc),
    }


def _off_disc(p):
    return np.hypot(p[:, 0] - 1.0, p[:, 1] - 0.25) > 0.2


@pytest.mark.parametrize("case", ["plus", "minus", "linear", "isaacs", "hole",
                                  "gaussian_2d", "masked_2d"])
def test_exterior_aggregation_matches_per_node_reference(request, case, rng):
    prob = _aggregation_cases(request)[case]()
    u = rng.normal(size=prob.N)
    want, mass, M_want, pq, S, outside = _per_node_reference(prob, u)
    got = prob.apply(u)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert np.abs(prob.mass - mass).max() <= 1e-13 * mass.max()
    S_got, d = prob.assemble(prob.node_slopes(prob.node_deltas(u)))
    M_got = S_got.toarray()
    M_got[np.arange(prob.P), prob.unknown] += d
    assert np.abs(M_got - M_want).max() <= 1e-13 * np.abs(M_want).max()
    # the groups: one per (point, CONST) among the fully exterior nodes
    keys, gid = np.unique(np.column_stack([pq.pid[outside], S[outside]]), axis=0,
                          return_inverse=True)
    groups = keys.shape[0]
    gc = np.bincount(gid, weights=pq.coef[outside])
    grouped = np.ones(prob.Jtot, dtype=bool)
    grouped[prob.CROW] = False                  # a group has no in-box triplet
    order = np.flatnonzero(grouped)[np.lexsort((prob.CONST[grouped], prob.PID[grouped]))]
    assert np.array_equal(prob.PID[order], keys[:, 0])
    assert np.array_equal(prob.CONST[order], keys[:, 1])
    assert np.allclose(prob.COEF[order], gc, rtol=1e-13, atol=0)
    wbar = np.bincount(gid, weights=pq.coef[outside] * pq.wbar[outside]) / gc
    assert np.allclose(prob.WBAR[order], wbar, rtol=1e-13, atol=0)
    counts = prob.node_counts
    assert counts["quadrature_nodes"] == pq.coef.size
    assert counts["exterior_groups"] == groups
    assert counts["compiled_nodes"] == prob.Jtot == pq.coef.size - outside.sum() + groups
    assert counts["exterior_share"] == outside.sum() / pq.coef.size
    # kept nodes first in each block: the triplets stay node-major
    assert np.all(np.diff(prob.CROW) >= 0) and np.all(np.diff(prob.PID[prob.CROW]) >= 0)


def test_exterior_groups_of_a_small_case(iso1):
    mid = KernelSpec(1.0, 2.0, 1.5)
    fams = [[lower_rule(mid), checkerboard_rule(mid)], [upper_rule(mid)]]
    prob = DiscreteProblem(iso1, mid, [-1], [1], 1 / 8, indicator_box_rule([1.1], [1.6], 1.0),
                           "isaacs", families=fams)
    c = prob.node_counts
    # 17 unknowns: 2984 fully exterior nodes fold into 28 groups
    assert (c["quadrature_nodes"], c["compiled_nodes"], c["exterior_groups"]) == \
        (3417, 461, 28)
    grouped = np.ones(prob.Jtot, dtype=bool)
    grouped[prob.CROW] = False                  # a group has no in-box triplet
    assert grouped.sum() == c["exterior_groups"]
    for m in (m for beta in prob._mults for m in beta):
        assert np.all((m[grouped] >= mid.lam) & (m[grouped] <= mid.Lam))
    # groups are not all at one multiplier: the checkerboard is averaged
    rough = prob._mults[0][1][grouped]
    assert np.any((rough > mid.lam) & (rough < mid.Lam))
    _, rep = solve(prob)
    assert {k: rep.details[k] for k in c} == c


def _far_cases(request):
    spec = KernelSpec(1.0, 2.0, 1.5)
    pot = request.getfixturevalue
    data = halfspace_rule(0, 1.0)
    return {
        "iso_1d": lambda: DiscreteProblem(pot("iso1"), spec, [-1], [1], 1 / 32, data),
        "perturbed_1d_hole": lambda: DiscreteProblem(
            pot("perturbed1"), spec, [-2], [0.5], 1 / 16, data,
            domain=lambda p: np.abs(p[:, 0] + 1.0) > 0.2),
        "iso_2d": lambda: DiscreteProblem(pot("iso2"), spec, [-1, -1], [1, 1], 1 / 4, data),
        "aniso_2d_thin": lambda: DiscreteProblem(pot("aniso2"), spec, [-1, 0], [3, 0.5],
                                                 1 / 8, data),
        "perturbed_2d_thin_masked": lambda: DiscreteProblem(
            pot("perturbed2"), spec, [-1, 0], [3, 0.5], 1 / 8, data, domain=_off_disc),
    }


@pytest.mark.parametrize("case", ["iso_1d", "perturbed_1d_hole", "iso_2d", "aniso_2d_thin",
                                  "perturbed_2d_thin_masked"])
def test_far_nodes_leave_the_box_on_both_sides(request, case):
    # the compile skips the box test on the far slice: both pair points of
    # every far node must fail it, for every unknown of the box
    prob = _far_cases(request)[case]()
    pq = solver.point_quadrature(prob.plan, prob.grid_pts[prob.unknown])
    far = slice(pq.near, None)
    assert 0 < pq.near < pq.coef.size
    assert prob.node_counts["far_nodes"] == pq.coef.size - pq.near
    assert np.linalg.norm(pq.y[far], axis=1).min() > prob.plan.far_radius
    for sign in (1.0, -1.0):
        assert not prob.geom.inside(pq.xj[far] + sign * pq.y[far]).any()


def test_compile_box_tests_only_the_near_slice(perturbed2, monkeypatch):
    # a work count, not a time: the box test sees the pair points of the
    # near slice alone, and the exterior rule the near slice's exterior pair
    # points plus both pair points of every far node
    rows = {"inside": 0, "exterior": 0}
    inside = GridFunction.inside

    def counted_inside(self, pts):
        rows["inside"] += pts.shape[0]
        return inside(self, pts)

    def data(p):
        rows["exterior"] += p.shape[0]
        return (p[:, 0] > 1.0).astype(float)

    monkeypatch.setattr(GridFunction, "inside", counted_inside)
    monkeypatch.setattr(kernels, "NODE_BUDGET", 20000)     # several blocks
    prob = DiscreteProblem(perturbed2, KernelSpec(1.0, 2.0, 1.5), [-1, 0], [3, 0.5], 1 / 8,
                           ExteriorRule("halfspace", data, 1.0), domain=_off_disc)
    got = dict(rows)
    pq = solver.point_quadrature(prob.plan, prob.grid_pts[prob.unknown])
    near = slice(None, pq.near)
    outside = sum(np.count_nonzero(~inside(prob.geom, pq.xj[near] + sign * pq.y[near]))
                  for sign in (1.0, -1.0))
    far = pq.coef.size - pq.near
    assert far > pq.near
    assert got["inside"] == 2 * pq.near
    assert got["exterior"] == outside + 2 * far


def _disc_exit_probability(c: float, sigma: float) -> float:
    """The probability that the symmetric sigma-stable process started at the
    centre of the unit disc in R^2 leaves it into the halfplane {y_0 > c}.
    Riesz's Poisson kernel of the ball (Landkof 1972) at x = 0 is radial,
    sin(pi s) / pi^2 (|y|^2 - 1)^{-s} |y|^{-2} with s = sigma / 2, so
    u(0) = (2 sin(pi s) / pi^2) int_1^inf (r^2 - 1)^{-s} r^{-1} arccos(c / r) dr,
    with the algebraic endpoint weight on [1, 2]."""
    s = sigma / 2
    near = integrate.quad(lambda r: (r + 1) ** -s / r * np.arccos(c / r), 1, 2,
                          weight="alg", wvar=(-s, 0))[0]
    far = integrate.quad(lambda r: (r * r - 1) ** -s / r * np.arccos(c / r), 2, np.inf)[0]
    return 2 * np.sin(np.pi * s) / np.pi ** 2 * (near + far)


def test_disc_exit_probability_closed_form():
    # by symmetry half the paths leave into {y_0 > 0}, for every sigma
    for sigma in (0.5, 1.2, 1.5, 1.9):
        assert _disc_exit_probability(0.0, sigma) == pytest.approx(0.5, abs=1e-12)
    assert _disc_exit_probability(0.3, 1.5) == pytest.approx(0.4192645133, abs=1e-10)


@pytest.mark.parametrize("h, error", [(1 / 16, 5.355e-3), (1 / 24, 2.856e-3)])
def test_disc_exit_probability_2d(iso2, h, error):
    # a 2D operator against a true value: lam = Lam = 1, sigma 1.5, f = 0 on
    # the unit disc, data 1{x_0 > 0.3}.  u(0) is 0.4192645 exactly; the
    # relative errors +0.536% and +0.286% are regression numbers, not an
    # order (the error is not monotone in h on finer grids)
    exact = _disc_exit_probability(0.3, 1.5)
    prob = DiscreteProblem(iso2, KernelSpec(1.0, 1.0, 1.5), [-1, -1], [1, 1], h,
                           halfspace_rule(0, 0.3), domain=lambda p: (p * p).sum(axis=1) < 1)
    u, rep = solve(prob, f=0.0)
    assert rep.converged
    assert (u.eval(np.zeros((1, 2)))[0] - exact) / exact == pytest.approx(error, abs=1e-6)
