"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
in the terminal summary.  Tolerances are pinned here and nowhere else."""

import filecmp
import os

import numpy as np

from conftest import record_criterion
from maslab.barriers import build_barrier, verify_subsolution
from maslab.cli import run as cli_run
from maslab.envelope import abp_experiment
from maslab.grid import (GridFunction, callable_rule, halfspace_rule,
                         indicator_box_rule, zero_rule)
from maslab.kernels import (KernelSpec, checkerboard_rule, evaluate, lower_rule,
                            make_plan, midpoint_rule, second_difference,
                            upper_rule)
from maslab.mc import JumpProcessConfig, estimate_exit_payoff
from maslab.potential import make_potential
from maslab.regularity import (c1alpha_experiment, harnack_experiment,
                               holder_estimate, l_eps_tail)
from maslab.sections import (besicovitch_cover, contains_many, cz_decompose,
                             engulfing_probe, fit_ellipsoid, section_measure,
                             unit_directions)
from maslab.solver import DiscreteProblem, comparison_check, solve

ISO1 = make_potential("iso_quadratic", 1)
TAU = 3.0  # empirical tau for the isotropic quadratic (see compute_tau test)


# ---------------------------------------------------------------------------
# criterion 1: operator oracle equivalence
# ---------------------------------------------------------------------------

def _delta_cap(x, y):
    xp, xm = x + y, x - y
    up = np.where(np.abs(xp) <= 1, 1 - xp ** 2, 0.0)
    um = np.where(np.abs(xm) <= 1, 1 - xm ** 2, 0.0)
    ux = max(0.0, 1 - x ** 2)
    return np.where((np.abs(xp) <= 1) & (np.abs(xm) <= 1),
                    -2.0 * y ** 2, up + um - 2.0 * ux)


def _brute_force(xs, sigmas, nodes=1_000_000):
    """Oracle values (len(xs), len(sigmas)): the trapezoid rule on a 1e6-node
    logspace plus the closed-form tail.  The kernel times the trapezoid
    weights is built once per sigma, and each point's second differences
    once for all sigmas."""
    y = np.logspace(-60, 8, nodes)
    trap = np.zeros(nodes)
    trap[1:] += 0.5 * np.diff(y)
    trap[:-1] += 0.5 * np.diff(y)
    kw = np.stack([(2 - s) * (0.5 * y ** 2) ** (-(1 + s) / 2) * trap for s in sigmas],
                  axis=1)
    sig = np.asarray(sigmas)
    return np.array([2.0 * (_delta_cap(x, y) @ kw)
                     + 2.0 * (-2.0 * max(0.0, 1 - x ** 2)) * (2 - sig)
                     * 2 ** ((1 + sig) / 2) * 1e8 ** (-sig) / sig for x in xs])


def test_criterion_1_operator_oracle():
    h = 1 / 256
    u = GridFunction.from_callable([-1], [1], h,
                                   lambda p: np.maximum(0, 1 - p[:, 0] ** 2),
                                   zero_rule())
    # 100 grid points in [-0.8, 0.8]: the operator value is bounded away from
    # its zero crossing (near |x| ~ 0.87), so relative error is well posed
    idx = np.linspace(52, 460, 100).astype(int)
    pts = u.points()[idx, 0]
    worst = 0.0
    sigmas = (0.5, 1.5, 1.9)
    oracles = _brute_force([float(x) for x in pts], sigmas)
    for i, sigma in enumerate(sigmas):
        spec = KernelSpec(1.0, 1.0, sigma)
        plan = make_plan(ISO1, spec, h, 2.0, u.sup_bound)
        rule = midpoint_rule(spec)  # lam = Lam: the single admissible kernel
        oracle = oracles[:, i]
        v_ext = evaluate(u, pts, plan, "extremal_plus")
        v_lin = evaluate(u, pts, plan, "linear", kernel_rule=rule)
        worst = max(worst,
                    (np.abs(v_ext - oracle) / np.abs(oracle)).max(),
                    (np.abs(v_lin - oracle) / np.abs(oracle)).max())
    ok = worst <= 0.01
    record_criterion(1, ok, f"extremal/linear vs 1e6-node brute force, "
                            f"100 pts x 3 sigmas, worst rel err {worst:.2e} <= 1%")
    assert ok


# ---------------------------------------------------------------------------
# criterion 2: algebraic invariants at 1e-10 relative
# ---------------------------------------------------------------------------

def test_criterion_2_algebraic_invariants():
    rng = np.random.default_rng(7)
    coef = rng.normal(size=6)
    fn = lambda p: sum(c * np.cos((k + 1) * p[:, 0] + 0.3 * k)
                       for k, c in enumerate(coef))
    sup = float(np.abs(coef).sum())
    ext = callable_rule("trig", fn, sup)
    u = GridFunction.from_callable([-2], [2], 1 / 64, fn, ext)
    spec = KernelSpec(1.0, 2.0, 1.5)
    plan = make_plan(ISO1, spec, u.h, 4.0, sup)
    neg = GridFunction(u.lo, u.hi, -u.values,
                       callable_rule("neg", lambda p: -fn(p), sup))
    cu = GridFunction(u.lo, u.hi, 2.5 * u.values,
                      callable_rule("sc", lambda p: 2.5 * fn(p), 2.5 * sup))
    aff = GridFunction(u.lo, u.hi,
                       u.values + 3.0 + 2.0 * u.points()[:, 0].reshape(u.shape),
                       callable_rule("af", lambda p: fn(p) + 3.0 + 2.0 * p[:, 0],
                                     sup + 10.0))
    fams = [[lower_rule(spec), midpoint_rule(spec)], [upper_rule(spec)]]

    xs = rng.uniform(-1.5, 1.5, size=1000)
    ys = rng.uniform(-3, 3, size=1000)
    tol = 1e-10
    ok_sym = np.array_equal(second_difference(u, xs, ys), second_difference(u, xs, -ys))
    mp = evaluate(u, xs, plan, "extremal_plus")
    mm = evaluate(u, xs, plan, "extremal_minus")
    scale = np.maximum(1.0, np.maximum(np.abs(mp), np.abs(mm)))
    ok_aff = np.all(np.abs(evaluate(aff, xs, plan, "extremal_plus") - mp) <= tol * scale)
    ok_hom = np.all(np.abs(evaluate(cu, xs, plan, "extremal_plus") - 2.5 * mp)
                    <= 2.5 * tol * scale)
    ok_sign = np.all(np.abs(evaluate(neg, xs, plan, "extremal_plus") + mm) <= tol * scale)
    isc = evaluate(u, xs, plan, "isaacs", families=fams)
    ok_ord = np.all((mm - tol * scale <= isc) & (isc <= mp + tol * scale))
    ok = ok_sym and ok_aff and ok_hom and ok_ord and ok_sign
    record_criterion(2, ok, "delta symmetry exact, affine invariance, positive "
                            "homogeneity, M- <= Isaacs <= M+, M+(-u) = -M-(u) "
                            "at 1000 points, 1e-10 relative")
    assert ok_sym and ok_aff and ok_hom and ok_ord and ok_sign


# ---------------------------------------------------------------------------
# criterion 3: barrier verification
# ---------------------------------------------------------------------------

def test_criterion_3_barriers():
    spec = KernelSpec(1.0, 2.0, 1.9)
    barrier = build_barrier("F_power", ISO1, spec, {"m": 1.0})
    rep = verify_subsolution(barrier, ISO1, spec,
                             {"kind": "annulus", "r_in": 1.0, "r_out": 4.0},
                             sample_count=200, sigma_scan=False)
    scale = barrier.field().sup_bound
    ok_f = rep["min_value"] >= -1e-8 * scale

    bump = build_barrier("psi_bump", ISO1, spec, {"m": 1.0, "tau": TAU})
    psi = bump.field()
    s_tau = np.linspace(-0.999, 0.999, 50)[:, None] * TAU * np.sqrt(2)
    ok_pos = bool(np.all(psi.eval(s_tau) > 2.0))
    rep_b = verify_subsolution(bump, ISO1, spec,
                               {"kind": "outside_section", "r": 0.25,
                                "r_out": 2.2 * TAU},
                               sample_count=120, sigma_scan=False)
    ok_bump = rep_b["passed"]
    ok = ok_f and ok_pos and ok_bump
    record_criterion(3, ok, f"min M-F over 200 annulus pts = {rep['min_value']:.2e} "
                            f">= -1e-8*scale; psi > 2 on S_tau; M-psi >= 0 "
                            f"outside S_1/4 (min {rep_b['min_value']:.2e})")
    assert ok_f and ok_pos and ok_bump


# ---------------------------------------------------------------------------
# criterion 4: solver / Monte Carlo cross-validation
# ---------------------------------------------------------------------------

def test_criterion_4_solver_mc_cross_validation():
    g = halfspace_rule(0, 1.0)
    spec = KernelSpec(1.0, 1.0, 1.5)
    prob = DiscreteProblem(ISO1, spec, [-1], [1], 1 / 128, g)
    u, rep = solve(prob)
    assert rep.converged
    cfg = JumpProcessConfig(ISO1, spec, eta=0.025, payoff=g, seed=20240817)
    details = []
    ok = True
    for x0 in (0.0, 0.4):
        mc = estimate_exit_payoff(cfg, [x0], [-1], [1], paths=100_000)
        grid_val = float(u.eval([x0])[0])
        tol = 3.0 * mc["std_error"] + mc["bias_bound"]
        diff = abs(grid_val - mc["mean"])
        ok &= diff <= tol
        details.append(f"x0={x0}: |grid-mc| {diff:.4f} <= 3se+bias {tol:.4f}")
    record_criterion(4, ok, "; ".join(details) + f" ({mc['paths']} paths)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 5: discrete comparison principle, 20 pairs
# ---------------------------------------------------------------------------

def test_criterion_5_comparison_principle():
    rng = np.random.default_rng(11)
    worst = -np.inf
    ok = True
    for i in range(20):
        c = float(rng.uniform(-0.5, 0.5))
        gap_f = float(rng.uniform(0.05, 0.3))
        lo_b = float(rng.uniform(1.1, 2.0))
        w_b = float(rng.uniform(0.2, 0.8))
        extra = float(rng.uniform(0.1, 0.5))
        g_lo = indicator_box_rule([lo_b], [lo_b + w_b], 1.0)
        g_hi = indicator_box_rule([lo_b], [lo_b + w_b + 0.2], 1.0 + extra)
        sigma = float(rng.choice([1.2, 1.5, 1.8]))
        if i < 14:
            eq, kw = "extremal_plus", {}
            spec = KernelSpec(1.0, 2.0, sigma)
        else:
            spec = KernelSpec(1.0, 2.0, sigma)
            eq = "isaacs"
            kw = {"families": [[lower_rule(spec), midpoint_rule(spec)],
                               [upper_rule(spec)]]}
        prob_u = DiscreteProblem(ISO1, spec, [-1], [1], 1 / 32, g_lo, eq, **kw)
        prob_v = DiscreteProblem(ISO1, spec, [-1], [1], 1 / 32, g_hi, eq, **kw)
        u, ru = solve(prob_u, f=c, tolerance=1e-12)          # I u = c      >= c
        v, rv = solve(prob_v, f=c - gap_f, tolerance=1e-12)  # I v = c-gap  <= c
        assert ru.converged and rv.converged
        rep = comparison_check(prob_u, u, v, f_sub=c, f_super=c - gap_f,
                               tolerance=1e-9)
        worst = max(worst, rep["max_u_minus_v"])
        ok &= rep["ok"]
    record_criterion(5, ok, f"20 sub/supersolution pairs: max(u - v) = "
                            f"{worst:.2e} <= 1e-9")
    assert ok


# ---------------------------------------------------------------------------
# criterion 6: section geometry across the catalog
# ---------------------------------------------------------------------------

def test_criterion_6_section_geometry():
    pots = [make_potential("iso_quadratic", 2),
            make_potential("aniso_quadratic", 2, [25.0, 0.0, 0.0, 1.0]),
            make_potential("perturbed_quadratic", 2, [0.1])]
    centers = [np.array([0.0, 0.0]), np.array([0.7, 0.7]), np.array([-0.5, 0.3])]
    heights = [0.25, 0.5, 1.0]
    gam_max, c_min, dbl_lo, dbl_hi = 0.0, np.inf, np.inf, 0.0
    dirs = unit_directions(2, 64)
    from maslab.sections import boundary_radii
    for pot in pots:
        for c in centers:
            for r in heights:
                gam_max = max(gam_max, engulfing_probe(pot, c, r, 48))
                T = fit_ellipsoid(pot, c, r, 128)
                c_min = min(c_min, T.inner_radius)
                # per-probe lattice fitted to the section's actual extent,
                # so the half-height section is resolved even when eccentric
                bd = c[None, :] + boundary_radii(pot, c, r, dirs)[:, None] * dirs
                lo = bd.min(axis=0) - 0.05 * (bd.max(axis=0) - bd.min(axis=0))
                hi = bd.max(axis=0) + 0.05 * (bd.max(axis=0) - bd.min(axis=0))
                axes = [np.linspace(lo[i], hi[i], 260) for i in range(2)]
                gm = np.meshgrid(*axes, indexing="ij")
                lattice = np.stack([a.ravel() for a in gm], axis=-1)
                cell = (axes[0][1] - axes[0][0]) * (axes[1][1] - axes[1][0])
                m_r = section_measure(pot, c, r, lattice, cell)
                m_h = section_measure(pot, c, r / 2, lattice, cell)
                if m_h > 0:
                    dbl = m_r / m_h
                    dbl_lo, dbl_hi = min(dbl_lo, dbl), max(dbl_hi, dbl)
    ok = gam_max <= 8.0 and c_min >= 0.2 and 1.0 <= dbl_lo and dbl_hi <= 4.0 * 1.05
    record_criterion(6, ok, f"gamma_hat_max {gam_max:.3f} <= 8, inner radius "
                            f"{c_min:.3f} >= 0.2, doubling in "
                            f"[{dbl_lo:.3f}, {dbl_hi:.3f}] within [1, 4*1.05]")
    assert ok


# ---------------------------------------------------------------------------
# criterion 7: covering algorithms
# ---------------------------------------------------------------------------

def test_criterion_7_covering():
    eps = 0.1
    iso2 = make_potential("iso_quadratic", 2)
    rep1 = besicovitch_cover(ISO1, np.linspace(0, 1, 11)[:, None], 0.3, eps,
                             test_lattice=np.linspace(-1, 2, 1000)[:, None])
    ax = np.linspace(0, 1, 32)
    gm = np.meshgrid(ax, ax, indexing="ij")
    rep2 = besicovitch_cover(iso2, np.stack([a.ravel() for a in gm], axis=-1),
                             0.2, eps)
    m_hat = max(rep1.overlap_max, rep2.overlap_max) / np.log(1.0 / eps)
    ok_b = (rep1.measure_ratio == 1.0 and rep2.measure_ratio == 1.0
            and m_hat <= 8.0
            and rep1.overlap_max <= np.ceil(m_hat * np.log(1 / eps))
            and rep2.overlap_max <= np.ceil(m_hat * np.log(1 / eps)))

    lattice = np.linspace(-4, 4, 1601)[:, None]
    mask = np.abs(lattice[:, 0]) < 1 / np.sqrt(2)
    rep3 = cz_decompose(ISO1, lattice, mask, theta=0.5, cell_volume=8 / 1600)
    ok_density = True
    for s in rep3.selected:
        ins = contains_many(ISO1, np.array(s.center), s.r, lattice)
        ok_density &= abs(int((ins & mask).sum()) - 0.5 * int(ins.sum())) <= 2.0
    ok_cz = rep3.measure_ratio < 1.0 and ok_density
    ok = ok_b and ok_cz
    record_criterion(7, ok, f"besicovitch covers exactly, M_hat {m_hat:.2f} <= 8; "
                            f"CZ density 0.5 within 2 cells per section, "
                            f"|A|/|union| = {rep3.measure_ratio:.3f} < 1")
    assert ok


# ---------------------------------------------------------------------------
# criterion 8: ABP pipeline stability
# ---------------------------------------------------------------------------

def test_criterion_8_abp_stability():
    ones = lambda p: np.ones(p.shape[0])
    chats = []
    for h in (1 / 64, 1 / 128):
        spec = KernelSpec(1.0, 2.0, 1.5)
        dom = lambda pts: ISO1.height(np.zeros(1), pts) < 1.0
        prob = DiscreteProblem(ISO1, spec, [-1.5], [1.5], h, zero_rule(),
                               "extremal_plus", domain=dom)
        u, rep = solve(prob, f=-1.0)
        assert rep.converged
        chats.append(abp_experiment(u, ISO1, spec, ones, TAU)["C_hat"])
    ratio = chats[0] / chats[1]
    ok = 0.5 <= ratio <= 2.0
    record_criterion(8, ok, f"ABP constant C_hat {chats[0]:.4f} -> {chats[1]:.4f} "
                            f"across h -> h/2 (ratio {ratio:.3f} within factor 2)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 9: Harnack
# ---------------------------------------------------------------------------

def test_criterion_9_harnack():
    data = [indicator_box_rule([c], [c + w], 1.0)
            for c, w in ((9.3, 0.5), (-9.8, 0.4), (10.5, 1.0), (-11.0, 0.8),
                         (9.1, 0.2))]
    rep = harnack_experiment(ISO1, 1.0, 2.0, data, sigmas=(1.5, 1.7, 1.9),
                             resolutions=(1 / 24, 1 / 48), box_lo=[-9],
                             box_hi=[9], tau=TAU, ratio_cap=50.0,
                             drift_tol=0.25, sigma_trend_cap=2.0)
    ok = rep.passed
    record_criterion(9, ok, f"sup ratio {rep.constants['ratio_max']:.3f} <= 50 "
                            f"across 5 data x 3 sigmas x 2 resolutions, drift "
                            f"{max(rep.stability['drifts'].values()):.3f} <= 0.25, "
                            f"sigma trend {rep.constants['sigma_trend']:.3f} <= 2")
    assert ok


# ---------------------------------------------------------------------------
# criterion 10: Hoelder
# ---------------------------------------------------------------------------

def test_criterion_10_holder():
    g = indicator_box_rule([9.0], [12.0], 1.0)  # discontinuous exterior data
    seminorm_cap = 0.5  # recorded harness constant
    alphas, results = [], []
    for h in (1 / 128, 1 / 256):
        spec = KernelSpec(1.0, 2.0, 1.5)
        prob = DiscreteProblem(ISO1, spec, [-9], [9], h, g)
        u, rep = solve(prob, f=0.0)
        r = holder_estimate(u, ISO1, [0.0], spec, C0=rep.final_residual)
        alphas.append(r["alpha_hat"])
        results.append(r)
    drift = abs(alphas[0] - alphas[1]) / max(alphas)
    ok = (min(alphas) > 0 and all(r["r2"] >= 0.9 for r in results)
          and drift <= 0.2
          and all(r["seminorm_constant"] <= seminorm_cap for r in results))
    record_criterion(10, ok, f"alpha_hat {alphas[0]:.3f}/{alphas[1]:.3f} > 0, "
                             f"R2 >= 0.9, drift {drift:.3f} <= 0.2, seminorm <= "
                             f"{seminorm_cap}*(sup|u|+C0)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 11: L^eps tail
# ---------------------------------------------------------------------------

def test_criterion_11_l_eps_tail():
    spec = KernelSpec(1.0, 2.0, 0.5)
    hole = 1 / 32
    g = indicator_box_rule([-hole], [hole], 1.0)
    dom = lambda pts: np.abs(pts[:, 0]) > hole
    prob = DiscreteProblem(ISO1, spec, [-9], [9], 1 / 128, g, "extremal_minus",
                           domain=dom)
    u, rep = solve(prob, f=0.0)
    assert rep.converged
    r = l_eps_tail(u, ISO1, [0.0], TAU, eps0=10 * rep.final_residual + 1e-8,
                   problem=prob)
    ok = (r["eps_hat"] > 0 and r["r2"] >= 0.9 and r["M_hat"] is not None
          and r["eta_hat"] > 0)
    record_criterion(11, ok, f"eps_hat {r['eps_hat']:.3f} > 0 with R2 "
                             f"{r['r2']:.3f} >= 0.9 over {r['nonempty_levels']} "
                             f"levels; |{{u <= {r['M_hat']:g}}} cap S_1| = "
                             f"{r['eta_hat']:.4f} > 0")
    assert ok


# ---------------------------------------------------------------------------
# criterion 12: C^{1,alpha} with kernel-class certificate
# ---------------------------------------------------------------------------

def test_criterion_12_c1alpha():
    from maslab.grid import gaussian_rule
    spec = KernelSpec(1.0, 2.0, 1.5)
    kw = dict(varrho=0.5, box_lo=[-9], box_hi=[9],
              exterior=gaussian_rule(1.0, 2.0, center=[10.0]),
              f_rule=lambda p: -np.exp(-p[:, 0] ** 2))
    rep = c1alpha_experiment(ISO1, 1.0, 2.0, 1.5, rule=midpoint_rule(spec),
                             resolutions=[1 / 96, 1 / 192], **kw)
    neg = c1alpha_experiment(ISO1, 1.0, 2.0, 1.5, rule=checkerboard_rule(spec),
                             resolutions=[1 / 96], **kw)
    ok = rep.passed and not neg.passed and not neg.flags["kernel_certified"]
    gam = rep.constants["gamma_hats"]
    record_criterion(12, ok, f"smooth kernel certified: gamma_hat "
                             f"{gam[0]:.3f}/{gam[-1]:.3f} > 0, drift "
                             f"{rep.stability['gamma_drift']:.3f} <= 0.25; "
                             f"rough kernel refused")
    assert ok


# ---------------------------------------------------------------------------
# criterion 13: byte-identical reruns for every subcommand
# ---------------------------------------------------------------------------

CLI_CONFIGS = {
    "sections": {"potential": {"id": "iso_quadratic", "dim": 2, "params": []},
                 "probes": {"centers": [[0.0, 0.0]], "heights": [0.5],
                            "ray_count": 48, "trial_count": 8}},
    "operator": None,  # built on the fly (needs an input CSV)
    "solve": {"potential": {"id": "iso_quadratic", "dim": 1, "params": []},
              "kernel": {"lam": 1.0, "Lam": 1.0, "sigma": 1.5},
              "grid": {"box_lo": [-1], "box_hi": [1], "h": 1 / 32},
              "exterior": {"id": "halfspace", "params": [0, 1.0, 1.0]}, "f": 0.0},
    "abp": {"potential": {"id": "iso_quadratic", "dim": 1, "params": []},
            "kernel": {"lam": 1.0, "Lam": 2.0, "sigma": 1.5},
            "grid": {"box_lo": [-1.5], "box_hi": [1.5], "h": 1 / 32},
            "exterior": {"id": "zero"}, "f": -1.0, "tau": 3.0,
            "domain": {"kind": "section", "r": 1.0}, "resolutions": [1 / 32]},
    "leps": {"potential": {"id": "iso_quadratic", "dim": 1, "params": []},
             "kernel": {"lam": 1.0, "Lam": 2.0, "sigma": 0.5},
             "grid": {"box_lo": [-9], "box_hi": [9], "h": 1 / 64},
             "exterior": {"id": "indicator_box",
                          "params": [1, -0.03125, 0.03125, 1.0]},
             "equation": "extremal_minus", "f": 0.0, "tau": 3.0,
             "domain": {"kind": "hole", "lo": [-0.03125], "hi": [0.03125]}},
    "harnack": {"potential": {"id": "iso_quadratic", "dim": 1, "params": []},
                "kernel": {"lam": 1.0, "Lam": 2.0},
                "grid": {"box_lo": [-9], "box_hi": [9], "h": 1 / 16},
                "data_family": [{"id": "indicator_box",
                                 "params": [1, 9.3, 9.8, 1.0]}],
                "sigmas": [1.5], "resolutions": [1 / 16], "tau": 3.0},
    "holder": {"potential": {"id": "iso_quadratic", "dim": 1, "params": []},
               "kernel": {"lam": 1.0, "Lam": 2.0, "sigma": 1.5},
               "grid": {"box_lo": [-9], "box_hi": [9], "h": 1 / 128},
               "exterior": {"id": "indicator_box", "params": [1, 9.0, 12.0, 1.0]},
               "f": 0.0, "resolutions": [1 / 128], "x0": [0.0]},
    "c1alpha": {"potential": {"id": "iso_quadratic", "dim": 1, "params": []},
                "kernel": {"lam": 1.0, "Lam": 2.0, "sigma": 1.5},
                "grid": {"box_lo": [-9], "box_hi": [9], "h": 1 / 96},
                "exterior": {"id": "gaussian", "params": [1.0, 2.0, 10.0]},
                "f": 0.0, "kernel_rule": "midpoint", "varrho": 0.5,
                "resolutions": [1 / 96]},
    "mc-validate": {"seed": 3,
                    "potential": {"id": "iso_quadratic", "dim": 1, "params": []},
                    "kernel": {"lam": 1.0, "Lam": 1.0, "sigma": 1.5},
                    "payoff": {"id": "halfspace", "params": [0, 1.0, 1.0]},
                    "eta": 0.05, "paths": 500, "x0": [0.0],
                    "domain_box": {"lo": [-1], "hi": [1]}},
}


def test_criterion_13_determinism(tmp_path):
    xs = np.linspace(-1, 1, 65)
    csv = tmp_path / "u.csv"
    with open(csv, "w") as fh:
        fh.write("x,u\n")
        for x in xs:
            fh.write(f"{float(x)!r},{float(max(0.0, 1 - x * x))!r}\n")
    configs = dict(CLI_CONFIGS)
    configs["operator"] = {
        "potential": {"id": "iso_quadratic", "dim": 1, "params": []},
        "kernel": {"lam": 1.0, "Lam": 2.0, "sigma": 1.5},
        "input_csv": str(csv), "exterior": {"id": "zero"}, "max_points": 16}
    all_ok = True
    for sub, cfg in configs.items():
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{sub.replace('-', '_')}_{tag}"
            cli_run(sub, cfg, str(out))
            outs.append(out)
        for f in sorted(os.listdir(outs[0])):
            if f == "manifest.json":
                continue
            same = filecmp.cmp(outs[0] / f, outs[1] / f, shallow=False)
            all_ok &= same
            assert same, f"{sub}/{f} not byte-identical"
    record_criterion(13, all_ok,
                     "byte-identical CSV/JSON on rerun for all 9 subcommands "
                     "(manifest timestamps excluded)")
    assert all_ok
