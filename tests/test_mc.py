import math

import numpy as np
import pytest
from scipy.special import betainc

import maslab.mc as mc_mod
from maslab.errors import ConfigurationError
from maslab.grid import constant_rule, halfspace_rule
from maslab.kernels import KernelSpec
from maslab.mc import (JumpProcessConfig, estimate_exit_payoff,
                       generator_truncation_bound, total_truncated_mass)
from maslab.solver import DiscreteProblem, solve


def _cfg(pot, sigma=1.5, eta=0.05, payoff=None, seed=7):
    spec = KernelSpec(1.0, 1.0, sigma)
    return JumpProcessConfig(pot, spec, eta, payoff or constant_rule(1.0), seed)


def test_requires_single_kernel(iso1):
    spec = KernelSpec(1.0, 2.0, 1.5)
    with pytest.raises(ConfigurationError):
        JumpProcessConfig(iso1, spec, 0.05, constant_rule(1.0), 0)


def test_constant_payoff_exact(iso1):
    r = estimate_exit_payoff(_cfg(iso1, payoff=constant_rule(2.5)),
                             [0.0], [-1], [1], 200)
    assert r["mean"] == 2.5
    assert r["std_error"] == 0.0


def test_symmetric_half(iso1):
    r = estimate_exit_payoff(_cfg(iso1, payoff=halfspace_rule(0, 1.0)),
                             [0.0], [-1], [1], 4000)
    assert abs(r["mean"] - 0.5) <= 3 * r["std_error"]


def test_determinism_per_seed(iso1):
    a = estimate_exit_payoff(_cfg(iso1, payoff=halfspace_rule(0, 1.0), seed=3),
                             [0.2], [-1], [1], 500)
    b = estimate_exit_payoff(_cfg(iso1, payoff=halfspace_rule(0, 1.0), seed=3),
                             [0.2], [-1], [1], 500)
    assert a["mean"] == b["mean"] and a["std_error"] == b["std_error"]
    c = estimate_exit_payoff(_cfg(iso1, payoff=halfspace_rule(0, 1.0), seed=4),
                             [0.2], [-1], [1], 500)
    assert c["mean"] != a["mean"]


def test_bias_refinement(iso1):
    g = halfspace_rule(0, 1.0)
    r1 = estimate_exit_payoff(_cfg(iso1, eta=0.05, payoff=g), [0.4], [-1], [1], 8000)
    r2 = estimate_exit_payoff(_cfg(iso1, eta=0.025, payoff=g), [0.4], [-1], [1], 8000)
    move = abs(r1["mean"] - r2["mean"])
    noise = 3.0 * np.hypot(r1["std_error"], r2["std_error"])
    assert move <= r1["bias_bound"] + noise
    assert r2["bias_bound"] < r1["bias_bound"]  # bound shrinks like eta^{2-sigma}


def test_truncated_mass_closed_form(iso1):
    cfg = _cfg(iso1, sigma=1.5, eta=0.1)
    # 2 * (2-s) * jac * omega * eta^{-s} / s with jac = sqrt(2), omega = 2
    expect = 2 * 0.5 * np.sqrt(2) * 2 * 0.1 ** (-1.5) / 1.5
    assert total_truncated_mass(cfg) == pytest.approx(expect, rel=1e-12)


def test_generator_bound_scales(iso1):
    b1 = generator_truncation_bound(_cfg(iso1, eta=0.1), 1.0)
    b2 = generator_truncation_bound(_cfg(iso1, eta=0.05), 1.0)
    assert b2 / b1 == pytest.approx(0.5 ** (2 - 1.5), rel=1e-12)


def test_x0_outside_rejected(iso1):
    with pytest.raises(ConfigurationError):
        estimate_exit_payoff(_cfg(iso1), [1.5], [-1], [1], 200)


def test_paths_floor(iso1):
    with pytest.raises(ConfigurationError):
        estimate_exit_payoff(_cfg(iso1), [0.0], [-1], [1], 50)


def test_aniso_2d_mirror_symmetry(aniso2):
    # exits through the y-sides carry payoff 0, so the mean is below 1/2;
    # mirrored payoffs must agree within noise by x-symmetry
    spec = KernelSpec(1.0, 1.0, 1.2)
    from maslab.grid import callable_rule
    right = halfspace_rule(0, 1.0)
    left = callable_rule("left", lambda p: (p[:, 0] < -1.0).astype(float), 1.0)
    args = ([0.0, 0.0], [-1, -1], [1, 1], 2000)
    r1 = estimate_exit_payoff(JumpProcessConfig(aniso2, spec, 0.1, right, 5), *args)
    r2 = estimate_exit_payoff(JumpProcessConfig(aniso2, spec, 0.1, left, 6), *args)
    assert r1["mean"] < 0.5
    assert abs(r1["mean"] - r2["mean"]) <= 4 * np.hypot(r1["std_error"], r2["std_error"])


def test_generic_sampler_perturbed(perturbed1):
    spec = KernelSpec(1.0, 1.0, 1.2)
    cfg = JumpProcessConfig(perturbed1, spec, 0.1, halfspace_rule(0, 1.0), 5)
    r = estimate_exit_payoff(cfg, [0.0], [-1], [1], 300)
    assert abs(r["mean"] - 0.5) <= 4 * r["std_error"] + 0.05


def test_cross_validation_against_solver(iso1):
    # the acceptance criterion at reduced scale
    g = halfspace_rule(0, 1.0)
    spec = KernelSpec(1.0, 1.0, 1.5)
    prob = DiscreteProblem(iso1, spec, [-1], [1], 1 / 64, g)
    u, rep = solve(prob)
    r = estimate_exit_payoff(_cfg(iso1, eta=0.025, payoff=g, seed=11),
                             [0.0], [-1], [1], 10000)
    tol = 3 * r["std_error"] + r["bias_bound"]
    assert abs(float(u.eval([0.0])[0]) - r["mean"]) <= tol


def test_runaway_path_guard(iso1, monkeypatch):
    monkeypatch.setattr(mc_mod, "_MAX_JUMPS", 8)
    cfg = _cfg(iso1, sigma=1.5, eta=1e-4, payoff=constant_rule(1.0))
    with pytest.raises(Exception, match="jumps"):
        estimate_exit_payoff(cfg, [0.0], [-50], [50], 200)


def test_cross_validation_2d(iso2):
    from maslab.grid import callable_rule
    g = callable_rule("right", lambda p: (p[:, 0] >= 1.0).astype(float), 1.0)
    spec = KernelSpec(1.0, 1.0, 1.2)
    prob = DiscreteProblem(iso2, spec, [-1, -1], [1, 1], 1 / 16, g)
    u, rep = solve(prob)
    assert rep.converged
    cfg = JumpProcessConfig(iso2, spec, 0.04, g, seed=5)
    mc = estimate_exit_payoff(cfg, [0.2, 0.0], [-1, -1], [1, 1], 6000)
    gv = float(u.eval(np.array([[0.2, 0.0]]))[0])
    assert abs(gv - mc["mean"]) <= 3 * mc["std_error"] + mc["bias_bound"]


@pytest.mark.parametrize("x0", [0.4, -0.3])
def test_exact_exit_law_1d(iso1, x0):
    # P_x(X_tau > 1) on (-1, 1) for the symmetric sigma-stable process is
    # the regularized incomplete beta function I_{(1+x)/2}(s, s), s = sigma/2
    # (Blumenthal, Getoor and Ray 1961); no solver is involved
    sigma = 1.5
    exact = float(betainc(sigma / 2, sigma / 2, (1 + x0) / 2))
    r = estimate_exit_payoff(_cfg(iso1, sigma=sigma, eta=0.025,
                                  payoff=halfspace_rule(0, 1.0), seed=41),
                             [x0], [-1], [1], 20_000)
    assert abs(r["mean"] - exact) <= 3 * r["std_error"] + r["bias_bound"]


def test_chunk_boundary_writes_every_payoff(iso1):
    paths = mc_mod._CHUNK + 3
    r = estimate_exit_payoff(_cfg(iso1, payoff=constant_rule(2.5)),
                             [0.3], [-1], [1], paths)
    assert r["paths"] == paths
    assert r["mean"] == 2.5
    assert r["std_error"] == 0.0


def _per_path_reference(config, x0, lo, hi, paths):
    """The former estimator: one Generator and one Python loop per path,
    with the perturbed rejection sampler in scalar form.

    Returns the per-path payoffs and jump counts.
    """
    pot, spec, eta = config.potential, config.spec, config.eta
    n, sigma = pot.dim, spec.sigma
    quad = pot.id in ("iso_quadratic", "aniso_quadratic")
    a_lo, a_hi = pot.hessian_bounds()
    env = (a_hi / a_lo) ** ((n + sigma) / 2.0)

    def draw_generic(rng, x):
        G = pot.hessian(x)[0]
        while True:
            if n == 1:
                theta = np.array([-1.0 if rng.random() < 0.5 else 1.0])
            else:
                ang = 2.0 * math.pi * rng.random()
                theta = np.array([math.cos(ang), math.sin(ang)])
            q = 0.5 * theta @ G @ theta
            if rng.random() >= (0.5 * a_lo / q) ** (n / 2.0):
                continue
            t = eta / math.sqrt(q) * rng.random() ** (-1.0 / sigma)
            y = t * theta
            wbar = math.sqrt(pot.shifted_height(x, y)[0] * pot.shifted_height(x, -y)[0])
            ratio = (max(wbar, 1e-300) / (q * t * t)) ** (-(n + sigma) / 2.0) / env
            if rng.random() < ratio:
                return y

    payoffs, jumps = np.empty(paths), np.zeros(paths)
    seeds = np.random.SeedSequence(config.seed).spawn(paths)
    for i in range(paths):
        rng = np.random.default_rng(seeds[i])
        x = np.array(x0, dtype=float)
        while True:
            if quad:  # blocks of _BLOCK jumps, cut at the first exit
                block = mc_mod._draw_jumps(rng, config, (mc_mod._BLOCK,))
                pos = x + np.cumsum(block, axis=0)
            else:
                pos = (x + draw_generic(rng, x))[None, :]
            outside = np.any((pos <= lo) | (pos >= hi), axis=1)
            if outside.any():
                k = int(np.argmax(outside))
                jumps[i] += k + 1
                payoffs[i] = config.payoff(pos[k:k + 1])[0]
                break
            jumps[i] += pos.shape[0]
            x = pos[-1]
    return payoffs, jumps


@pytest.mark.parametrize("case", ["iso1", "perturbed2"])
def test_parity_with_per_path_reference(case, iso1, perturbed2):
    if case == "iso1":
        cfg = _cfg(iso1, sigma=1.5, eta=0.05, payoff=halfspace_rule(0, 1.0), seed=17)
        args = ([0.4], [-1.0], [1.0], 3000)
    else:
        spec = KernelSpec(1.0, 1.0, 1.2)
        cfg = JumpProcessConfig(perturbed2, spec, 0.1, halfspace_rule(0, 1.0), 17)
        args = ([0.3, 0.0], [-1.0, -1.0], [1.0, 1.0], 600)
    paths = args[-1]
    ref_pay, ref_jumps = _per_path_reference(cfg, *args)
    r = estimate_exit_payoff(cfg, *args)
    se_ref = ref_pay.std(ddof=1) / math.sqrt(paths)
    assert abs(r["mean"] - ref_pay.mean()) <= 4 * np.hypot(r["std_error"], se_ref)
    # both estimators sample one law, so the reference's spread of the jump
    # count stands for both
    se_jumps = ref_jumps.std(ddof=1) / math.sqrt(paths)
    assert abs(r["mean_jumps"] - ref_jumps.mean()) <= 4 * math.sqrt(2) * se_jumps
