import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.special import betainc

import maslab.mc as mc_mod
from maslab.errors import ConfigurationError, DataError
from maslab.grid import ExteriorRule, constant_rule, halfspace_rule
from maslab.kernels import KernelSpec
from maslab.mc import (JumpProcessConfig, estimate_exit_payoff,
                       generator_truncation_bound, total_truncated_mass)
from maslab.potential import Potential, make_potential
from maslab.sections import unit_directions
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


def test_bias_refinement(iso1, perturbed1):
    # the thinned jumps are truncated at eta, and halving it moves the
    # estimate by no more than the bound; the walk does not read eta
    g = halfspace_rule(0, 1.0)
    r1 = estimate_exit_payoff(_cfg(perturbed1, eta=0.05, payoff=g), [0.4], [-1], [1], 8000)
    r2 = estimate_exit_payoff(_cfg(perturbed1, eta=0.025, payoff=g), [0.4], [-1], [1], 8000)
    move = abs(r1["mean"] - r2["mean"])
    noise = 3.0 * np.hypot(r1["std_error"], r2["std_error"])
    assert move <= r1["bias_bound"] + noise
    assert r2["bias_bound"] < r1["bias_bound"]  # bound shrinks like eta^{2-sigma}
    w1, w2 = (estimate_exit_payoff(_cfg(iso1, eta=eta, payoff=g), [0.4], [-1], [1], 8000)
              for eta in (0.05, 0.025))
    assert w1 == {**w2, "eta": 0.05}
    assert w1["bias_bound"] == 0.0


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


@pytest.mark.parametrize("arg, value", [("x0", math.nan), ("box_hi", math.nan),
                                        ("box_hi", math.inf), ("box_lo", -math.inf)])
def test_non_finite_point_rejected(arg, value, iso1):
    # NaN passes the inside-the-box test, and an infinite face gives the
    # walk infinite sections; either used to run to the step guard
    points = {"x0": [0.0], "box_lo": [-1.0], "box_hi": [1.0], arg: [value]}
    with pytest.raises(ConfigurationError, match=f"{arg} must be finite"):
        estimate_exit_payoff(_cfg(iso1), points["x0"], points["box_lo"], points["box_hi"], 200)


def test_seed_must_be_an_integer(iso1):
    with pytest.raises(ConfigurationError, match="seed must be an integer"):
        _cfg(iso1, seed=1.5)


@pytest.mark.parametrize("paths", [1000.5, 2000.0])
def test_paths_must_be_an_integer(paths, iso1):
    with pytest.raises(ConfigurationError, match="paths must be an integer"):
        estimate_exit_payoff(_cfg(iso1), [0.0], [-1], [1], paths)


def test_paths_floor(iso1):
    with pytest.raises(ConfigurationError):
        estimate_exit_payoff(_cfg(iso1), [0.0], [-1], [1], 50)


def test_aniso_2d_mirror_symmetry(aniso2):
    # exits through the y-sides carry payoff 0, so the mean is below 1/2;
    # mirrored payoffs must agree within noise by x-symmetry
    spec = KernelSpec(1.0, 1.0, 1.2)
    right = halfspace_rule(0, 1.0)
    left = ExteriorRule("left", lambda p: (p[:, 0] < -1.0).astype(float), 1.0)
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
    assert r["bias_bound"] == 0.0  # the walk is exact
    tol = 3 * r["std_error"] + r["bias_bound"]
    assert abs(float(u.eval([0.0])[0]) - r["mean"]) <= tol


@pytest.mark.parametrize("case", ["iso1", "perturbed1"])
def test_runaway_path_guard(case, request, monkeypatch):
    # the guard counts walk steps, or jumps taken and not proposals drawn.
    # From 0.9 a step away from the near face mostly lands inside, so some
    # of the 200 walks live past their second step
    pot = request.getfixturevalue(case)
    cfg = _cfg(pot, sigma=1.5, eta=1e-4, payoff=constant_rule(1.0))
    if pot.quadratic:
        monkeypatch.setattr(mc_mod, "_MAX_JUMPS", 1)
        with pytest.raises(DataError, match="exceeded 1 steps"):
            estimate_exit_payoff(cfg, [0.9], [-1], [1], 200)
        return
    monkeypatch.setattr(mc_mod, "_MAX_JUMPS", 8)
    with pytest.raises(DataError, match="jumps"):
        estimate_exit_payoff(cfg, [0.0], [-50], [50], 200)


@pytest.mark.parametrize("case", ["iso2", "perturbed2", "perturbed2_eps0.5"])
def test_cross_validation_2d(case, request):
    # the only check of a 2D deforming-kernel solve against an independent
    # oracle.  The walk gates iso2 at 3 se + 0; for the perturbed entries
    # the gate is loose: bias_bound (about 0.047) is some eight times the
    # standard error (about 0.006), and ROADMAP item W is the sharper bias
    # estimate it waits for
    pot = (make_potential("perturbed_quadratic", 2, [0.5]) if case == "perturbed2_eps0.5"
           else request.getfixturevalue(case))
    g = ExteriorRule("right", lambda p: (p[:, 0] >= 1.0).astype(float), 1.0)
    spec = KernelSpec(1.0, 1.0, 1.2)
    prob = DiscreteProblem(pot, spec, [-1, -1], [1, 1], 1 / 16, g)
    u, rep = solve(prob)
    assert rep.converged
    cfg = JumpProcessConfig(pot, spec, 0.04, g, seed=5)
    mc = estimate_exit_payoff(cfg, [0.2, 0.0], [-1, -1], [1, 1], 6000)
    gv = float(u.eval(np.array([[0.2, 0.0]]))[0])
    assert (mc["bias_bound"] == 0.0) == pot.quadratic
    assert abs(gv - mc["mean"]) <= 3 * mc["std_error"] + mc["bias_bound"]


@pytest.mark.parametrize("sigma", [0.8, 1.5, 1.9])
@pytest.mark.parametrize("x0", [0.4, -0.3, 0.9])
def test_exact_exit_law_1d(iso1, x0, sigma):
    # P_x(X_tau > 1) on (-1, 1) for the symmetric sigma-stable process is
    # the regularized incomplete beta function I_{(1+x)/2}(s, s), s = sigma/2
    # (Blumenthal, Getoor and Ray 1961); no solver is involved.  The walk is
    # exact, so the gate is 3 se.  At sigma 1.9 about one step in six
    # overshoots its section by less than an ulp of its radius, so an exit
    # through the near face can round onto the face, where it must keep its
    # side
    exact = float(betainc(sigma / 2, sigma / 2, (1 + x0) / 2))
    r = estimate_exit_payoff(_cfg(iso1, sigma=sigma, eta=0.025,
                                  payoff=halfspace_rule(0, 1.0), seed=41),
                             [x0], [-1], [1], 20_000)
    assert r["bias_bound"] == 0.0
    assert abs(r["mean"] - exact) <= 3 * r["std_error"]


def test_chunk_boundary_writes_every_payoff(iso1):
    paths = mc_mod._CHUNK + 3
    r = estimate_exit_payoff(_cfg(iso1, payoff=constant_rule(2.5)),
                             [0.3], [-1], [1], paths)
    assert r["paths"] == paths
    assert r["mean"] == 2.5
    assert r["std_error"] == 0.0


def _perturbed_curvature(eps, xx, xt):
    """theta.D^2 phi(x).theta for a unit theta, from xx = |x|^2 and xt =
    x.theta: D^2 phi(x) = I + eps (I / s - x x^T / s^3), s = sqrt(1 + |x|^2),
    for phi = |x|^2 / 2 + eps sqrt(1 + |x|^2)."""
    s = math.sqrt(1.0 + xx)
    return 1.0 + eps * (1.0 / s - xt * xt / s ** 3)


def _perturbed_height(eps, xx, a, b):
    """w_x(y) = phi(x + y) - phi(x) - grad phi(x).y of the same phi, clipped
    at 0, from xx = |x|^2, a = x.y and b = |y|^2: with s0 = sqrt(1 + |x|^2)
    and s1 = sqrt(1 + |x + y|^2), the root part s1 - s0 - a / s0 is
    rationalized to b / (s0 + s1) - a (2a + b) / (s0 (s0 + s1)^2), which
    keeps small heights accurate."""
    s0 = math.sqrt(1.0 + xx)
    s1 = math.sqrt(1.0 + xx + 2.0 * a + b)
    return max(0.0, 0.5 * b + eps * (b / (s0 + s1) - a * (2.0 * a + b) / (s0 * (s0 + s1) ** 2)))


@pytest.mark.parametrize("x", [[0.0], [0.4], [-2.5], [0.3, 0.0], [-0.7, 1.9]])
def test_perturbed_closed_forms_match_the_potential(x):
    eps, n = 0.5, len(x)
    pot = make_potential("perturbed_quadratic", n, [eps])
    xx = float(np.dot(x, x))
    thetas = np.array([[1.0], [-1.0]]) if n == 1 else unit_directions(2, 8)
    want = np.einsum("ai,ij,aj->a", thetas, pot.hessian(x)[0], thetas)
    got = [_perturbed_curvature(eps, xx, float(np.dot(x, t))) for t in thetas]
    np.testing.assert_allclose(got, want, rtol=1e-14)
    ys = np.random.default_rng(n).normal(size=(6, n)) * [[1e-6], [1e-3], [0.1],
                                                         [1.0], [10.0], [1e3]]
    want = pot.shifted_height(np.array(x), ys)
    got = [_perturbed_height(eps, xx, float(np.dot(x, y)), float(np.dot(y, y))) for y in ys]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def _per_path_reference(config, x0, lo, hi, paths):
    """An independent estimator for the perturbed entry: one Generator and
    one Python loop per path, one scalar draw per jump, by the rejection
    sampler with its curvature and heights from the closed forms above, in
    scalar arithmetic that shares no code with the package.

    Returns the per-path payoffs and jump counts.
    """
    pot, spec, eta = config.potential, config.spec, config.eta
    n, sigma = pot.dim, spec.sigma
    a_lo, a_hi = pot.hessian_bounds()
    env = (a_hi / a_lo) ** ((n + sigma) / 2.0)

    def direction(rng):
        if n == 1:
            return (-1.0 if rng.random() < 0.5 else 1.0,)
        ang = 2.0 * math.pi * rng.random()
        return math.cos(ang), math.sin(ang)

    def draw(rng, x):
        eps, xx = pot.eps, sum(c * c for c in x)
        while True:
            theta = direction(rng)
            xt = sum(p * c for p, c in zip(x, theta))
            q = 0.5 * _perturbed_curvature(eps, xx, xt)
            if rng.random() >= (0.5 * a_lo / q) ** (n / 2.0):
                continue
            t = eta / math.sqrt(q) * rng.random() ** (-1.0 / sigma)
            wbar = math.sqrt(_perturbed_height(eps, xx, t * xt, t * t)
                             * _perturbed_height(eps, xx, -t * xt, t * t))
            ratio = (max(wbar, 1e-300) / (q * t * t)) ** (-(n + sigma) / 2.0) / env
            if rng.random() < ratio:
                return [t * c for c in theta]

    payoffs, jumps = np.empty(paths), np.zeros(paths)
    seeds = np.random.SeedSequence(config.seed).spawn(paths)
    for i in range(paths):
        rng = np.random.default_rng(seeds[i])
        x = [float(c) for c in x0]
        while True:
            y = draw(rng, x)
            x = [p + c for p, c in zip(x, y)]
            jumps[i] += 1
            if any(not a < c < b for c, a, b in zip(x, lo, hi)):
                payoffs[i] = config.payoff(np.array([x]))[0]
                break
    return payoffs, jumps


def _per_path_walk(config, x0, lo, hi, paths):
    """An independent walk on sections, in scalar `math` per path and step
    that shares no code with the package: A^{-1/2} and (A^{-1})_ii come in
    closed form for n <= 2.  It reads each chunk's Generator in the
    estimator's order, one Beta variate for every live path and then one
    uniform for each, so it takes the same steps.

    Returns the per-path exit points and step counts.
    """
    A = config.potential._A.tolist()
    n, s = len(A), config.spec.sigma / 2.0
    if n == 1:
        inv_sqrt, inv_diag = [[1.0 / math.sqrt(A[0][0])]], [1.0 / A[0][0]]
    else:
        (a, b), (c, d) = A
        det = a * d - b * c
        # sqrt(A) = (A + sqrt(det) I) / t, t = sqrt(trace + 2 sqrt(det)),
        # whose determinant is sqrt(det)
        root, t = math.sqrt(det), math.sqrt(a + d + 2.0 * math.sqrt(det))
        inv_sqrt = [[(d + root) / (t * root), -b / (t * root)],
                    [-c / (t * root), (a + root) / (t * root)]]
        inv_diag = [d / det, a / det]
    frame = [[math.sqrt(2.0) * v for v in row] for row in inv_sqrt]

    exits, steps = [None] * paths, [0] * paths
    chunk = mc_mod._CHUNK
    for ch, seq in enumerate(np.random.SeedSequence(config.seed).spawn(-(-paths // chunk))):
        rng = np.random.default_rng(seq)
        live = [(i, [float(v) for v in x0]) for i in range(ch * chunk, min(paths, (ch + 1) * chunk))]
        rounds = 0
        while live:
            rounds += 1
            vs = [rng.beta(s, 1.0 - s) for _ in live]
            us = [rng.random() for _ in live]
            still = []
            for (i, x), v, u in zip(live, vs, us):
                r = min(min(p - a, b - p) / math.sqrt(2.0 * q)
                        for p, a, b, q in zip(x, lo, hi, inv_diag))
                rho = r / math.sqrt(v)
                if n == 1:
                    z = [-rho if u < 0.5 else rho]
                else:
                    z = [rho * math.cos(2.0 * math.pi * u), rho * math.sin(2.0 * math.pi * u)]
                x = [p + sum(f * w for f, w in zip(row, z)) for p, row in zip(x, frame)]
                if all(a < p < b for p, a, b in zip(x, lo, hi)):
                    still.append((i, x))
                else:
                    exits[i], steps[i] = x, rounds
            live = still
    return np.array(exits), np.array(steps)


# a non-diagonal A: a frame applied in the wrong basis changes the law,
# which a diagonal A would hide
_OFFDIAG = [2.0, 0.8, 0.8, 1.0]


def _recording(payoff, seen):
    """`payoff`, keeping the points it is evaluated at in the list `seen`."""
    def fn(p):
        seen.append(p.copy())
        return payoff(p)

    return ExteriorRule(payoff.name, fn, payoff.sup_bound)


@pytest.mark.parametrize("case", ["iso1", "perturbed2", "aniso2_offdiag",
                                  "perturbed1_eps0.5"])
def test_parity_with_per_path_reference(case, iso1, perturbed2):
    # a quadratic potential walks, and the scalar walk takes the same steps
    # from the same draws; the perturbed entry samples the reference's law
    if case == "iso1":
        cfg = _cfg(iso1, sigma=1.5, eta=0.05, payoff=halfspace_rule(0, 1.0), seed=17)
        args = ([0.4], [-1.0], [1.0], 3000)
    elif case == "perturbed1_eps0.5":
        pot = make_potential("perturbed_quadratic", 1, [0.5])
        cfg = _cfg(pot, sigma=1.5, eta=0.025, payoff=halfspace_rule(0, 1.0), seed=17)
        args = ([0.4], [-1.0], [1.0], 2000)
    else:
        pot = perturbed2 if case == "perturbed2" else make_potential(
            "aniso_quadratic", 2, _OFFDIAG)
        spec = KernelSpec(1.0, 1.0, 1.2)
        cfg = JumpProcessConfig(pot, spec, 0.1, halfspace_rule(0, 1.0), 17)
        args = ([0.3, 0.0], [-1.0, -1.0], [1.0, 1.0], 600 if case == "perturbed2" else 2000)
    paths = args[-1]
    if cfg.potential.quadratic:
        seen = []
        r = estimate_exit_payoff(replace(cfg, payoff=_recording(cfg.payoff, seen)), *args)
        ref_exits, ref_steps = _per_path_walk(cfg, *args)
        np.testing.assert_allclose(seen[0], ref_exits, rtol=0.0, atol=1e-12)
        assert r["mean_jumps"] == ref_steps.mean()
        return
    ref_pay, ref_jumps = _per_path_reference(cfg, *args)
    r = estimate_exit_payoff(cfg, *args)
    se_ref = ref_pay.std(ddof=1) / math.sqrt(paths)
    assert abs(r["mean"] - ref_pay.mean()) <= 4 * np.hypot(r["std_error"], se_ref)
    # both estimators sample one law, so the reference's spread of the jump
    # count stands for both
    se_jumps = ref_jumps.std(ddof=1) / math.sqrt(paths)
    assert abs(r["mean_jumps"] - ref_jumps.mean()) <= 4 * math.sqrt(2) * se_jumps


@pytest.mark.parametrize("case", ["iso1", "aniso2_offdiag"])
def test_quadratic_jump_law(case, iso1):
    # in the frame z = A^{1/2} y / sqrt(2), where the model height is |z|^2,
    # P(|z| > r) = (eta / r)^sigma and the direction is uniform and
    # independent of |z|; Kolmogorov-Smirnov tests at a fixed seed
    pot = iso1 if case == "iso1" else make_potential("aniso_quadratic", 2, _OFFDIAG)
    sigma, eta, m = 1.3, 0.05, 20_000
    y = np.stack(mc_mod._draw_jumps(np.random.default_rng(2024), sigma,
                                    mc_mod._frame(pot, eta), (m,)), axis=1)
    ev, V = np.linalg.eigh(pot._A)
    z = y @ (V * np.sqrt(ev)) @ V.T / math.sqrt(2.0)
    radius = np.linalg.norm(z, axis=1)
    assert radius.min() >= eta * (1 - 1e-12)

    def radius_cdf(r):
        return 1.0 - (eta / np.maximum(r, eta)) ** sigma

    if pot.dim == 1:
        angle = np.where(z[:, 0] > 0, 0.5, 0.0)   # two directions
        halves = [z[:, 0] > 0, z[:, 0] < 0]
        assert stats.binomtest(int(halves[0].sum()), m).pvalue > 0.01
    else:
        angle = (np.arctan2(z[:, 1], z[:, 0]) / (2 * math.pi)) % 1.0
        assert stats.kstest(angle, "uniform").pvalue > 0.01
        halves = [angle < 0.5, angle >= 0.5]
    assert stats.kstest(radius, radius_cdf).pvalue > 0.01
    for half in halves:  # the radius does not depend on the direction
        assert stats.kstest(radius[half], radius_cdf).pvalue > 0.01


@pytest.mark.parametrize("case", ["iso1", "aniso2_offdiag"])
def test_section_exit_law(case, iso1):
    # one step from a section's centre: in the frame z = A^{1/2} y / sqrt(2)
    # the section of radius r is the ball |z| < r, which the stable process
    # leaves at |z| / r = V^{-1/2}, V ~ Beta(s, 1 - s), s = sigma/2, in a
    # uniform direction independent of |z| (Blumenthal, Getoor and Ray
    # 1961); Kolmogorov-Smirnov tests at a fixed seed
    pot = iso1 if case == "iso1" else make_potential("aniso_quadratic", 2, _OFFDIAG)
    s, m = 1.3 / 2, 20_000
    rng = np.random.default_rng(2024)
    radius = rng.uniform(0.1, 2.0, m)
    y = mc_mod._exit_steps(rng, s, mc_mod._frame(pot, 1.0), radius).T
    ev, V = np.linalg.eigh(pot._A)
    z = y @ (V * np.sqrt(ev)) @ V.T / math.sqrt(2.0)
    ratio = np.linalg.norm(z, axis=1) / radius
    assert ratio.min() >= 1.0 - 1e-12

    def ratio_cdf(t):
        return 1.0 - betainc(s, 1.0 - s, 1.0 / np.maximum(t, 1.0) ** 2)

    if pot.dim == 1:
        halves = [z[:, 0] > 0, z[:, 0] < 0]
        assert stats.binomtest(int(halves[0].sum()), m).pvalue > 0.01
    else:
        angle = (np.arctan2(z[:, 1], z[:, 0]) / (2 * math.pi)) % 1.0
        assert stats.kstest(angle, "uniform").pvalue > 0.01
        halves = [angle < 0.5, angle >= 0.5]
    assert stats.kstest(ratio, ratio_cdf).pvalue > 0.01
    for half in halves:  # the radius does not depend on the direction
        assert stats.kstest(ratio[half], ratio_cdf).pvalue > 0.01


@pytest.mark.parametrize("arg", ["x0", "box_lo", "box_hi"])
def test_point_of_wrong_dimension_rejected(arg, iso1, iso2):
    # 1D increments would broadcast over both coordinates of a 2D point
    for pot, good, bad in ((iso1, [0.1], [0.1, 0.2]), (iso2, [0.1, 0.0], [0.1])):
        lo, hi = [-1.0] * pot.dim, [1.0] * pot.dim
        points = {"x0": good, "box_lo": lo, "box_hi": hi}
        points[arg] = [v * (1 if arg == "x0" else 10) for v in bad]
        with pytest.raises(ConfigurationError, match=arg):
            estimate_exit_payoff(_cfg(pot), points["x0"], points["box_lo"],
                                 points["box_hi"], 200)


@pytest.mark.parametrize("case, waste", [("iso1", 1.0), ("perturbed1", 1.5)],
                         ids=["iso1", "perturbed1"])
def test_drawn_increments_stay_near_the_jumps_taken(case, waste, request):
    # the exit_1d kind of start: a thinned path stops at its first exit, so
    # the rest of its last block is drawn for nothing, and the perturbed
    # entry also refuses some proposals; a walk draws each step it takes
    # and no other.  The count is exact per seed
    r = estimate_exit_payoff(_cfg(request.getfixturevalue(case), eta=0.025,
                                  payoff=halfspace_rule(0, 1.0), seed=31),
                             [0.4], [-1], [1], 10_000)
    taken = round(r["mean_jumps"] * r["paths"])
    assert taken <= r["drawn_jumps"] <= waste * taken


def _exit_estimate(pot, eta, seed=3):
    return estimate_exit_payoff(JumpProcessConfig(pot, KernelSpec(1.0, 1.0, 1.5), eta,
                                                  halfspace_rule(0, 1.0), seed),
                                [0.4], [-1], [1], 200)


def test_perturbed_bounds_once_per_estimate(perturbed1, monkeypatch):
    # a work count: the Hessian bounds behind the proposal cutoff and the
    # bias bound are constants of the potential, so an estimate takes them
    # at most twice however many rounds of draws its paths need
    calls = {"bounds": 0}
    bounds = Potential.hessian_bounds

    def counted_bounds(self):
        calls["bounds"] += 1
        return bounds(self)

    monkeypatch.setattr(Potential, "hessian_bounds", counted_bounds)
    seen = []
    for eta in (0.2, 0.05):
        calls["bounds"] = 0
        _exit_estimate(perturbed1, eta)
        seen.append(calls["bounds"])
    assert seen[0] == seen[1] <= 2


def test_perturbed_rounds_draw_blocks(iso1, perturbed1, monkeypatch):
    # a work count: every round of the perturbed entry draws a block of
    # proposals through the quadratic model's _draw_jumps, so it takes about
    # as many rounds as a perturbation too small to refuse any proposal, a
    # few more as it refuses some.  A chunk's longest path sets its round
    # count, so the counts are summed over five seeds.  The walk draws no
    # block
    shapes = []
    draw = mc_mod._draw_jumps

    def recorded(rng, sigma, frame, shape):
        shapes.append(shape)
        return draw(rng, sigma, frame, shape)

    monkeypatch.setattr(mc_mod, "_draw_jumps", recorded)
    rounds = []
    for pot in (make_potential("perturbed_quadratic", 1, [1e-9]), perturbed1):
        shapes.clear()
        drawn = sum(_exit_estimate(pot, 0.05, seed)["drawn_jumps"] for seed in range(3, 8))
        assert {shape[0] for shape in shapes} == {mc_mod._BLOCK}
        assert sum(math.prod(shape) for shape in shapes) == drawn
        rounds.append(len(shapes))
    assert 1 <= rounds[1] <= 2 * rounds[0]
    shapes.clear()
    _exit_estimate(iso1, 0.05)
    assert shapes == []


@pytest.mark.parametrize("case", ["perturbed1_eps0.5", "perturbed2"])
def test_thinned_jump_law(case, perturbed2):
    # one thinned step from a fixed x: the taken jumps have density
    # proportional to K_x, that is to wbar_x(y)^{-(n+sigma)/2}, on the local
    # truncation set {y.D^2phi(x).y / 2 >= eta^2}.  On the ray theta,
    # u = (t0 / t)^sigma, t0 = eta sqrt(2 / theta.D^2phi(x).theta), maps the
    # radius t in [t0, inf) to (0, 1], where the density g of u is bounded
    # (constant for a quadratic potential); the CDFs are quad integrals of
    # g, cumulated over nodes and interpolated between them.
    # Kolmogorov-Smirnov tests at a fixed seed
    if case == "perturbed2":
        pot, x = perturbed2, np.array([0.3, 0.0])
    else:
        pot, x = make_potential("perturbed_quadratic", 1, [0.5]), np.array([0.4])
    # a large cutoff puts the taken radii where wbar leaves the local model,
    # so a wrong acceptance exponent shows
    n, sigma, eta, m = pot.dim, 1.3, 0.3, 100_000
    a_lo, a_hi = pot.hessian_bounds()
    rng = np.random.default_rng(2024)
    y = mc_mod._draw_jumps(rng, sigma, mc_mod._frame(pot, eta * math.sqrt(a_lo / a_hi)), (m,)).T
    y = y[mc_mod._accept(rng, pot, sigma, eta, np.repeat(x[None], m, axis=0), y)]
    G = pot.hessian(x)[0]
    local = 0.5 * np.einsum("ki,ij,kj->k", y, G, y)
    assert local.min() >= eta ** 2 * (1 - 1e-12)
    nodes = np.concatenate([[0.0], np.geomspace(1e-8, 1 / 32, 12)[:-1],
                            np.linspace(1 / 32, 1, 32)])

    def ray(theta):
        """The ray's cutoff t0 and the density g of u on it."""
        t0 = eta * math.sqrt(2.0 / (theta @ G @ theta))

        def g(u):
            t = t0 * u ** (-1.0 / sigma)
            return pot.sym_height(x, t * theta)[0] ** (-(n + sigma) / 2.0) * t ** n / (sigma * u)

        return t0, g

    def u_cdf(g):
        """The CDF of u at the nodes."""
        mass = np.cumsum([0.0] + [quad(g, a, b)[0] for a, b in zip(nodes[:-1], nodes[1:])])
        return mass / mass[-1]

    if n == 1:
        t0, g = ray(np.array([1.0]))  # wbar is even, so one ray serves both sides
        cdf = u_cdf(g)
        sides = [y[:, 0] > 0, y[:, 0] < 0]
        assert stats.binomtest(int(sides[0].sum()), len(y)).pvalue > 0.01
        for side in sides:
            radius = np.abs(y[side, 0])
            assert stats.kstest(radius, lambda t: 1.0 - np.interp((t0 / t) ** sigma, nodes, cdf)
                                ).pvalue > 0.01
        return

    # x lies on the first axis, so the law is even in each coordinate: fold
    # the angle into [0, pi/2]
    def direction(a):
        return np.array([math.cos(a), math.sin(a)])

    angle = np.arctan2(np.abs(y[:, 1]), np.abs(y[:, 0]))
    grid = np.linspace(0.0, math.pi / 2, 5)
    angle_cdf = np.cumsum([0.0] + [
        quad(lambda a: quad(ray(direction(a))[1], 0.0, 1.0)[0], a0, a1)[0]
        for a0, a1 in zip(grid[:-1], grid[1:])])
    angle_cdf /= angle_cdf[-1]
    assert stats.kstest(angle, lambda a: np.interp(a, grid, angle_cdf)).pvalue > 0.01
    # the radius given the angle: its CDF, linear in the angle between the
    # grid's rays, maps it to a uniform
    t0 = eta * np.sqrt(2.0 / (G[0, 0] * np.cos(angle) ** 2 + G[1, 1] * np.sin(angle) ** 2))
    u = (t0 / np.linalg.norm(y, axis=1)) ** sigma
    at_rays = np.array([np.interp(u, nodes, u_cdf(ray(direction(a))[1])) for a in grid])
    i = np.minimum(np.searchsorted(grid, angle, side="right") - 1, len(grid) - 2)
    w = (angle - grid[i]) / (grid[1] - grid[0])
    cols = np.arange(len(y))
    uniform = 1.0 - ((1.0 - w) * at_rays[i, cols] + w * at_rays[i + 1, cols])
    assert stats.kstest(uniform, "uniform").pvalue > 0.01
