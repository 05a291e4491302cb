import numpy as np
import pytest

from maslab import envelope
from maslab.envelope import (abp_experiment, compute_tau, concave_envelope,
                             detachment_heights, estimate_engulfing,
                             ring_estimate_check)
from maslab.errors import DataError, RefinementNeededError
from maslab.grid import GridFunction, zero_rule
from maslab.kernels import KernelSpec
from maslab.potential import Potential, make_potential
from maslab.solver import DiscreteProblem, solve

TAU = 3.0


def _cap(p, a=2.0):
    return np.maximum(0.0, 1.0 - (a * p[:, 0]) ** 2)


def _u_cap(h=1 / 64):
    return GridFunction.from_callable([-1.5], [1.5], h, _cap, zero_rule())


def _ones(p):
    return np.ones(p.shape[0])


def _in_tau(env, pot):
    """The envelope lattice points in S_tau(0), by their heights."""
    return pot.height(np.zeros(pot.dim), env.lattice) < TAU * TAU


def _contact_tol(u):
    """concave_envelope's contact tolerance: twice the interpolation error
    estimate |second difference| / 8 of u's values."""
    d2 = max(float(np.abs(np.diff(u.values, n=2, axis=ax)).max()) for ax in range(u.dim))
    return max(0.25 * d2, 1e-12 * max(1.0, float(np.abs(u.values).max())))


def test_tau_ball_closed_form(iso1):
    # |2x - z| >= |z| - 2|x| > (tau - 2) sqrt(2): tau = 3 suffices
    assert compute_tau(iso1) <= 3.0 + 1e-6


def test_tau_symmetric_at_center(iso2):
    # at x = 0 any tau >= 1 works; the probe must not exceed the ball bound
    assert compute_tau(iso2) <= 3.0 + 1e-6


def test_tau_perturbed_stable(perturbed1, monkeypatch):
    monkeypatch.setattr(envelope, "TAU_SAMPLES", 16)
    t1 = compute_tau(perturbed1)
    monkeypatch.setattr(envelope, "TAU_SAMPLES", 32)
    t2 = compute_tau(perturbed1)
    assert np.isfinite(t1) and np.isfinite(t2)
    assert abs(t1 - t2) <= 0.25 * max(t1, t2)


@pytest.mark.parametrize("pot, want", [
    (make_potential("iso_quadratic", 1), 2.9980284771158896),
    (make_potential("iso_quadratic", 2), 2.9980284771158896),
    (make_potential("perturbed_quadratic", 2, [0.1]), 2.947480934096548)])
def test_tau_values_and_one_height_call_per_predicate(pot, want, monkeypatch):
    # the bisection evaluates the predicate 21 times (at 64 gamma, then 20
    # steps), each with one height call over every mirrored point
    calls = []
    original = Potential.height
    monkeypatch.setattr(Potential, "height",
                        lambda self, x, y: calls.append(1) or original(self, x, y))
    assert compute_tau(pot) == pytest.approx(want, rel=1e-12, abs=0.0)
    assert len(calls) == 21


@pytest.mark.parametrize("sigma, h, a_hi", [
    (1.5, 1 / 32, 1.0), (0.5, 1 / 128, 25.0), (1.9, 1e-4, 1.0), (1.2, 1e-9, 3.0),
    (0.3, 0.005, 100.0), (1.0, 0.125 / 2.0 ** 0.5, 1.0)])
def test_detachment_heights_match_the_halving_loop(sigma, h, a_hi):
    # r0 2^-k while the section's euclidean scale r sqrt(2/a_hi) is >= 4 h;
    # the last case puts 4 h exactly on r_2 sqrt(2/a_hi), which is kept
    r0, want = 2.0 ** (-1.0 / (2.0 - sigma)), []
    while r0 * 2.0 ** -len(want) * np.sqrt(2.0 / a_hi) >= 4.0 * h:
        want.append(r0 * 2.0 ** -len(want))
    assert detachment_heights(sigma, h, a_hi).tolist() == want


def test_detachment_heights_grid_too_coarse():
    with pytest.raises(RefinementNeededError, match="too coarse"):
        detachment_heights(1.5, 0.3, 1.0)


def test_engulfing_estimate_bounded(perturbed2):
    assert estimate_engulfing(perturbed2) <= 8.0


def test_envelope_dominates_and_concave(iso1):
    env = concave_envelope(_u_cap(), iso1, TAU)
    up = np.maximum(env.u_vals, 0.0)
    in_tau = _in_tau(env, iso1)
    assert np.all(env.gamma.values.ravel()[in_tau] >= up[in_tau] - 1e-12)
    g = env.gamma.values.ravel()[in_tau]
    assert np.all(g[1:-1] >= 0.5 * (g[:-2] + g[2:]) - 1e-9)


def test_envelope_zero_for_nonpositive(iso1):
    u = GridFunction.from_callable([-1.5], [1.5], 1 / 32,
                                   lambda p: -np.ones(p.shape[0]), zero_rule())
    env = concave_envelope(u, iso1, TAU)
    assert env.details["trivial"]
    assert np.all(env.gamma.values == 0.0)
    assert not env.contact_mask.any()


def test_envelope_single_spike(iso1):
    def spike(p):
        return np.where(np.abs(p[:, 0]) < 1e-9, 1.0, 0.0)

    u = GridFunction.from_callable([-1.5], [1.5], 1 / 32, spike, zero_rule())
    env = concave_envelope(u, iso1, TAU)
    i0 = int(np.argmin(np.abs(env.lattice[:, 0])))
    assert env.gamma.values.ravel()[i0] == pytest.approx(1.0, abs=1e-9)
    assert env.contact_mask[i0]


def test_envelope_matches_plane_minimization_oracle(iso1):
    # brute force: at each lattice point, minimize over all planes through
    # pairs of lifted points that dominate the cloud
    u = _u_cap(h=1 / 16)
    env = concave_envelope(u, iso1, TAU)
    in_tau = _in_tau(env, iso1)
    pts = env.lattice[in_tau][:, 0]
    up = np.maximum(env.u_vals[in_tau], 0.0)
    k = pts.size
    best = np.full(k, np.inf)
    for i in range(k):
        for j in range(i + 1, k):
            if pts[i] == pts[j]:
                continue
            sl = (up[j] - up[i]) / (pts[j] - pts[i])
            vals = up[i] + sl * (pts - pts[i])
            if np.all(vals >= up - 1e-12):
                best = np.minimum(best, vals)
    got = env.gamma.values.ravel()[in_tau]
    assert np.all(np.abs(got - best) <= 1e-6)


def test_envelope_precondition(iso1):
    u = GridFunction.from_callable([-3], [3], 1 / 16,
                                   lambda p: np.ones(p.shape[0]), zero_rule())
    with pytest.raises(DataError):  # measured on u, not a configuration error
        concave_envelope(u, iso1, TAU)


def test_supergradient_supports_u(iso1):
    u = _u_cap()
    env = concave_envelope(u, iso1, TAU)
    idx = np.nonzero(env.contact_mask)[0]
    pts, in_tau, tol = env.lattice, _in_tau(env, iso1), _contact_tol(u)
    for ci in idx[:10]:
        tangent = env.u_vals[ci] + (pts[in_tau] - pts[ci]) @ env.supergradients[ci]
        assert np.all(env.u_vals[in_tau] <= tangent + 2 * tol + 1e-9)


def test_envelope_2d_smoke(iso2):
    def cap2(p):
        return np.maximum(0.0, 1.0 - 4.0 * (p ** 2).sum(axis=1))

    u = GridFunction.from_callable([-1.5, -1.5], [1.5, 1.5], 1 / 12, cap2, zero_rule())
    env = concave_envelope(u, iso2, TAU)
    up = np.maximum(env.u_vals, 0.0)
    in_tau = _in_tau(env, iso2)
    assert np.all(env.gamma.values.ravel()[in_tau] >= up[in_tau] - 1e-9)
    assert env.contact_mask.any()
    i0 = int(np.argmin(np.linalg.norm(env.lattice, axis=1)))
    assert env.gamma.values.ravel()[i0] == pytest.approx(1.0, abs=1e-6)


def _solved_abp_fixture(iso1, h):
    spec = KernelSpec(1.0, 2.0, 1.5)
    dom = lambda pts: iso1.height(np.zeros(1), pts) < 1.0
    prob = DiscreteProblem(iso1, spec, [-1.5], [1.5], h, zero_rule(),
                           "extremal_plus", domain=dom)
    u, rep = solve(prob, f=-1.0)
    assert rep.converged
    return u, spec


def test_ring_estimate_concave_case(iso1):
    u, spec = _solved_abp_fixture(iso1, 1 / 64)
    env = concave_envelope(u, iso1, TAU)
    rep = ring_estimate_check(env, iso1, spec, _ones, M=1000.0)
    # for very large M the detachment sets W_k are empty: ratio 0 at some k
    assert rep["C0_hat"] == 0.0
    assert all(c["ratio"] == 0.0 for c in rep["contacts"])


def test_ring_estimate_counts(iso1):
    u, spec = _solved_abp_fixture(iso1, 1 / 64)
    env = concave_envelope(u, iso1, TAU)
    rep = ring_estimate_check(env, iso1, spec, _ones, M=20.0)
    assert np.isfinite(rep["C0_hat"])
    assert len(rep["contacts"]) >= 1
    for c in rep["contacts"]:
        assert c["ring_cells"] >= 4


def test_abp_pipeline_stability(iso1):
    reports = []
    for h in (1 / 64, 1 / 128):
        u, spec = _solved_abp_fixture(iso1, h)
        reports.append(abp_experiment(u, iso1, spec, _ones, TAU))
    c0, c1 = reports[0]["C_hat"], reports[1]["C_hat"]
    assert 0.5 <= c0 / c1 <= 2.0
    for r in reports:
        assert not r["trivial"]
        assert r["sup_u"] > 0
        assert r["union_measure"] > 0
        assert r["overlap_max"] >= 1


def test_abp_trivial_case(iso1):
    u = GridFunction.from_callable([-1.5], [1.5], 1 / 32,
                                   lambda p: -np.abs(p[:, 0]), zero_rule())
    spec = KernelSpec(1.0, 2.0, 1.5)
    r = abp_experiment(u, iso1, spec, _ones, TAU)
    assert r["trivial"]


def test_abp_perturbed_order_of_magnitude(perturbed1):
    spec = KernelSpec(1.0, 2.0, 1.5)
    dom = lambda pts: perturbed1.height(np.zeros(1), pts) < 1.0
    prob = DiscreteProblem(perturbed1, spec, [-1.5], [1.5], 1 / 64, zero_rule(),
                           "extremal_plus", domain=dom)
    u, rep = solve(prob, f=-1.0)
    r = abp_experiment(u, perturbed1, spec, _ones, TAU)
    assert np.isfinite(r["C_hat"]) and r["C_hat"] > 0


def test_contact_avoids_negative_rhs_region(iso1):
    # contact points carry f(x) >= 0 on the solved fixture (Remark-type check)
    u, spec = _solved_abp_fixture(iso1, 1 / 64)
    env = concave_envelope(u, iso1, TAU)
    rep = ring_estimate_check(env, iso1, spec, _ones, M=20.0)
    assert all(c["f"] >= 0 for c in rep["contacts"])


def test_ring_estimate_coarse_grid_refinement_error(iso1):
    import pytest as _pt
    from maslab.errors import RefinementNeededError
    from maslab.regularity import ExperimentReport  # noqa: F401 (import check)
    u = GridFunction.from_callable([-1.5], [1.5], 0.5, _cap, zero_rule())
    spec = KernelSpec(1.0, 2.0, 1.9)  # r_0 tiny at sigma=1.9
    env = concave_envelope(u, iso1, TAU)
    with _pt.raises(RefinementNeededError):
        ring_estimate_check(env, iso1, spec, _ones, M=20.0)
