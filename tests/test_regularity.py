import numpy as np
import pytest

from maslab import potential, regularity
from maslab.errors import ConfigurationError, DataError, RefinementNeededError
from maslab.grid import GridFunction, box_lattice, indicator_box_rule, zero_rule
from maslab.kernels import KernelSpec, checkerboard_rule, midpoint_rule
from maslab.potential import Potential, make_potential
from maslab.regularity import (ExperimentReport, c1alpha_experiment,
                               harnack_experiment, holder_estimate,
                               kernel_shift_check, l_eps_tail)
from maslab.solver import DiscreteProblem, solve

TAU = 3.0


def test_leps_trivial_flat_errors(iso1):
    u = GridFunction.from_callable([-9], [9], 1 / 16,
                                   lambda p: np.ones(p.shape[0]), zero_rule())
    with pytest.raises(RefinementNeededError):
        l_eps_tail(u, iso1, [0.0], TAU, eps0=1.0)


def _leps_fixture(iso1, h):
    spec = KernelSpec(1.0, 2.0, 0.5)
    hole = 1 / 32
    g = indicator_box_rule([-hole], [hole], 1.0)
    dom = lambda pts: np.abs(pts[:, 0]) > hole
    prob = DiscreteProblem(iso1, spec, [-9], [9], h, g, "extremal_minus",
                           domain=dom)
    u, rep = solve(prob, f=0.0)
    return u, prob, rep


def test_leps_fixture_exponent(iso1):
    u, prob, rep = _leps_fixture(iso1, 1 / 128)
    r = l_eps_tail(u, iso1, [0.0], TAU, eps0=10 * rep.final_residual + 1e-8,
                   problem=prob)
    assert r["eps_hat"] > 0
    assert r["r2"] >= 0.9
    assert r["nonempty_levels"] >= 4
    assert r["M_hat"] is not None and r["eta_hat"] > 0
    # the minimum over S_1 sits at a mirror pair; a last-bit difference
    # between the two is a tie, and both count
    sym = 0.5 * (u.values.ravel() + u.values.ravel()[::-1])
    in_1 = iso1.height(np.zeros(1), u.points()) < 1.0
    pair = np.flatnonzero(in_1 & (sym == sym[in_1].min()))
    assert pair.size == 2
    sym /= sym[pair[0]]
    sym[pair[1]] *= 1 + 4 * np.finfo(float).eps
    r = l_eps_tail(GridFunction(u.lo, u.hi, sym.reshape(u.values.shape), u.exterior),
                   iso1, [0.0], TAU, eps0=1.0)
    assert r["M_hat"] == 1.0 and r["eta_hat"] == 2 * u.cell_volume()


def test_leps_refinement_stability(iso1):
    vals = []
    for h in (1 / 96, 1 / 192):
        u, prob, rep = _leps_fixture(iso1, h)
        r = l_eps_tail(u, iso1, [0.0], TAU, eps0=1e-6, problem=prob)
        vals.append(r["eps_hat"])
    assert abs(vals[0] - vals[1]) <= 0.2 * max(vals)


def test_drift_is_relative_to_the_larger_end():
    assert regularity.drift(1.0, 0.8) == regularity.drift(0.8, 1.0) == pytest.approx(0.2)
    assert regularity.drift(-1.0, 0.5) == 1.5
    assert regularity.drift(0.0, 0.0) == 0.0


def test_unconverged_experiment_solve_raises(iso1):
    with pytest.raises(DataError, match="stop 'floor'"):
        harnack_experiment(iso1, 1.0, 2.0, [indicator_box_rule([9.3], [9.8], 1.0)],
                           sigmas=(1.5,), resolutions=(1 / 16,), box_lo=[-9],
                           box_hi=[9], tolerance=1e-30)


def test_c1alpha_empty_oscillation_window(iso1):
    # the box misses S_r(0) at every radius: no oscillation to measure
    spec = KernelSpec(1.0, 2.0, 1.5)
    with pytest.raises(RefinementNeededError, match="empty oscillation window"):
        c1alpha_experiment(iso1, spec, 0.5, midpoint_rule(spec), [1 / 128], [1.0],
                           [3.0], zero_rule(), 0.0)


def _harnack_family():
    return [indicator_box_rule([c], [c + w], 1.0)
            for c, w in ((9.3, 0.5), (-9.8, 0.4), (10.5, 1.0), (-11.0, 0.8),
                         (9.1, 0.2))]


def test_harnack_constant_function_ratio_one(iso1):
    from maslab.grid import constant_rule
    rep = harnack_experiment(iso1, 1.0, 2.0, [constant_rule(2.0)],
                             sigmas=(1.5,), resolutions=(1 / 16,),
                             box_lo=[-9], box_hi=[9])
    ratio = list(rep.constants["per_run"].values())[0]
    assert ratio == pytest.approx(1.0, abs=1e-9)


def test_harnack_scale_invariance(iso1):
    # ratio invariant under u -> c u with C0 = 0: data scaled by c
    fam1 = [indicator_box_rule([9.3], [9.8], 1.0)]
    fam5 = [indicator_box_rule([9.3], [9.8], 5.0)]
    kw = dict(sigmas=(1.5,), resolutions=(1 / 24,), box_lo=[-9], box_hi=[9],
              tolerance=1e-11)
    r1 = harnack_experiment(iso1, 1.0, 2.0, fam1, **kw)
    r5 = harnack_experiment(iso1, 1.0, 2.0, fam5, **kw)
    a = list(r1.constants["per_run"].values())[0]
    b = list(r5.constants["per_run"].values())[0]
    assert a == pytest.approx(b, rel=1e-6)


def test_harnack_full_matrix(iso1):
    rep = harnack_experiment(iso1, 1.0, 2.0, _harnack_family(),
                             sigmas=(1.5, 1.7, 1.9), resolutions=(1 / 24, 1 / 48),
                             box_lo=[-9], box_hi=[9])
    assert rep.passed
    assert rep.constants["ratio_max"] <= 50.0
    assert max(rep.stability["drifts"].values()) <= 0.25


def test_harnack_aniso_pullback_comparable(iso1):
    # the anisotropic quadratic is the affine image of the isotropic one;
    # running the pulled-back problem must give a comparable ratio
    aniso = make_potential("aniso_quadratic", 1, [4.0])
    fam_iso = [indicator_box_rule([9.3], [9.8], 1.0)]
    fam_ani = [indicator_box_rule([9.3 / 2], [9.8 / 2], 1.0)]  # x -> x/2
    kw = dict(sigmas=(1.5,), tolerance=1e-10)
    r_iso = harnack_experiment(iso1, 1.0, 2.0, fam_iso, resolutions=(1 / 24,),
                               box_lo=[-9], box_hi=[9], **kw)
    r_ani = harnack_experiment(aniso, 1.0, 2.0, fam_ani, resolutions=(1 / 48,),
                               box_lo=[-4.5], box_hi=[4.5], **kw)
    a = list(r_iso.constants["per_run"].values())[0]
    b = list(r_ani.constants["per_run"].values())[0]
    assert max(a, b) / min(a, b) <= 4.0


def test_harnack_report_roundtrip(iso1):
    rep = ExperimentReport("harnack", inputs={"a": 1}, flags={"ok": True})
    d = rep.to_dict()
    assert d["passed"] and d["experiment"] == "harnack"


def _holder_solution(iso1, h, sigma=1.5):
    spec = KernelSpec(1.0, 2.0, sigma)
    g = indicator_box_rule([9.0], [12.0], 1.0)
    prob = DiscreteProblem(iso1, spec, [-9], [9], h, g)
    u, rep = solve(prob, f=0.0)
    return u, spec, rep


def _pair_heights_row_major(pot, pts):
    # reference: the pairs as rows, by np.repeat and np.tile of the points
    m = pts.shape[0]
    x = np.repeat(pts, m, axis=0)
    return pot.shifted_height(x, np.tile(pts, (m, 1)) - x).reshape(m, m)


@pytest.mark.parametrize("pot_name", ["iso1", "perturbed1", "perturbed2", "aniso2"])
def test_pair_heights_equal_the_per_point_loop(request, pot_name, monkeypatch):
    # holder_estimate's sectional distances: v_p(q) for every pair, bit for
    # bit what one height(p, pts) call per point gives, in one block of
    # pairs or in many
    pot = request.getfixturevalue(pot_name)
    for m in (91, 529):
        k = m if pot.dim == 1 else round(m ** 0.5)
        pts = box_lattice([-0.7, -0.4][:pot.dim], [0.6, 0.5][:pot.dim], [k] * pot.dim)
        want = np.array([pot.height(p, pts) for p in pts])
        assert np.array_equal(pot.pair_heights(pts, pts), want)
        assert np.array_equal(_pair_heights_row_major(pot, pts), want)
        with monkeypatch.context() as mp:
            mp.setattr(potential, "HEIGHT_BLOCK", 1000)
            assert np.array_equal(pot.pair_heights(pts, pts), want)


@pytest.mark.parametrize("dim", [1, 2])
def test_distances_equal_the_norm_of_the_differences(dim, rng):
    # holder_estimate's Euclidean distances, bit for bit those of the (m, m, n)
    # formula, from row-major and column-major points, whole or a block of rows
    P = rng.uniform(-3.0, 3.0, size=(300, dim))
    want = np.linalg.norm(P[:, None, :] - P[None, :, :], axis=-1)
    assert np.array_equal(regularity._distances(P, P), want)
    F = np.asfortranarray(P)
    assert np.array_equal(regularity._distances(F, F), want)
    assert np.array_equal(regularity._distances(F[40:47], F), want[40:47])


@pytest.mark.parametrize("call", [
    lambda u, pot, x: holder_estimate(u, pot, x, KernelSpec(1.0, 2.0, 1.5), C0=0.0),
    lambda u, pot, x: l_eps_tail(u, pot, x, TAU, eps0=1.0),
], ids=["holder_estimate", "l_eps_tail"])
def test_a_base_point_of_several_rows_is_rejected(call, iso1):
    # the second row of x0 or z is not dropped silently
    u = GridFunction.from_callable([-3], [3], 1 / 64, lambda p: 2.0 + np.cos(p[:, 0]),
                                   zero_rule())
    with pytest.raises(ConfigurationError, match="one base point"):
        call(u, iso1, [0.0, 0.5])


def test_holder_affine_slope_one(iso1):
    from maslab.grid import ExteriorRule
    aff = ExteriorRule("aff", lambda p: p[:, 0], 20.0)
    u = GridFunction.from_callable([-9], [9], 1 / 128, lambda p: p[:, 0], aff)
    spec = KernelSpec(1.0, 2.0, 1.5)
    r = holder_estimate(u, iso1, [0.0], spec, C0=0.0)
    assert r["alpha_hat"] >= 0.95
    assert r["r2"] >= 0.99


@pytest.mark.parametrize("pot_name", ["iso1", "perturbed1"])
def test_holder_one_height_pass_about_x0(request, pot_name, monkeypatch):
    # the half section and every oscillation window come from one height
    # array about x0; the pair distances use pair_heights
    pot = request.getfixturevalue(pot_name)
    u = GridFunction.from_callable([-3], [3], 1 / 256, lambda p: np.cos(2 * p[:, 0]),
                                   zero_rule())
    calls = []
    original = Potential.height
    monkeypatch.setattr(Potential, "height",
                        lambda self, x, y: calls.append(1) or original(self, x, y))
    holder_estimate(u, pot, [0.1], KernelSpec(1.0, 2.0, 1.5), C0=0.0)
    assert len(calls) == 1


def test_holder_solved_fixture(iso1):
    u, spec, rep = _holder_solution(iso1, 1 / 128)
    r = holder_estimate(u, iso1, [0.0], spec, C0=rep.final_residual)
    assert 0 < r["alpha_hat"] <= 1.1
    assert r["r2"] >= 0.9
    assert r["seminorm_hat"] > 0
    assert r["seminorm_euclidean"] > 0
    assert np.isfinite(r["seminorm_constant"])


def test_holder_sigma_pair_bounded_below(iso1):
    alphas = []
    for sigma in (1.5, 1.9):
        u, spec, rep = _holder_solution(iso1, 1 / 128, sigma)
        r = holder_estimate(u, iso1, [0.0], spec, C0=rep.final_residual)
        alphas.append(r["alpha_hat"])
    assert min(alphas) > 0.5  # uniformly positive across the sigma pair


def test_shift_check_smooth_stable(iso1):
    spec = KernelSpec(1.0, 2.0, 1.5)
    r = kernel_shift_check(iso1, spec, midpoint_rule(spec), 0.5, [[0.05], [0.1]])
    assert r["stable"]
    assert np.isfinite(r["Upsilon_hat"])
    assert max(r["refinement_rel_change"]) <= 0.05


def test_shift_check_rejects_bad_shifts(iso1):
    spec = KernelSpec(1.0, 2.0, 1.5)
    with pytest.raises(ConfigurationError):
        kernel_shift_check(iso1, spec, midpoint_rule(spec), 0.5, [[0.0]])
    with pytest.raises(ConfigurationError):
        kernel_shift_check(iso1, spec, midpoint_rule(spec), 0.5, [[0.4]])


def test_shift_check_rough_flagged(iso1):
    spec = KernelSpec(1.0, 2.0, 1.5)
    smooth = kernel_shift_check(iso1, spec, midpoint_rule(spec), 0.5,
                                [[0.05], [0.1]])
    rough = kernel_shift_check(iso1, spec, checkerboard_rule(spec), 0.5,
                               [[0.05], [0.1]])
    flagged = (not rough["stable"]) or \
        rough["Upsilon_hat"] > 1.25 * smooth["Upsilon_hat"]
    assert flagged


def _c1a_kwargs(h_list):
    from maslab.grid import gaussian_rule
    return dict(varrho=0.5, resolutions=h_list, box_lo=[-9], box_hi=[9],
                exterior=gaussian_rule(1.0, 2.0, center=[10.0]),
                f_rule=lambda p: -np.exp(-p[:, 0] ** 2))


def test_c1alpha_smooth_kernel(iso1):
    spec = KernelSpec(1.0, 2.0, 1.5)
    rep = c1alpha_experiment(iso1, spec, rule=midpoint_rule(spec),
                             **_c1a_kwargs([1 / 96, 1 / 192]))
    assert rep.passed
    assert min(rep.constants["gamma_hats"]) > 0
    assert min(rep.constants["r2s"]) >= 0.9


def test_c1alpha_rough_kernel_refused(iso1):
    spec = KernelSpec(1.0, 2.0, 1.5)
    rep = c1alpha_experiment(iso1, spec, rule=checkerboard_rule(spec),
                             **_c1a_kwargs([1 / 96]))
    assert not rep.passed
    assert not rep.flags["kernel_certified"]
