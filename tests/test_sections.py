import numpy as np
import pytest

from maslab.errors import ConfigurationError, GeometryError, RefinementNeededError
from maslab.grid import box_lattice, tensor_points
from maslab.potential import Potential, make_potential
from maslab.sections import (AffineMap, besicovitch_cover, boundary_radii,
                             contains_many, cz_decompose, deformation_checks,
                             engulfing_probe, fit_ellipsoid, unit_directions)


def test_contains_quadratic(iso2, aniso2):
    assert contains_many(iso2, [0.0, 0.0], 1.0, [1.0, 0.0])[0]         # v = 0.5 < 1
    assert not contains_many(aniso2, [0.0, 0.0], 1.0, [1.0, 0.0])[0]   # v = 2 >= 1
    assert contains_many(aniso2, [0.3, 0.4], 0.2, [0.3, 0.4])[0]       # own center


def test_section_monotone_and_convex(perturbed2, rng):
    x = np.array([0.4, -0.2])
    pts = rng.normal(size=(10000, 2))
    small = contains_many(perturbed2, x, 0.5, pts)
    large = contains_many(perturbed2, x, 1.0, pts)
    assert np.all(~small | large)  # S_r subset S_s for r <= s
    inside = pts[contains_many(perturbed2, x, 0.8, pts)]
    if inside.shape[0] >= 2:
        mids = 0.5 * (inside[:-1] + inside[1:])
        assert np.all(contains_many(perturbed2, x, 0.8, mids))


def test_boundary_radius_closed_forms(iso2, aniso2):
    assert boundary_radii(iso2, [0, 0], 1.0, [[1, 0]]) == pytest.approx([np.sqrt(2)], rel=1e-14)
    t = boundary_radii(aniso2, [0, 0], 1.0, [[0, 1], [1, 0]])
    assert t == pytest.approx([np.sqrt(2), np.sqrt(0.5)], rel=1e-14)
    # non-diagonal, off-centre and 1D: t*(d) = r sqrt(2 / d.A d) at every centre
    for entries, x in (([25.0, 3.0, 3.0, 1.0], [0.0, 0.0]), ([25.0, 3.0, 3.0, 1.0], [0.7, -0.4]),
                       ([7.0], [0.3])):
        n = len(x)
        pot = make_potential("aniso_quadratic", n, entries)
        A = np.asarray(entries).reshape(n, n)
        dirs = np.array([[1.0], [-1.0]]) if n == 1 else unit_directions(2, 16, 0.3)
        curvature = np.einsum("ki,ij,kj->k", dirs, A, dirs)
        for r in (1e-3, 1.0, 5.0):
            t = boundary_radii(pot, x, r, dirs)
            assert t == pytest.approx(r * np.sqrt(2.0 / curvature), rel=1e-14)


@pytest.mark.parametrize("eps", [0.1, 0.5])
@pytest.mark.parametrize("n", [1, 2])
def test_boundary_radius_hits_the_height_perturbed(eps, n):
    pot = make_potential("perturbed_quadratic", n, [eps])
    x = np.array([0.8]) if n == 1 else np.array([0.6, -0.5])
    dirs = np.array([[1.0], [-1.0]]) if n == 1 else unit_directions(2, 32, 0.25)
    for r in (1e-4, 0.5, 20.0):
        t = boundary_radii(pot, x, r, dirs)
        v = pot.shifted_height(x, t[:, None] * dirs)
        assert np.abs(v / r ** 2 - 1.0).max() <= 1e-13


def test_boundary_radius_independent_bisection_oracle(perturbed2):
    # a scalar brentq oracle, to the rounding of the height
    from scipy.optimize import brentq
    x = np.array([1.0, 0.0])
    d = np.array([1.0, 0.0])
    r = 0.5

    def fn(t):
        return float(perturbed2.height(x, x + t * d)[0]) - r * r

    t_oracle = brentq(fn, 1e-9, 10.0, xtol=1e-15)
    t_pkg = boundary_radii(perturbed2, x, r, d)[0]
    assert t_pkg == pytest.approx(t_oracle, rel=1e-12)


@pytest.mark.parametrize("pot, most", [
    (make_potential("iso_quadratic", 1), 2),
    (make_potential("iso_quadratic", 2), 2),
    (make_potential("aniso_quadratic", 2, [100.0, 3.0, 3.0, 1.2]), 2),
    (make_potential("perturbed_quadratic", 1, [0.5]), 8),
    (make_potential("perturbed_quadratic", 2, [0.1]), 8),
    (make_potential("perturbed_quadratic", 2, [0.5]), 8),
])
def test_boundary_radius_height_evaluations(pot, most, monkeypatch):
    # the quadratic model is the root for a quadratic, and Newton from it
    # takes 4-5 steps on the perturbed entry
    calls = []
    original = Potential.shifted_height

    def counted(self, *args):
        calls.append(1)
        return original(self, *args)

    monkeypatch.setattr(Potential, "shifted_height", counted)
    x = [0.4] if pot.dim == 1 else [0.5, -0.3]
    dirs = unit_directions(pot.dim, 64, 0.5)
    for r in (1e-4, 0.5, 20.0):
        calls.clear()
        boundary_radii(pot, x, r, dirs)
        assert len(calls) <= most


def test_boundary_radius_never_returns_unconverged(perturbed2, monkeypatch):
    # with a useless slope every Newton step leaves the bracket: the call
    # either converges by doubling and bisection or raises
    x = np.array([0.5, -0.3])
    dirs = unit_directions(2, 8)
    grad_x = perturbed2.gradient(x)
    monkeypatch.setattr(Potential, "gradient",
                        lambda self, y: np.repeat(grad_x, np.atleast_2d(y).shape[0], axis=0))
    try:
        t = boundary_radii(perturbed2, x, 0.5, dirs)
    except GeometryError as e:
        assert "not converged" in str(e)
    else:
        v = perturbed2.shifted_height(x, t[:, None] * dirs)
        assert np.abs(v / 0.25 - 1.0).max() <= 1e-13


def test_boundary_radius_beyond_the_search_bracket(iso2, monkeypatch):
    # phi = 1e-14 |x|^2 / 2 has S_1(0) of radius 1.4e7, past the 1e6 r bracket
    monkeypatch.setattr(Potential, "shifted_height",
                        lambda self, x, y: 0.5e-14 * np.sum(np.square(y), axis=1))
    monkeypatch.setattr(Potential, "gradient", lambda self, y: 1e-14 * np.atleast_2d(y))
    with pytest.raises(GeometryError, match="1e6"):
        boundary_radii(iso2, [0.0, 0.0], 1.0, unit_directions(2, 4))


def test_boundary_radius_rejects_zero_direction(iso1):
    with pytest.raises(ConfigurationError):
        boundary_radii(iso1, [0.0], 1.0, [[0.0]])


def _outer_radius(T, potential, x, r, ray_count):
    """Largest |T z| over the boundary points z of S_r(x) on the rays half a
    step off unit_directions(2, ray_count)."""
    fresh = unit_directions(2, ray_count, 0.5)
    t = boundary_radii(potential, x, r, fresh)
    return float(np.linalg.norm(T.apply(np.asarray(x) + t[:, None] * fresh), axis=1).max())


def test_fit_ellipsoid_ball(iso2):
    T = fit_ellipsoid(iso2, [0, 0], 1.0, ray_count=128)
    assert np.allclose(T.linear_part, np.eye(2) / np.sqrt(2), atol=5e-3)
    assert T.inner_radius >= 0.99
    assert _outer_radius(T, iso2, [0, 0], 1.0, 128) <= 1.0 + 1e-3


def test_fit_ellipsoid_aniso_axis_ratio(aniso2):
    T = fit_ellipsoid(aniso2, [0, 0], 1.0, ray_count=128)
    sv = np.linalg.svd(np.linalg.inv(T.linear_part), compute_uv=False)
    assert sv[0] / sv[1] == pytest.approx(2.0, rel=0.01)


def test_fit_ellipsoid_perturbed_volume(perturbed2, rng):
    T = fit_ellipsoid(perturbed2, [1.0, 0.0], 0.5, ray_count=128)
    assert 0.3 < T.inner_radius <= 1.0 + 1e-3
    # Monte Carlo volume oracle for the section
    box = 2.0
    pts = rng.uniform(-box, box, size=(1_000_000, 2)) + np.array([1.0, 0.0])
    frac = contains_many(perturbed2, np.array([1.0, 0.0]), 0.5, pts).mean()
    vol_mc = frac * (2 * box) ** 2
    vol_T = np.pi / abs(T.det)
    assert vol_T / vol_mc < 4.0 and vol_mc / vol_T < 4.0


def test_fit_ellipsoid_affine_covariance(rng):
    # normalizing x^T(M^T A M)x at M^{-1}x matches M composed with the
    # normalization of x^T A x, up to an orthogonal factor
    A = np.array([[3.0, 0.5], [0.5, 1.0]])
    M = np.array([[0.8, 0.2], [-0.3, 1.1]])
    potA = make_potential("aniso_quadratic", 2, A.ravel())
    potB = make_potential("aniso_quadratic", 2, (M.T @ A @ M).ravel())
    TA = fit_ellipsoid(potA, [0, 0], 1.0, 256)
    TB = fit_ellipsoid(potB, [0, 0], 1.0, 256)
    Q = TB.linear_part @ np.linalg.inv(TA.linear_part @ M)
    sv = np.linalg.svd(Q, compute_uv=False)
    assert np.all(np.abs(sv - 1.0) < 0.01)


@pytest.mark.parametrize("A, center", [
    ([1.0, 0.0, 0.0, 1.0], [0.3, -0.2]),
    ([25.0, 0.0, 0.0, 1.0], [0.7, 0.7]),
    ([3.0, 0.5, 0.5, 1.0], [-0.4, 0.6]),
])
def test_fit_ellipsoid_quadratic_closed_form(A, center):
    # S_r(x) = {y : (y-x)^T A (y-x) < 2 r^2} exactly, so T^T T = A / (2 r^2),
    # centred at x, and T(S_r(x)) is the unit ball
    pot = make_potential("aniso_quadratic", 2, A)
    A = np.asarray(A).reshape(2, 2)
    for r in (0.25, 0.5, 1.0):
        T = fit_ellipsoid(pot, center, r, ray_count=128)
        want = A / (2.0 * r * r)
        got = T.linear_part.T @ T.linear_part
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()
        assert np.abs(T.offset - center).max() <= 1e-9 * r
        assert T.inner_radius >= 1.0 - 1e-9
        assert _outer_radius(T, pot, center, r, 128) <= 1.0 + 1e-9


@pytest.mark.parametrize("pot_name", ["iso1", "perturbed1"])
def test_fit_ellipsoid_1d_is_the_interval_map(pot_name, request):
    pot = request.getfixturevalue(pot_name)
    for x, r in ((0.0, 1.0), (0.4, 0.5), (-0.9, 0.25)):
        t_plus, t_minus = boundary_radii(pot, [x], r, np.array([[1.0], [-1.0]]))
        T = fit_ellipsoid(pot, [x], r)
        half = 0.5 * (t_plus + t_minus)
        assert T.linear_part[0, 0] == pytest.approx(1.0 / half, rel=1e-14)
        assert T.offset[0] == pytest.approx(x + 0.5 * (t_plus - t_minus), abs=1e-14)


def test_fit_ellipsoid_off_centre_perturbed(perturbed2):
    for r in (0.25, 0.5, 1.0):
        T = fit_ellipsoid(perturbed2, [0.7, 0.7], r, ray_count=128)
        assert T.inner_radius >= 0.99
        assert _outer_radius(T, perturbed2, [0.7, 0.7], r, 128) <= 1.0 + 1e-3


def test_fit_ellipsoid_ray_count_guard(iso2):
    with pytest.raises(ConfigurationError):
        fit_ellipsoid(iso2, [0, 0], 1.0, ray_count=3)


def test_engulfing_ball_constant(iso2):
    g = engulfing_probe(iso2, [0, 0], 1.0)
    assert g <= 2.0 + 1e-3


def test_engulfing_affine_invariance(aniso2):
    g = engulfing_probe(aniso2, [0, 0], 1.0)
    assert g <= 2.0 + 1e-3


def test_engulfing_perturbed_uniform(perturbed2):
    gs = [engulfing_probe(perturbed2, c, r)
          for c in ([0.0, 0.0], [0.7, 0.7], [-0.5, 0.3])
          for r in (0.25, 0.5, 1.0)]
    assert max(gs) <= 8.0


def _engulfing_samples(potential, x, r, trial_count):
    # the interior samples ys and boundary points zs of engulfing_probe
    n = potential.dim
    x = np.atleast_1d(np.asarray(x, dtype=float))
    dirs = unit_directions(n, max(8, trial_count))
    t = boundary_radii(potential, x, r, dirs)
    zs = x + (1.0 - 1e-9) * t[:, None] * dirs
    fracs = np.array([0.15, 0.4, 0.65, 0.85, 0.99])
    ys = np.vstack([x, (x + fracs[:, None, None] * t[None, :, None] * dirs).reshape(-1, n)])
    return ys, zs


def _engulfing_by_bisection(potential, x, r, trial_count):
    # reference: bisection on gamma against the pair predicate v_y(z) < (gamma r)^2
    ys, zs = _engulfing_samples(potential, x, r, trial_count)
    lo, hi = 1.0, 64.0
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        if all(np.all(potential.height(y, zs) < (mid * r) ** 2) for y in ys):
            hi = mid
        else:
            lo = mid
    return hi


def test_engulfing_matches_bisection_reference(perturbed1, perturbed2, aniso2):
    for pot, c, r in ((perturbed2, [0.7, 0.7], 0.5), (perturbed2, [-0.5, 0.3], 1.0),
                      (aniso2, [0.2, -0.1], 0.25), (perturbed1, [0.4], 0.5)):
        got = engulfing_probe(pot, c, r, 48)
        want = _engulfing_by_bisection(pot, c, r, 48)
        assert want - 1e-3 <= got <= want


def _engulfing_row_major(potential, x, r, trial_count):
    # reference: every (sample, boundary point) pair as rows, by np.repeat
    # and np.tile of row-major arrays, in one shifted_height call
    ys, zs = _engulfing_samples(potential, x, r, trial_count)
    m = zs.shape[0]
    ys_rep = np.repeat(ys, m, axis=0)
    zs_rep = np.tile(zs, (ys.shape[0], 1))
    vmax = float(potential.shifted_height(ys_rep, zs_rep - ys_rep).max())
    return max(1.0, float(np.sqrt(vmax)) / r)


def test_engulfing_equals_the_row_major_pair_formula(perturbed1, perturbed2, aniso2):
    full = make_potential("aniso_quadratic", 2, [2.0, 0.8, 0.8, 1.0])
    for pot, c, r in ((perturbed2, [0.7, 0.7], 0.5), (perturbed2, [-0.5, 0.3], 1.0),
                      (aniso2, [0.2, -0.1], 0.25), (full, [0.3, 0.6], 0.5),
                      (make_potential("iso_quadratic", 2), [0.1, 0.2], 0.5),
                      (perturbed1, [0.4], 0.5)):
        assert engulfing_probe(pot, c, r, 48) == _engulfing_row_major(pot, c, r, 48)


def test_besicovitch_1d_selection_rule(iso1):
    A = np.linspace(0, 1, 11)[:, None]
    rep = besicovitch_cover(iso1, A, 0.3, epsilon=0.1,
                            test_lattice=np.linspace(-1, 2, 1000)[:, None])
    # selected centers pairwise not covered by earlier sections
    for k, s in enumerate(rep.selected):
        for j in range(k):
            cj = np.array(rep.selected[j].center)
            assert not contains_many(iso1, cj, rep.selected[j].r,
                                     np.array(s.center)[None, :])[0]
    assert rep.overlap_max <= 2
    assert rep.measure_ratio == 1.0


def test_besicovitch_singleton(iso2):
    rep = besicovitch_cover(iso2, np.array([[0.2, 0.3]]), 0.5, 0.2)
    assert len(rep.selected) == 1
    assert rep.overlap_max == 1


def test_besicovitch_2d_overlap_bound(iso2):
    ax = np.linspace(0, 1, 32)
    g = np.meshgrid(ax, ax, indexing="ij")
    A = np.stack([a.ravel() for a in g], axis=-1)
    rep = besicovitch_cover(iso2, A, 0.2, epsilon=0.1)
    m_hat = rep.overlap_max / np.log(1.0 / 0.1)
    assert m_hat <= 8.0
    assert rep.measure_ratio == 1.0
    # the ratio is the greedy scan's own union: count it afresh
    union = np.zeros(A.shape[0], dtype=bool)
    for s in rep.selected:
        union |= contains_many(iso2, np.array(s.center), s.r, A)
    assert union.all()


def test_cz_density_and_cover(iso1):
    lattice = np.linspace(-4, 4, 1601)[:, None]
    mask = np.abs(lattice[:, 0]) < 0.7071  # S_{0.5}(0) for the parabola
    rep = cz_decompose(iso1, lattice, mask, theta=0.5, cell_volume=8 / 1600)
    assert rep.measure_ratio < 1.0
    for s, d in zip(rep.selected, rep.details["densities"]):
        n_s = None  # density recorded at selection time
        assert abs(d - 0.5) <= 0.2  # within coarse tolerance; cells checked inside
    # exact 2-cell tolerance is enforced internally; re-check first section
    s0 = rep.selected[0]
    ins = contains_many(iso1, np.array(s0.center), s0.r, lattice)
    n_a = int((ins & mask).sum())
    assert abs(n_a - 0.5 * int(ins.sum())) <= 2.0


def test_cz_grows_until_section_exits(iso1):
    # A = S_1(0) itself: inner sections have density 1 > theta, so the height
    # grows until the section leaves A; the algorithm still hits theta
    lattice = np.linspace(-6, 6, 2401)[:, None]
    mask = np.abs(lattice[:, 0]) < np.sqrt(2)
    rep = cz_decompose(iso1, lattice, mask, theta=0.4, cell_volume=12 / 2400)
    assert rep.measure_ratio < 1.0
    for s, d in zip(rep.selected, rep.details["densities"]):
        assert s.r > 0.1  # forced growth beyond the lattice scale
        ins = contains_many(iso1, np.array(s.center), s.r, lattice)
        assert abs(int((ins & mask).sum()) - 0.4 * int(ins.sum())) <= 2.0


def test_cz_empty_rejected(iso1):
    lattice = np.linspace(-1, 1, 101)[:, None]
    with pytest.raises(ConfigurationError):
        cz_decompose(iso1, lattice, np.zeros(101, dtype=bool), 0.5, 0.02)


def _cz_reference(potential, lattice, mask, theta, cell_volume, x):
    """The section cz_decompose should select at x, by a scan: the distinct
    heights of the lattice upward from (0.75 h)^2, each section counted with
    contains_many, until the density first drops below theta.  Returns the
    membership of the last section before the drop (S_{0.75h}(x) when that
    is below theta already), or of the first one after it when only that
    one has the density theta within 2 cells."""
    r_min = 0.75 * cell_volume ** (1.0 / potential.dim)
    inside = contains_many(potential, x, r_min, lattice)
    if (inside & mask).sum() < theta * inside.sum():
        return inside
    levels = np.unique(potential.height(x, lattice))
    levels = levels[levels >= r_min ** 2]
    for g, g_next in zip(levels, np.append(levels[1:], 2.0 * levels[-1])):
        grown = contains_many(potential, x, np.sqrt(0.5 * (g + g_next)), lattice)
        if (grown & mask).sum() < theta * grown.sum():
            off = abs((inside & mask).sum() - theta * inside.sum()) > 2.0
            return grown if off and g_next != 2.0 * levels[-1] else inside
        inside = grown
    raise AssertionError("the density never drops below theta")


def _cz_cases():
    box = box_lattice([-2.0, -2.0], [2.0, 2.0], 81)
    disc = np.linalg.norm(box, axis=1) < 0.5
    return [
        ("iso1", np.linspace(-4, 4, 1601)[:, None], lambda p: np.abs(p[:, 0]) < 1 / np.sqrt(2),
         8 / 1600),
        ("iso2", box, lambda p: disc, 0.05 ** 2),
        ("aniso2", box, lambda p: disc & (p[:, 0] > 0), 0.05 ** 2),
        ("perturbed2", box, lambda p: np.all(np.abs(p - 0.2) < 0.4, axis=1), 0.05 ** 2),
    ]


@pytest.mark.parametrize("pot_name, lattice, mask, cell", _cz_cases())
def test_cz_selects_the_last_section_before_the_drop(pot_name, lattice, mask, cell, request):
    pot = request.getfixturevalue(pot_name)
    mask = mask(lattice)
    rep = cz_decompose(pot, lattice, mask, 0.5, cell)
    covered = np.zeros(lattice.shape[0], dtype=bool)
    for s, d in zip(rep.selected, rep.details["densities"]):
        x = np.array(s.center)
        ins = contains_many(pot, x, s.r, lattice)
        assert np.array_equal(ins, _cz_reference(pot, lattice, mask, 0.5, cell, x))
        assert d == (ins & mask).sum() / ins.sum()
        assert abs((ins & mask).sum() - 0.5 * ins.sum()) <= 2.0
        covered |= ins
    assert covered[mask].all()
    assert rep.measure_ratio == pytest.approx(mask.sum() / (covered | mask).sum(), rel=1e-14)


def test_cz_density_unreachable(iso1):
    # A is the whole lattice: every section has density 1
    lattice = np.linspace(-1, 1, 201)[:, None]
    with pytest.raises(RefinementNeededError, match="unreachable"):
        cz_decompose(iso1, lattice, np.ones(201, dtype=bool), 0.5, 0.01)


def test_cz_lattice_exhausted(iso1):
    # from the centre -0.5 the density stays near 1/2 until the section
    # reaches the corner -1, and drops below 0.45 only past t = 1.7
    lattice = np.linspace(-1, 2, 601)[:, None]
    mask = np.abs(lattice[:, 0]) <= 0.5
    with pytest.raises(RefinementNeededError, match="exhausted"):
        cz_decompose(iso1, lattice, mask, 0.45, 3 / 600)


def _count_heights(monkeypatch):
    """Record (base point, number of probes) of every Potential.height call."""
    calls = []
    original = Potential.height

    def counted(self, x, y):
        calls.append((np.atleast_1d(np.asarray(x, dtype=float)).tolist(),
                      np.atleast_2d(np.asarray(y)).shape[0]))
        return original(self, x, y)

    monkeypatch.setattr(Potential, "height", counted)
    return calls


def test_cz_one_height_pass_per_centre(perturbed2, monkeypatch):
    lattice = box_lattice([-2.0, -2.0], [2.0, 2.0], 81)
    mask = np.all(np.abs(lattice - 0.2) < 0.4, axis=1)
    calls = _count_heights(monkeypatch)
    rep = cz_decompose(perturbed2, lattice, mask, 0.5, 0.05 ** 2)
    centres = [list(s.center) for s in rep.selected]
    assert [x for x, k in calls if k == lattice.shape[0]] == centres
    assert [x for x, k in calls if k == 4] == centres   # the box's corners
    assert len(calls) == 2 * len(centres)


def test_deformation_one_height_pass_about_y(perturbed2, monkeypatch):
    y = [0.6, -0.3]
    calls = _count_heights(monkeypatch)
    deformation_checks(perturbed2, 1.0, y)
    assert [x for x, _ in calls].count(y) == 1


def test_deformation_ball_case(iso1):
    rep = deformation_checks(iso1, t=1.0, y=[0.0])
    bound = (0.75 - 1 / np.sqrt(2)) * (1 / np.sqrt(2))
    assert rep["delta_hat_min"] >= bound - 0.02
    for ratio in rep["doubling_ratios"]:
        assert 1.0 <= ratio <= 2.0 * 1.05
    assert all(rep["shell_inequality_ok"])
    assert not rep["failure"]


def test_deformation_doubling_2d_quadratic(aniso2):
    rep = deformation_checks(aniso2, t=1.0, y=[0.0, 0.0])
    for ratio in rep["doubling_ratios"]:
        assert 1.0 <= ratio <= 4.0 * 1.05
    assert not rep["failure"]


def test_deformation_perturbed(perturbed2):
    rep = deformation_checks(perturbed2, t=0.5, y=[0.0, 0.0])
    assert rep["delta_hat_min"] >= 1e-2
    assert not rep["failure"]


def _deformation_samples(potential, t, y):
    # the samples xs and the test lattice of deformation_checks
    n = potential.dim
    dirs = unit_directions(n, 12)
    xs = np.vstack([y + boundary_radii(potential, y, s * t, dirs)[:, None] * dirs
                    for s in (0.72, 0.65, 0.58, 0.51)])
    tmax = boundary_radii(potential, y, t, dirs).max()
    per_axis = 600 if n == 1 else 90
    pts = np.vstack([y, xs])
    lo, hi = pts.min(axis=0) - 1.3 * tmax, pts.max(axis=0) + 1.3 * tmax
    return xs, tensor_points([np.linspace(lo[i], hi[i], per_axis) for i in range(n)])


def _delta_hats_by_bisection(potential, t, y):
    # reference: the samples and lattice of deformation_checks, and per sample
    # a 30-step bisection on delta against full-lattice membership
    y = np.atleast_1d(np.asarray(y, dtype=float))
    xs, lattice = _deformation_samples(potential, t, y)
    ring_ok = (contains_many(potential, y, t, lattice)
               & ~contains_many(potential, y, t / 4.0, lattice))
    out = []
    for x in xs:
        d_lo, d_hi = 0.0, 1.0
        for _ in range(30):
            mid = 0.5 * (d_lo + d_hi)
            if np.all(ring_ok[contains_many(potential, x, mid * t, lattice)]):
                d_lo = mid
            else:
                d_hi = mid
        out.append(d_lo)
    return np.array(out)


def test_deformation_delta_hats_match_bisection_reference(perturbed1, perturbed2):
    for pot, t, y in ((perturbed2, 1.0, [0.6, -0.3]), (perturbed2, 0.5, [0.0, 0.0]),
                      (perturbed1, 1.0, [0.3])):
        got = np.array(deformation_checks(pot, t, y)["delta_hats"])
        want = _delta_hats_by_bisection(pot, t, y)
        assert np.abs(got - want).max() <= 1e-8


def _deformation_row_major(potential, t, y):
    # reference: the delta hats and doubling ratios of deformation_checks from
    # row-major y - x arrays and the row selection lattice[~ring_ok]
    y = np.atleast_1d(np.asarray(y, dtype=float))
    xs, lattice = _deformation_samples(potential, t, y)
    v_y = potential.shifted_height(y, lattice - y[None, :])
    ring_ok = (v_y < t ** 2) & (v_y >= (t / 4.0) ** 2)
    outside = lattice[~ring_ok]
    deltas = [min(1.0, float(np.sqrt(potential.shifted_height(x, outside - x[None, :]).min()))
                  / t) for x in xs]
    n = potential.dim
    cell = ((lattice[:, 0].max() - lattice[:, 0].min()) / ((600 if n == 1 else 90) - 1)) ** n
    m = [float(np.count_nonzero(v_y < r ** 2)) * cell for r in (t, t / 2.0, t / 4.0)]
    return deltas, [m[0] / m[1], m[1] / m[2]]


def test_deformation_equals_the_row_major_formulas(perturbed1, perturbed2, aniso2):
    for pot, t, y in ((perturbed2, 1.0, [0.6, -0.3]), (aniso2, 0.5, [0.1, 0.2]),
                      (perturbed1, 1.0, [0.3])):
        rep = deformation_checks(pot, t, y)
        deltas, doubling = _deformation_row_major(pot, t, y)
        assert rep["delta_hats"] == deltas
        assert rep["doubling_ratios"] == doubling


@pytest.mark.parametrize("call", [
    lambda pot, x: contains_many(pot, x, 0.5, [[0.1, 0.2]]),
    lambda pot, x: boundary_radii(pot, x, 0.5, unit_directions(2, 8)),
    lambda pot, x: fit_ellipsoid(pot, x, 0.5),
    lambda pot, x: engulfing_probe(pot, x, 0.5),
    lambda pot, x: deformation_checks(pot, 1.0, x),
], ids=["contains_many", "boundary_radii", "fit_ellipsoid", "engulfing_probe",
        "deformation_checks"])
def test_a_base_point_of_several_rows_is_rejected(call, perturbed2):
    # the second row is not dropped silently
    call(perturbed2, [[0.0, 0.0]])
    with pytest.raises(ConfigurationError, match="one base point"):
        call(perturbed2, [[0.0, 0.0], [0.7, 0.7]])


def test_affine_map_invertibility_guard():
    with pytest.raises(GeometryError):
        AffineMap(np.zeros((2, 2)), np.zeros(2))
