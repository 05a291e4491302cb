import numpy as np
import pytest

from maslab.errors import ConfigurationError
from maslab.grid import box_lattice
from maslab.potential import make_potential


def test_eval_iso_quadratic():
    pot = make_potential("iso_quadratic", 2)
    x = [1.0, 0.0]
    assert np.allclose(pot.gradient(x)[0], [1.0, 0.0])
    assert np.allclose(pot.hessian(x)[0], np.eye(2))


def test_eval_aniso_quadratic(aniso2):
    x = [1.0, 1.0]
    assert np.allclose(aniso2.gradient(x)[0], [4.0, 1.0])
    assert np.allclose(aniso2.hessian(x)[0], np.diag([4.0, 1.0]))


def test_eval_perturbed_at_origin(perturbed2):
    x = [0.0, 0.0]
    assert np.allclose(perturbed2.gradient(x)[0], 0.0)
    assert np.allclose(perturbed2.hessian(x)[0], 1.1 * np.eye(2))


def test_hessian_symmetric_everywhere(perturbed2, rng):
    pts = rng.normal(size=(200, 2))
    H = perturbed2.hessian(pts)
    assert np.allclose(H, np.swapaxes(H, 1, 2))


def test_quadratic_entries():
    # the exactly quadratic entries; eps = 0 alone does not make an entry one
    assert make_potential("iso_quadratic", 1).quadratic
    assert make_potential("aniso_quadratic", 2, [4.0, 1.0, 1.0, 1.0]).quadratic
    assert not make_potential("perturbed_quadratic", 2, [0.1]).quadratic


def test_unknown_id_rejected():
    with pytest.raises(ConfigurationError):
        make_potential("cubic", 1)


def test_condition_number_cap():
    with pytest.raises(ConfigurationError):
        make_potential("aniso_quadratic", 2, [500.0, 0.0, 0.0, 1.0])


def test_eps_range():
    with pytest.raises(ConfigurationError):
        make_potential("perturbed_quadratic", 1, [0.9])


def test_height_quadratic_closed_form(iso1):
    assert iso1.height([0.0], [1.0])[0] == pytest.approx(0.5)


def test_height_zero_at_base(perturbed2):
    assert perturbed2.height([0.3, -0.2], [0.3, -0.2])[0] == 0.0


def test_height_taylor_agreement(perturbed1):
    # second-order Taylor: v_x(y) ~ (y-x)^T D^2phi(x) (y-x) / 2 for tiny |y-x|
    x = np.array([1.0])
    H = perturbed1.hessian(x)[0]
    for inc in (1e-3, -7e-4):
        v = perturbed1.height(x, x + inc)[0]
        quad = 0.5 * inc * H[0, 0] * inc
        assert v == pytest.approx(quad, rel=1e-4)


def test_height_nonnegative_random(rng):
    # 1e4 random (x, y) pairs per catalog entry
    for pot in (make_potential("iso_quadratic", 2),
                make_potential("aniso_quadratic", 2, [4.0, 1.0, 1.0, 2.0]),
                make_potential("perturbed_quadratic", 2, [0.3])):
        xs = rng.normal(size=(10, 2)) * 2
        ys = rng.normal(size=(1000, 2)) * 3
        for x in xs:
            v = pot.height(x, ys)
            assert np.all(v >= -1e-12 * (1 + np.abs(v)))


def test_height_quadratic_exactness(rng):
    A = np.array([[4.0, 1.0], [1.0, 2.0]])
    pot = make_potential("aniso_quadratic", 2, A.ravel())
    x = rng.normal(size=2)
    ys = rng.normal(size=(50, 2))
    d = ys - x
    expect = 0.5 * np.einsum("ki,ij,kj->k", d, A, d)
    assert np.allclose(pot.height(x, ys), expect, rtol=1e-13, atol=1e-14)


def test_height_convex_in_probe(perturbed2, rng):
    x = np.array([0.5, -0.3])
    y1 = rng.normal(size=(100, 2))
    y2 = rng.normal(size=(100, 2))
    mid = 0.5 * (y1 + y2)
    v1 = perturbed2.height(x, y1)
    v2 = perturbed2.height(x, y2)
    vm = perturbed2.height(x, mid)
    assert np.all(vm <= 0.5 * v1 + 0.5 * v2 + 1e-12)


def test_shifted_height_small_increment_accuracy(perturbed2):
    # the rationalized form keeps relative accuracy where the naive
    # formula cancels catastrophically
    x = np.array([1.3, -0.7])
    y = np.array([[1e-7, -2e-7]])
    w = perturbed2.shifted_height(x, y)[0]
    H = perturbed2.hessian(x)[0]
    quad = 0.5 * y[0] @ H @ y[0]
    assert w == pytest.approx(quad, rel=1e-5)


def test_shifted_height_per_increment_base_points(perturbed2, rng):
    xs = rng.uniform(-1.0, 1.0, size=(6, 2))
    ys = rng.normal(size=(6, 2))
    rowwise = [perturbed2.shifted_height(x, y[None, :])[0] for x, y in zip(xs, ys)]
    np.testing.assert_allclose(perturbed2.shifted_height(xs, ys), rowwise,
                               rtol=1e-15, atol=0.0)
    with pytest.raises(ConfigurationError):
        perturbed2.shifted_height(xs[:2], ys)


@pytest.mark.parametrize("dim, eps", [(1, 0.1), (2, 0.1), (2, 0.5)])
def test_sym_height_one_pass_equals_two_shifted_heights(dim, eps, rng):
    # w(y) and w(-y) from one shared pass equal the two separate calls bit
    # for bit, per-row and single base points, |y| from 1e-6 to 1e6, and in
    # the column-major layout the node arrays use
    pot = make_potential("perturbed_quadratic", dim, [eps])
    y = rng.normal(size=(3000, dim))
    y *= (10.0 ** rng.uniform(-6, 6, size=(3000, 1))) / np.linalg.norm(y, axis=1)[:, None]
    xs = rng.uniform(-3.0, 3.0, size=(3000, dim))
    for x in (xs, xs[7], np.zeros(dim)):
        want = np.sqrt(pot.shifted_height(x, y) * pot.shifted_height(x, -y))
        assert np.array_equal(pot.sym_height(x, y), want)
        xf = np.asfortranarray(np.atleast_2d(x))
        assert np.array_equal(pot.sym_height(xf, np.asfortranarray(y)), want)
    assert pot.sym_height(xs, y).min() > 0.0


def test_shifted_height_1d_matches_quadratic_form(rng):
    # 1D heights are computed elementwise; they equal the matrix quadratic
    # form 0.5 * y.A y bitwise
    for pot in (make_potential("iso_quadratic", 1),
                make_potential("aniso_quadratic", 1, [2.5])):
        x = rng.uniform(-2.0, 2.0, size=(500, 1))
        y = rng.normal(size=(500, 1))
        want = 0.5 * np.einsum("ki,ki->k", y @ pot._A, y)
        assert np.array_equal(pot.shifted_height(x, y), want)


HEIGHT_POTENTIALS = {
    "iso": ("iso_quadratic", 2, []),
    "aniso_diag": ("aniso_quadratic", 2, [4.0, 0.0, 0.0, 1.0]),
    "aniso_full": ("aniso_quadratic", 2, [2.0, 0.8, 0.8, 1.0]),
    "aniso_kappa40": ("aniso_quadratic", 2, [25.0, 3.0, 3.0, 1.0]),
    "perturbed": ("perturbed_quadratic", 2, [0.1]),
    "iso_1d": ("iso_quadratic", 1, []),
    "aniso_1d": ("aniso_quadratic", 1, [3.0]),
    "perturbed_1d": ("perturbed_quadratic", 1, [0.3]),
}


@pytest.mark.parametrize("name", list(HEIGHT_POTENTIALS))
def test_height_layouts_match_the_rowwise_shifted_height(name, rng):
    # height forms y - x column by column; row-major, column-major and 1D
    # probes give the bits of one shifted_height(x, y - x) per row
    pot = make_potential(*HEIGHT_POTENTIALS[name])
    x = rng.uniform(-1.0, 1.0, pot.dim)
    y = rng.uniform(-2.0, 2.0, size=(700, pot.dim))
    want = np.array([pot.shifted_height(x, (p - x)[None, :])[0] for p in y])
    if pot.quadratic:
        # the row-major quadratic form: an aniso height keeps the matmul's
        # bits, which column arithmetic would not
        assert np.array_equal(0.5 * np.einsum("ki,ki->k", (y - x) @ pot._A, y - x), want)
    assert np.array_equal(pot.height(x, y), want)
    assert np.array_equal(pot.height([x], np.asfortranarray(y)), want)
    if pot.dim == 1:
        assert np.array_equal(pot.height(x[0], y[:, 0]), want)   # 1D probes
    else:
        assert np.array_equal(pot.height(x, y[0]), want[:1])     # one probe, 1D


@pytest.mark.parametrize("name", list(HEIGHT_POTENTIALS))
def test_pair_heights_rows_are_heights(name, rng):
    pot = make_potential(*HEIGHT_POTENTIALS[name])
    xs = rng.uniform(-1.0, 1.0, size=(9, pot.dim))
    ys = rng.uniform(-2.0, 2.0, size=(40, pot.dim))
    got = pot.pair_heights(xs, np.asfortranarray(ys))
    assert got.shape == (9, 40)
    assert np.array_equal(got, np.array([pot.height(x, ys) for x in xs]))


def test_height_rejects_a_base_point_of_several_rows(iso2, iso1):
    # the second row is not dropped silently
    with pytest.raises(ConfigurationError, match="one base point"):
        iso2.height([[0.0, 0.0], [0.7, 0.7]], [[0.1, 0.2]])
    with pytest.raises(ConfigurationError, match="one base point"):
        iso1.height([0.0, 0.7], [0.1, 0.2])
    assert iso2.height([[0.7, 0.7]], [[0.1, 0.2]])[0] == pytest.approx(0.305)


@pytest.mark.parametrize("pot, lo, hi", [
    (make_potential("iso_quadratic", 2), 1.0, 1.0),
    (make_potential("aniso_quadratic", 2, [4.0, 1.0, 1.0, 1.0]), 3.0, 3.0),
    (make_potential("perturbed_quadratic", 2, [0.3]), 1.0, 1.3 ** 2),
], ids=["iso", "aniso", "perturbed"])
def test_ma_bounds(pot, lo, hi):
    # det D^2 phi on a lattice stays in the entry's closed-form band: 1, det A,
    # and [1, (1 + eps)^2] for the perturbed entry
    det = np.linalg.det(pot.hessian(box_lattice([-3, -3], [3, 3], 48)))
    assert np.all((lo - 1e-12 <= det) & (det <= hi + 1e-12))
