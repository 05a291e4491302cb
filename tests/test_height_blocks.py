"""Heights in blocks of potential.HEIGHT_BLOCK pairs: the block size moves no
value, and no array the size of the input exists besides the output."""

import tracemalloc

import numpy as np
import pytest

from maslab import potential, sections
from maslab.grid import GridFunction, box_lattice, zero_rule
from maslab.kernels import KernelSpec
from maslab.potential import make_potential
from maslab.regularity import holder_estimate

POTENTIALS = {
    "iso_1d": ("iso_quadratic", 1, []),
    "aniso_1d": ("aniso_quadratic", 1, [25.0]),
    "perturbed_1d": ("perturbed_quadratic", 1, [0.1]),
    "iso_2d": ("iso_quadratic", 2, []),
    "aniso_2d": ("aniso_quadratic", 2, [25.0, 3.0, 3.0, 1.0]),
    "perturbed_2d": ("perturbed_quadratic", 2, [0.1]),
}


def _u(dim: int, k: int, h: float) -> GridFunction:
    """An analytic u on the k^dim lattice of step h centred at the origin."""
    a = 0.5 * (k - 1) * h
    pts = box_lattice([-a] * dim, [a] * dim, k)
    vals = np.sin(3.0 * pts[:, 0]) + pts[:, 0] * pts[:, -1] + np.cos(2.0 * pts[:, -1])
    return GridFunction([-a] * dim, [a] * dim, vals.reshape((k,) * dim), zero_rule())


def _queries(pot):
    """Every blocked query on small inputs, each returning a value to compare."""
    n = pot.dim
    rng = np.random.default_rng(7)
    x = rng.uniform(-0.5, 0.5, n)
    ys = rng.uniform(-1.5, 1.5, size=(60, n))
    lattice = box_lattice([-1.0] * n, [1.0] * n, 40 if n == 1 else 9)
    k = 121 if n == 1 else 25
    cz_lattice, cz_cell = box_lattice([-3.0] * n, [3.0] * n, k), (6.0 / (k - 1)) ** n
    cover_pts = box_lattice([0.0] * n, [1.0] * n, 6 if n == 1 else 3)
    spec = KernelSpec(1.0, 2.0, 1.5)
    return {
        "height": lambda: pot.height(x, ys),
        "pair_heights": lambda: pot.pair_heights(ys[:5], ys[5:18]),
        "contains_many": lambda: sections.contains_many(pot, x, 0.4, ys),
        "section_measure": lambda: sections.section_measure(pot, x, 0.4, lattice, 0.05 ** n),
        "cz_decompose": lambda: sections.cz_decompose(
            pot, cz_lattice, np.abs(cz_lattice[:, 0]) < 0.7, 0.5, cz_cell),
        "besicovitch_cover": lambda: sections.besicovitch_cover(
            pot, cover_pts, 0.3, 0.1, test_lattice=lattice),
        "deformation_checks": lambda: sections.deformation_checks(pot, 0.5, x),
        "holder_estimate": lambda: holder_estimate(
            _u(n, 41, 1 / 512) if n == 1 else _u(2, 7, 1 / 100), pot, [0.0] * n, spec, C0=0.0),
    }


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b) and a.dtype == b.dtype
    return a == b


@pytest.mark.parametrize("name", list(POTENTIALS))
def test_block_size_moves_no_value(name, monkeypatch):
    # blocks of 7 pairs and of one pair give what one block larger than the
    # input gives, bit for bit, for every query that reads heights.  The 2D
    # deformation_checks reads about 300k heights on its own 90 x 90 lattice,
    # 4-13 s in blocks of one pair, so in 2D it runs in blocks of 7 only.
    pot = make_potential(*POTENTIALS[name])
    monkeypatch.setattr(potential, "HEIGHT_BLOCK", 1 << 30)
    want = {q: run() for q, run in _queries(pot).items()}
    assert not want["holder_estimate"]["grid_artifact"]    # the pairs ran
    for block in (7, 1):
        monkeypatch.setattr(potential, "HEIGHT_BLOCK", block)
        for q, run in _queries(pot).items():
            if block == 1 and q == "deformation_checks" and pot.dim == 2:
                continue
            assert _same(run(), want[q]), (q, block)


def _full_seminorms(u, pot, x0, alpha, rho=0.5):
    """holder_estimate's two seminorms from whole (m, m) arrays."""
    pts, vals = u.points(), u.values.ravel()
    half = pot.height(x0, pts) < (rho / 2.0) ** 2
    P, V = pts[half], vals[half]
    dv = np.abs(V[:, None] - V[None, :])
    out = []
    for d in (np.sqrt(np.maximum(np.array([pot.height(p, P) for p in P]), 1e-300)),
              np.maximum(np.linalg.norm(P[:, None, :] - P[None, :, :], axis=-1), 1e-300)):
        np.fill_diagonal(d, np.inf)
        out.append(float((dv / d ** alpha).max()))
    return int(half.sum()), out


@pytest.mark.parametrize("name", ["iso_2d", "aniso_2d", "perturbed_2d"])
def test_holder_seminorms_equal_the_whole_pair_arrays(name):
    pot = make_potential(*POTENTIALS[name])
    u = _u(2, 18, 1 / 100)
    r = holder_estimate(u, pot, [0.0, 0.0], KernelSpec(1.0, 2.0, 1.5), C0=0.0)
    m, (semi_sec, semi_euc) = _full_seminorms(u, pot, [0.0, 0.0], r["alpha_hat"])
    assert m >= 250
    assert r["seminorm_hat"] == semi_sec
    assert r["seminorm_euclidean"] == semi_euc


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_height_holds_no_lattice_sized_temporary():
    # the output and block-sized temporaries only: a whole-lattice pass
    # took 10 lattice-sized arrays (5.4 MB)
    pot = make_potential("perturbed_quadratic", 2, [0.1])
    lattice = box_lattice([-1.0, -1.0], [1.0, 1.0], 260)
    pot.height([0.3, 0.2], lattice)
    out_bytes = 8 * lattice.shape[0]
    peak = _traced_peak(lambda: pot.height([0.3, 0.2], lattice))
    assert peak <= out_bytes + 16 * 8 * potential.HEIGHT_BLOCK


def test_holder_pairs_in_row_blocks():
    # m = 3305 points in S_{1/4}(0): whole (m, m) pair arrays peaked at 263 MB
    pot = make_potential("perturbed_quadratic", 2, [0.1])
    u = GridFunction.from_callable([-1.0, -1.0], [1.0, 1.0], 1 / 96,
                                   lambda p: np.sin(2 * p[:, 0]) + np.cos(3 * p[:, 1]),
                                   zero_rule())
    assert np.count_nonzero(pot.height([0.0, 0.0], u.points()) < 0.25 ** 2) == 3305
    report = {}
    peak = _traced_peak(lambda: report.update(holder_estimate(
        u, pot, [0.0, 0.0], KernelSpec(1.0, 2.0, 1.5), C0=0.0)))
    assert not report["grid_artifact"]
    assert peak <= 16e6
