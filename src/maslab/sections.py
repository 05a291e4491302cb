"""Computational geometry of Monge-Ampere sections.

A section S_r(x) = {y : v_x(y) < r^2} is the "ball of radius r" of the
potential's intrinsic geometry.  This module provides membership, radial
boundary parametrization, normalization of a section by its own moments
(the inertia ellipsoid, in closed form from the boundary radii), the
engulfing probe, two covering algorithms and the section-deformation
checks.  The normalization, the engulfing constant and the deformation
radii are closed forms in the boundary radii or in heights v_x(y); the
radii come from a safeguarded Newton iteration started at the quadratic
model, which is exact for a quadratic potential, whose sections are
ellipsoids.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, GeometryError, RefinementNeededError
from .grid import box_lattice, tensor_points
from .potential import Potential, _as_points


@dataclass(frozen=True)
class Section:
    center: tuple
    r: float

    def __post_init__(self):
        if self.r <= 0:
            raise ConfigurationError("section height parameter must be positive")


@dataclass
class AffineMap:
    """z = linear_part @ (y - offset); invertible by construction."""

    linear_part: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        self.linear_part = np.asarray(self.linear_part, dtype=float)
        self.offset = np.atleast_1d(np.asarray(self.offset, dtype=float))
        if abs(np.linalg.det(self.linear_part)) <= 0.0:
            raise GeometryError("normalization map must be invertible")

    def apply(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return (pts - self.offset) @ self.linear_part.T

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.linear_part))


@dataclass
class CoverReport:
    selected: list
    overlap_max: int
    measure_ratio: float
    details: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# basic queries
# ---------------------------------------------------------------------------

def contains_many(potential: Potential, center, r: float, pts) -> np.ndarray:
    return potential.height(center, pts) < r ** 2


def sphere_measure(dim: int) -> float:
    """|S^{n-1}|: 2 half-lines in 1D, the circle's length 2 pi in 2D."""
    return 2.0 if dim == 1 else 2.0 * np.pi


def unit_directions(dim: int, count: int, offset: float = 0.0) -> np.ndarray:
    """The discrete S^{n-1}: the two half-lines in 1D (count is ignored), and
    in 2D `count` directions at angles 2 pi (k + offset) / count.  Each
    direction carries the weight sphere_measure(dim) / len(directions)."""
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    ang = 2.0 * np.pi * (np.arange(count) + offset) / count
    return np.stack([np.cos(ang), np.sin(ang)], axis=-1)


def boundary_radii(potential: Potential, x, r: float, dirs: np.ndarray) -> np.ndarray:
    """t*(d) > 0 with v_x(x + t* d) = r^2, by bracket-safeguarded Newton.

    g(t) = w_x(t d) - r^2 is convex in t, with g(0) = -r^2 and slope
    g'(t) = (grad phi(x + t d) - grad phi(x)).d.  Newton starts from the
    quadratic model t0 = r sqrt(2 / d.D^2 phi(x) d), which is the root for a
    quadratic potential, so one height evaluation ends the call there.  It
    stops when the step is at most 1e-11 t or g = 0 and returns the stepped t.
    That test comes before the safeguard, so a sub-ulp step is never read as
    one that leaves the bracket [lo, hi] kept from the signs of g; a step
    that does leave it is replaced by doubling t while hi is unknown and by
    bisection after.  A boundary beyond 1e6 r, or no stop within 100 steps,
    raises GeometryError.
    """
    if r <= 0:
        raise ConfigurationError("section height must be positive")
    x = _as_points(x, potential.dim)[0]
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    norms = np.linalg.norm(dirs, axis=1)
    if np.any(norms == 0):
        raise ConfigurationError("directions must be nonzero")
    dirs = dirs / norms[:, None]
    r2 = r * r

    grad_x = potential.gradient(x)
    t = r * np.sqrt(2.0 / np.einsum("ki,ij,kj->k", dirs, potential.hessian(x)[0], dirs))
    lo, hi = np.zeros_like(t), np.full_like(t, np.inf)
    out = np.empty_like(t)
    act = np.arange(t.size)  # the directions still iterating, t, lo, hi aligned
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero slope leaves the bracket
        for _ in range(100):
            y = t[:, None] * dirs[act]
            g = potential.shifted_height(x, y) - r2
            slope = np.einsum("ki,ki->k", potential.gradient(x + y) - grad_x, dirs[act])
            step = np.where(g == 0, 0.0, -g / slope)
            done = np.abs(step) <= 1e-11 * t
            out[act[done]] = t[done] + step[done]
            if done.all():
                return out
            keep = ~done
            lo, hi = np.where(g < 0, t, lo)[keep], np.where(g > 0, t, hi)[keep]
            t, newton, act = t[keep], (t + step)[keep], act[keep]
            t = np.where((newton > lo) & (newton < hi), newton,
                         np.where(np.isinf(hi), 2.0 * t, 0.5 * (lo + hi)))
            if np.any(t > 1e6 * r):
                raise GeometryError("section boundary beyond the 1e6*r search bracket")
    raise GeometryError("section boundary radii not converged in 100 safeguarded Newton steps")


# ---------------------------------------------------------------------------
# ellipsoid normalization
# ---------------------------------------------------------------------------

def fit_ellipsoid(potential: Potential, x, r: float, ray_count: int = 256) -> AffineMap:
    """Normalization map T with B_c subset T(S_r(x)) subset B_{1+1e-3}.

    T maps the section's inertia ellipsoid onto the unit ball: with centroid
    x + m and covariance C of S_r(x), T = ((n+2) C)^{-1/2} centred at x + m,
    so a ball is mapped onto the unit ball and c >= 1/n for any convex
    section (Kannan, Lovasz and Simonovits 1995).  The moments are
    integrated in polar form about x from the boundary radii t along the
    directions d of unit_directions(n, ray_count), each with its weight w:
    2 pi / ray_count in 2D (the periodic trapezoid rule: exact for quadratic
    sections up to the radius tolerance, spectrally accurate for smooth
    ones) and 1 per half-line in 1D (exact),

        |S| = w sum t^n / n,   m = w sum t^{n+1} d / ((n+1) |S|),
        C = w sum t^{n+2} d d^T / ((n+2) |S|) - m m^T.

    T is rescaled if fresh rays fall outside the 1e-3 outer margin.
    """
    n = potential.dim
    if ray_count < 2 * n + 2:
        raise ConfigurationError("ray_count must be at least 2n+2")
    x = _as_points(x, n)[0]
    dirs = unit_directions(n, ray_count)
    t = boundary_radii(potential, x, r, dirs)
    w = sphere_measure(n) / len(dirs)
    vol = w * np.sum(t ** n) / n
    m = w * (t ** (n + 1)) @ dirs / ((n + 1) * vol)
    cov = w * (dirs.T * t ** (n + 2)) @ dirs / ((n + 2) * vol) - np.outer(m, m)
    ev, V = np.linalg.eigh((n + 2) * cov)
    if ev.min() <= 0:
        raise GeometryError("section covariance is degenerate")
    T = AffineMap((V / np.sqrt(ev)) @ V.T, x + m)

    fresh = unit_directions(n, ray_count, 0.5)  # off the fitting rays (1D: the same two)
    tf = t if n == 1 else boundary_radii(potential, x, r, fresh)
    img = np.linalg.norm(T.apply(x[None, :] + tf[:, None] * fresh), axis=1)
    scale = max(1.0, img.max() / (1.0 + 1e-3))
    if scale > 1.0:
        T = AffineMap(T.linear_part / scale, T.offset)
        img = img / scale
    T.inner_radius = float(img.min())
    return T


# ---------------------------------------------------------------------------
# engulfing
# ---------------------------------------------------------------------------

def engulfing_probe(potential: Potential, x, r: float, trial_count: int = 64) -> float:
    """Smallest gamma >= 1 with S_r(x) subset S_{gamma r}(y) for sampled y.

    y ranges over interior samples of S_r(x), z over its boundary; z lies in
    S_{gamma r}(y) exactly when gamma r > sqrt(v_y(z)), so gamma is the
    largest sampled sqrt(v_y(z)) / r.  Raises GeometryError beyond 64.
    """
    if trial_count < 1:
        raise ConfigurationError("trial_count must be >= 1")
    n = potential.dim
    x = _as_points(x, n)[0]
    dirs = unit_directions(n, max(8, trial_count))
    t = boundary_radii(potential, x, r, dirs)
    zs = x[None, :] + (1.0 - 1e-9) * t[:, None] * dirs
    fracs = np.array([0.15, 0.4, 0.65, 0.85, 0.99])
    ys = (x[None, None, :] + fracs[:, None, None] * t[None, :, None] * dirs[None, :, :])
    ys = ys.reshape(-1, n)
    ys = np.vstack([x[None, :], ys])

    # every (sample, boundary point) pair in one call: row i*m + j is (y_i, z_j)
    m = zs.shape[0]
    ys_rep = np.repeat(ys, m, axis=0)
    zs_rep = np.tile(zs, (ys.shape[0], 1))
    vmax = float(potential.shifted_height(ys_rep, zs_rep - ys_rep).max())
    if vmax >= (64.0 * r) ** 2:
        raise GeometryError("engulfing failure: gamma > 64 needed (catalog pathology?)")
    return max(1.0, float(np.sqrt(vmax)) / r)


# ---------------------------------------------------------------------------
# covering algorithms
# ---------------------------------------------------------------------------

def besicovitch_cover(potential: Potential, A: np.ndarray, radii, epsilon: float,
                      test_lattice: np.ndarray | None = None) -> CoverReport:
    """Greedy Besicovitch-type subcover with bounded overlap of the shrunk family.

    Scans A in lexicographic order; a point not covered by previously selected
    sections becomes a new center.  The overlap count is measured for the
    (1 - epsilon)-shrunk family on a test lattice.
    """
    if not 0.0 < epsilon < 0.5:
        raise ConfigurationError("epsilon must lie in (0, 1/2)")
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.shape[0] == 0:
        raise ConfigurationError("A must be nonempty")
    order = np.lexsort(A.T[::-1])
    A = A[order]
    rad = np.broadcast_to(np.asarray(radii, dtype=float), order.shape)[order]

    covered = np.zeros(A.shape[0], dtype=bool)
    selected: list[Section] = []
    for i in range(A.shape[0]):
        if covered[i]:
            continue
        selected.append(Section(tuple(A[i]), float(rad[i])))
        covered |= contains_many(potential, A[i], rad[i], A)

    if test_lattice is None:
        pad = 3.0 * max(s.r for s in selected)
        per_axis = 1000 if potential.dim == 1 else 120
        test_lattice = box_lattice(A.min(axis=0) - pad, A.max(axis=0) + pad, per_axis)

    counts = np.zeros(test_lattice.shape[0], dtype=int)
    for s in selected:
        counts += contains_many(potential, np.array(s.center), (1.0 - epsilon) * s.r,
                                test_lattice).astype(int)
    # each point is covered by the sections before it or selected, and a
    # centre lies in its own section (v_x(x) = 0 < r^2)
    return CoverReport(selected=selected,
                       overlap_max=int(counts.max()),
                       measure_ratio=float(covered.mean()),
                       details={"epsilon": epsilon, "n_selected": len(selected)})


def cz_decompose(potential: Potential, lattice: np.ndarray, mask: np.ndarray,
                 theta: float, cell_volume: float) -> CoverReport:
    """Calderon-Zygmund-type selection: sections of lattice density theta covering A.

    Each point of A = lattice[mask] not yet covered (lexicographic scan)
    becomes a centre x.  The lattice sorted by v_x gives every S_r(x) at
    once: points of equal height enter together, and prefix sums count #S
    and #(A n S).  The first group at height >= (0.75 h)^2, h =
    cell_volume^(1/n), whose inclusion takes the density below theta is the
    drop; the section just before it is selected, r^2 midway between the
    drop's height and the next lower one, so membership never rests on how
    r^2 rounds (r = 0.75 h when S_{0.75h}(x) is below theta already).  Where
    a large group leaves that section more than 2 cells off theta, the one
    that includes the drop is taken if it is within.  RefinementNeededError
    when no group takes the density below theta, when the drop height
    reaches a corner of the lattice's box, or when neither is within 2 cells.
    """
    if not 0.1 < theta < 0.9:
        raise ConfigurationError("theta must lie in (0.1, 0.9)")
    if cell_volume <= 0:
        raise ConfigurationError("cell_volume must be positive")
    lattice = np.atleast_2d(np.asarray(lattice, dtype=float))
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ConfigurationError("A must be nonempty")
    a_idx = np.flatnonzero(mask)[np.lexsort(lattice[mask].T[::-1])]  # A, lexicographic

    r2_min = (0.75 * cell_volume ** (1.0 / potential.dim)) ** 2
    selected, densities = [], []
    union = np.zeros(lattice.shape[0], dtype=bool)
    corners = tensor_points(list(zip(lattice.min(axis=0), lattice.max(axis=0))))

    for i in a_idx:
        if union[i]:
            continue
        xk = lattice[i]
        v = potential.height(xk, lattice)
        order = np.argsort(v)
        vs = v[order]
        last = np.flatnonzero(np.append(vs[1:] != vs[:-1], True))  # each group's last point
        heights, n_s = vs[last], last + 1
        n_a = np.cumsum(mask[order])[last]
        inner = int(np.searchsorted(heights, r2_min))  # the groups in S_{0.75h}(x)
        below = n_a < theta * n_s
        below[:inner - 1] = False
        j = int(np.argmax(below))
        if not below[j]:
            raise RefinementNeededError(f"density {theta} unreachable at center {xk}")
        if potential.height(xk, corners).min() <= heights[j]:
            raise RefinementNeededError(
                f"counting lattice exhausted before density {theta} at {xk}: "
                "enlarge the lattice")
        k = max(j - 1, inner - 1)  # the last group of the selected section
        if abs(n_a[k] - theta * n_s[k]) > 2.0 and inner <= j < heights.size - 1:
            k = j  # a large drop group: its far side, if that is within 2 cells
        r2 = r2_min if j < inner else 0.5 * (heights[k] + heights[k + 1])
        if abs(n_a[k] - theta * n_s[k]) > 2.0:
            raise RefinementNeededError(
                f"density {theta} unreachable within 2 cells at center {xk} "
                f"(got {n_a[k]}/{n_s[k]})")
        selected.append(Section(tuple(xk), float(np.sqrt(r2))))
        densities.append(int(n_a[k]) / int(n_s[k]))
        union[order[:n_s[k]]] = True

    return CoverReport(selected=selected,
                       overlap_max=len(selected),
                       measure_ratio=(float(mask.sum()) * cell_volume
                                      / (float((union | mask).sum()) * cell_volume)),
                       details={"theta": theta, "densities": densities,
                                "n_selected": len(selected)})


# ---------------------------------------------------------------------------
# deformation checks
# ---------------------------------------------------------------------------

def section_measure(potential: Potential, x, r: float, lattice: np.ndarray,
                    cell_volume: float) -> float:
    return float(contains_many(potential, x, r, lattice).sum()) * cell_volume


def deformation_checks(potential: Potential, t: float, y) -> dict:
    """Empirical checks of section deformation: shell inclusion, doubling, shells.

    For x on 12 rays in S_{3t/4}(y) \\ S_{t/2}(y), finds the largest delta <= 1
    with S_{delta t}(x) inside S_t(y) \\ S_{t/4}(y) on a test lattice; also counts
    the doubling ratio |S_r|/|S_{r/2}| and the shell-volume inequality.
    """
    if t <= 0:
        raise ConfigurationError("t must be positive")
    n = potential.dim
    y = _as_points(y, n)[0]
    dirs = unit_directions(n, 12)
    xs = np.vstack([y[None, :] + boundary_radii(potential, y, s, dirs)[:, None] * dirs
                    for s in np.array([0.72, 0.65, 0.58, 0.51]) * t])

    tmax = boundary_radii(potential, y, t, dirs).max()
    per_axis = 600 if n == 1 else 90
    ends = np.vstack([y[None, :], xs])
    lattice = box_lattice(ends.min(axis=0) - 1.3 * tmax, ends.max(axis=0) + 1.3 * tmax, per_axis)
    cell = ((lattice[:, 0].max() - lattice[:, 0].min()) / (per_axis - 1)) ** n

    # every section about y is read off one height array
    v_y = potential.height(y, lattice)

    def measure(r):
        return float(np.count_nonzero(v_y < r ** 2)) * cell

    ring_ok = (v_y < t ** 2) & (v_y >= (t / 4.0) ** 2)

    # S_{delta t}(x) holds the lattice points p with v_x(p) < (delta t)^2, so
    # the largest delta keeping it inside the ring is the smallest sqrt(v_x(p))
    # over lattice points p outside the ring, over t
    outside = lattice[~ring_ok]
    delta_hats = []
    for x in xs:
        v_min = float(potential.height(x, outside).min()) if outside.size else np.inf
        delta_hats.append(min(1.0, float(np.sqrt(v_min)) / t))
    delta_hats = np.array(delta_hats)

    doubling = [measure(r) / measure(r / 2.0) for r in (t, t / 2.0) if measure(r / 2.0) > 0]
    m_t = measure(t)
    shell_ok = [bool(m_t - measure(eps * t) <= n * (1.0 - eps) * m_t + max(0.05 * m_t, 2 * cell))
                for eps in (0.3, 0.6, 0.9)]

    return {
        "delta_hat_min": float(delta_hats.min()),
        "delta_hats": delta_hats.tolist(),
        "doubling_ratios": doubling,
        "shell_inequality_ok": shell_ok,
        "failure": bool(delta_hats.min() < 1e-4),
    }
