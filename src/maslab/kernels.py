"""Nonlocal operators: second differences, kernel class, singular quadrature.

The operators integrate delta(u,x,y) = u(x+y) + u(x-y) - 2u(x) against
kernels sandwiched between (2-sigma)*lam / wbar^{(n+sigma)/2} and the same
with Lam, where wbar is the symmetrized increment height of the potential,

    wbar_x(y) = sqrt(w_x(y) * w_x(-y)),   w_x(y) = v_x(x + y).

Quadrature decomposes increment space into
  (a) an inner model region (height < rho0^2): delta is replaced by its
      directional second-difference quadratic model and wbar by the
      quadratic model y^T D2phi(x) y / 2; the radial integral is closed
      form and the (2-sigma) factor cancels analytically, so values stay
      bounded as sigma -> 2;
  (b) dyadic section rings up to a tail radius, tensor-product
      (angle x Gauss-Legendre radius) panels with the true wbar;
  (c) an analytic tail beyond the tail radius, bounded via sup|u| and the
      quadratic-growth lower bound of wbar; the tail radius is pushed out
      until that bound is below 1e-9*sup|u|, for any u.

delta, wbar and the bounds are even in y, as every KernelRule must be, so a
node y and its antipode -y carry the same pair x +- y, coefficient and
slope.  The plan therefore casts one ray per antipodal pair of directions,
with the pair's summed angular weight.

The kernel at x follows the sections of phi at x, so in general every base
point has its own node set.  A quadratic potential's sections are
ellipsoids of one shape at every centre, so its node set is the same
numbers at every point: point_quadrature builds it once per batch and
repeats it.  Otherwise it builds the sets of a whole batch of points in one
pass.  Either way the nodes are laid out [near | far]: the far slice holds
the ring panels whose lower edge lies at or beyond the plan's far_radius,
just past the box diameter, so for a base point in the box both pair
points x +- y of a far node lie outside the box (on the benchmark's
problems, 81-84% of the nodes in 2D and 62-65% in 1D).  The solver
compiles the far slice without a box test.  operator_values reduces node
second differences to M+, M-, linear or Isaacs values, with the slopes of
policy_slopes.  The kernel class (lam, Lam, sigma) is the plan's spec and
the operator over it is named by `equation`, as in solver.DiscreteProblem:
evaluate (k points in, k values out) and the compiled grid operator both
evaluate through these, NODE_BUDGET nodes at a time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DataError, KernelClassError
from .potential import Potential, _as_points
from .sections import sphere_measure, unit_directions

SELECTIONS = ("extremal_plus", "extremal_minus", "fixed_midpoint")


@dataclass(frozen=True)
class KernelSpec:
    """The kernel class: multipliers in [lam, Lam], order sigma in (0, 2).  An
    equation name picks the operator over it.  Nothing reads `selection`; it
    stays because the benchmark workloads pass it as a fourth argument."""

    lam: float
    Lam: float
    sigma: float
    selection: str = "extremal_plus"

    def __post_init__(self):
        if not (0.0 < self.lam <= self.Lam):
            raise ConfigurationError("need 0 < lambda <= Lambda")
        if not (0.0 < self.sigma < 2.0):
            raise ConfigurationError(f"sigma={self.sigma} outside (0, 2)")
        if self.selection not in SELECTIONS:
            raise ConfigurationError(f"unknown kernel selection {self.selection!r}")


@dataclass(frozen=True)
class KernelRule:
    """Multiplier rule: K(y) = (2-sigma)*mult(x,y)/wbar^{(n+sigma)/2}, mult in [lam,Lam].

    mult(x, y, wbar) is called with one row of x per node: the node's base
    point (or a single base point shared by all nodes); it may return one
    number for all nodes.  It is read only through rule_multipliers, which
    checks it against [lam, Lam].  A rule is read at y only, never at -y, and
    the node stands for both: mult must be even in y.
    """

    name: str
    mult: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def lower_rule(spec: KernelSpec) -> KernelRule:
    return KernelRule("lower", lambda x, y, w, v=spec.lam: v)


def upper_rule(spec: KernelSpec) -> KernelRule:
    return KernelRule("upper", lambda x, y, w, v=spec.Lam: v)


def midpoint_rule(spec: KernelSpec) -> KernelRule:
    return KernelRule("midpoint", lambda x, y, w, v=0.5 * (spec.lam + spec.Lam): v)


def checkerboard_rule(spec: KernelSpec) -> KernelRule:
    """Rough kernel: multiplier alternates between lam and Lam on dyadic height shells."""

    def mult(x, y, wbar, lam=spec.lam, Lam=spec.Lam):
        shell = np.floor(np.log2(np.sqrt(np.maximum(wbar, 1e-300)))).astype(int)
        return np.where(shell % 2 == 0, Lam, lam)

    return KernelRule("checkerboard", mult)


def make_kernel_rule(rule_id: str, spec: KernelSpec) -> KernelRule:
    table = {"lower": lower_rule, "upper": upper_rule,
             "midpoint": midpoint_rule, "checkerboard": checkerboard_rule}
    if rule_id not in table:
        raise ConfigurationError(f"unknown kernel rule {rule_id!r}")
    return table[rule_id](spec)


# ---------------------------------------------------------------------------
# second difference
# ---------------------------------------------------------------------------

def second_difference(u, x, y) -> np.ndarray:
    """delta(u, x, y) = u(x+y) + u(x-y) - 2 u(x) for each pair of rows of the
    points x and increments y; exactly symmetric in y."""
    x = _as_points(x, u.dim)
    y = _as_points(y, u.dim)
    return u.eval(x + y) + u.eval(x - y) - 2.0 * u.eval(x)


# ---------------------------------------------------------------------------
# quadrature plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraturePlan:
    """Node layout for one (potential, spec, grid-scale) combination."""

    potential: Potential
    spec: KernelSpec
    inner_radius: float            # height rho0 of the modeled core
    ring_heights: np.ndarray       # ascending dyadic ladder r_k
    ring_nodes: int                # Gauss-Legendre nodes per radial panel
    angles: np.ndarray             # (n_ang, n) unit directions
    ang_weight: float              # angular weight of each ray
    tail_radius: float             # Euclidean radius where rings stop
    far_radius: float              # beyond the box diameter: see make_plan


def make_plan(potential: Potential, spec: KernelSpec, h: float,
              box_diam: float) -> QuadraturePlan:
    """Build the quadrature plan for lattice scale h.

    rho0 is the height of a few grid cells (2 in 1D where the model stencil
    is node-aligned; 4 in 2D, where diagonal stencils are interpolated and a
    wider core keeps the interpolation bias on the curvature model small);
    the ring ladder r_k doubles from r_0 = 2^{-1/(2-sigma)} in both
    directions; the tail radius is chosen so the analytic tail bound, linear
    in sup|u|, is below 1e-9 * sup|u|: the plan depends on the geometry and
    the kernel class alone, not on the data.  The angular rule is that of 2
    directions in 1D and 16 in 2D (half-step angles), with 8 Gauss-Legendre
    nodes per ring panel in 1D and 5 in 2D.  Rays run along the first
    direction of each antipodal pair only: 1 in 1D, 8 over (0, pi) in 2D,
    each with the pair's weight.  The integrand delta * K is even in y, so
    the ray along -e would repeat the ray along e node for node.

    far_radius = box_diam * (1 + 1e-9) + 1e-9 is derived from the box: an
    increment longer than the box diameter takes every point of the box
    outside it, and the margin covers rounding in x +- y.  Ring panels from
    there on form the far slice of point_quadrature.
    """
    if h <= 0 or box_diam <= 0:
        raise ConfigurationError("h and box_diam must be positive")
    n = potential.dim
    sigma, Lam = spec.sigma, spec.Lam
    a_lo, a_hi = potential.hessian_bounds()
    inner_cells = 2 if n == 1 else 4
    rho0 = inner_cells * h * math.sqrt(0.5 * a_hi)
    r0 = 2.0 ** (-1.0 / (2.0 - sigma))

    # the tail bound at radius R is coef * sup|u| * R^{-sigma}
    coef = (2.0 - sigma) * Lam * 4.0 * sphere_measure(n) \
        * (0.5 * a_lo) ** (-(n + sigma) / 2.0) / sigma
    R_t = min(max((coef / 1e-9) ** (1.0 / sigma), 2.0 * box_diam), 1e30)

    j_lo = math.floor(math.log2(max(rho0, 1e-300) / r0))
    h_max = math.sqrt(0.5 * a_hi) * R_t * 1.001
    j_hi = math.ceil(math.log2(h_max / r0)) + 1
    ladder = r0 * (2.0 ** np.arange(j_lo, j_hi + 1, dtype=float))

    # half-step angles, whose second half negates the first
    dirs = unit_directions(n, 16, 0.5)
    angles = dirs[:len(dirs) // 2]
    return QuadraturePlan(
        potential=potential, spec=spec, inner_radius=rho0,
        ring_heights=ladder, ring_nodes=8 if n == 1 else 5, angles=angles,
        ang_weight=sphere_measure(n) / len(angles),
        tail_radius=float(R_t), far_radius=box_diam * (1 + 1e-9) + 1e-9)


@functools.lru_cache(maxsize=None)
def _gauss_legendre(m: int) -> tuple:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per m (an
    eigenvalue problem: it cost more than a small block's node pass)."""
    x, w = np.polynomial.legendre.leggauss(m)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@dataclass
class PointQuadrature:
    """Increment nodes and kernel-bound coefficients for a batch of base points.

    Node j belongs to base point x[pid[j]] = xj[j].  The nodes form two
    slices, each point-major: [:near] holds each point's inner model nodes
    (one per angle), then its ring panels with lower edge below the plan's
    far_radius, angle by angle; [near:] holds each point's remaining ring
    panels, angle by angle.  Selected stably by pid, a point's nodes are
    those of its single-point call, in the same order.
    """

    x: np.ndarray            # (k, n) base points
    pid: np.ndarray          # (J,) base-point index of each node, nondecreasing
                             # within each slice
    xj: np.ndarray           # (J, n) base point of each node, x[pid]
    y: np.ndarray            # (J, n) increments
    coef: np.ndarray         # (J,) nonnegative; includes (2-sigma) where needed
    wbar: np.ndarray         # (J,) height at the nodes (model value on inner nodes)
    near: int                # nodes in the near slice; the far slice follows


def point_quadrature(plan: QuadraturePlan, xs) -> PointQuadrature:
    """Node sets of all base points in xs, built in one vectorized pass.

    Every point's set is a function of that point alone: the angles are
    shared, while the inner radii and ring knots follow D2phi(x) and the
    ring coefficients the true wbar at x.  A quadratic potential's set is
    the same numbers at every point (its Hessian is constant and its
    heights never read x), so for a batch of several points it is built at
    the first point and repeated, bit for bit the per-point construction.
    """
    pot, spec = plan.potential, plan.spec
    n, sigma = pot.dim, spec.sigma
    x = _as_points(xs, n)
    k = x.shape[0]
    if pot.quadratic and k > 1:
        return _repeat_node_set(point_quadrature(plan, x[:1]), x)
    ang, aw = plan.angles, plan.ang_weight
    n_ang = ang.shape[0]
    q = 0.5 * np.einsum("ai,kij,aj->ka", ang, pot.hessian(x), ang)     # (k, n_ang)
    t_in = plan.inner_radius / np.sqrt(q)
    if np.any(t_in >= plan.tail_radius):
        raise ConfigurationError("inner core reaches the tail radius: "
                                 "grid scale too coarse for this plan")

    # ring panels per (point, angle): from t_in through the ladder knots
    # strictly inside (t_in, tail_radius) to the tail radius
    knots = plan.ring_heights / np.sqrt(q)[:, :, None]
    inside = (knots > t_in[:, :, None] * (1 + 1e-12)) & (knots < plan.tail_radius)
    edges = np.concatenate([t_in[:, :, None], knots,
                            np.full((k, n_ang, 1), plan.tail_radius)], axis=2)
    end = np.ones((k, n_ang, 1), dtype=bool)
    lo_mask = np.concatenate([end, inside, ~end], axis=2)
    lo = edges[lo_mask]
    hi = edges[np.concatenate([~end, inside, end], axis=2)]
    p_pan, a_pan = np.nonzero(lo_mask)[:2]
    # near panels first, then far ones (lower edge >= far_radius); each
    # half stays point-major and angle by angle
    far = lo >= plan.far_radius
    order = np.argsort(far, kind="stable")
    lo, hi, p_pan, a_pan = lo[order], hi[order], p_pan[order], a_pan[order]
    gl_x, gl_w = _gauss_legendre(plan.ring_nodes)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    # built (node, panel) and transposed: a long inner loop is much faster
    t_ring = (mid + half * gl_x[:, None]).T.ravel()
    w_ring = (half * gl_w[:, None]).T.ravel()

    # node order: [near | far].  Near holds each point's inner model nodes
    # (one per angle), then its near ring nodes angle by angle; far holds
    # each point's far ring nodes angle by angle.  Radii, weights and angle
    # indices are placed in that order first; increments, heights and
    # coefficients follow per node.
    n_near = lo.size - int(far.sum())
    near_pp = n_ang + plan.ring_nodes * np.bincount(p_pan[:n_near], minlength=k)
    far_pp = plan.ring_nodes * np.bincount(p_pan[n_near:], minlength=k)
    counts = np.concatenate([near_pp, far_pp])
    inner = ((np.cumsum(near_pp) - near_pp)[:, None] + np.arange(n_ang)).ravel()
    ring = np.ones(int(counts.sum()), dtype=bool)
    ring[inner] = False
    t = np.empty(ring.size)
    t[inner], t[ring] = t_in.ravel(), t_ring
    w = np.zeros(ring.size)
    w[ring] = w_ring
    a = np.empty(ring.size, dtype=np.intp)
    a[inner] = np.tile(np.arange(n_ang), k)
    a[ring] = np.repeat(a_pan, plan.ring_nodes)
    # (J, n) node arrays are column-major: the passes over them run column
    # by column
    y = np.empty((ring.size, n), order="F")
    for d in range(n):
        y[:, d] = t * ang[:, d].take(a)
    pid = np.repeat(np.tile(np.arange(k), 2), counts)
    xj = np.repeat(np.tile(x.T, 2), counts, axis=1).T
    wbar = pot.sym_height(xj, y)
    coef = aw * w * t ** (n - 1) * (2.0 - sigma) * wbar ** (-(n + sigma) / 2.0)
    # inner nodes: the quadratic model, whose radial integral is closed form
    wbar[inner] = plan.inner_radius ** 2
    coef[inner] = (aw * q ** (-(n + sigma) / 2.0) * t_in ** (-sigma)).ravel()
    return PointQuadrature(x=x, pid=pid, xj=xj, y=y, coef=coef, wbar=wbar,
                           near=int(near_pp.sum()))


def _repeat_node_set(one: PointQuadrature, x: np.ndarray) -> PointQuadrature:
    """The [near | far] layout of the points x, each carrying the node set
    `one` of a single point: its near slice k times, then its far slice k
    times."""
    k, n = x.shape
    near, far = one.near, one.coef.size - one.near

    def tiled(near_part, far_part, out):
        # out is contiguous, so the reshapes are views that take the writes
        out[:k * near].reshape(k, near)[...] = near_part
        out[k * near:].reshape(k, far)[...] = far_part
        return out

    size = k * (near + far)
    idx = np.arange(k)[:, None]
    pid = tiled(idx, idx, np.empty(size, dtype=np.intp))
    # (J, n) node arrays are column-major, as in the per-point construction
    xj, y = np.empty((size, n), order="F"), np.empty((size, n), order="F")
    for d in range(n):
        tiled(x[:, d:d + 1], x[:, d:d + 1], xj[:, d])
        tiled(one.y[:near, d], one.y[near:, d], y[:, d])
    coef, wbar = (tiled(a[:near], a[near:], np.empty(size)) for a in (one.coef, one.wbar))
    return PointQuadrature(x=x, pid=pid, xj=xj, y=y, coef=coef, wbar=wbar, near=k * near)


# ---------------------------------------------------------------------------
# operator evaluation
# ---------------------------------------------------------------------------

EQUATIONS = ("extremal_plus", "extremal_minus", "linear", "isaacs")


def node_deltas(u, pq: PointQuadrature) -> np.ndarray:
    up = u.eval(pq.xj + pq.y)
    um = u.eval(pq.xj - pq.y)
    d = up + um - 2.0 * u.eval(pq.x)[pq.pid]
    if not np.all(np.isfinite(d)):
        raise DataError("non-finite u values at quadrature nodes")
    return d


def rule_multipliers(rule: KernelRule, spec: KernelSpec, x, y, wbar) -> float | np.ndarray:
    """The rule's multipliers at the nodes, checked against [lam, Lam]: one
    float for a rule that returns one number, else one per node."""
    m = np.asarray(rule.mult(x, y, wbar), dtype=float)
    if m.ndim == 0:
        m = float(m)
        out = m < spec.lam - 1e-12 or m > spec.Lam + 1e-12
    else:
        m = np.broadcast_to(m, (y.shape[0],))
        out = np.any(m < spec.lam - 1e-12) or np.any(m > spec.Lam + 1e-12)
    if out:
        raise KernelClassError(
            f"kernel rule {rule.name!r} leaves [{spec.lam}, {spec.Lam}] at a node")
    return m


def policy_slopes(delta, coef, pid, count: int, spec: KernelSpec, equation: str,
                  mults=None) -> np.ndarray:
    """Per-node kernel multipliers that attain the operator at `count` points.

    Node j belongs to point pid[j] and carries the kernel bound coef[j] and
    the second difference delta[j].  The slopes are the Pucci choice of lam
    or Lam for the extremal equations, the rule's multipliers `mults` for
    "linear" (one number or one per node, returned as given), and for
    "isaacs" (mults a list of families, each a list of multipliers, one
    number or one per node) the multipliers of the min over families of the
    max within each family, chosen point by point.  Frozen, they are the
    policy of the linearization.
    """
    if equation == "extremal_plus":
        return np.where(delta > 0, spec.Lam, spec.lam)
    if equation == "extremal_minus":
        return np.where(delta > 0, spec.lam, spec.Lam)
    if equation == "linear":
        return mults
    if equation != "isaacs":
        raise ConfigurationError(f"unknown equation {equation!r}")
    dc = coef * delta
    vals = [np.stack([np.bincount(pid, weights=dc * m, minlength=count) for m in beta])
            for beta in mults]
    best_b = [v.argmax(axis=0) for v in vals]
    best_a = np.stack([v.max(axis=0) for v in vals]).argmin(axis=0)
    slopes = np.empty(delta.size)
    for a, beta in enumerate(mults):
        for b, m in enumerate(beta):
            sel = (best_a[pid] == a) & (best_b[a][pid] == b)
            slopes[sel] = np.broadcast_to(m, delta.shape)[sel]
    return slopes


def operator_values(delta, coef, pid, count: int, spec: KernelSpec, equation: str,
                    mults=None) -> np.ndarray:
    """M+, M-, linear or Isaacs values at `count` points from node second
    differences: the sum of coef * slope * delta over each point's nodes,
    with the slopes of policy_slopes."""
    slopes = policy_slopes(delta, coef, pid, count, spec, equation, mults)
    return policy_values(delta, coef, pid, count, slopes)


def policy_values(delta, coef, pid, count: int, slopes) -> np.ndarray:
    """Values at `count` points under a frozen policy: the sum of
    coef * slope * delta over each point's nodes."""
    return np.bincount(pid, weights=coef * (slopes * delta), minlength=count)


def equation_rules(equation: str, kernel_rule: KernelRule | None = None,
                   families=None) -> list:
    """Checks an equation and the kernel rules it needs; returns those rules
    in order: none for M+ and M-, kernel_rule for "linear", and for
    "isaacs" the rules of every family (families nonempty, each nonempty).
    A rule the equation does not read is refused, not ignored."""
    if equation not in EQUATIONS:
        raise ConfigurationError(f"unknown equation {equation!r}")
    if (kernel_rule is None) == (equation == "linear"):
        raise ConfigurationError(f"the linear equation needs a kernel rule and no other "
                                 f"takes one: equation {equation!r}")
    if (families is None) == (equation == "isaacs"):
        raise ConfigurationError(f"the isaacs equation needs kernel families and no other "
                                 f"takes them: equation {equation!r}")
    if equation == "isaacs" and (not families or any(len(b) == 0 for b in families)):
        raise ConfigurationError("isaacs equation needs nonempty kernel families")
    if equation == "linear":
        return [kernel_rule]
    return [rule for beta in families for rule in beta] if equation == "isaacs" else []


def group_multipliers(equation: str, families, mults: list):
    """The multiplier arrays of equation_rules' rules, in its order, grouped
    the way policy_slopes takes them: None for M+ and M-, the one rule's
    for "linear", one list per family for "isaacs"."""
    if equation != "isaacs":
        return mults[0] if equation == "linear" else None
    it = iter(mults)
    return [[next(it) for _ in beta] for beta in families]


# Nodes compiled per call of point_quadrature.  It bounds the temporaries of
# one block (base points, increments, heights, stencils, exterior values),
# which would otherwise scale with the whole node set; at 2^16 nodes they
# stay near cache size.  Each point's nodes stay in one block, so no value
# depends on the budget.  Compile CPU seconds (median of 9 interleaved
# builds) / peak RSS in MB (a process that builds and solves 6 times), for
# perfbench's problems on a shared 2-vCPU host, with the far slice compiled
# without the box test and one node set per batch for the quadratics (all
# but perturbed 2D):
#
#   budget   perturbed 2D    aniso 2D        pucci_1d        exit_1d
#   2^14     0.120 / 110     0.131 / 121     0.089 / 128     0.082 / 123
#   2^15     0.107 / 110     0.096 / 119     0.075 / 125     0.074 / 123
#   2^16     0.103 / 111     0.082 / 119     0.065 / 126     0.067 / 123
#   2^17     0.119 / 123     0.081 / 119     0.064 / 129     0.069 / 125
#   2^18     0.152 / 152     0.090 / 129     0.069 / 125     0.070 / 123
#   2^19     0.170 / 176     0.118 / 153     0.081 / 134     0.072 / 133
#
# The quadratic columns are flat from 2^16 to 2^17; the perturbed one, which
# still builds every point's set, is fastest and smallest at 2^16.
NODE_BUDGET = 1 << 16


def _block_points(plan: QuadraturePlan) -> int:
    """Base points per block: the budget over the plan's largest node count
    per point (every ladder knot inside the ring range)."""
    per_point = plan.angles.shape[0] * (1 + plan.ring_nodes * (plan.ring_heights.size + 1))
    return max(1, NODE_BUDGET // per_point)


def evaluate(u, xs, plan: QuadraturePlan, equation: str = "extremal_plus",
             kernel_rule: KernelRule | None = None, families=None) -> np.ndarray:
    """The equation's operator over the class plan.spec (M+, M-, "linear" for
    kernel_rule, "isaacs" over families) of u at every point of xs, from
    blocks of at most NODE_BUDGET nodes.  Each point's nodes are its own,
    in the order of its single-point call, so its value does not depend on
    the batch."""
    rules = equation_rules(equation, kernel_rule, families)
    x = _as_points(xs, plan.potential.dim)
    out = np.empty(x.shape[0])
    step = _block_points(plan)
    for first in range(0, x.shape[0], step):
        pq = point_quadrature(plan, x[first:first + step])
        mults = group_multipliers(equation, families, [
            rule_multipliers(rule, plan.spec, pq.xj, pq.y, pq.wbar) for rule in rules])
        out[first:first + step] = operator_values(node_deltas(u, pq), pq.coef, pq.pid,
                                                  pq.x.shape[0], plan.spec, equation, mults)
    return out

