"""Concave envelope, contact set, and the ABP-type experiment.

The envelope Gamma is the smallest concave function above u^+ on the
section S_tau (zero outside); its contact set with u carries the
quadratic-detachment information that converts the pointwise bound sup u
into a measure bound on a union of sections.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull

from .errors import DataError, GeometryError, RefinementNeededError
from .grid import GridFunction, tensor_points, zero_rule
from .kernels import KernelSpec
from .potential import Potential
from .sections import (besicovitch_cover, boundary_radii, contains_many,
                       engulfing_probe, unit_directions)
from .solver import _f_values


# ---------------------------------------------------------------------------
# tau of the symmetric-increment proposition
# ---------------------------------------------------------------------------

def estimate_engulfing(potential: Potential) -> float:
    """Max engulfing constant over heights 0.25, 0.5 and 1 at the origin (and
    at +-0.7 per axis for a potential that is not quadratic), 32 trials per
    probe."""
    n = potential.dim
    centers = [np.zeros(n)]
    if not potential.quadratic:
        centers += [np.full(n, 0.7), np.full(n, -0.7)]
    g = 1.0
    for c in centers:
        for r in (0.25, 0.5, 1.0):
            g = max(g, engulfing_probe(potential, c, r, 32))
    return g


def compute_tau(potential: Potential, samples: int = 24) -> float:
    """Smallest tau in (gamma, 64 gamma] such that for sampled x in S_1(0),
    x + y outside S_tau(0) forces x - y outside S_1(0).

    Probes y are built from points z just outside S_tau' for several
    inflation factors, so the returned tau is an empirical bound.
    """
    n = potential.dim
    gamma_hat = estimate_engulfing(potential)
    dirs = unit_directions(n, max(16, samples))
    t1 = boundary_radii(potential, np.zeros(n), 1.0, dirs)
    fracs = np.linspace(0.0, 0.999, samples if n == 1 else max(4, samples // 4))
    xs = (fracs[:, None, None] * t1[None, :, None] * dirs[None, :, :]).reshape(-1, n)

    def predicate(tau: float) -> bool:
        # the mirrored points 2x - z of every sample x and every z, in one call
        zs = np.vstack([(1.0 + 1e-9) * boundary_radii(potential, np.zeros(n), tau * scale,
                                                       dirs)[:, None] * dirs
                        for scale in (1.0 + 1e-9, 1.5, 4.0)])
        mirrored = (2.0 * xs[:, None, :] - zs[None, :, :]).reshape(-1, n)
        return not np.any(potential.height(np.zeros(n), mirrored) < 1.0)

    lo, hi = gamma_hat, 64.0 * gamma_hat
    if not predicate(hi):
        raise GeometryError("no tau <= 64*gamma passed: geometry pathology")
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# concave envelope
# ---------------------------------------------------------------------------

@dataclass
class EnvelopeResult:
    gamma: GridFunction
    lattice: np.ndarray          # (N, n) envelope lattice points
    gamma_vals: np.ndarray       # (N,)
    u_vals: np.ndarray           # (N,)
    contact_mask: np.ndarray     # (N,) bool
    supergradients: np.ndarray   # (N, n); rows valid where in_tau
    in_tau: np.ndarray           # (N,) bool
    contact_tol: float
    details: dict = field(default_factory=dict)


def _aligned_lattice(u: GridFunction, radius: float):
    """Extend u's lattice outward (same spacing, aligned nodes) to cover
    the centered ball of the given Euclidean radius."""
    h = u.h
    lo = np.floor((-radius - u.lo) / h).astype(int)
    hi = np.ceil((radius - u.hi) / h).astype(int)
    lo_ext = u.lo - np.maximum(lo, 0) * h
    hi_ext = u.hi + np.maximum(hi, 0) * h
    axes = [np.arange(lo_ext[i], hi_ext[i] + h / 2, h) for i in range(u.dim)]
    return tensor_points(axes), tuple(a.size for a in axes), lo_ext, hi_ext


def concave_envelope(u: GridFunction, potential: Potential, tau: float) -> EnvelopeResult:
    """Concave envelope of u^+ on S_tau(0), zero outside, on an aligned lattice.

    The envelope is the upper hull of the lifted point set {(x, u^+(x))};
    supergradients come from the minimizing hull facet at each point, and
    the contact set is |u - Gamma| <= 2 * (interpolation error estimate).
    """
    n = u.dim
    dirs = unit_directions(n, 64)
    t_tau = boundary_radii(potential, np.zeros(n), tau, dirs)
    pts, shape, lo_ext, hi_ext = _aligned_lattice(u, float(t_tau.max()) * 1.02)
    u_vals = u.eval(pts)
    v0 = potential.height(np.zeros(n), pts)
    in_tau = v0 < tau * tau
    in_one = v0 < 1.0

    scale = max(1.0, float(np.abs(u_vals).max()))
    if np.any(u_vals[in_tau & ~in_one] > 1e-9 * scale):
        raise DataError("u > 0 somewhere outside S_1: envelope precondition")

    up = np.maximum(u_vals, 0.0)
    gamma_vals = np.zeros(pts.shape[0])
    grads = np.zeros((pts.shape[0], n))

    # multilinear interpolation error is |second difference| / 8 per cell;
    # contact tolerance = 2x that estimate
    d2 = 0.0
    vals = u.values
    for ax in range(n):
        d2 = max(d2, float(np.abs(np.diff(vals, n=2, axis=ax)).max()))
    contact_tol = max(0.25 * d2, 1e-12 * scale)

    # trivial case: u <= 0 on S_tau, the envelope and the contact set vanish
    trivial = bool(up[in_tau].max() <= 0.0)
    if not trivial:
        P = pts[in_tau]
        hull = ConvexHull(np.column_stack([P, up[in_tau]]))
        eq = hull.equations  # outward normal: a.x + b*z + d <= 0 inside
        upper = eq[:, n] > 1e-12
        a, b, d = eq[upper, :n], eq[upper, n], eq[upper, n + 1]
        # plane z = -(a.x + d)/b; min over upper facets = concave envelope
        planes = -(P @ a.T + d[None, :]) / b[None, :]
        which = planes.argmin(axis=1)
        gamma_vals[in_tau] = np.maximum(planes[np.arange(P.shape[0]), which], 0.0)
        grads[in_tau] = -(a / b[:, None])[which]

    contact = in_tau & (np.abs(u_vals - gamma_vals) <= contact_tol) & (up > 0)
    return EnvelopeResult(
        gamma=GridFunction(lo_ext, hi_ext, gamma_vals.reshape(shape), zero_rule()),
        lattice=pts, gamma_vals=gamma_vals, u_vals=u_vals,
        contact_mask=contact, supergradients=grads, in_tau=in_tau,
        contact_tol=contact_tol, details={"trivial": trivial})


# ---------------------------------------------------------------------------
# ring estimate and ABP pipeline
# ---------------------------------------------------------------------------

def detachment_heights(sigma: float, h: float, a_hi: float) -> np.ndarray:
    """r_k = 2^{-1/(2-sigma)-k}, k = 0.., truncated where sections shrink
    below about four lattice cells."""
    r0 = 2.0 ** (-1.0 / (2.0 - sigma))
    # euclidean scale of S_r is ~ r * sqrt(2/a_hi); log2 sizes the candidates
    # with one to spare, the comparison keeps exactly the admissible ones
    scale = np.sqrt(2.0 / a_hi)
    rs = r0 * 2.0 ** -np.arange(max(0, int(np.log2(r0 * scale / (4.0 * h))) + 2))
    rs = rs[rs * scale >= 4.0 * h]
    if not rs.size:
        raise RefinementNeededError("grid too coarse for any admissible ring")
    return rs


def ring_estimate_check(envelope: EnvelopeResult, potential: Potential,
                        spec: KernelSpec, f, M: float) -> dict:
    """Ring detachment: for each contact point find the best k with
    |W_k| <= C0 (f/M) |R_k| and report the empirical constant C0_hat.
    Rings of fewer than 4 lattice cells are skipped.

    f: the right-hand side, a number or a callable pts -> values.
    """
    pts = envelope.lattice
    contact_idx = np.nonzero(envelope.contact_mask
                             & (potential.height(np.zeros(potential.dim), pts) < 1.0))[0]
    if contact_idx.size == 0:
        raise RefinementNeededError("empty contact set inside S_1")
    a_hi = potential.hessian_bounds()[1]
    h = envelope.gamma.h
    rks = detachment_heights(spec.sigma, h, a_hi)

    per_contact = []
    c0_hat = 0.0
    for ci in contact_idx:
        x = pts[ci]
        ux = envelope.u_vals[ci]
        gr = envelope.supergradients[ci]
        v = potential.height(x, pts)
        fx = float(_f_values(f, x[None, :])[0])
        best = None
        for k, rk in enumerate(rks):
            rk1 = rk / 2.0
            ring = (v < rk * rk) & (v >= rk1 * rk1)
            n_ring = int(ring.sum())
            if n_ring < 4:
                continue
            tangent = ux + (pts[ring] - x[None, :]) @ gr
            w = envelope.u_vals[ring] < tangent - M * rk * rk
            ratio = float(w.sum()) / n_ring
            if best is None or ratio < best[2]:
                best = (k, float(rk), ratio, n_ring)
        if best is None:
            raise RefinementNeededError(f"no admissible ring at contact point {x}")
        per_contact.append({"x": x.tolist(), "k": best[0], "r": best[1],
                            "ratio": best[2], "ring_cells": best[3], "f": fx})
        if fx > 0:
            c0_hat = max(c0_hat, (M / fx) * best[2])
    return {"contacts": per_contact, "C0_hat": c0_hat,
            "ring_heights": rks.tolist(), "M": M}


def abp_experiment(u: GridFunction, potential: Potential, spec: KernelSpec,
                   f, tau: float) -> dict:
    """Full ABP pipeline: envelope -> contact set -> per-contact sections via
    the ring estimate at detachment slope M = sup|f| / 0.05 -> Besicovitch
    subcover (epsilon 0.1) -> empirical ABP constant
    C_hat = (sup u)^n / |union of sections|."""
    n = potential.dim
    env = concave_envelope(u, potential, tau)
    sup_u = float(np.maximum(env.u_vals, 0.0).max())
    if env.details.get("trivial") or sup_u <= 0:
        return {"trivial": True, "sup_u": sup_u, "C_hat": 0.0}

    f_sup = float(np.abs(_f_values(f, env.lattice)).max())
    M = f_sup / 0.05
    rings = ring_estimate_check(env, potential, spec, f, M)

    centers = np.array([c["x"] for c in rings["contacts"]])
    radii = np.array([c["r"] for c in rings["contacts"]])
    cell = env.gamma.cell_volume()
    cover = besicovitch_cover(potential, centers, radii, 0.1,
                              test_lattice=env.lattice)
    union = np.zeros(env.lattice.shape[0], dtype=bool)
    for s in cover.selected:
        union |= contains_many(potential, np.array(s.center), s.r, env.lattice)
    union_measure = float(union.sum()) * cell
    c_hat = sup_u ** n / union_measure if union_measure > 0 else np.inf
    return {"trivial": False, "sup_u": sup_u, "f_sup": f_sup,
            "union_measure": union_measure, "C_hat": float(c_hat),
            "n_contacts": len(rings["contacts"]), "C0_hat": rings["C0_hat"],
            "n_selected": len(cover.selected), "overlap_max": cover.overlap_max,
            "M": M}
