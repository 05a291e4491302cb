"""End-to-end regularity experiments: L^eps tail, Harnack, Hoelder, C^{1,alpha}.

All constants in the underlying theory are existential, so every experiment
reports empirical constants together with pass/fail flags at recorded
tolerances and two-resolution stability ratios.  Fits are least squares in
log-log with an R^2 gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DataError, KernelClassError, RefinementNeededError
from .grid import ExteriorRule, GridFunction
from .kernels import NODE_BUDGET, KernelRule, KernelSpec, midpoint_rule
from .potential import Potential, _as_points
from .sections import boundary_radii, contains_many, sphere_measure, unit_directions
from .solver import DiscreteProblem, solve


@dataclass
class ExperimentReport:
    experiment: str
    inputs: dict
    constants: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    stability: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(bool(v) for v in self.flags.values())

    def to_dict(self) -> dict:
        return {"experiment": self.experiment, "inputs": self.inputs,
                "constants": self.constants, "flags": self.flags,
                "stability": self.stability, "passed": self.passed}


def _loglog_fit(x: np.ndarray, y: np.ndarray):
    """slope, intercept, R^2 of a least-squares line through (log x, log y)."""
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(((ly - pred) ** 2).sum())
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), float(r2)


# ---------------------------------------------------------------------------
# L^eps tail
# ---------------------------------------------------------------------------

def l_eps_tail(u: GridFunction, potential: Potential, z, tau: float, eps0: float,
               problem: DiscreteProblem | None = None, rho: float = 0.5,
               levels=None) -> dict:
    """Superlevel-set decay of a nonnegative near-supersolution on S_rho(z).

    u is divided by its infimum over S_1(z) (reported as inf_S_1), so that
    the normalized function has infimum 1 there.  It measures
    |{u > t} cap S_rho(z)| for dyadic t, fits the tail exponent, and also
    reports the finite level M_hat with |{u <= M_hat} cap S_1(z)| > 0.
    With the solved problem, the hypothesis M^- u <= eps0 on S_2tau(z) is
    checked on u as solved, and its margin reported.
    """
    z = _as_points(z, potential.dim)[0]
    pts = u.points()
    vals = u.values.ravel()
    if vals.min() < -1e-9 * max(1.0, float(np.abs(vals).max())):
        raise DataError("u must be nonnegative")
    hyp_margin = None
    if problem is not None:
        mm = problem.apply(vals, "extremal_minus")
        upts = problem.grid_pts[problem.unknown]
        in_2tau = potential.height(z, upts) < (2.0 * tau) ** 2
        hyp_margin = float(mm[in_2tau].max()) if in_2tau.any() else None
        if hyp_margin is not None and hyp_margin > eps0:
            raise ConfigurationError(
                f"M^- u = {hyp_margin:g} > eps0 = {eps0:g} on S_2tau(z)")
    v_z = potential.height(z, pts)
    in_1 = v_z < 1.0
    inf_1 = float(vals[in_1].min()) if in_1.any() else np.inf
    if 0.0 < inf_1 < np.inf:
        vals = vals / inf_1

    cell = u.cell_volume()
    if levels is None:
        levels = 2.0 ** np.arange(0, 9)
    in_rho = v_z < rho ** 2
    meas = np.array([float(((vals > t) & in_rho).sum()) * cell for t in levels])
    nonempty = meas > 0
    if int(nonempty.sum()) < 4:
        raise RefinementNeededError(
            f"only {int(nonempty.sum())} nonempty superlevels: insufficient range")
    slope, intercept, r2 = _loglog_fit(np.asarray(levels)[nonempty], meas[nonempty])
    eps_hat = -slope
    meas_1 = float(in_1.sum()) * cell
    c_hat = math.exp(intercept) / meas_1

    m_hat, eta_hat = None, 0.0
    for mj in 2.0 ** np.arange(0, 40):
        # values within 1e-12 relative of the level count as at it: mirror
        # points of a symmetric problem differ in the last bits, and whether
        # both count must not depend on that roundoff
        cnt = float(((vals <= mj * (1 + 1e-12)) & in_1).sum()) * cell
        if cnt > 0:
            m_hat, eta_hat = float(mj), cnt
            break
    return {"eps_hat": float(eps_hat), "C_hat": float(c_hat), "r2": r2,
            "levels": np.asarray(levels).tolist(), "measures": meas.tolist(),
            "nonempty_levels": int(nonempty.sum()),
            "M_hat": m_hat, "eta_hat": eta_hat,
            "inf_S_1": inf_1, "hypothesis_margin": hyp_margin}


# ---------------------------------------------------------------------------
# Harnack
# ---------------------------------------------------------------------------

def harnack_experiment(potential: Potential, lam: float, Lam: float,
                       data_family: list[ExteriorRule], sigmas, resolutions,
                       box_lo, box_hi, tau: float, rho: float = 0.5,
                       ratio_cap: float = 50.0, drift_tol: float = 0.25,
                       sigma_trend_cap: float = 2.0,
                       tolerance: float = 1e-9) -> ExperimentReport:
    """sup over S_{rho/2} of u against u(0) for solves M+ u = 0, u >= 0.

    Asserts a single recorded cap across exterior data, sigma values and two
    resolutions, drift below drift_tol between resolutions, and a bounded
    trend of the constant as sigma grows.
    """
    n = potential.dim
    zero = np.zeros(n)
    per_run = {}
    for sigma in sigmas:
        spec = KernelSpec(lam, Lam, sigma)
        for g in data_family:
            for h in resolutions:
                prob = DiscreteProblem(potential, spec, box_lo, box_hi, h, g)
                u, rep = solve(prob, f=0.0, tolerance=tolerance)
                if not rep.converged:
                    raise DataError(f"harnack solve failed to converge (sigma={sigma})")
                vals = u.values.ravel()
                if vals.min() < -1e-10 * max(1.0, vals.max()):
                    raise DataError("harnack solution not nonnegative")
                pts = u.points()
                half = contains_many(potential, zero, rho / 2.0, pts)
                u0 = float(u.eval(zero[None, :])[0])
                c0 = rep.final_residual
                ratio = float(vals[half].max()) / (u0 + c0) if u0 + c0 > 0 else np.inf
                per_run[f"sigma={sigma:g}|g={g.name}|h={h:g}"] = ratio
    ratios = np.array(list(per_run.values()))
    h0, h1 = resolutions[0], resolutions[-1]
    drifts = {}
    for sigma in sigmas:
        for g in data_family:
            a = per_run[f"sigma={sigma:g}|g={g.name}|h={h0:g}"]
            b = per_run[f"sigma={sigma:g}|g={g.name}|h={h1:g}"]
            drifts[f"sigma={sigma:g}|g={g.name}"] = abs(a - b) / max(a, b)
    smin, smax = min(sigmas), max(sigmas)
    trend = (max(per_run[f"sigma={smax:g}|g={g.name}|h={h1:g}"] for g in data_family)
             / max(per_run[f"sigma={smin:g}|g={g.name}|h={h1:g}"] for g in data_family))
    flags = {
        "ratio_bounded": bool(ratios.max() <= ratio_cap),
        "resolution_stable": bool(max(drifts.values()) <= drift_tol),
        "sigma_trend_bounded": bool(trend <= sigma_trend_cap),
    }
    return ExperimentReport(
        "harnack",
        inputs={"potential": potential.id, "dim": n, "lam": lam, "Lam": Lam,
                "sigmas": list(sigmas), "resolutions": list(resolutions),
                "data": [g.name for g in data_family], "rho": rho,
                "ratio_cap": ratio_cap, "drift_tol": drift_tol,
                "sigma_trend_cap": sigma_trend_cap, "tau": tau},
        constants={"ratio_max": float(ratios.max()), "per_run": per_run,
                   "sigma_trend": float(trend)},
        flags=flags,
        stability={"drifts": drifts})


# ---------------------------------------------------------------------------
# Hoelder
# ---------------------------------------------------------------------------

def _osc_radii(potential: Potential, rho: float, h: float, levels: int = 7):
    """Shrinking section heights, dropping radii under ~8 lattice cells."""
    a_lo, _ = potential.hessian_bounds()
    radii = []
    for j in range(levels):
        r = (rho / 2.0) * 2.0 ** (-j)
        if r * math.sqrt(2.0 / a_lo) < 8.0 * h:
            break
        radii.append(r)
    if len(radii) < 3:
        raise RefinementNeededError("fewer than 3 usable oscillation radii")
    return np.array(radii)


def _pair_heights(potential: Potential, pts: np.ndarray) -> np.ndarray:
    """v_p(q) for every pair (row p, column q), as height(p, pts) gives it,
    from shifted_height over blocks of at most NODE_BUDGET pairs."""
    m = pts.shape[0]
    out = np.empty((m, m))
    step = max(1, NODE_BUDGET // m)
    for first in range(0, m, step):
        x = np.repeat(pts[first:first + step], m, axis=0)
        out[first:first + step] = potential.shifted_height(
            x, np.tile(pts, (x.shape[0] // m, 1)) - x).reshape(-1, m)
    return out


def holder_estimate(u: GridFunction, potential: Potential, x0, spec: KernelSpec,
                    C0: float, rho: float = 0.5) -> dict:
    """Oscillation fit osc_{S_r(x0)} u ~ A r^alpha plus seminorm estimates.

    Returns the section-intrinsic fit (quasi-distance d(x,y) = sqrt(v_x(y)))
    and the Euclidean fit, with the recorded seminorm constants.
    """
    x0 = _as_points(x0, potential.dim)[0]
    pts = u.points()
    vals = u.values.ravel()
    radii = _osc_radii(potential, rho, u.h)
    oscs = []
    for r in radii:
        m = contains_many(potential, x0, r, pts)
        if m.sum() < 2:
            raise RefinementNeededError("empty oscillation window")
        oscs.append(float(vals[m].max() - vals[m].min()))
    oscs = np.array(oscs)
    tol = 1e-9 * max(1.0, float(np.abs(vals).max()))
    if np.any(np.diff(oscs[::-1]) < -tol):
        return {"grid_artifact": True, "radii": radii.tolist(), "oscs": oscs.tolist()}
    good = oscs > 0
    alpha_hat, _, r2 = _loglog_fit(radii[good], oscs[good])

    half = contains_many(potential, x0, rho / 2.0, pts)
    P = pts[half]
    V = vals[half]
    dv = np.abs(V[:, None] - V[None, :])
    dsec = np.sqrt(np.maximum(_pair_heights(potential, P), 1e-300))
    deuc = np.linalg.norm(P[:, None, :] - P[None, :, :], axis=-1)
    np.fill_diagonal(dsec, np.inf)
    np.fill_diagonal(deuc, np.inf)
    semi_sec = float((dv / dsec ** alpha_hat).max())
    semi_euc = float((dv / np.maximum(deuc, 1e-300) ** alpha_hat).max())
    sup_u = float(np.abs(vals).max())
    return {"alpha_hat": alpha_hat, "r2": r2,
            "seminorm_hat": semi_sec, "seminorm_euclidean": semi_euc,
            "seminorm_constant": semi_sec / (sup_u + C0) if sup_u + C0 > 0 else np.inf,
            "sup_u": sup_u, "C0": C0,
            "radii": radii.tolist(), "oscs": oscs.tolist(), "grid_artifact": False}


# ---------------------------------------------------------------------------
# kernel shift check (class L_1 certificate)
# ---------------------------------------------------------------------------

def _shift_integral(potential: Potential, spec: KernelSpec, rule: KernelRule,
                    varrho: float, hvec: np.ndarray, n_rad: int, n_ang: int,
                    r_out_factor: float = 2.0 ** 24) -> float:
    """int over complement of S_varrho of |K(y) - K(y-h)| / |h| dy."""
    n, sigma = potential.dim, spec.sigma
    dirs = unit_directions(n, n_ang)
    t_in = boundary_radii(potential, np.zeros(n), varrho, dirs)
    gl_x, gl_w = np.polynomial.legendre.leggauss(n_rad)
    aw = sphere_measure(n) / len(dirs)
    total = 0.0
    origin = np.zeros(n)

    def kernel(pts):
        wb = potential.sym_height(origin, pts)
        m = rule.multipliers(origin, pts, wb)
        return (2.0 - sigma) * m * np.maximum(wb, 1e-300) ** (-(n + sigma) / 2.0)

    for a in range(dirs.shape[0]):
        edges = t_in[a] * 2.0 ** np.arange(0, math.ceil(math.log2(r_out_factor)) + 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            t = mid + half * gl_x
            w = half * gl_w
            y = t[:, None] * dirs[a]
            diff = np.abs(kernel(y) - kernel(y - hvec[None, :]))
            contrib = aw * float((w * t ** (n - 1) * diff).sum())
            total += contrib
            if contrib < 1e-10 * max(total, 1e-300) and lo > 4.0 * t_in[a]:
                break
    return total / float(np.linalg.norm(hvec))


def kernel_shift_check(potential: Potential, spec: KernelSpec, rule: KernelRule,
                       varrho: float, shifts, n_rad: int = 8, n_ang: int = 16,
                       refine_tol: float = 0.05) -> dict:
    """Upsilon_hat = max over shifts of the kernel shift integral, with a
    node-doubling stability check."""
    shifts = [np.atleast_1d(np.asarray(s, dtype=float)) for s in shifts]
    for s in shifts:
        nrm = float(np.linalg.norm(s))
        if nrm == 0.0:
            raise ConfigurationError("zero shift rejected")
        if nrm >= varrho / 2.0:
            raise ConfigurationError("|h| must be < varrho/2")
    vals, fine = [], []
    for s in shifts:
        vals.append(_shift_integral(potential, spec, rule, varrho, s, n_rad, n_ang))
        fine.append(_shift_integral(potential, spec, rule, varrho, s, 2 * n_rad, 2 * n_ang))
    vals, fine = np.array(vals), np.array(fine)
    rel = np.abs(fine - vals) / np.maximum(np.abs(fine), 1e-300)
    stable = bool(rel.max() <= refine_tol)
    if not np.all(np.isfinite(fine)):
        raise KernelClassError("shift integral non-finite under refinement")
    return {"Upsilon_hat": float(fine.max()), "per_shift": fine.tolist(),
            "refinement_rel_change": rel.tolist(), "stable": stable,
            "varrho": varrho}


# ---------------------------------------------------------------------------
# C^{1,alpha}
# ---------------------------------------------------------------------------

def _gradient_field(u: GridFunction) -> np.ndarray:
    g = np.gradient(u.values, u.h)
    if u.dim == 1:
        return np.asarray(g)[:, None]
    return np.stack([c.ravel() for c in g], axis=-1)


def c1alpha_experiment(potential: Potential, lam: float, Lam: float, sigma: float,
                       varrho: float, rule: KernelRule, resolutions,
                       box_lo, box_hi, exterior: ExteriorRule, f_rule,
                       shifts=None, rho: float = 0.5,
                       refusal_factor: float = 3.0, drift_tol: float = 0.25,
                       tolerance: float = 1e-9) -> ExperimentReport:
    """Gradient-oscillation exponent for Iu = f under a shift-regular kernel.

    The kernel is certified against the smooth-bound baseline first; a rule
    whose shift integral exceeds refusal_factor times the baseline (or is
    unstable under refinement) is refused and no exponent is asserted.
    """
    n = potential.dim
    spec = KernelSpec(lam, Lam, sigma)
    if shifts is None:
        base = np.zeros(n)
        shifts = [base + varrho * f * unit_directions(n, 2)[0] for f in (0.05, 0.1, 0.2)]
    baseline = kernel_shift_check(potential, spec, midpoint_rule(spec), varrho, shifts)
    candidate = kernel_shift_check(potential, spec, rule, varrho, shifts)
    refused = (not candidate["stable"]
               or candidate["Upsilon_hat"] > refusal_factor * baseline["Upsilon_hat"])
    inputs = {"potential": potential.id, "dim": n, "lam": lam, "Lam": Lam,
              "sigma": sigma, "varrho": varrho, "rule": rule.name,
              "resolutions": list(resolutions), "refusal_factor": refusal_factor,
              "drift_tol": drift_tol}
    if refused:
        return ExperimentReport(
            "c1alpha", inputs=inputs,
            constants={"Upsilon_hat": candidate["Upsilon_hat"],
                       "Upsilon_baseline": baseline["Upsilon_hat"]},
            flags={"kernel_certified": False})

    gammas, r2s, semis = [], [], []
    sup_u = 0.0
    for h in resolutions:
        prob = DiscreteProblem(potential, spec, box_lo, box_hi, h, exterior,
                               equation="linear", kernel_rule=rule)
        u, rep = solve(prob, f=f_rule, tolerance=tolerance)
        if not rep.converged:
            raise DataError("c1alpha solve failed to converge")
        grad = _gradient_field(u)
        pts = u.points()
        radii = _osc_radii(potential, rho, h)
        oscs = []
        x0 = np.zeros(n)
        for r in radii:
            m = contains_many(potential, x0, r, pts)
            gm = grad[m]
            spread = gm.max(axis=0) - gm.min(axis=0)
            oscs.append(float(np.linalg.norm(spread)))
        oscs = np.array(oscs)
        good = oscs > 0
        gamma_hat, _, r2 = _loglog_fit(radii[good], oscs[good])
        gammas.append(gamma_hat)
        r2s.append(r2)
        sup_u = max(sup_u, float(np.abs(u.values).max()))
        semis.append(float((oscs[good] / radii[good] ** gamma_hat).max()))
    drift = abs(gammas[0] - gammas[-1]) / max(gammas[-1], 1e-300)
    flags = {"kernel_certified": True,
             "gamma_positive": bool(min(gammas) > 0),
             "fit_r2": bool(min(r2s) >= 0.9),
             "resolution_stable": bool(drift <= drift_tol)}
    return ExperimentReport(
        "c1alpha", inputs=inputs,
        constants={"gamma_hats": gammas, "r2s": r2s,
                   "seminorm_constant": max(semis) / max(sup_u, 1e-300),
                   "Upsilon_hat": candidate["Upsilon_hat"],
                   "Upsilon_baseline": baseline["Upsilon_hat"], "sup_u": sup_u},
        flags=flags,
        stability={"gamma_drift": drift})
