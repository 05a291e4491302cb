"""End-to-end regularity experiments: L^eps tail, Harnack, Hoelder, C^{1,alpha}.

All constants in the underlying theory are existential, so every experiment
reports empirical constants together with pass/fail flags at recorded
tolerances and their drift between the coarsest and finest resolution.
Every solve must converge, or the experiment raises.  Fits are least squares
in log-log with an R^2 gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DataError, KernelClassError, RefinementNeededError
from .grid import ExteriorRule, GridFunction, _rows
from .kernels import KernelRule, KernelSpec, midpoint_rule
from .potential import HEIGHT_BLOCK, Potential, _as_point
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
    """slope, intercept, R^2 of a least-squares line through (log x, log y)
    over the points with y > 0."""
    lx, ly = np.log(x[y > 0]), np.log(y[y > 0])
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(((ly - pred) ** 2).sum())
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), float(r2)


def drift(first: float, last: float) -> float:
    """|first - last| / max(|first|, |last|): the relative change of a
    constant from the first resolution to the last (0 when both are 0)."""
    scale = max(abs(first), abs(last))
    return abs(first - last) / scale if scale > 0 else 0.0


def converged_solve(prob: DiscreteProblem, f, **options):
    """solve(prob, f, **options); DataError, naming the stop and the
    residual, unless it converged."""
    u, rep = solve(prob, f=f, **options)
    if not rep.converged:
        raise DataError(f"solve did not converge: stop {rep.details['stop']!r}, "
                        f"residual {rep.final_residual:g}")
    return u, rep


# ---------------------------------------------------------------------------
# L^eps tail
# ---------------------------------------------------------------------------

def l_eps_tail(u: GridFunction, potential: Potential, z, tau: float, eps0: float,
               problem: DiscreteProblem | None = None, rho: float = 0.5) -> dict:
    """Superlevel-set decay of a nonnegative near-supersolution on S_rho(z).

    u is divided by its infimum over S_1(z) (reported as inf_S_1), so that
    the normalized function has infimum 1 there.  It measures
    |{u > t} cap S_rho(z)| for t = 1, 2, 4, ..., 256, fits the tail exponent, and
    reports eta_hat = |{u <= M_hat} cap S_1(z)| at the level M_hat = 1 (None
    when S_1(z) holds no lattice point).
    With the solved problem, the hypothesis M^- u <= eps0 on S_2tau(z) is
    checked on u as solved, and its margin reported.
    """
    z = _as_point(z, potential.dim)
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
            raise DataError(
                f"M^- u = {hyp_margin:g} > eps0 = {eps0:g} on S_2tau(z)")
    v_z = potential.height(z, pts)
    in_1 = v_z < 1.0
    inf_1 = float(vals[in_1].min()) if in_1.any() else np.inf
    if 0.0 < inf_1 < np.inf:
        vals = vals / inf_1

    cell = u.cell_volume()
    levels = 2.0 ** np.arange(0, 9)
    in_rho = v_z < rho ** 2
    meas = np.array([float(((vals > t) & in_rho).sum()) * cell for t in levels])
    nonempty = meas > 0
    if int(nonempty.sum()) < 4:
        raise RefinementNeededError(
            f"only {int(nonempty.sum())} nonempty superlevels: insufficient range")
    slope, intercept, r2 = _loglog_fit(levels, meas)
    eps_hat = -slope
    meas_1 = float(in_1.sum()) * cell
    c_hat = math.exp(intercept) / meas_1

    # values within 1e-12 relative of the level count as at it: mirror
    # points of a symmetric problem differ in the last bits, and whether
    # both count must not depend on that roundoff
    eta_hat = float(((vals <= 1.0 + 1e-12) & in_1).sum()) * cell
    return {"eps_hat": float(eps_hat), "C_hat": float(c_hat), "r2": r2,
            "levels": levels.tolist(), "measures": meas.tolist(),
            "nonempty_levels": int(nonempty.sum()),
            "M_hat": 1.0 if eta_hat > 0 else None, "eta_hat": eta_hat,
            "inf_S_1": inf_1, "hypothesis_margin": hyp_margin}


# ---------------------------------------------------------------------------
# Harnack
# ---------------------------------------------------------------------------

def harnack_experiment(potential: Potential, lam: float, Lam: float,
                       data_family: list[ExteriorRule], sigmas, resolutions,
                       box_lo, box_hi, rho: float = 0.5,
                       ratio_cap: float = 50.0, drift_tol: float = 0.25,
                       sigma_trend_cap: float = 2.0,
                       tolerance: float = 1e-9) -> ExperimentReport:
    """sup over S_{rho/2} of u against u(0) for solves M+ u = 0, u >= 0.

    Asserts a single recorded cap across exterior data, sigma values and
    resolutions, drift below drift_tol from the first resolution to the last,
    and a bounded trend of the constant as sigma grows.
    """
    n = potential.dim
    zero = np.zeros(n)
    ratios = np.empty((len(sigmas), len(data_family), len(resolutions)))
    for i, sigma in enumerate(sigmas):
        for j, g in enumerate(data_family):
            for k, h in enumerate(resolutions):
                prob = DiscreteProblem(potential, KernelSpec(lam, Lam, sigma),
                                       box_lo, box_hi, h, g)
                u, rep = converged_solve(prob, 0.0, tolerance=tolerance)
                vals = u.values.ravel()
                if vals.min() < -1e-10 * max(1.0, vals.max()):
                    raise DataError("harnack solution not nonnegative")
                half = contains_many(potential, zero, rho / 2.0, u.points())
                u0_c0 = float(u.eval(zero[None, :])[0]) + rep.final_residual
                ratios[i, j, k] = float(vals[half].max()) / u0_c0 if u0_c0 > 0 else np.inf
    runs = [(f"sigma={s:g}|g={g.name}", i, j) for i, s in enumerate(sigmas)
            for j, g in enumerate(data_family)]
    per_run = {f"{run}|h={h:g}": ratios[i, j, k] for run, i, j in runs
               for k, h in enumerate(resolutions)}
    drifts = {run: drift(ratios[i, j, 0], ratios[i, j, -1]) for run, i, j in runs}
    trend = (ratios[int(np.argmax(sigmas)), :, -1].max()
             / ratios[int(np.argmin(sigmas)), :, -1].max())
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
                "sigma_trend_cap": sigma_trend_cap},
        constants={"ratio_max": float(ratios.max()), "per_run": per_run,
                   "sigma_trend": float(trend)},
        flags=flags,
        stability={"drifts": drifts})


# ---------------------------------------------------------------------------
# Hoelder
# ---------------------------------------------------------------------------

def _section_oscs(potential: Potential, v: np.ndarray, rho: float, h: float, field: list):
    """Section heights r = rho/2, rho/4, ..., rho/128, dropping radii under ~8
    lattice cells h, and the oscillation over S_r(x0) of the vector field with
    components `field` (arrays over the lattice points): the Euclidean norm of
    the componentwise spread.  v holds the heights v_x0 of the lattice points."""
    a_lo, _ = potential.hessian_bounds()
    radii, oscs = [], []
    for j in range(7):
        r = (rho / 2.0) * 2.0 ** (-j)
        if r * math.sqrt(2.0 / a_lo) < 8.0 * h:
            break
        m = v < r ** 2
        if np.count_nonzero(m) < 2:
            raise RefinementNeededError("empty oscillation window")
        radii.append(r)
        oscs.append(math.hypot(*(float(c[m].max() - c[m].min()) for c in field)))
    if len(radii) < 3:
        raise RefinementNeededError("fewer than 3 usable oscillation radii")
    return np.array(radii), np.array(oscs)


def _distances(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """|p_i - q_j| for every pair (row p_i, row q_j), bit for bit as
    np.linalg.norm of p_i - q_j gives it: the per-column squared differences
    are summed in its order, so only (len(p), len(q)) arrays exist, never
    the differences with their n columns."""
    out = np.zeros((p.shape[0], q.shape[0]))
    d = np.empty_like(out)
    for a, b in zip(p.T, q.T):
        np.subtract.outer(a, b, out=d)
        out += np.multiply(d, d, out=d)
    return np.sqrt(out, out=out)


def _seminorm(dv: np.ndarray, d: np.ndarray, alpha: float, first: int) -> float:
    """max over pairs p != q of dv / d^alpha, computed in d's storage, for a
    block of rows whose row i is point first + i."""
    i = np.arange(d.shape[0])
    d[i, first + i] = np.inf
    np.power(d, alpha, out=d)
    return float(np.divide(dv, d, out=d).max())


def holder_estimate(u: GridFunction, potential: Potential, x0, spec: KernelSpec,
                    C0: float, rho: float = 0.5) -> dict:
    """Oscillation fit osc_{S_r(x0)} u ~ A r^alpha plus seminorm estimates.

    Returns the section-intrinsic fit (quasi-distance d(x,y) = sqrt(v_x(y)))
    and the Euclidean fit, with the recorded seminorm constants.  Both
    seminorms are maxima over the pairs of the m points of S_{rho/2}(x0),
    taken block by block over b = HEIGHT_BLOCK // m rows (at least one):
    each block holds (b, m) arrays of |u_p - u_q|, sqrt of pair_heights and
    Euclidean distances, so the peak is O(b m), not O(m^2), and the values
    are those of the whole (m, m) arrays.
    """
    x0 = _as_point(x0, potential.dim)
    pts = u.points()
    vals = u.values.ravel()
    v = potential.height(x0, pts)
    radii, oscs = _section_oscs(potential, v, rho, u.h, [vals])
    tol = 1e-9 * max(1.0, float(np.abs(vals).max()))
    if np.any(np.diff(oscs[::-1]) < -tol):
        return {"grid_artifact": True, "radii": radii.tolist(), "oscs": oscs.tolist()}
    alpha_hat, _, r2 = _loglog_fit(radii, oscs)

    half = v < (rho / 2.0) ** 2
    P = _rows(half, pts)
    V = vals[half]
    m = P.shape[0]
    b = max(1, HEIGHT_BLOCK // m)
    sec, euc = [], []
    for first in range(0, m, b):
        rows = slice(first, first + b)
        dv = np.subtract.outer(V[rows], V)
        np.abs(dv, out=dv)
        dsec = potential.pair_heights(P[rows], P)
        sec.append(_seminorm(dv, np.sqrt(np.maximum(dsec, 1e-300, out=dsec), out=dsec),
                             alpha_hat, first))
        deuc = _distances(P[rows], P)
        euc.append(_seminorm(dv, np.maximum(deuc, 1e-300, out=deuc), alpha_hat, first))
    semi_sec, semi_euc = float(np.max(sec)), float(np.max(euc))
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
                    varrho: float, hvec: np.ndarray, n_rad: int, n_ang: int) -> float:
    """int over complement of S_varrho of |K(y) - K(y-h)| / |h| dy, on dyadic
    radial shells out to 2^24 times the boundary radius."""
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
        edges = t_in[a] * 2.0 ** np.arange(0, 25)
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
                       varrho: float, shifts) -> dict:
    """Upsilon_hat = max over shifts of the kernel shift integral (16 Gauss nodes per
    shell, 32 directions), stable if the 8-node, 16-direction value is within 5% of it."""
    shifts = [np.atleast_1d(np.asarray(s, dtype=float)) for s in shifts]
    for s in shifts:
        nrm = float(np.linalg.norm(s))
        if nrm == 0.0:
            raise ConfigurationError("zero shift rejected")
        if nrm >= varrho / 2.0:
            raise ConfigurationError("|h| must be < varrho/2")
    vals, fine = [], []
    for s in shifts:
        vals.append(_shift_integral(potential, spec, rule, varrho, s, 8, 16))
        fine.append(_shift_integral(potential, spec, rule, varrho, s, 16, 32))
    vals, fine = np.array(vals), np.array(fine)
    rel = np.abs(fine - vals) / np.maximum(np.abs(fine), 1e-300)
    stable = bool(rel.max() <= 0.05)
    if not np.all(np.isfinite(fine)):
        raise KernelClassError("shift integral non-finite under refinement")
    return {"Upsilon_hat": float(fine.max()), "per_shift": fine.tolist(),
            "refinement_rel_change": rel.tolist(), "stable": stable,
            "varrho": varrho}


# ---------------------------------------------------------------------------
# C^{1,alpha}
# ---------------------------------------------------------------------------

def _gradient_field(u: GridFunction) -> list:
    """The components of the finite-difference gradient, over u's points."""
    g = np.gradient(u.values, u.h)
    return [g] if u.dim == 1 else [c.ravel() for c in g]


def c1alpha_experiment(potential: Potential, spec: KernelSpec, varrho: float,
                       rule: KernelRule, resolutions, box_lo, box_hi,
                       exterior: ExteriorRule, f_rule, refusal_factor: float = 1.25,
                       drift_tol: float = 0.25, tolerance: float = 1e-9) -> ExperimentReport:
    """Gradient-oscillation exponent for Iu = f under a shift-regular kernel.

    The kernel is certified against the smooth-bound baseline first, at shifts
    (0.05, 0.1, 0.2) varrho e_1; a rule whose shift integral exceeds refusal_factor
    times the baseline (or is unstable under refinement) is refused and no
    exponent is asserted.
    """
    n = potential.dim
    shifts = [varrho * f * unit_directions(n, 2)[0] for f in (0.05, 0.1, 0.2)]
    baseline = kernel_shift_check(potential, spec, midpoint_rule(spec), varrho, shifts)
    candidate = kernel_shift_check(potential, spec, rule, varrho, shifts)
    refused = (not candidate["stable"]
               or candidate["Upsilon_hat"] > refusal_factor * baseline["Upsilon_hat"])
    inputs = {"potential": potential.id, "dim": n, "lam": spec.lam, "Lam": spec.Lam,
              "sigma": spec.sigma, "varrho": varrho, "rule": rule.name,
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
        u, _ = converged_solve(prob, f_rule, tolerance=tolerance)
        radii, oscs = _section_oscs(potential, potential.height(np.zeros(n), u.points()),
                                    0.5, h, _gradient_field(u))
        gamma_hat, _, r2 = _loglog_fit(radii, oscs)
        gammas.append(gamma_hat)
        r2s.append(r2)
        sup_u = max(sup_u, float(np.abs(u.values).max()))
        semis.append(float((oscs / radii ** gamma_hat).max()))
    gamma_drift = drift(gammas[0], gammas[-1])
    flags = {"kernel_certified": True,
             "gamma_positive": bool(min(gammas) > 0),
             "fit_r2": bool(min(r2s) >= 0.9),
             "resolution_stable": bool(gamma_drift <= drift_tol)}
    return ExperimentReport(
        "c1alpha", inputs=inputs,
        constants={"gamma_hats": gammas, "r2s": r2s,
                   "seminorm_constant": max(semis) / max(sup_u, 1e-300),
                   "Upsilon_hat": candidate["Upsilon_hat"],
                   "Upsilon_baseline": baseline["Upsilon_hat"], "sup_u": sup_u},
        flags=flags,
        stability={"gamma_drift": gamma_drift})
