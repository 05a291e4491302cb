"""Explicit subsolution barriers and their numerical verification.

Three kinds:
  F_power      -- min(2^m, |x|^{-m}), the radial power barrier;
  g_normalized -- min(s^{-m}, |T x|^{-m}) pulled through the normalization
                  map T of a small section;
  psi_bump     -- compactly supported bump, positive on S_tau, vanishing
                  outside S_{2tau}, C^{1,1}, built radially in the section
                  height coordinate rho = sqrt(v_0(x)) with a quadratic cap
                  inside and a quadratic outer taper (the raw power paste is
                  only Lipschitz at the outer boundary, so a taper replaces
                  it to keep one-sided second differences bounded).

The admissible exponent m comes from the discrete margin
    delta0(m) = (m+2) * lam * int_{bd} y_1^2 dsigma - Lam * |bd|
computed by boundary quadrature on the normalized section boundary
T(bd S_1); m must keep delta0 positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BarrierError, ConfigurationError
from .grid import AnalyticField
from .kernels import KernelSpec, evaluate, make_plan
from .potential import Potential
from .sections import AffineMap, boundary_radii, fit_ellipsoid, unit_directions

# each barrier kind's required parameters; every kind may also set "m"
BARRIER_KINDS = {"F_power": (), "g_normalized": ("r",), "psi_bump": ("tau",)}
REGION_KINDS = {"annulus": ("kind", "r_in", "r_out"), "outside_section": ("kind", "r", "r_out")}


@dataclass
class Barrier:
    kind: str
    m: float
    s: float                      # cap radius / inner paste height
    potential: Potential
    anchor: AffineMap | None = None
    coeffs: dict = field(default_factory=dict)

    def field(self) -> AnalyticField:
        n = self.potential.dim
        if self.kind == "F_power":
            cap = 2.0 ** self.m

            def fn(p, m=self.m, cap=cap):
                r = np.linalg.norm(p, axis=1)
                return np.minimum(cap, np.maximum(r, 1e-300) ** (-m))

            return AnalyticField("F_power", fn, cap, n)
        if self.kind == "g_normalized":
            cap = self.s ** (-self.m)

            def fn(p, m=self.m, cap=cap, T=self.anchor):
                r = np.linalg.norm(T.apply(p), axis=1)
                return np.minimum(cap, np.maximum(r, 1e-300) ** (-m))

            return AnalyticField("g_normalized", fn, cap, n)
        c = self.coeffs

        def fn(p, c=c, pot=self.potential):
            v = pot.height(np.zeros(pot.dim), p)
            rho = np.sqrt(v)
            out = np.zeros(p.shape[0])
            cap_zone = rho <= c["s"]
            mid = (rho > c["s"]) & (rho <= c["rho_t"])
            outer = (rho > c["rho_t"]) & (rho < c["two_tau"])
            out[cap_zone] = c["a"] - c["b"] * v[cap_zone]
            out[mid] = rho[mid] ** (-c["m"]) - c["c_off"]
            out[outer] = c["A"] * (c["two_tau"] - rho[outer]) ** 2
            return c["c_norm"] * out

        return AnalyticField("psi_bump", fn, c["c_norm"] * c["a"], n)


def boundary_moment(potential: Potential) -> tuple[float, float]:
    """(int_{T(bd S_1)} y_1^2 dsigma, |T(bd S_1)|) by boundary quadrature on 512 rays."""
    n = potential.dim
    T = fit_ellipsoid(potential, np.zeros(n), 1.0, 512)
    dirs = unit_directions(n, 512)
    t = boundary_radii(potential, np.zeros(n), 1.0, dirs)
    z = T.apply(t[:, None] * dirs)
    if n == 1:
        return float((z[:, 0] ** 2).sum()), 2.0
    seg = np.roll(z, -1, axis=0) - z
    ds = np.linalg.norm(seg, axis=1)
    midy1 = 0.5 * (z[:, 0] + np.roll(z[:, 0], -1))
    return float((midy1 ** 2 * ds).sum()), float(ds.sum())


def _check_keys(given: dict, required: tuple, optional: tuple = ()) -> None:
    """ConfigurationError unless `given` sets every required key and no other but optional ones."""
    unknown, missing = set(given) - set(required + optional), set(required) - set(given)
    if unknown or missing:
        raise ConfigurationError(f"unknown key(s) {sorted(unknown)}, "
                                 f"missing key(s) {sorted(missing)}")


def build_barrier(kind: str, potential: Potential, spec: KernelSpec,
                  params: dict | None = None) -> Barrier:
    """Construct a barrier with m (default: 1 above the admissible minimum,
    itself at least 0) validated by the boundary-moment margin."""
    if kind not in BARRIER_KINDS:
        raise ConfigurationError(f"unknown barrier kind {kind!r}")
    params = params or {}
    _check_keys(params, BARRIER_KINDS[kind], ("m",))
    i_y1, bd = boundary_moment(potential)
    m_min = spec.Lam * bd / (spec.lam * i_y1) - 2.0
    m = float(params["m"]) if "m" in params else max(m_min, 0.0) + 1.0
    delta0 = (m + 2.0) * spec.lam * i_y1 - spec.Lam * bd
    if delta0 <= 0.0:
        raise BarrierError(
            f"m={m} too small: delta0={delta0:g} <= 0, minimal admissible m is {m_min:g}")

    if kind == "F_power":
        return Barrier(kind, m, 0.5, potential)

    if kind == "g_normalized":
        T = fit_ellipsoid(potential, np.zeros(potential.dim), float(params["r"]))
        return Barrier(kind, m, 0.5, potential, anchor=T)

    # cap height s = 1/8; the outer taper starts at 0.8 of the support radius 2 tau
    tau = float(params["tau"])
    if tau <= 1.0:
        raise ConfigurationError("psi_bump needs tau > 1 from the tau estimate")
    s = 0.125
    two_tau = 2.0 * tau
    rho_t = 0.8 * two_tau
    A = m * rho_t ** (-m - 1.0) / (2.0 * (two_tau - rho_t))
    c_off = rho_t ** (-m) - A * (two_tau - rho_t) ** 2
    b = 0.5 * m * s ** (-m - 2.0)
    a = s ** (-m) - c_off + b * s * s
    chi_tau = tau ** (-m) - c_off if tau <= rho_t else A * (two_tau - tau) ** 2
    if chi_tau <= 0:
        raise BarrierError("bump profile not positive at tau")
    c_norm = 2.2 / chi_tau
    coeffs = {"m": m, "s": s, "rho_t": rho_t, "two_tau": two_tau,
              "A": A, "c_off": c_off, "a": a, "b": b, "c_norm": c_norm}
    return Barrier(kind, m, s, potential, coeffs=coeffs)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def _region_samples(potential: Potential, region: dict, count: int) -> np.ndarray:
    n = potential.dim
    kind = region.get("kind")
    if kind not in REGION_KINDS:
        raise ConfigurationError(f"unknown verification region {kind!r}")
    _check_keys(region, REGION_KINDS[kind])
    if kind == "annulus":
        r_in, r_out = float(region["r_in"]), float(region["r_out"])
        if n == 1:
            half = max(count // 2, 1)
            r = np.linspace(r_in, r_out, half)
            return np.concatenate([r, -r])[:, None]
        k = np.arange(count)
        r = r_in + (r_out - r_in) * (k + 0.5) / count
        ang = 2.0 * math.pi * ((k * 0.6180339887498949) % 1.0)
        return np.stack([r * np.cos(ang), r * np.sin(ang)], axis=-1)
    r = float(region["r"])
    dirs = unit_directions(n, max(8, count // 8))
    heights = np.geomspace(r * 1.02, float(region["r_out"]), max(count // dirs.shape[0], 2))
    pts = []
    for s in heights:
        t = boundary_radii(potential, np.zeros(n), s, dirs)
        pts.append(t[:, None] * dirs)
    return np.vstack(pts)


def verify_subsolution(barrier: Barrier, potential: Potential, spec: KernelSpec,
                       region: dict, sample_count: int = 200,
                       sigma_scan: bool = True, scan_samples: int = 40) -> dict:
    """Evaluate M^- barrier on the region; report the minimum and the smallest
    sigma on {1.1, ..., 1.95} whose minimum clears the threshold.

    For F_power / g_normalized the threshold is -1e-8 * sup(barrier); for
    psi_bump the negative part must be supported in the closed section
    S_{1/4}, so the threshold applies to samples outside it while the
    measured negative part inside is reported as the bump right-hand side.
    M^- is evaluated by a quadrature plan for lattice spacing 2e-3.
    """
    fld = barrier.field()
    pts = _region_samples(potential, region, sample_count)

    def checked(p: np.ndarray) -> np.ndarray:
        """The samples the threshold applies to: for psi_bump, those outside S_{1/4}."""
        if barrier.kind != "psi_bump":
            return np.ones(p.shape[0], dtype=bool)
        return potential.height(np.zeros(potential.dim), p) >= 0.25 ** 2

    scale = fld.sup_bound
    box_diam = 2.0 * float(np.linalg.norm(pts, axis=1).max()) + 4.0

    def min_at(sigma: float, sample_pts: np.ndarray):
        plan = make_plan(potential, KernelSpec(spec.lam, spec.Lam, sigma), 2e-3, box_diam, scale)
        return evaluate(fld, sample_pts, plan, "extremal_minus")

    vals = min_at(spec.sigma, pts)
    threshold = -1e-8 * scale
    if barrier.kind == "psi_bump":
        outside = checked(pts)
        min_out = float(vals[outside].min()) if outside.any() else np.inf
        bump_rhs = float(np.maximum(-vals[~outside], 0.0).max()) if (~outside).any() else 0.0
        passed = min_out >= threshold
        result = {"min_value": min_out, "bump_rhs_max": bump_rhs,
                  "threshold": threshold, "passed": bool(passed)}
    else:
        result = {"min_value": float(vals.min()), "threshold": threshold,
                  "passed": bool(vals.min() >= threshold)}
        if not result["passed"]:
            result["worst_point"] = pts[int(vals.argmin())].tolist()

    if sigma_scan:
        scan_pts = pts[:: max(1, pts.shape[0] // scan_samples)]
        scan_checked = checked(scan_pts)
        sigma0 = None
        scan = {}
        for sg in (1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 1.95):
            v = min_at(sg, scan_pts)[scan_checked]
            mv = float(v.min()) if v.size else np.inf
            scan[sg] = mv
            if sigma0 is None and mv >= threshold:
                sigma0 = sg
        result["sigma0_hat"] = sigma0
        result["sigma_scan"] = scan
        if sigma0 is None:
            result["failure"] = "no sigma in the scan grid passes"
    return result
