"""Command-line laboratory: config parsing, orchestration, report emission.

Every subcommand reads one JSON config, writes CSV traces plus a JSON
summary into the output directory, and drops a manifest (config hash,
version, runtime, timestamp) beside them.  Reruns with the same config and
seed produce byte-identical CSV/JSON; wall-clock data lives only in the
manifest.  Exit codes: 0 success, 1 configuration error, 2 experiment
assertion failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .envelope import abp_experiment, compute_tau
from .errors import ConfigurationError, MaslabError
from .grid import GridFunction, box_lattice, make_rule
from .kernels import (KernelSpec, evaluate, lower_rule, make_kernel_rule,
                      make_plan, upper_rule)
from .mc import JumpProcessConfig, estimate_exit_payoff
from .potential import make_potential
from .regularity import (c1alpha_experiment, harnack_experiment,
                         holder_estimate, l_eps_tail)
from .sections import (boundary_radii, engulfing_probe, fit_ellipsoid,
                       section_measure, sphere_measure, unit_directions)
from .solver import DiscreteProblem, solve

SUBCOMMANDS = ("sections", "operator", "solve", "abp", "leps", "harnack",
               "holder", "c1alpha", "mc-validate")


def _fnum(x) -> str:
    return format(float(x), ".12g")


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else repr(v)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    return obj


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(_sanitize(obj), fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fnum(v) if isinstance(v, (float, np.floating)) else v
                        for v in row])


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as e:
        raise ConfigurationError(f"config file not found: {path}") from e
    except json.JSONDecodeError as e:
        raise ConfigurationError(f"config does not parse: {e}") from e


def _potential_from(cfg: dict):
    p = cfg.get("potential")
    if not p:
        raise ConfigurationError("config needs a 'potential' section")
    return make_potential(p.get("id", ""), int(p.get("dim", 1)), p.get("params", ()))


def _spec_from(cfg: dict) -> KernelSpec:
    k = cfg.get("kernel")
    if not k:
        raise ConfigurationError("config needs a 'kernel' section")
    for key in ("lam", "Lam", "sigma"):
        if key not in k:
            raise ConfigurationError(f"kernel section missing field '{key}'")
    return KernelSpec(float(k["lam"]), float(k["Lam"]), float(k["sigma"]))


def _rule_from(cfg_rule) -> "ExteriorRule":
    if cfg_rule is None:
        raise ConfigurationError("missing exterior/data rule")
    return make_rule(cfg_rule.get("id", ""), cfg_rule.get("params", ()))


def _grid_from(cfg: dict):
    g = cfg.get("grid")
    if not g:
        raise ConfigurationError("config needs a 'grid' section")
    h = float(g.get("h", 0.0))
    if h <= 0:
        raise ConfigurationError("grid.h must be positive")
    return g["box_lo"], g["box_hi"], h


def _domain_from(cfg: dict, potential):
    d = cfg.get("domain")
    if not d:
        return None
    if d.get("kind") == "section":
        r = float(d.get("r", 1.0))
        center = np.asarray(d.get("center", np.zeros(potential.dim)), dtype=float)
        return lambda pts: potential.height(center, pts) < r * r
    if d.get("kind") == "hole":
        lo = np.asarray(d["lo"], dtype=float)
        hi = np.asarray(d["hi"], dtype=float)
        return lambda pts: ~np.all((pts >= lo) & (pts <= hi), axis=1)
    raise ConfigurationError(f"unknown domain kind {d.get('kind')!r}")


def _f_from(cfg: dict):
    f = cfg.get("f", 0.0)
    if isinstance(f, (int, float)):
        return float(f)
    rule = _rule_from(f)
    return lambda pts: rule(pts)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_sections(cfg: dict, out: str) -> int:
    pot = _potential_from(cfg)
    probes = cfg.get("probes", {})
    centers = probes.get("centers", [[0.0] * pot.dim])
    heights = probes.get("heights", [0.25, 0.5, 1.0])
    ray_count = int(probes.get("ray_count", 64 if pot.dim == 2 else 4))
    trial_count = int(probes.get("trial_count", 32))
    rows = []
    n = pot.dim
    per_axis = 400 if n == 1 else 80
    for c in centers:
        for r in heights:
            c_arr = np.asarray(c, dtype=float)
            gamma = engulfing_probe(pot, c_arr, float(r), trial_count)
            T = fit_ellipsoid(pot, c_arr, float(r), max(ray_count, 2 * n + 2))
            volume = sphere_measure(n) / n / abs(T.det)
            dirs = unit_directions(n, 32)
            t = boundary_radii(pot, c_arr, float(r), dirs).max()
            lo = c_arr - 1.3 * t
            hi = c_arr + 1.3 * t
            lattice = box_lattice(lo, hi, per_axis)
            cell = ((hi[0] - lo[0]) / (per_axis - 1)) ** n
            m_r = section_measure(pot, c_arr, float(r), lattice, cell)
            m_half = section_measure(pot, c_arr, float(r) / 2.0, lattice, cell)
            doubling = m_r / m_half if m_half > 0 else float("nan")
            rows.append(list(c_arr) + [r, gamma, T.inner_radius, volume, doubling])
    head = [f"c{i}" for i in range(n)] + ["r", "gamma_hat", "c_inner", "volume",
                                          "doubling_ratio"]
    _write_csv(os.path.join(out, "sections.csv"), head, rows)
    summary = {"gamma_hat_max": max(r[n + 1] for r in rows),
               "c_inner_min": min(r[n + 2] for r in rows),
               "doubling_max": max(r[n + 4] for r in rows),
               "n_probes": len(rows)}
    _write_json(os.path.join(out, "sections_summary.json"), summary)
    return 0


def _read_grid_csv(path: str, exterior) -> GridFunction:
    data = np.genfromtxt(path, delimiter=",", skip_header=1)
    if data.ndim == 1:
        data = data[None, :]
    n = data.shape[1] - 1
    pts, vals = data[:, :n], data[:, n]
    axes = [np.unique(pts[:, i]) for i in range(n)]
    counts = [a.size for a in axes]
    if int(np.prod(counts)) != pts.shape[0]:
        raise ConfigurationError("input CSV is not a full lattice over a box")
    order = np.lexsort(tuple(pts[:, i] for i in reversed(range(n))))
    values = vals[order].reshape(counts)
    lo = [a[0] for a in axes]
    hi = [a[-1] for a in axes]
    return GridFunction(lo, hi, values, exterior)


def _cmd_operator(cfg: dict, out: str) -> int:
    pot = _potential_from(cfg)
    spec = _spec_from(cfg)
    exterior = _rule_from(cfg.get("exterior", {"id": "zero"}))
    u = _read_grid_csv(cfg["input_csv"], exterior)
    box_diam = float(np.linalg.norm(u.hi - u.lo))
    plan = make_plan(pot, spec, u.h, box_diam, u.sup_bound)
    pts = u.points()
    margin = 2.0 * u.h
    interior = np.all((pts >= u.lo + margin) & (pts <= u.hi - margin), axis=1)
    eval_pts = pts[interior]
    stride = max(1, eval_pts.shape[0] // int(cfg.get("max_points", 512)))
    eval_pts = eval_pts[::stride]
    fams = [[lower_rule(spec)], [upper_rule(spec)]]
    mminus = evaluate(u, eval_pts, plan, "extremal_minus")
    mplus = evaluate(u, eval_pts, plan, "extremal_plus")
    isc = evaluate(u, eval_pts, plan, "isaacs", families=fams)
    rows = [list(x) + [a, b, c] for x, a, b, c in zip(eval_pts, mminus, mplus, isc)]
    head = [f"x{i}" for i in range(pot.dim)] + ["M_minus", "M_plus", "isaacs"]
    _write_csv(os.path.join(out, "operator.csv"), head, rows)
    _write_json(os.path.join(out, "operator_summary.json"),
                {"points": len(rows), "sigma": spec.sigma})
    return 0


def _solve_from_config(cfg: dict):
    pot = _potential_from(cfg)
    equation = cfg.get("equation", "extremal_plus")
    spec = _spec_from(cfg)
    lo, hi, h = _grid_from(cfg)
    exterior = _rule_from(cfg.get("exterior", {"id": "zero"}))
    rule = None
    families = None
    if equation == "linear":
        rule = make_kernel_rule(cfg.get("kernel_rule", "midpoint"), spec)
    if equation == "isaacs":
        families = [[make_kernel_rule(rid, spec) for rid in beta]
                    for beta in cfg.get("families", [["lower"], ["upper"]])]
    prob = DiscreteProblem(pot, spec, lo, hi, h, exterior, equation,
                           kernel_rule=rule, families=families,
                           domain=_domain_from(cfg, pot))
    u, rep = solve(prob, f=_f_from(cfg), tolerance=float(cfg.get("tolerance", 1e-10)))
    return pot, spec, prob, u, rep


def _cmd_solve(cfg: dict, out: str) -> int:
    pot, spec, prob, u, rep = _solve_from_config(cfg)
    pts = u.points()
    rows = [list(p) + [v] for p, v in zip(pts, u.values.ravel())]
    head = [f"x{i}" for i in range(pot.dim)] + ["u"]
    _write_csv(os.path.join(out, "solution.csv"), head, rows)
    _write_json(os.path.join(out, "solve_report.json"),
                {"iterations": rep.iterations, "final_residual": rep.final_residual,
                 "converged": rep.converged, "details": rep.details})
    return 0 if rep.converged else 2


def _cmd_abp(cfg: dict, out: str) -> int:
    pot = _potential_from(cfg)
    tau = cfg.get("tau")
    if tau is None:
        tau = compute_tau(pot)
    resolutions = cfg.get("resolutions")
    if not resolutions:
        resolutions = [_grid_from(cfg)[2]]
    f = _f_from(cfg)
    f_at = (lambda p, fv=f: np.full(p.shape[0], fv)) if np.isscalar(f) else f
    reports = []
    for h in resolutions:
        sub = dict(cfg)
        sub["grid"] = dict(cfg["grid"], h=h)
        pot_, spec, prob, u, rep = _solve_from_config(sub)
        reports.append(abp_experiment(u, pot_, spec, f_at, float(tau)))
    summary = {"tau": float(tau), "reports": reports,
               "resolutions": list(resolutions)}
    ok = True
    if len(reports) >= 2 and not any(r.get("trivial") for r in reports):
        ratio = reports[0]["C_hat"] / reports[-1]["C_hat"]
        summary["refinement_ratio"] = ratio
        ok = 0.5 <= ratio <= 2.0
        summary["stable_within_factor_2"] = ok
    rows = []
    for h, r in zip(resolutions, reports):
        rows.append([h, r.get("sup_u", 0.0), r.get("C_hat", 0.0),
                     r.get("n_contacts", 0), r.get("n_selected", 0),
                     r.get("overlap_max", 0)])
    _write_csv(os.path.join(out, "abp_contacts.csv"),
               ["h", "sup_u", "C_hat", "n_contacts", "n_selected", "overlap_max"],
               rows)
    for r in reports:
        r.pop("grad_bounds", None)
    _write_json(os.path.join(out, "abp_report.json"), summary)
    return 0 if ok else 2


def _cmd_leps(cfg: dict, out: str) -> int:
    pot, spec, prob, u, rep = _solve_from_config(cfg)
    tau = cfg.get("tau") or compute_tau(pot)
    z = cfg.get("z", [0.0] * pot.dim)
    eps0 = float(cfg.get("eps0", max(10.0 * rep.final_residual, 1e-8)))
    try:
        r = l_eps_tail(u, pot, z, float(tau), eps0, problem=prob,
                       rho=float(cfg.get("rho", 0.5)))
    except MaslabError as e:
        _write_json(os.path.join(out, "leps_report.json"),
                    {"failed": True, "error": str(e)})
        return 2
    _write_csv(os.path.join(out, "leps_levels.csv"), ["t", "measure"],
               list(zip(r["levels"], r["measures"])))
    _write_json(os.path.join(out, "leps_report.json"), r)
    ok = r["eps_hat"] > 0 and r["r2"] >= 0.9 and r["M_hat"] is not None
    return 0 if ok else 2


def _cmd_harnack(cfg: dict, out: str) -> int:
    pot = _potential_from(cfg)
    k = cfg.get("kernel", {})
    lo, hi, _ = _grid_from(cfg)
    data = [_rule_from(r) for r in cfg.get("data_family", [])]
    if not data:
        raise ConfigurationError("harnack needs a nonempty data_family")
    tau = cfg.get("tau") or compute_tau(pot)
    rep = harnack_experiment(
        pot, float(k.get("lam", 1.0)), float(k.get("Lam", 1.0)), data,
        sigmas=cfg.get("sigmas", [1.5, 1.7, 1.9]),
        resolutions=cfg.get("resolutions", [_grid_from(cfg)[2]]),
        box_lo=lo, box_hi=hi, tau=float(tau),
        rho=float(cfg.get("rho", 0.5)),
        ratio_cap=float(cfg.get("ratio_cap", 50.0)),
        drift_tol=float(cfg.get("drift_tol", 0.25)),
        sigma_trend_cap=float(cfg.get("sigma_trend_cap", 2.0)),
        tolerance=float(cfg.get("tolerance", 1e-9)))
    _write_csv(os.path.join(out, "harnack_ratios.csv"), ["run", "ratio"],
               sorted(rep.constants["per_run"].items()))
    _write_json(os.path.join(out, "harnack_report.json"), rep.to_dict())
    return 0 if rep.passed else 2


def _cmd_holder(cfg: dict, out: str) -> int:
    resolutions = cfg.get("resolutions") or [_grid_from(cfg)[2]]
    results = []
    for h in resolutions:
        sub = dict(cfg)
        sub["grid"] = dict(cfg["grid"], h=h)
        pot, spec, prob, u, rep = _solve_from_config(sub)
        r = holder_estimate(u, pot, cfg.get("x0", [0.0] * pot.dim), spec,
                            C0=rep.final_residual,
                            rho=float(cfg.get("rho", 0.5)))
        results.append(r)
    alphas = [r["alpha_hat"] for r in results if not r.get("grid_artifact")]
    ok = bool(alphas) and min(alphas) > 0 and all(
        r["r2"] >= 0.9 for r in results if not r.get("grid_artifact"))
    if len(alphas) >= 2:
        drift = abs(alphas[0] - alphas[-1]) / max(alphas)
        ok = ok and drift <= float(cfg.get("drift_tol", 0.2))
    cap = cfg.get("seminorm_cap")
    if cap is not None:
        ok = ok and all(r["seminorm_constant"] <= float(cap) for r in results)
    rows = []
    for h, r in zip(resolutions, results):
        for rad, osc in zip(r.get("radii", []), r.get("oscs", [])):
            rows.append([h, rad, osc])
    _write_csv(os.path.join(out, "holder_osc.csv"), ["h", "r", "osc"], rows)
    _write_json(os.path.join(out, "holder_report.json"),
                {"resolutions": list(resolutions), "results": results,
                 "passed": ok})
    return 0 if ok else 2


def _cmd_c1alpha(cfg: dict, out: str) -> int:
    pot = _potential_from(cfg)
    k = cfg.get("kernel", {})
    sigma = float(k.get("sigma", 1.5))
    spec = KernelSpec(float(k.get("lam", 1.0)), float(k.get("Lam", 1.0)), sigma)
    rule = make_kernel_rule(cfg.get("kernel_rule", "midpoint"), spec)
    lo, hi, h = _grid_from(cfg)
    rep = c1alpha_experiment(
        pot, spec.lam, spec.Lam, sigma,
        varrho=float(cfg.get("varrho", 0.5)), rule=rule,
        resolutions=cfg.get("resolutions", [h]),
        box_lo=lo, box_hi=hi,
        exterior=_rule_from(cfg.get("exterior", {"id": "zero"})),
        f_rule=_f_from(cfg),
        refusal_factor=float(cfg.get("refusal_factor", 1.25)),
        drift_tol=float(cfg.get("drift_tol", 0.25)),
        tolerance=float(cfg.get("tolerance", 1e-9)))
    _write_json(os.path.join(out, "c1alpha_report.json"), rep.to_dict())
    return 0 if rep.passed else 2


def _cmd_mc_validate(cfg: dict, out: str) -> int:
    pot = _potential_from(cfg)
    k = cfg.get("kernel", {})
    spec = KernelSpec(float(k.get("lam", 1.0)), float(k.get("Lam", k.get("lam", 1.0))),
                      float(k.get("sigma", 1.5)))
    payoff = _rule_from(cfg.get("payoff"))
    mc_cfg = JumpProcessConfig(pot, spec, float(cfg.get("eta", 0.05)), payoff,
                               int(cfg.get("seed", 0)))
    r = estimate_exit_payoff(mc_cfg, cfg.get("x0", [0.0] * pot.dim),
                             cfg["domain_box"]["lo"], cfg["domain_box"]["hi"],
                             int(cfg.get("paths", 10000)),
                             d2_scale=float(cfg.get("d2_scale", 1.0)))
    _write_json(os.path.join(out, "mc_report.json"),
                {"mean": r["mean"], "std_error": r["std_error"],
                 "bias_bound": r["bias_bound"], "paths": r["paths"]})
    return 0


_DISPATCH = {
    "sections": _cmd_sections,
    "operator": _cmd_operator,
    "solve": _cmd_solve,
    "abp": _cmd_abp,
    "leps": _cmd_leps,
    "harnack": _cmd_harnack,
    "holder": _cmd_holder,
    "c1alpha": _cmd_c1alpha,
    "mc-validate": _cmd_mc_validate,
}


def run(subcommand: str, config: dict, out_dir: str, verbose: bool = False) -> int:
    """Dispatch a parsed config; returns the process exit code."""
    t0 = time.time()
    os.makedirs(out_dir, exist_ok=True)
    try:
        code = _DISPATCH[subcommand](config, out_dir)
    except ConfigurationError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 1
    except MaslabError as e:
        print(f"experiment failure: {e}", file=sys.stderr)
        _write_json(os.path.join(out_dir, f"{subcommand}_failure.json"),
                    {"failed": True, "error": str(e)})
        return 2
    manifest = {
        "subcommand": subcommand,
        "config_sha256": hashlib.sha256(
            json.dumps(_sanitize(config), sort_keys=True).encode()).hexdigest(),
        "version": __version__,
        "runtime_sec": time.time() - t0,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    if verbose:
        print(f"{subcommand}: exit {code}, artifacts in {out_dir}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="maslab",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default=None,
                        help="output directory (overridden by MASLAB_OUT)")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
    except ConfigurationError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 1
    out_dir = os.environ.get("MASLAB_OUT") or args.out or cfg.get("out_dir", "maslab_out")
    return run(args.subcommand, cfg, out_dir, args.verbose)


if __name__ == "__main__":
    sys.exit(main())
