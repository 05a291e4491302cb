"""Command-line laboratory: config parsing, orchestration, report emission.

Every subcommand reads one JSON config and computes its CSV traces and JSON
summary; `run` alone writes them into the output directory, with a manifest
(config hash, version, runtime, timestamp) beside them.  Reruns with the same
config and seed produce byte-identical CSV/JSON; wall-clock data lives only
in the manifest.  Exit codes: 0 success, 1 configuration error (nothing is
written), 2 experiment assertion failure, an unconverged solve among them.
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
from .regularity import (c1alpha_experiment, converged_solve, drift,
                         harnack_experiment, holder_estimate, l_eps_tail)
from .sections import (boundary_radii, engulfing_probe, fit_ellipsoid,
                       section_measure, sphere_measure, unit_directions)
from .solver import DiscreteProblem, solve


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


def _write(path: str, content) -> None:
    """A JSON object, or a CSV (header, rows) where the file name ends in .csv."""
    with open(path, "w", newline="") as fh:
        if not path.endswith(".csv"):
            json.dump(_sanitize(content), fh, sort_keys=True, indent=2)
            fh.write("\n")
            return
        header, rows = content
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


# ---------------------------------------------------------------------------
# config keys
# ---------------------------------------------------------------------------

REQUIRED = object()  # the config must set the key
ORIGIN = object()    # the origin, in the potential's dimension


class Section(dict):
    """The keys of a nested object, and `default`, the object's when the
    config leaves it out.  With `many` the value is a list of such objects
    (many=2: a list of such lists); with `by` the keys are those listed
    under the value of key `by`; `make` builds the section's value from its
    resolved keys.  A section without keys is a number (with `many`, a list
    of numbers)."""

    def __init__(self, keys, default=REQUIRED, many=False, by=None, make=None):
        super().__init__(keys)
        self.default, self.many, self.by, self.make = default, many, by, make


def _rule(default=REQUIRED, many=False) -> Section:
    return Section({"id": REQUIRED, "params": []}, default, many,
                   make=lambda r: make_rule(r["id"], r["params"]))


NUMBER, DERIVED = Section({}), Section({}, None)  # a number: required, or derived when unset
STEPS = Section({}, None, many=True)  # `resolutions`: grid steps, derived when unset
POINT, AT_ORIGIN = Section({}, many=True), Section({}, ORIGIN, many=True)  # a point, or the origin
EXTERIOR, F = _rule({"id": "zero"}), _rule(0.0)
KERNEL = Section({"lam": NUMBER, "Lam": NUMBER, "sigma": NUMBER},
                 make=lambda k: KernelSpec(k["lam"], k["Lam"], k["sigma"]))
GRID = Section({"box_lo": POINT, "box_hi": POINT, "h": NUMBER})
COMMON = {"potential": Section({"id": REQUIRED, "dim": 1, "params": []}, make=lambda p:
                               make_potential(p["id"], int(p["dim"]), p["params"])),
          "out_dir": "maslab_out"}
SOLVE = {**COMMON, "kernel": KERNEL, "grid": GRID, "equation": "extremal_plus",
         "kernel_rule": "midpoint", "families": [["lower"], ["upper"]],
         "exterior": EXTERIOR, "f": F, "tolerance": solve,
         "domain": Section({"section": {"r": 1.0, "center": AT_ORIGIN},
                            "hole": {"lo": POINT, "hi": POINT}}, None, by="kind")}

# Each subcommand's config keys.  A key is REQUIRED (NUMBER: a number), or
# has the default written here (DERIVED, STEPS: the subcommand derives it), or
# names the library function it is passed to, whose own default applies when
# it is unset.
KEYS = {
    "sections": {**COMMON, "probes": Section({
        "centers": Section({}, [ORIGIN], many=2),
        "heights": Section({}, [0.25, 0.5, 1.0], many=True),
        "ray_count": 64, "trial_count": 32}, {})},
    "operator": {**COMMON, "kernel": KERNEL, "input_csv": REQUIRED,
                 "exterior": EXTERIOR, "max_points": 512},
    "solve": SOLVE,
    "abp": {**SOLVE, "tau": DERIVED, "resolutions": STEPS},
    "leps": {**SOLVE, "tau": DERIVED, "z": AT_ORIGIN, "eps0": DERIVED, "rho": l_eps_tail},
    "harnack": {**COMMON, "kernel": Section({"lam": NUMBER, "Lam": NUMBER}),
                "grid": GRID, "data_family": _rule(many=True),
                "sigmas": Section({}, [1.5, 1.7, 1.9], many=True), "resolutions": STEPS,
                **dict.fromkeys(("rho", "ratio_cap", "drift_tol", "sigma_trend_cap", "tolerance"),
                                harnack_experiment)},
    "holder": {**SOLVE, "resolutions": STEPS, "x0": AT_ORIGIN, "rho": holder_estimate,
               "drift_tol": 0.2, "seminorm_cap": DERIVED},
    "c1alpha": {**COMMON, "kernel": KERNEL, "grid": GRID, "kernel_rule": "midpoint",
                "varrho": 0.5, "resolutions": STEPS, "exterior": EXTERIOR, "f": F, **dict.fromkeys(
                    ("refusal_factor", "drift_tol", "tolerance"), c1alpha_experiment)},
    "mc-validate": {**COMMON, "kernel": KERNEL, "payoff": _rule(), "eta": 0.05,
                    "seed": 0, "x0": AT_ORIGIN, "paths": 10000, "d2_scale": estimate_exit_payoff,
                    "domain_box": Section({"lo": POINT, "hi": POINT})},
}


def _fill(default, dim: int):
    """`default`, with each ORIGIN in it as the origin in dimension dim."""
    if isinstance(default, list):
        return [_fill(v, dim) for v in default]
    return [0.0] * dim if default is ORIGIN else default


def _resolve(value, spec, name: str = "", dim: int = 1):
    """Config value `value` of key `name` (its default where the config leaves
    it out) checked against `spec`, with defaults filled in and sections made.  A
    key routed to a library function is kept only when set, in a dict under it;
    its value, like that of a key with a numeric default, is a NUMBER."""
    if value is REQUIRED:
        raise ConfigurationError(f"missing required key '{name}'")
    if callable(spec) or isinstance(spec, (int, float)):
        spec = NUMBER
    value = _fill(value, dim)
    if not isinstance(spec, Section):
        return value
    if value is None is spec.default:  # an unset `domain` or derived number
        return None
    if spec.many and isinstance(value, list):
        each = Section(spec, many=spec.many - 1, make=spec.make)
        return [_resolve(v, each, f"{name}[{i}]", dim) for i, v in enumerate(value)]
    if (isinstance(value, (int, float)) and not spec.many
            and (not spec or isinstance(spec.default, float))):
        return float(value)  # a number, or a numeric `f`
    if spec.many or not spec or not isinstance(value, dict):
        kind = "a JSON list" if spec.many else "a JSON object" if spec else "a number"
        raise ConfigurationError(f"'{name or 'config'}' must be {kind}, not {value!r}")
    if spec.by and value.get(spec.by) not in spec:
        raise ConfigurationError(f"'{name}.{spec.by}' must be one of {sorted(spec)}")
    keys = {spec.by: REQUIRED, **spec[value[spec.by]]} if spec.by else spec
    where = f"{name}." if name else ""
    unknown = [where + k for k in sorted(value) if k not in keys]
    if unknown:
        raise ConfigurationError(f"unknown key(s) {', '.join(unknown)}; known keys: "
                                 f"{', '.join(where + k for k in keys)}")
    out = {}
    for key, sub in keys.items():
        got = value.get(key, sub.default if isinstance(sub, Section) else sub)
        if callable(sub):
            out.setdefault(sub, {}).update({} if got is sub else
                                           {key: _resolve(got, sub, where + key)})
        else:
            out[key] = _resolve(got, sub, where + key, dim)
        dim = out[key].dim if key == "potential" else dim
    return spec.make(out) if spec.make else out


def _grid_from(cfg: dict):
    g = cfg["grid"]
    if g["h"] <= 0:
        raise ConfigurationError("grid.h must be positive")
    return g["box_lo"], g["box_hi"], g["h"]


def _resolutions(cfg: dict) -> list:
    """The grid steps to run: `resolutions`, or [grid.h] when it is unset."""
    steps = [_grid_from(cfg)[2]] if cfg["resolutions"] is None else cfg["resolutions"]
    if not steps or min(steps) <= 0:
        raise ConfigurationError("resolutions must be a nonempty list of positive steps")
    return steps


def _tau(cfg: dict) -> float:
    """`tau`, or compute_tau of the potential when it is unset."""
    tau = compute_tau(cfg["potential"]) if cfg["tau"] is None else cfg["tau"]
    if tau <= 0:
        raise ConfigurationError("tau must be positive")
    return tau


def _domain_from(cfg: dict, potential):
    d = cfg["domain"]
    if d is None:
        return None
    if d["kind"] == "section":
        r, center = d["r"], np.asarray(d["center"], dtype=float)
        return lambda pts: potential.height(center, pts) < r * r
    lo, hi = np.asarray(d["lo"], dtype=float), np.asarray(d["hi"], dtype=float)
    return lambda pts: ~np.all((pts >= lo) & (pts <= hi), axis=1)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_sections(cfg: dict) -> tuple[bool, dict]:
    pot = cfg["potential"]
    probes = cfg["probes"]
    rows = []
    n = pot.dim
    per_axis = 400 if n == 1 else 80
    for c in probes["centers"]:
        for r in probes["heights"]:
            c_arr = np.asarray(c, dtype=float)
            gamma = engulfing_probe(pot, c_arr, r, int(probes["trial_count"]))
            T = fit_ellipsoid(pot, c_arr, r, max(int(probes["ray_count"]), 2 * n + 2))
            volume = sphere_measure(n) / n / abs(T.det)
            dirs = unit_directions(n, 32)
            t = boundary_radii(pot, c_arr, r, dirs).max()
            lo = c_arr - 1.3 * t
            hi = c_arr + 1.3 * t
            lattice = box_lattice(lo, hi, per_axis)
            cell = ((hi[0] - lo[0]) / (per_axis - 1)) ** n
            m_r = section_measure(pot, c_arr, r, lattice, cell)
            m_half = section_measure(pot, c_arr, r / 2.0, lattice, cell)
            doubling = m_r / m_half if m_half > 0 else float("nan")
            rows.append(list(c_arr) + [r, gamma, T.inner_radius, volume, doubling])
    head = [f"c{i}" for i in range(n)] + ["r", "gamma_hat", "c_inner", "volume",
                                          "doubling_ratio"]
    summary = {"gamma_hat_max": max(r[n + 1] for r in rows),
               "c_inner_min": min(r[n + 2] for r in rows),
               "doubling_max": max(r[n + 4] for r in rows),
               "n_probes": len(rows)}
    return True, {"sections.csv": (head, rows), "sections_summary.json": summary}


def _read_grid_csv(path: str, exterior) -> GridFunction:
    try:
        data = np.genfromtxt(path, delimiter=",", skip_header=1, ndmin=2)
    except (OSError, ValueError) as e:  # missing, or rows of unequal length
        raise ConfigurationError(f"input_csv {path!r} does not read: {e}") from e
    if data.shape[0] == 0 or data.shape[1] < 2 or not np.all(np.isfinite(data)):
        raise ConfigurationError(f"input_csv {path!r} is not rows of numbers "
                                 "(coordinates, then the value) under one header line")
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


def _cmd_operator(cfg: dict) -> tuple[bool, dict]:
    pot = cfg["potential"]
    spec = cfg["kernel"]
    u = _read_grid_csv(cfg["input_csv"], cfg["exterior"])
    box_diam = float(np.linalg.norm(u.hi - u.lo))
    plan = make_plan(pot, spec, u.h, box_diam, u.sup_bound)
    pts = u.points()
    margin = 2.0 * u.h
    interior = np.all((pts >= u.lo + margin) & (pts <= u.hi - margin), axis=1)
    eval_pts = pts[interior]
    stride = max(1, eval_pts.shape[0] // int(cfg["max_points"]))
    eval_pts = eval_pts[::stride]
    fams = [[lower_rule(spec)], [upper_rule(spec)]]
    mminus = evaluate(u, eval_pts, plan, "extremal_minus")
    mplus = evaluate(u, eval_pts, plan, "extremal_plus")
    isc = evaluate(u, eval_pts, plan, "isaacs", families=fams)
    rows = [list(x) + [a, b, c] for x, a, b, c in zip(eval_pts, mminus, mplus, isc)]
    head = [f"x{i}" for i in range(pot.dim)] + ["M_minus", "M_plus", "isaacs"]
    return True, {"operator.csv": (head, rows),
                  "operator_summary.json": {"points": len(rows), "sigma": spec.sigma}}


def _problem_from_config(cfg: dict, h: float | None = None) -> DiscreteProblem:
    """The configured problem, at grid step h (grid.h when None)."""
    pot = cfg["potential"]
    equation = cfg["equation"]
    spec = cfg["kernel"]
    lo, hi, grid_h = _grid_from(cfg)
    rule = make_kernel_rule(cfg["kernel_rule"], spec) if equation == "linear" else None
    families = ([[make_kernel_rule(rid, spec) for rid in beta] for beta in cfg["families"]]
                if equation == "isaacs" else None)
    return DiscreteProblem(pot, spec, lo, hi, grid_h if h is None else h,
                           cfg["exterior"], equation,
                           kernel_rule=rule, families=families,
                           domain=_domain_from(cfg, pot))


def _solve_from_config(cfg: dict, h: float | None = None):
    """The configured problem at grid step h, and its converged solve."""
    prob = _problem_from_config(cfg, h)
    return (prob, *converged_solve(prob, cfg["f"], **cfg[solve]))


def _cmd_solve(cfg: dict) -> tuple[bool, dict]:
    u, rep = solve(_problem_from_config(cfg), f=cfg["f"], **cfg[solve])
    pts = u.points()
    rows = [list(p) + [v] for p, v in zip(pts, u.values.ravel())]
    head = [f"x{i}" for i in range(u.dim)] + ["u"]
    return rep.converged, {
        "solution.csv": (head, rows),
        "solve_report.json": {"iterations": rep.iterations, "final_residual": rep.final_residual,
                              "converged": rep.converged, "details": rep.details}}


def _cmd_abp(cfg: dict) -> tuple[bool, dict]:
    tau = _tau(cfg)
    resolutions = _resolutions(cfg)
    reports = []
    for h in resolutions:
        _, u, _ = _solve_from_config(cfg, h)
        reports.append(abp_experiment(u, cfg["potential"], cfg["kernel"], cfg["f"], tau))
    summary = {"tau": tau, "reports": reports,
               "resolutions": list(resolutions)}
    ok = True
    if len(reports) >= 2 and not any(r.get("trivial") for r in reports):
        summary["drift"] = drift(reports[0]["C_hat"], reports[-1]["C_hat"])
        ok = summary["stable_within_factor_2"] = summary["drift"] <= 0.5
    # a trivial report has sup_u and C_hat only
    head = ["sup_u", "C_hat", "n_contacts", "n_selected", "overlap_max"]
    rows = [[h] + [r.get(k, 0) for k in head] for h, r in zip(resolutions, reports)]
    return ok, {"abp_contacts.csv": (["h"] + head, rows), "abp_report.json": summary}


def _cmd_leps(cfg: dict) -> tuple[bool, dict]:
    tau = _tau(cfg)
    prob, u, rep = _solve_from_config(cfg)
    eps0 = max(10.0 * rep.final_residual, 1e-8) if cfg["eps0"] is None else cfg["eps0"]
    r = l_eps_tail(u, cfg["potential"], cfg["z"], tau, eps0, problem=prob,
                   **cfg[l_eps_tail])
    ok = r["eps_hat"] > 0 and r["r2"] >= 0.9 and r["M_hat"] is not None
    return ok, {"leps_levels.csv": (["t", "measure"], list(zip(r["levels"], r["measures"]))),
                "leps_report.json": r}


def _cmd_harnack(cfg: dict) -> tuple[bool, dict]:
    k = cfg["kernel"]
    lo, hi, _ = _grid_from(cfg)
    if not cfg["data_family"]:
        raise ConfigurationError("harnack needs a nonempty data_family")
    rep = harnack_experiment(
        cfg["potential"], k["lam"], k["Lam"], cfg["data_family"],
        sigmas=cfg["sigmas"], resolutions=_resolutions(cfg), box_lo=lo, box_hi=hi,
        **cfg[harnack_experiment])
    return rep.passed, {"harnack_ratios.csv": (["run", "ratio"],
                                               sorted(rep.constants["per_run"].items())),
                        "harnack_report.json": rep.to_dict()}


def _cmd_holder(cfg: dict) -> tuple[bool, dict]:
    resolutions = _resolutions(cfg)
    results = []
    for h in resolutions:
        _, u, rep = _solve_from_config(cfg, h)
        results.append(holder_estimate(u, cfg["potential"], cfg["x0"], cfg["kernel"],
                                       C0=rep.final_residual, **cfg[holder_estimate]))
    fits = [r for r in results if not r["grid_artifact"]]
    ok = bool(fits) and all(r["alpha_hat"] > 0 and r["r2"] >= 0.9 for r in fits)
    if len(fits) >= 2:
        ok = ok and drift(fits[0]["alpha_hat"], fits[-1]["alpha_hat"]) <= cfg["drift_tol"]
    cap = cfg["seminorm_cap"]
    if cap is not None:
        ok = ok and all(r["seminorm_constant"] <= cap for r in fits)
    rows = [[h, rad, osc] for h, r in zip(resolutions, results)
            for rad, osc in zip(r["radii"], r["oscs"])]
    return ok, {"holder_osc.csv": (["h", "r", "osc"], rows),
                "holder_report.json": {"resolutions": list(resolutions), "results": results,
                                       "passed": ok}}


def _cmd_c1alpha(cfg: dict) -> tuple[bool, dict]:
    spec = cfg["kernel"]
    lo, hi, _ = _grid_from(cfg)
    rep = c1alpha_experiment(
        cfg["potential"], spec, cfg["varrho"],
        make_kernel_rule(cfg["kernel_rule"], spec), _resolutions(cfg), lo, hi,
        cfg["exterior"], cfg["f"], **cfg[c1alpha_experiment])
    return rep.passed, {"c1alpha_report.json": rep.to_dict()}


def _cmd_mc_validate(cfg: dict) -> tuple[bool, dict]:
    mc_cfg = JumpProcessConfig(cfg["potential"], cfg["kernel"], cfg["eta"],
                               cfg["payoff"], int(cfg["seed"]))
    box = cfg["domain_box"]
    r = estimate_exit_payoff(mc_cfg, cfg["x0"], box["lo"], box["hi"], int(cfg["paths"]),
                             **cfg[estimate_exit_payoff])
    return True, {"mc_report.json": {"mean": r["mean"], "std_error": r["std_error"],
                                     "bias_bound": r["bias_bound"], "paths": r["paths"]}}


_DISPATCH = {"sections": _cmd_sections, "operator": _cmd_operator, "solve": _cmd_solve,
             "abp": _cmd_abp, "leps": _cmd_leps, "harnack": _cmd_harnack,
             "holder": _cmd_holder, "c1alpha": _cmd_c1alpha,
             "mc-validate": _cmd_mc_validate}


def run(subcommand: str, config: dict, out_dir: str | None, verbose: bool = False) -> int:
    """Dispatch a parsed config; returns the process exit code.  A subcommand
    returns whether it passed and its files, each a JSON object or a CSV
    (header, rows) by name.  Exit 1, a configuration error, writes nothing;
    exits 0 and 2 write the files, or `<subcommand>_failure.json` for any
    other MaslabError, and the manifest."""
    t0 = time.time()
    try:
        cfg = _resolve(config, Section(KEYS[subcommand]))
        passed, files = _DISPATCH[subcommand](cfg)
    except ConfigurationError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 1
    except MaslabError as e:
        print(f"experiment failure: {e}", file=sys.stderr)
        passed, files = False, {f"{subcommand}_failure.json": {"failed": True, "error": str(e)}}
    files["manifest.json"] = {
        "subcommand": subcommand,
        "config_sha256": hashlib.sha256(
            json.dumps(_sanitize(config), sort_keys=True).encode()).hexdigest(),
        "version": __version__,
        "runtime_sec": time.time() - t0,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    out_dir = out_dir or cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    for name, content in files.items():
        _write(os.path.join(out_dir, name), content)
    code = 0 if passed else 2
    if verbose:
        print(f"{subcommand}: exit {code}, artifacts in {out_dir}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="maslab",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("subcommand", choices=KEYS)
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
    return run(args.subcommand, cfg, os.environ.get("MASLAB_OUT") or args.out,
               args.verbose)


if __name__ == "__main__":
    sys.exit(main())
