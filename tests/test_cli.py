import filecmp
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import maslab
from maslab.cli import KEYS, ORIGIN, REQUIRED, Section, main, run
from maslab.grid import zero_rule
from maslab.kernels import KernelSpec, checkerboard_rule
from maslab.potential import make_potential
from maslab.regularity import c1alpha_experiment
from test_acceptance import CLI_CONFIGS

POTENTIAL = {"id": "iso_quadratic", "dim": 1, "params": []}


def _run_twice(tmp_path, sub, cfg):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{sub.replace('-', '_')}_{tag}"
        code = run(sub, cfg, str(out))
        assert (out / "manifest.json").exists()  # on exit 0 and 2 alike
        outs.append((code, out))
    (code1, PA), (code2, PB) = outs
    assert code1 == code2
    for f in sorted(os.listdir(PA)):
        if f == "manifest.json":
            continue
        assert filecmp.cmp(PA / f, PB / f, shallow=False), f"{f} differs"
    return code1, PA


def test_solve_cli(tmp_path):
    cfg = {"potential": POTENTIAL,
           "kernel": {"lam": 1.0, "Lam": 1.0, "sigma": 1.5},
           "grid": {"box_lo": [-1], "box_hi": [1], "h": 1 / 32},
           "exterior": {"id": "halfspace", "params": [0, 1.0, 1.0]},
           "equation": "extremal_plus", "f": 0.0}
    code, out = _run_twice(tmp_path, "solve", cfg)
    assert code == 0
    rep = json.loads((out / "solve_report.json").read_text())
    assert rep["converged"] is True and rep["details"]["stop"] == "tolerance"
    assert "method" not in rep and "cfl_dt" not in rep
    assert (out / "solution.csv").exists()
    assert (out / "manifest.json").exists()


@pytest.mark.parametrize("equation, extra", [
    ("linear", {"kernel_rule": "checkerboard"}),
    ("isaacs", {"families": [["lower", "midpoint"], ["upper"]]})])
def test_solve_cli_linear_and_isaacs(tmp_path, equation, extra):
    # no kernel.selection: the equation, not the selection, picks the operator
    cfg = {"potential": POTENTIAL, "kernel": {"lam": 1.0, "Lam": 2.0, "sigma": 1.5},
           "grid": {"box_lo": [-1], "box_hi": [1], "h": 1 / 16},
           "exterior": {"id": "halfspace", "params": [0, 1.0, 1.0]},
           "equation": equation, **extra}
    out = tmp_path / equation
    assert run("solve", cfg, str(out)) == 0
    rep = json.loads((out / "solve_report.json").read_text())
    assert rep["details"]["equation"] == equation


def test_solve_cli_empty_family_exit_1(tmp_path, capsys):
    cfg = {"potential": POTENTIAL,
           "kernel": {"lam": 1.0, "Lam": 2.0, "sigma": 1.5},
           "grid": {"box_lo": [-1], "box_hi": [1], "h": 0.25},
           "exterior": {"id": "zero"}, "equation": "isaacs",
           "families": [["lower"], []]}
    assert run("solve", cfg, str(tmp_path / "x")) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "families" in err


def test_solve_cli_bad_sigma(tmp_path):
    cfg = {"potential": POTENTIAL, "kernel": {"lam": 1, "Lam": 1, "sigma": 2.5},
           "grid": {"box_lo": [-1], "box_hi": [1], "h": 0.5},
           "exterior": {"id": "zero"}}
    assert run("solve", cfg, str(tmp_path / "x")) == 1
    assert not (tmp_path / "x").exists()  # the kernel is built with the config


def test_sections_cli(tmp_path):
    cfg = {"potential": {"id": "iso_quadratic", "dim": 2, "params": []},
           "probes": {"centers": [[0.0, 0.0]], "heights": [0.5, 1.0],
                      "ray_count": 64, "trial_count": 16}}
    code, out = _run_twice(tmp_path, "sections", cfg)
    assert code == 0
    summary = json.loads((out / "sections_summary.json").read_text())
    assert summary["gamma_hat_max"] <= 2.1
    assert summary["c_inner_min"] >= 0.9


def test_operator_cli(tmp_path):
    xs = np.linspace(-1, 1, 129)
    csv = tmp_path / "u.csv"
    with open(csv, "w") as fh:
        fh.write("x,u\n")
        for x in xs:
            fh.write(f"{float(x)!r},{float(max(0.0, 1 - x * x))!r}\n")
    cfg = {"potential": POTENTIAL, "kernel": {"lam": 1.0, "Lam": 2.0, "sigma": 1.5},
           "input_csv": str(csv), "exterior": {"id": "zero"}, "max_points": 40}
    code, out = _run_twice(tmp_path, "operator", cfg)
    assert code == 0
    rows = np.genfromtxt(out / "operator.csv", delimiter=",", skip_header=1)
    assert np.all(rows[:, 1] <= rows[:, 3] + 1e-9)  # M- <= isaacs
    assert np.all(rows[:, 3] <= rows[:, 2] + 1e-9)  # isaacs <= M+


def test_mc_validate_cli(tmp_path):
    cfg = {"seed": 3, "potential": POTENTIAL,
           "kernel": {"lam": 1.0, "Lam": 1.0, "sigma": 1.5},
           "payoff": {"id": "halfspace", "params": [0, 1.0, 1.0]},
           "eta": 0.05, "paths": 800, "x0": [0.0],
           "domain_box": {"lo": [-1], "hi": [1]}}
    code, out = _run_twice(tmp_path, "mc-validate", cfg)
    assert code == 0
    rep = json.loads((out / "mc_report.json").read_text())
    assert abs(rep["mean"] - 0.5) <= 4 * rep["std_error"]
    assert rep["paths"] == 800


def test_abp_cli(tmp_path):
    cfg = {"potential": POTENTIAL,
           "kernel": {"lam": 1.0, "Lam": 2.0, "sigma": 1.5},
           "grid": {"box_lo": [-1.5], "box_hi": [1.5], "h": 1 / 48},
           "exterior": {"id": "zero"}, "equation": "extremal_plus",
           "f": -1.0, "domain": {"kind": "section", "r": 1.0},
           "tau": 3.0, "resolutions": [1 / 48, 1 / 96]}
    code, out = _run_twice(tmp_path, "abp", cfg)
    assert code == 0
    rep = json.loads((out / "abp_report.json").read_text())
    assert rep["stable_within_factor_2"] is True
    # the one drift rule: C_hat within a factor 2 is drift <= 0.5
    assert 0 <= rep["drift"] <= 0.5 and "refinement_ratio" not in rep


def test_leps_cli(tmp_path):
    cfg = {"potential": POTENTIAL,
           "kernel": {"lam": 1.0, "Lam": 2.0, "sigma": 0.5},
           "grid": {"box_lo": [-9], "box_hi": [9], "h": 1 / 64},
           "exterior": {"id": "indicator_box", "params": [1, -0.03125, 0.03125, 1.0]},
           "equation": "extremal_minus", "f": 0.0,
           "domain": {"kind": "hole", "lo": [-0.03125], "hi": [0.03125]},
           "tau": 3.0}
    code, out = _run_twice(tmp_path, "leps", cfg)
    assert code == 0
    rep = json.loads((out / "leps_report.json").read_text())
    assert rep["eps_hat"] > 0 and rep["r2"] >= 0.9
    # the M^- u <= eps0 hypothesis is checked on the solved problem
    assert isinstance(rep["hypothesis_margin"], float)
    # negative control: an eps0 below the solve's own residual fails it
    assert run("leps", dict(cfg, eps0=1e-14), str(tmp_path / "neg")) == 2
    neg = json.loads((tmp_path / "neg" / "leps_failure.json").read_text())
    assert neg["failed"] is True


def test_leps_cli_checks_the_hypothesis_on_u_as_solved(tmp_path):
    # data outside the box: M^- u <= eps0 must be checked on u as solved
    # (max 2.75e-12 on S_2tau here), not on u / inf over S_1 against the
    # unscaled exterior data, which evaluates -3.20 and passes vacuously
    cfg = {"potential": POTENTIAL,
           "kernel": {"lam": 1.0, "Lam": 2.0, "sigma": 0.5},
           "grid": {"box_lo": [-9], "box_hi": [9], "h": 1 / 32},
           "exterior": {"id": "indicator_box", "params": [1, 9.0, 12.0, 1.0]},
           "equation": "extremal_minus", "f": 0.0, "tau": 3.0, "eps0": 1e-13}
    assert run("leps", cfg, str(tmp_path)) == 2
    rep = json.loads((tmp_path / "leps_failure.json").read_text())
    assert rep["failed"] is True
    margin = re.fullmatch(r"M\^- u = (\S+) > eps0 = 1e-13 on S_2tau\(z\)", rep["error"])
    assert margin and 1e-12 < float(margin.group(1)) < 1e-11


def test_harnack_cli(tmp_path):
    cfg = {"potential": POTENTIAL, "kernel": {"lam": 1.0, "Lam": 2.0},
           "grid": {"box_lo": [-9], "box_hi": [9], "h": 1 / 16},
           "data_family": [{"id": "indicator_box", "params": [1, 9.3, 9.8, 1.0]},
                           {"id": "indicator_box", "params": [1, -10.2, -9.6, 1.0]}],
           "sigmas": [1.5, 1.9], "resolutions": [1 / 16, 1 / 32]}
    code, out = _run_twice(tmp_path, "harnack", cfg)
    assert code == 0
    rep = json.loads((out / "harnack_report.json").read_text())
    assert rep["passed"] is True


def test_harnack_cli_negative_control(tmp_path):
    # an absurdly tight cap forces the assertion failure path: exit 2
    cfg = {"potential": POTENTIAL, "kernel": {"lam": 1.0, "Lam": 2.0},
           "grid": {"box_lo": [-9], "box_hi": [9], "h": 1 / 16},
           "data_family": [{"id": "indicator_box", "params": [1, 9.3, 9.8, 1.0]}],
           "sigmas": [1.5], "resolutions": [1 / 16], "ratio_cap": 1e-9}
    assert run("harnack", cfg, str(tmp_path / "neg")) == 2


def test_holder_cli(tmp_path):
    cfg = {"potential": POTENTIAL, "kernel": {"lam": 1.0, "Lam": 2.0, "sigma": 1.5},
           "grid": {"box_lo": [-9], "box_hi": [9], "h": 1 / 128},
           "exterior": {"id": "indicator_box", "params": [1, 9.0, 12.0, 1.0]},
           "equation": "extremal_plus", "f": 0.0,
           "resolutions": [1 / 128], "x0": [0.0]}
    code, out = _run_twice(tmp_path, "holder", cfg)
    assert code == 0
    rep = json.loads((out / "holder_report.json").read_text())
    assert rep["passed"] is True


def test_c1alpha_cli_refusal(tmp_path):
    cfg = {"potential": POTENTIAL, "kernel": {"lam": 1.0, "Lam": 2.0, "sigma": 1.5},
           "grid": {"box_lo": [-9], "box_hi": [9], "h": 1 / 48},
           "exterior": {"id": "gaussian", "params": [1.0, 2.0, 10.0]},
           "f": 0.0, "kernel_rule": "checkerboard", "varrho": 0.5,
           "resolutions": [1 / 48]}
    code, out = _run_twice(tmp_path, "c1alpha", cfg)
    assert code == 2
    rep = json.loads((out / "c1alpha_report.json").read_text())
    assert rep["flags"]["kernel_certified"] is False


def test_c1alpha_refuses_the_rough_kernel_on_size(tmp_path):
    # the checkerboard kernel's shift integral is about 1.34 times the smooth
    # baseline's, above the default refusal factor, and `maslab c1alpha`
    # applies the library's factor rather than a value of its own
    cfg = {"potential": POTENTIAL, "kernel": {"lam": 1.0, "Lam": 2.0, "sigma": 1.5},
           "grid": {"box_lo": [-9], "box_hi": [9], "h": 1 / 48},
           "kernel_rule": "checkerboard", "varrho": 0.5}
    assert run("c1alpha", cfg, str(tmp_path)) == 2
    cli = json.loads((tmp_path / "c1alpha_report.json").read_text())
    spec = KernelSpec(1.0, 2.0, 1.5)
    rep = c1alpha_experiment(make_potential("iso_quadratic", 1), spec, 0.5,
                             checkerboard_rule(spec), [1 / 48], [-9], [9], zero_rule(), 0.0)
    c = rep.constants
    assert c["Upsilon_hat"] > rep.inputs["refusal_factor"] * c["Upsilon_baseline"]
    assert cli["inputs"]["refusal_factor"] == rep.inputs["refusal_factor"]
    assert cli["constants"] == c


def test_cli_entrypoint_subprocess(tmp_path):
    cfg = {"potential": POTENTIAL, "kernel": {"lam": 1.0, "Lam": 1.0, "sigma": 1.0},
           "grid": {"box_lo": [-1], "box_hi": [1], "h": 1 / 16},
           "exterior": {"id": "zero"}, "f": 0.0}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    # the child imports the same maslab as this process, installed or not
    src = os.path.dirname(os.path.dirname(maslab.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, MASLAB_OUT=str(tmp_path / "envout"), PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-m", "maslab.cli", "solve",
                           "--config", str(cfg_path)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "envout" / "solution.csv").exists()


def test_cli_missing_config_exit_1(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 1


@pytest.mark.parametrize("content, message", [
    (None, "does not read"),
    ("x,u\n0,1\n1,abc\n", "is not rows of numbers"),
    ("x,u\n0,1\n1,2,3\n", "does not read"),
    ("x\n0\n1\n", "is not rows of numbers")])
def test_operator_input_csv_that_does_not_parse_exits_1(tmp_path, capsys, content, message):
    # like a config file that is missing or does not parse
    csv = tmp_path / "u.csv"
    if content is not None:
        csv.write_text(content)
    out = tmp_path / "out"
    cfg = {"potential": POTENTIAL, "kernel": {"lam": 1.0, "Lam": 2.0, "sigma": 1.5},
           "input_csv": str(csv)}
    assert run("operator", cfg, str(out)) == 1
    assert message in _config_error(capsys) and not out.exists()


def test_operator_cli_2d(tmp_path):
    ax = np.linspace(-1, 1, 33)
    csv = tmp_path / "u2.csv"
    with open(csv, "w") as fh:
        fh.write("x,y,u\n")
        for x in ax:
            for y in ax:
                v = max(0.0, 1.0 - float(x * x + y * y))
                fh.write(f"{float(x)!r},{float(y)!r},{v!r}\n")
    cfg = {"potential": {"id": "iso_quadratic", "dim": 2, "params": []},
           "kernel": {"lam": 1.0, "Lam": 2.0, "sigma": 1.2},
           "input_csv": str(csv), "exterior": {"id": "zero"}, "max_points": 12}
    out = tmp_path / "op2"
    assert run("operator", cfg, str(out)) == 0
    rows = np.genfromtxt(out / "operator.csv", delimiter=",", skip_header=1)
    assert rows.shape[1] == 5  # x, y, M-, M+, isaacs
    assert np.all(rows[:, 2] <= rows[:, 4] + 1e-9)
    assert np.all(rows[:, 4] <= rows[:, 3] + 1e-9)


# every criterion-13 config; operator's CSV is never read when the keys fail
CONFIGS = dict(CLI_CONFIGS, operator={
    "potential": POTENTIAL, "kernel": {"lam": 1.0, "Lam": 2.0, "sigma": 1.5},
    "input_csv": "u.csv", "exterior": {"id": "zero"}, "max_points": 16})


def _config_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    return err


@pytest.mark.parametrize("sub, patch, key", [
    *[(sub, {"refusal_factr": 1.0}, "refusal_factr") for sub in KEYS],
    ("harnack", {"kernel": {"lam": 1.0, "Lam": 2.0, "sigma": 1.5}}, "kernel.sigma"),
    ("solve", {"grid": {"box_lo": [-1], "box_hi": [1], "h": 0.25, "hh": 0.5}}, "grid.hh"),
    ("harnack", {"data_family": [{"id": "zero", "parms": []}]}, "data_family[0].parms"),
    ("leps", {"domain": {"kind": "section", "lo": [-1]}}, "domain.lo"),
    ("sections", {"probes": {"ray_cont": 8}}, "probes.ray_cont")])
def test_unknown_key_exits_1_before_any_output(tmp_path, capsys, sub, patch, key):
    out = tmp_path / "out"
    assert run(sub, dict(CONFIGS[sub], **patch), str(out)) == 1
    err = _config_error(capsys)
    assert f"unknown key(s) {key};" in err and "known keys:" in err
    assert not out.exists()


def test_unknown_key_exits_1_from_the_entrypoint(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(CONFIGS["c1alpha"], refusal_factr=1.0)))
    out = tmp_path / "out"
    assert main(["c1alpha", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert "refusal_factr" in _config_error(capsys) and not out.exists()


def _without(cfg: dict, key: str) -> dict:
    return {k: v for k, v in cfg.items() if k != key}


@pytest.mark.parametrize("sub, cfg, key", [
    ("operator", _without(CONFIGS["operator"], "input_csv"), "'input_csv'"),
    ("mc-validate", _without(CONFIGS["mc-validate"], "domain_box"), "'domain_box'"),
    ("abp", _without(CONFIGS["abp"], "grid"), "'grid'"),
    ("solve", dict(CONFIGS["solve"], grid={"box_lo": [-1], "h": 0.25}), "'grid.box_hi'"),
    ("harnack", _without(CONFIGS["harnack"], "data_family"), "'data_family'"),
    ("leps", dict(CONFIGS["leps"], domain={"kind": "hole", "lo": [0]}), "'domain.hi'")])
def test_missing_required_key_exits_1_before_any_output(tmp_path, capsys, sub, cfg, key):
    out = tmp_path / "out"
    assert run(sub, cfg, str(out)) == 1
    assert f"missing required key {key}" in _config_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("sub, patch, key", [
    ("leps", {"tau": 0.0}, "tau"),
    ("abp", {"tau": -1.0}, "tau"),
    ("holder", {"resolutions": []}, "resolutions"),
    ("abp", {"resolutions": [1 / 32, 0.0]}, "resolutions"),
    ("solve", {"grid": {"box_lo": [-1], "box_hi": [1], "h": 0.0}}, "grid.h"),
    ("solve", {"domain": {"kind": "disc", "r": 1.0}}, "domain.kind"),
    ("harnack", {"data_family": {"id": "zero"}}, "data_family")])
def test_bad_value_exits_1_naming_the_key(tmp_path, capsys, sub, patch, key):
    # rejected by the key table or by the subcommand: nothing is written
    out = tmp_path / "out"
    assert run(sub, dict(CONFIGS[sub], **patch), str(out)) == 1
    assert key in _config_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("sub, patch, key", [
    ("solve", {"tolerance": "abc"}, "'tolerance' must be a number"),
    ("solve", {"domain": 5}, "'domain' must be a JSON object"),
    ("solve", {"f": "x"}, "'f' must be a JSON object"),
    ("holder", {"drift_tol": "x"}, "'drift_tol' must be a number"),
    ("sections", {"probes": {"ray_count": [8]}}, "'probes.ray_count' must be a number"),
    ("leps", {"tau": "abc"}, "'tau' must be a number"),
    ("leps", {"eps0": "x"}, "'eps0' must be a number"),
    ("solve", {"grid": {"box_lo": [-1], "box_hi": [1], "h": "x"}}, "'grid.h' must be a number"),
    ("solve", {"kernel": {"lam": "x", "Lam": 1.0, "sigma": 1.5}}, "'kernel.lam' must be a number"),
    ("holder", {"resolutions": [1 / 128, "x"]}, "'resolutions[1]' must be a number"),
    ("holder", {"resolutions": 0.5}, "'resolutions' must be a JSON list"),
    # list leaves: a point, a list of numbers, a list of points
    ("solve", {"grid": {"box_lo": ["a"], "box_hi": [1], "h": 0.25}},
     "'grid.box_lo[0]' must be a number"),
    ("holder", {"x0": "x"}, "'x0' must be a JSON list"),
    ("leps", {"domain": {"kind": "hole", "lo": [-0.1], "hi": [None]}},
     "'domain.hi[0]' must be a number"),
    ("mc-validate", {"domain_box": {"lo": [-1], "hi": 1}}, "'domain_box.hi' must be a JSON list"),
    ("sections", {"probes": {"heights": ["x"]}}, "'probes.heights[0]' must be a number"),
    ("harnack", {"sigmas": ["x"]}, "'sigmas[0]' must be a number"),
    ("sections", {"probes": {"centers": [0.5]}}, "'probes.centers[0]' must be a JSON list"),
    ("sections", {"probes": {"centers": [[0.0, "a"]]}},
     "'probes.centers[0][1]' must be a number")])
def test_wrong_value_type_exits_1_before_any_output(tmp_path, capsys, sub, patch, key):
    # these raised a traceback, or (holder's unused drift_tol) ran and passed
    out = tmp_path / "out"
    assert run(sub, dict(CONFIGS[sub], **patch), str(out)) == 1
    assert key in _config_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("sub", ["abp", "holder", "leps"])
def test_unconverged_solve_exits_2_naming_the_stop(tmp_path, capsys, sub):
    # a tolerance below the residual floor cannot be met: the experiment
    # reports the failed solve instead of measuring its iterate
    assert run(sub, dict(CONFIGS[sub], tolerance=1e-30), str(tmp_path)) == 2
    assert "stop 'floor'" in capsys.readouterr().err
    failure = json.loads((tmp_path / f"{sub}_failure.json").read_text())
    assert failure["failed"] is True and "stop 'floor'" in failure["error"]
    assert sorted(os.listdir(tmp_path)) == [f"{sub}_failure.json", "manifest.json"]


@pytest.mark.parametrize("sub, cfg", [
    # the solution is positive outside S_1: the envelope's precondition fails
    ("abp", _without(CONFIGS["abp"], "domain")),
    # the solve's own residual exceeds eps0: the L^eps hypothesis fails
    ("leps", dict(CONFIGS["leps"], eps0=1e-14)),
    ("holder", dict(CONFIGS["holder"], tolerance=1e-30))])
def test_experiment_failure_exits_2_with_a_failure_file_and_manifest(tmp_path, capsys,
                                                                    sub, cfg):
    # one outcome path: a failure measured on the solution is no
    # configuration error, whichever subcommand or library call raised it
    assert run(sub, cfg, str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("experiment failure:")
    assert sorted(os.listdir(tmp_path)) == [f"{sub}_failure.json", "manifest.json"]
    failure = json.loads((tmp_path / f"{sub}_failure.json").read_text())
    assert failure == {"failed": True, "error": err.removeprefix("experiment failure: ").strip()}
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["subcommand"] == sub


def _default_cell(value) -> str:
    if value is REQUIRED:
        return "required"
    if value is None:
        return "unset"
    if value is ORIGIN:
        return "`origin`"
    return "`[origin]`" if value == [ORIGIN] else f"`{json.dumps(value)}`"


def _key_rows(keys: dict, prefix: str = "", when: str = ""):
    """(key, default) for every key of a table, nested ones as `section.key`.
    A key passed to a library function shows that function's own default."""
    for key, spec in keys.items():
        name = prefix + key
        if callable(spec):
            default = inspect.signature(spec).parameters[key].default
            yield name, f"{_default_cell(default)} (`{spec.__name__}`)"
            continue
        yield name, _default_cell(getattr(spec, "default", spec)) + when
        if isinstance(spec, Section) and spec.by:
            yield f"{name}.{spec.by}", "required: " + " or ".join(_default_cell(k) for k in spec)
            for kind, sub in spec.items():
                yield from _key_rows(sub, f"{name}.", f" if {spec.by} is `{kind}`")
        elif isinstance(spec, Section):
            yield from _key_rows(spec, f"{name}[]." if spec.many else f"{name}.")


def key_table() -> list[str]:
    """The README's key table, row by row, generated from KEYS."""
    subs = {}
    for sub, keys in KEYS.items():
        for row in _key_rows(keys):
            subs.setdefault(row, []).append(sub)
    return [f"| `{key}` | {default} | "
            f"{'all' if len(s) == len(KEYS) else ', '.join(f'`{x}`' for x in s)} |"
            for (key, default), s in subs.items()]


def test_readme_key_table_matches_the_cli():
    # the README lists every key with its default, from the table and from
    # the signature of the library function a key is passed to
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = [line for line in readme.splitlines() if re.match(r"\| `[^`]+` \| ", line)]
    assert rows == key_table()
