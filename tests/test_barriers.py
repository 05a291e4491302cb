import re

import numpy as np
import pytest

from maslab.barriers import boundary_moment, build_barrier, verify_subsolution
from maslab.errors import BarrierError, ConfigurationError
from maslab.kernels import KernelSpec


def test_boundary_moment_circle_oracle(iso2):
    # independent closed form: T(S_1) = B_1 exactly for the isotropic
    # quadratic, so int y1^2 dsigma = pi and |bd| = 2 pi
    i1, bd = boundary_moment(iso2)
    assert i1 == pytest.approx(np.pi, rel=1e-3)
    assert bd == pytest.approx(2 * np.pi, rel=1e-3)


def test_minimal_m_2d(iso2):
    #  (m+2) * lam * pi > Lam * 2 pi  =>  m > 2 for lam=1, Lam=2
    spec = KernelSpec(1.0, 2.0, 1.9)
    b = build_barrier("F_power", iso2, spec)
    assert b.m == pytest.approx(3.0, abs=1e-2)  # the default m is m_min + 1
    with pytest.raises(BarrierError, match="minimal admissible m is") as err:
        build_barrier("F_power", iso2, spec, {"m": 1.9})
    assert float(str(err.value).rpartition(" ")[2]) == pytest.approx(2.0, abs=1e-2)


def test_m_too_small_reports_minimum(iso2):
    spec = KernelSpec(1.0, 2.0, 1.9)
    with pytest.raises(BarrierError, match="minimal admissible m"):
        build_barrier("F_power", iso2, spec, {"m": 1.0})


def test_f_power_values(iso1):
    spec = KernelSpec(1.0, 2.0, 1.9)
    b = build_barrier("F_power", iso1, spec, {"m": 1.0})
    F = b.field()
    assert F.eval([[2.0]])[0] == pytest.approx(0.5)
    assert F.eval([[0.1]])[0] == pytest.approx(2.0)
    assert F.sup_bound == pytest.approx(2.0)


def test_f_power_subsolution_sigma19(iso1):
    spec = KernelSpec(1.0, 2.0, 1.9)
    b = build_barrier("F_power", iso1, spec, {"m": 1.0})
    rep = verify_subsolution(b, iso1, spec, {"kind": "annulus", "r_in": 1.0,
                                             "r_out": 4.0},
                             sample_count=60, sigma_scan=False)
    assert rep["passed"]
    assert rep["min_value"] >= -1e-8 * b.field().sup_bound


def test_f_power_fails_small_sigma(iso1):
    spec = KernelSpec(1.0, 2.0, 0.5)
    b = build_barrier("F_power", iso1, spec, {"m": 1.0})
    rep = verify_subsolution(b, iso1, spec, {"kind": "annulus", "r_in": 1.0,
                                             "r_out": 4.0},
                             sample_count=24, sigma_scan=False)
    assert not rep["passed"]


def test_sigma0_scan_reports_threshold(iso1):
    spec = KernelSpec(1.0, 2.0, 1.9)
    b = build_barrier("F_power", iso1, spec, {"m": 1.0})
    rep = verify_subsolution(b, iso1, spec, {"kind": "annulus", "r_in": 1.0,
                                             "r_out": 3.0},
                             sample_count=16, sigma_scan=True, scan_samples=8)
    assert rep["sigma0_hat"] is not None
    assert rep["sigma0_hat"] < 2.0


def test_g_normalized_subsolution(iso1):
    spec = KernelSpec(1.0, 2.0, 1.9)
    b = build_barrier("g_normalized", iso1, spec, {"m": 1.0, "r": 0.25})
    rep = verify_subsolution(b, iso1, spec,
                             {"kind": "outside_section", "r": 0.25, "r_out": 4.0},
                             sample_count=40, sigma_scan=False)
    assert rep["passed"]


def test_psi_bump_shape(iso1):
    spec = KernelSpec(1.0, 2.0, 1.9)
    tau = 3.0
    b = build_barrier("psi_bump", iso1, spec, {"m": 1.0, "tau": tau})
    psi = b.field()
    # > 2 on 50 sampled points of S_tau
    xs = np.linspace(-0.999, 0.999, 50)[:, None] * tau * np.sqrt(2)
    assert np.all(psi.eval(xs) > 2.0)
    # = 0 outside S_{2 tau}
    xo = np.array([[2 * tau * np.sqrt(2) * 1.001], [50.0], [-8.6]])
    assert np.all(psi.eval(xo) == 0.0)


def test_psi_bump_c11_one_sided(iso1):
    spec = KernelSpec(1.0, 2.0, 1.9)
    b = build_barrier("psi_bump", iso1, spec, {"m": 1.0, "tau": 3.0})
    psi = b.field()
    # one-sided second differences stay bounded across every paste radius
    for x0 in (b.coeffs["s"] * np.sqrt(2), b.coeffs["rho_t"] * np.sqrt(2),
               b.coeffs["two_tau"] * np.sqrt(2)):
        prev = None
        for e in (1e-3, 1e-4, 1e-5):
            d2 = (psi.eval([[x0 + e]])[0] + psi.eval([[x0 - e]])[0]
                  - 2 * psi.eval([[x0]])[0]) / e ** 2
            assert abs(d2) < 1e4
            prev = d2


def test_psi_bump_subsolution_outside_quarter(iso1):
    spec = KernelSpec(1.0, 2.0, 1.9)
    b = build_barrier("psi_bump", iso1, spec, {"m": 1.0, "tau": 3.0})
    rep = verify_subsolution(b, iso1, spec,
                             {"kind": "outside_section", "r": 0.25, "r_out": 7.0},
                             sample_count=60, sigma_scan=False)
    assert rep["passed"]
    assert rep["bump_rhs_max"] >= 0.0


def test_psi_bump_needs_tau(iso1):
    spec = KernelSpec(1.0, 2.0, 1.9)
    with pytest.raises(ConfigurationError):
        build_barrier("psi_bump", iso1, spec, {"m": 1.0})


@pytest.mark.parametrize("kind, params, key", [
    ("F_power", {"m": 1.0, "r": 0.25}, "unknown key(s) ['r']"),
    ("psi_bump", {"m": 1.0, "tau": 3.0, "paste_frac": 0.8}, "unknown key(s) ['paste_frac']"),
    ("psi_bump", {"m": 1.0, "tau": 3.0, "past_frac": 0.7}, "unknown key(s) ['past_frac']"),
    ("g_normalized", {"m": 1.0}, "missing key(s) ['r']")])
def test_barrier_parameters_are_checked(iso1, kind, params, key):
    # a misspelt or retired option raises instead of running with a default
    with pytest.raises(ConfigurationError, match=re.escape(key)):
        build_barrier(kind, iso1, KernelSpec(1.0, 2.0, 1.9), params)


@pytest.mark.parametrize("region, key", [
    ({"kind": "outside_section", "r": 0.25}, "missing key(s) ['r_out']"),
    ({"kind": "annulus", "r_in": 1.0, "r_out": 4.0, "r": 2.0}, "unknown key(s) ['r']"),
    ({"kind": "disc", "r": 1.0}, "unknown verification region 'disc'")])
def test_verification_region_keys_are_checked(iso1, region, key):
    spec = KernelSpec(1.0, 2.0, 1.9)
    b = build_barrier("F_power", iso1, spec, {"m": 1.0})
    with pytest.raises(ConfigurationError, match=re.escape(key)):
        verify_subsolution(b, iso1, spec, region, sample_count=8, sigma_scan=False)


def test_unknown_kind(iso1):
    with pytest.raises(ConfigurationError):
        build_barrier("wall", iso1, KernelSpec(1.0, 2.0, 1.9))
