"""Acceptance battery: one test per criterion, printed pass/fail lines.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
report.  Two clauses are implemented at their nominal tolerances but are
known to fail for reasons established analytically and numerically in the
module tests (strict xfail markers, so any change in behavior is flagged):

* criterion 2, transport clause - the closed-form beam frame solves the
  frozen-eta variational system, whose amplitude does not satisfy the
  first-order transport identity (residual +i/2 at the vertex);
* criterion 6, 5%-band clause - the u-integral approaches the closed form
  like k^{-1/6}, measuring 8.7-8.9% at k = 1e6; the band is reached only
  near k ~ 3e7 (demonstrated in test_grazing).
"""

import math
import time

import numpy as np
import pytest

from grazebeam import airy, grazing, raybeam, spectral, stationary, verification
from grazebeam.fd import richardson_derivatives
from grazebeam.quadrature import (DampingProfile, IntegrandSpec, integrate_1d,
                                  rotated_ray_integral)


def _report(num, ok, detail, t0):
    print("ACCEPTANCE %4s: %s  [%.2fs]  %s"
          % (num, "PASS" if ok else "FAIL", time.time() - t0, detail))


def test_criterion_01_airy_kernel():
    t0 = time.time()
    from grazebeam.verification import _halton
    pts = _halton(100)
    zs = 8.0*np.sqrt(pts[:, 0])*np.exp(2j*np.pi*pts[:, 1])
    wdev = max(abs(airy.wronskian(z) - airy.WRONSKIAN_ZERO) for z in zs)
    xs = np.linspace(10.0, 40.0, 40)
    rel = np.array([abs(airy.airy_ai(v).value - airy.airy_asymptotic(v, 0))
                    / abs(airy.airy_ai(v).value) for v in xs])
    fitted_c = float(np.max(rel*xs**1.5))
    ok = wdev <= 1e-9 and fitted_c <= 1.0
    _report(1, ok, "wronskian dev %.2e (tol 1e-9), asymptotic C %.3f (<= 1)"
            % (wdev, fitted_c), t0)
    assert wdev <= 1e-9
    assert fitted_c <= 1.0


def test_criterion_02_variational_equivalence():
    t0 = time.time()
    rep = verification.suite_appendix1()
    by_name = {c.name: c for c in rep.checks}
    dev = max(by_name["V_closed_vs_ode"].actual,
              by_name["W_closed_vs_ode"].actual,
              by_name["M_closed_vs_ode"].actual)
    m0 = by_name["M0_equals_iI"].actual
    ok = dev <= 1e-8 and m0 == 0.0
    _report("2a", ok, "V/W/M closed vs ODE dev %.2e (tol 1e-8), "
            "M(0) = iI exactly" % dev, t0)
    assert dev <= 1e-8
    assert m0 == 0.0


@pytest.mark.xfail(strict=True, reason=(
    "first-order transport fails for the closed-form frame (residual +i/2 "
    "at the vertex); the frame solves the frozen-eta variational system, "
    "not the characteristic-flow linearization"))
def test_criterion_02_transport_residual():
    t0 = time.time()
    res = max(abs(raybeam.transport_residual(y))
              for y in np.linspace(-3.0, 3.0, 13))
    _report("2b", res <= 1e-8,
            "transport residual %.3f (tol 1e-8)" % res, t0)
    assert res <= 1e-8


def test_criterion_03_grazing_root_ladder():
    t0 = time.time()
    worst_r, worst_phi = 0.0, 0.0
    for x in (0.25, 0.5, 1.0, 2.0, 4.0):
        y0 = 2.0*math.sqrt(x)
        h = min(0.03, 0.12*(2.0*math.sqrt(1 + x) - 2.0*math.sqrt(x)))
        d = richardson_derivatives(lambda w: stationary.root_r(x, y0, w),
                                   0.0, h)
        sr = stationary.series_r(x)
        worst_r = max(worst_r, abs(d[1]), abs(d[2] - sr[2]),
                      abs(d[3] - sr[3]), abs(d[4] - sr[4]))
        dphi = richardson_derivatives(
            lambda w: stationary.phi_reduced(x, y0, w), 0.0, h)
        sp_ = stationary.series_phi(x)
        worst_phi = max(worst_phi, abs(dphi[3] - sp_[3]),
                        abs(dphi[4] - sp_[4]))
    ok = worst_r <= 1e-5 and worst_phi <= 1e-4
    _report(3, ok, "r-ladder dev %.2e (tol 1e-5), phi-ladder dev %.2e "
            "(tol 1e-4)" % (worst_r, worst_phi), t0)
    assert worst_r <= 1e-5
    assert worst_phi <= 1e-4


def test_criterion_04_exponent_structure():
    t0 = time.time()
    worst23, worst4 = 0.0, 0.0
    for x in (0.5, 1.0, 2.0):
        y0 = 2.0*math.sqrt(x)
        t_ray = y0 + y0**3/12.0

        def g(w):
            C = stationary.C_of(x, y0, w, t_ray)
            return 1j*(stationary.B_of_z(w) - C) - C*C/2.0

        d = richardson_derivatives(g, 0.0, 0.04)
        worst23 = max(worst23, abs(d[2]/2.0), abs(d[3]/6.0))
        worst4 = max(worst4, abs(d[4]/24.0
                                 - 1j*stationary.quartic_coefficient(x)))
        assert (24.0*stationary.quartic_coefficient(x)).imag == \
            pytest.approx(0.75, abs=1e-15)
    ok = worst23 <= 1e-6 and worst4 <= 1e-3
    _report(4, ok, "z^2/z^3 coeffs %.2e (tol 1e-6), z^4 vs i*a(x) %.2e "
            "(tol 1e-3), Im 24a = 3/4 exact" % (worst23, worst4), t0)
    assert worst23 <= 1e-6
    assert worst4 <= 1e-3


def test_criterion_05_closed_form_identity():
    t0 = time.time()
    disp = max(grazing.closed_form_identity_check(x) for x in (0.3, 1.0, 2.0))
    xs = np.geomspace(0.05, 5.0, 21)
    lim = max(abs(grazing.limit_integral(x) - grazing.w_on_ray_closed(x))
              for x in xs)
    mod = max(abs(abs(grazing.w_on_ray_closed(x)) - 0.5/math.sqrt(1 + x))
              for x in xs)
    ok = disp <= 1e-12 and lim <= 1e-10 and mod <= 1e-12
    _report(5, ok, "display identity %.1e (1e-12), limit-vs-closed %.1e "
            "(1e-10), modulus law %.1e (1e-12)" % (disp, lim, mod), t0)
    assert disp <= 1e-12
    assert lim <= 1e-10
    assert mod <= 1e-12


def test_criterion_06_headline_convergence_monotone():
    t0 = time.time()
    detail = []
    ok = True
    for x in (0.5, 1.0):
        wc = grazing.w_on_ray_closed(x)
        devs = [abs(grazing.u_integral(x, k).value - wc)/abs(wc)
                for k in (1e3, 1e4, 1e5, 1e6)]
        ok = ok and all(b < a for a, b in zip(devs, devs[1:]))
        detail.append("x=%g: %s" % (x, ", ".join("%.3f" % d for d in devs)))
    _report("6a", ok, "deviations strictly decreasing along the k-ladder "
            "(%s)" % "; ".join(detail), t0)
    assert ok


@pytest.mark.parametrize("x", [0.5, 1.0])
@pytest.mark.xfail(strict=True, reason=(
    "convergence is ~k^{-1/6}: measured 8.7-8.9% at k = 1e6; the 5% band "
    "is first reached near k ~ 3e7"))
def test_criterion_06_five_percent_band(x):
    t0 = time.time()
    wc = grazing.w_on_ray_closed(x)
    dev = abs(grazing.u_integral(x, 1e6).value - wc)/abs(wc)
    _report("6b", dev <= 0.05,
            "x=%g deviation at k=1e6: %.4f (tol 0.05)" % (x, dev), t0)
    assert dev <= 0.05


def test_criterion_07_cross_method():
    t0 = time.time()
    x, k = 1.0, 1e5
    wz = grazing.z_integral(x, k).value
    wu = grazing.u_integral(x, k).value
    wc = grazing.w_on_ray_closed(x)
    cross = abs(wz - wu)/abs(wu)
    band_z = abs(wz - wc)/abs(wc)
    band_u = abs(wu - wc)/abs(wc)
    ok = cross <= 0.02 and band_z <= 0.20 and band_u <= 0.20
    _report(7, ok, "z vs u at k=1e5: %.4f (tol 0.02); bands vs closed "
            "%.3f / %.3f (0.20)" % (cross, band_z, band_u), t0)
    assert cross <= 0.02
    assert band_z <= 0.20 and band_u <= 0.20


def test_criterion_08_boundary_frame_corrections():
    t0 = time.time()
    zs = np.geomspace(1e-2, 0.3, 12)
    diff = np.array([abs(spectral.boundary_exponent_full(z, 0.9, -1.0)
                         - spectral.boundary_exponent_frozen(z, 0.9, -1.0))
                     for z in zs])
    slope = float(np.polyfit(np.log(zs), np.log(diff), 1)[0])
    amp = np.array([abs(math.sqrt(100.0)
                        * spectral.boundary_prefactor_full(z, 100.0)
                        - math.sqrt(2.0*math.pi)) for z in zs])
    slope_a = float(np.polyfit(np.log(zs), np.log(amp), 1)[0])
    ok = slope >= 4.8 and slope_a >= 0.9
    _report(8, ok, "exponent-difference slope %.2f (>= 4.8), amplitude "
            "slope %.2f (>= 0.9)" % (slope, slope_a), t0)
    assert slope >= 4.8
    assert slope_a >= 0.9


def test_criterion_09_reflected_amplitude_limit():
    t0 = time.time()
    x = 1e-4
    ratio = abs(grazing.reflected_amplitude(x))/abs(raybeam.beam_on_ray(x))
    ok = abs(ratio - 0.5) <= 0.05
    _report(9, ok, "|v - w|/|v| at x = 1e-4: %.4f (0.5 +/- 0.05)" % ratio, t0)
    assert abs(ratio - 0.5) <= 0.05


@pytest.mark.slow
def test_criterion_10_spectral_oracle():
    t0 = time.time()
    x, k = 0.5, 1e3
    y = 2.0*math.sqrt(x)
    t_ray = y + y**3/12.0
    qr = spectral.exact_solution(x, y, t_ray, k)
    wu = grazing.u_integral(x, k).value
    dev = abs(qr.value - wu)/abs(wu)
    ok = dev <= 0.20 and qr.converged
    _report(10, ok, "direct 3-fold evaluation vs u-route at k=1e3: %.3f "
            "(tol 0.20), converged=%s" % (dev, qr.converged), t0)
    assert qr.converged
    assert dev <= 0.20


def test_criterion_11_quadrature_battery():
    t0 = time.time()
    g = integrate_1d(IntegrandSpec(lambda u: np.exp(-u*u),
                                   DampingProfile(1.0, 2)), 1e-12)
    e_gauss = abs(g.value - math.sqrt(math.pi))

    k = 5.0
    f = integrate_1d(IntegrandSpec(lambda u: np.exp(1j*k*u - u*u),
                                   DampingProfile(1.0, 2), k), 1e-12)
    e_osc = abs(f.value - math.sqrt(math.pi)*math.exp(-k*k/4.0)) \
        / (math.sqrt(math.pi)*math.exp(-k*k/4.0))

    q = rotated_ray_integral(
        IntegrandSpec(lambda u: u*np.exp(-u**4), DampingProfile(1.0, 4)),
        0.0, 1e-12, half_line=True)
    e_quart = abs(q.value - math.sqrt(math.pi)/4.0)

    a = rotated_ray_integral(
        IntegrandSpec(lambda w: np.exp(1j*w**3/3.0),
                      DampingProfile(1.0/3.0, 3)), np.pi/6.0, 1e-10)
    e_airy = abs(a.value - 2.0*np.pi*airy.airy_ai(0.0).value)

    from grazebeam.quadrature import integrate_nd
    fr = integrate_nd(IntegrandSpec(
        lambda u, v: np.exp((1j - 0.1)*(u*u + v*v)),
        (DampingProfile(0.1, 2), DampingProfile(0.1, 2)), 14.0), 1e-9)
    e_fres = abs(fr.value - math.pi/(0.1 - 1j))/abs(math.pi/(0.1 - 1j))

    converged = all(r.converged for r in (g, f, q, a, fr))
    ok = (converged and e_gauss <= 1e-12 and e_osc <= 1e-10
          and e_quart <= 1e-12 and e_airy <= 1e-8 and e_fres <= 1e-8)
    _report(11, ok, "gauss %.1e (1e-12), osc-gauss %.1e rel (1e-10), "
            "quartic %.1e (1e-12), airy-contour %.1e (1e-8), fresnel "
            "%.1e rel (1e-8), converged=%s"
            % (e_gauss, e_osc, e_quart, e_airy, e_fres, converged), t0)
    assert converged
    assert e_gauss <= 1e-12
    assert e_osc <= 1e-10
    assert e_quart <= 1e-12
    assert e_airy <= 1e-8
    assert e_fres <= 1e-8
