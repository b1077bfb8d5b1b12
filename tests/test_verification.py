"""Verification suites: the array-valued checks against per-point loops.

Each reference below is the check written as a loop of scalar calls.  A
check whose arithmetic is the same elementwise must give the same float;
where numpy's vector complex arithmetic rounds differently from Python's
scalar arithmetic (complex division by 2h, the two rotations of the
Wronskian, the beam frame's complex powers), the tolerance is a few
roundings of the quantity measured.
"""

import math

import numpy as np
import pytest

from grazebeam import airy, raybeam, spectral, verification
from grazebeam.errors import DomainError


def _actuals(suite):
    return {c.name: c.actual for c in verification.run_suite(suite).checks}


def _airy_loops():
    pts = verification._halton(100)
    zs = 8.0*np.sqrt(pts[:, 0])*np.exp(2j*np.pi*pts[:, 1])
    out = {"wronskian_constancy_disk8": max(
        abs(airy.wronskian(z) - airy.WRONSKIAN_ZERO) for z in zs)}
    xs = np.linspace(10.0, 40.0, 40)
    rel = np.array([abs(airy.airy_ai(v).value - airy.airy_asymptotic(v, 0))
                    / abs(airy.airy_ai(v).value) for v in xs])
    out["asymptotic_rel_error_fitted_C"] = float(np.max(rel*xs**1.5))
    w = airy.OMEGA
    out["connection_identity_grid"] = max(
        abs(airy.airy_ai(z).value + w*airy.airy_ai(w*z).value
            + w**2*airy.airy_ai(w**2*z).value)
        for z in [x + 1j*y for x in np.linspace(-5, 5, 9)
                  for y in np.linspace(-5, 5, 9)])
    h = 1e-5

    def fd(z, step):
        return (airy.airy_ai(z + step).value
                - airy.airy_ai(z - step).value)/(2*h)

    out["cauchy_riemann_grid"] = max(
        abs(fd(z, h) + 1j*fd(z, 1j*h))
        for z in [0.3 + 0.2j, -1.0 + 2.0j, 2.5 - 1.5j, 4.0 + 0.0j])
    out["derivative_consistency_fd"] = max(
        abs(fd(z, h) - airy.airy_ai(z).derivative)
        / max(abs(airy.airy_ai(z).derivative), 1.0)
        for z in [0.0, 0.5, 1.0 + 1j, -2.0 + 0.5j])
    return out


def _hamiltonian_loop():
    rng = np.random.default_rng(7)
    cons = 0.0
    for _ in range(50):
        x0 = rng.uniform(-0.5, 1.0)
        xi0 = rng.uniform(-1.5, 1.5)
        tau0 = -math.sqrt((xi0*xi0 + 1.0)/(1.0 + x0))
        p0 = raybeam.RayParams(x0, rng.uniform(-1, 1), xi0, tau0)
        h0 = raybeam.hamiltonian(raybeam.flow_general(p0, 0.0))
        for y in np.linspace(-3, 3, 7):
            cons = max(cons, abs(raybeam.hamiltonian(
                raybeam.flow_general(p0, y)) - h0))
    return cons


def _appendix3_loops():
    zs = np.geomspace(1e-2, 0.3, 12)
    diff = [abs(spectral.boundary_exponent_full(z, 0.9, -1.0)
                - spectral.boundary_exponent_frozen(z, 0.9, -1.0))
            for z in zs]
    amp = [abs(10.0*spectral.boundary_prefactor_full(z, 100.0)
               - math.sqrt(2.0*math.pi)) for z in zs]
    return {name: float(np.polyfit(np.log(zs), np.log(y), 1)[0])
            for name, y in (("exponent_difference_slope", diff),
                            ("amplitude_prefactor_slope", amp))}


class TestArrayChecksEqualLoops:
    def test_airy(self):
        got, ref = _actuals("airy"), _airy_loops()
        for name in ("asymptotic_rel_error_fitted_C",
                     "connection_identity_grid", "cauchy_riemann_grid"):
            assert got[name] == ref[name], name
        assert abs(got["wronskian_constancy_disk8"]
                   - ref["wronskian_constancy_disk8"]) <= 1e-16
        # a rounding of Ai (~1e-16) over 2h = 2e-5
        assert abs(got["derivative_consistency_fd"]
                   - ref["derivative_consistency_fd"]) <= 1e-11

    def test_hamiltonian_conservation_draws_the_same_rays(self):
        assert _actuals("beam")["hamiltonian_conservation"] == \
            _hamiltonian_loop()

    def test_appendix3(self):
        got, ref = _actuals("appendix3"), _appendix3_loops()
        assert got["exponent_difference_slope"] == \
            ref["exponent_difference_slope"]
        assert abs(got["amplitude_prefactor_slope"]
                   - ref["amplitude_prefactor_slope"]) <= 1e-13


def test_halton_points():
    # the radical inverse in bases 2 and 3, from index 20
    want = [[5/32, 20/27], [21/32, 5/27], [13/32, 14/27]]
    assert np.abs(verification._halton(3) - want).max() <= 1e-16


def test_unknown_suite_is_domain_error():
    have = r"\(have: airy, appendix1, .*, closedform\)$"
    with pytest.raises(DomainError, match=r"^unknown suite 'nope' " + have):
        verification.run_suite("nope")
