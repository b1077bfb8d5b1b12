"""Spectral representation: zeta branches, boundary data, phase, oracle."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from grazebeam import airy, cli, quadrature, spectral
from grazebeam.errors import DomainError
from grazebeam.quadrature import DampingProfile, IntegrandSpec, integrate_1d
from grazebeam.raybeam import beam_field, central_ray, closed_frame


class TestZeta:
    def test_vanishes_at_turning_point(self):
        for tau in (0.5, -2.0):
            assert spectral.zeta(0.0, tau, tau) == pytest.approx(0.0, abs=1e-15)

    def test_example_value(self):
        zv = spectral.zeta(1.0, 0.0, -1.0)
        assert isinstance(zv, complex)
        assert zv == pytest.approx(2.0*np.exp(-1j*np.pi/3.0), abs=1e-14)

    def test_branch_cubes_to_minus_tau_squared(self):
        for tau in (-3.0, -0.4, 0.7, 2.5):
            beta = spectral.zeta(0.0, 0.0, tau)
            assert abs(beta**3 + tau*tau) <= 1e-12*tau*tau

    def test_bounded_branch(self):
        for tau in np.linspace(-4, 4, 17):
            if tau == 0:
                continue
            beta = spectral.zeta(0.0, 0.0, tau)
            assert (beta**1.5).real >= -1e-12

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.floats(0.0, 4.0), st.floats(-3.0, 3.0), st.floats(-2.0, -0.05),
           st.floats(1.0, 1e4))
    def test_scaled_equals_exact(self, x, mu, nu, k):
        # the scaled branch beta = (|nu| k)^{2/3} e^{-i pi/3} against zeta()
        scale, qx, q0 = spectral.scaled_branch(x, mu, nu, k)
        assert np.isrealobj(qx) and np.isrealobj(q0)
        want = spectral.zeta(x, k*mu, k*nu)
        beta = spectral.zeta(0.0, 0.0, k*nu)
        # relative to the size of the terms of 1 + x - mu^2/nu^2, which
        # may cancel
        size = abs(beta)*(1.0 + x + (mu/nu)**2)
        assert abs(airy.RAY*qx - want) <= 1e-12*size
        assert abs(airy.RAY*scale - beta) <= 1e-12*abs(beta)
        assert abs(airy.RAY*q0 - spectral.zeta(0.0, k*mu, k*nu)) \
            <= 1e-12*size

    @settings(max_examples=100, deadline=None, database=None)
    @given(st.floats(0.0, 4.0), st.floats(-3.0, 3.0), st.floats(-2.0, -0.05),
           st.floats(1.0, 1e4))
    def test_complex_nu_continues_real_branch(self, x, mu, nu, k):
        # neg_power on the real axis gives back the real-nu branch
        real = spectral.scaled_branch(x, np.array([mu]), np.array([nu]), k)
        cplx = spectral.scaled_branch(x, np.array([mu + 0j]),
                                      np.array([nu + 0j]), k)
        size = abs(real[0][0])*(1.0 + x + (mu/nu)**2)
        for r, c in zip(real, cplx):
            assert np.iscomplexobj(c)
            assert abs(c[0] - r[0]) <= 1e-13*size

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.floats(-1.5, -0.5), st.floats(-2.0, 2.0),
           st.floats(1e-12, 1e-3))
    def test_neg_power_continues_across_real_axis(self, nu, alpha, eps):
        # (-nu)^alpha on both sides of Im nu = 0 tends to the real |nu|^alpha
        # (a flipped root would differ by 2|nu|^alpha); scalar and array
        want = abs(nu)**alpha
        for z in (nu + 1j*eps, nu - 1j*eps):
            for got in (spectral.neg_power(z, alpha),
                        spectral.neg_power(np.array([z]), alpha)[0]):
                assert abs(got - want) <= 10.0*eps*want
        assert abs(spectral.neg_power(nu + 0j, alpha) - want) <= 1e-15*want

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.floats(0.3, 3.0), st.floats(-2.0, 2.0),
           st.sampled_from([1.0/3.0, 2.0/3.0, -2.0/3.0, -0.5]))
    def test_polar_form_is_the_principal_power(self, a, b, alpha):
        # Re(-nu) = a, Im nu = b, and both signed zeros of Im nu
        for nu in (complex(-a, b), complex(-a, 0.0), complex(-a, -0.0)):
            want = (-nu + 0j)**alpha
            for got in (spectral.neg_power(nu, alpha),
                        spectral.neg_power(np.array([nu, nu]), alpha)):
                assert np.all(np.abs(got - want) <= 1e-15*abs(want))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha", [-2.0/3.0, -0.5])
    def test_pole_at_nu_zero_is_not_finite(self, alpha):
        # one polar rule: a scalar warns at the pole as an array does
        for nu in (0.0, 0j, np.zeros(2), np.zeros(2, dtype=complex)):
            with pytest.raises(RuntimeWarning):
                spectral.neg_power(nu, alpha)
            with np.errstate(divide="ignore"):
                assert not np.any(np.isfinite(spectral.neg_power(nu, alpha)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha", [1.0/3.0, 2.0/3.0])
    def test_zero_at_nu_zero(self, alpha):
        assert spectral.neg_power(0.0, alpha) == 0.0
        assert np.all(spectral.neg_power(np.zeros(2, dtype=complex),
                                         alpha) == 0.0)

    def test_tau_zero_raises(self):
        with pytest.raises(DomainError):
            spectral.zeta(0.1, 1.0, 0.0)


class TestZetaPower:
    """(2/3) zeta^{3/2} as airy.ray_exponent of the scaled branch's q."""

    def test_zero_radicand(self):
        qx = spectral.scaled_branch(0.0, 1.0, -1.0, 5.0)[1]
        assert airy.ray_exponent(qx) == 0.0

    def test_magnitude_is_nu_k(self):
        qx = spectral.scaled_branch(1.0, -1.0, -1.0, 8.0)[1]
        assert abs(1.5*airy.ray_exponent(qx)) == pytest.approx(8.0, abs=1e-12)

    def test_unimodular_exponential(self):
        qx = spectral.scaled_branch(0.7, 0.9, -1.05, 30.0)[1]
        val = np.exp(-airy.ray_exponent(qx))
        assert abs(val) <= 1.0 + 1e-12

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.floats(0.0, 4.0), st.floats(-3.0, 3.0), st.floats(-2.0, -0.05),
           st.floats(1.0, 1e4))
    def test_principal_power_of_zeta(self, x, mu, nu, k):
        # both signs of the radicand: the principal (2/3) zeta^{3/2} of the
        # independent zeta(), imaginary for q >= 0 and real for q < 0
        qx = spectral.scaled_branch(x, mu, nu, k)[1]
        got = airy.ray_exponent(qx)
        want = (2.0/3.0)*spectral.zeta(x, k*mu, k*nu)**1.5
        size = (abs(spectral.zeta(0.0, 0.0, k*nu))*(1.0 + x + (mu/nu)**2))**1.5
        assert abs(got - want) <= 1e-12*size
        assert (got.real if qx >= 0 else got.imag) == 0.0


def _quotient_two_airye(x, mu, nu, k):
    """The quotient from two AMOS calls on the full grid (the earlier formula)."""
    beta = (np.abs(nu)*k)**(2.0/3.0)*np.exp(-1j*np.pi/3.0)
    zx = beta*(1.0 + x - (mu/nu)**2)
    z0 = beta*(1.0 - (mu/nu)**2)
    expo = (2.0/3.0)*(zx*np.sqrt(zx) - z0*np.sqrt(z0))
    return (scipy.special.airye(zx)[0]/scipy.special.airye(z0)[0]
            * np.exp(-expo))


def _quotient_grid(rows, cols, k):
    """An oracle-like (nu, s) grid: nu-rows near -1, s across both signs."""
    nu = np.linspace(-1.4, -0.6, rows)[:, None]
    s = np.linspace(-2.0, 1.0, cols)[None, :]
    mu = s - nu
    return mu, np.broadcast_to(nu, mu.shape)


class TestAiryQuotient:
    @pytest.mark.parametrize("k", [30.0, 300.0, 1000.0])
    def test_matches_two_airye_formula(self, k):
        mu, nu = _quotient_grid(8, 41, k)
        got = spectral.airy_quotient(0.8, mu, nu, k)
        ref = _quotient_two_airye(0.8, mu, nu, k)
        assert got.shape == mu.shape
        # elementwise, so that quotients both routes underflow to 0 agree
        assert np.all(np.abs(got - ref) <= 1e-12*np.abs(ref))

    def test_one_row_and_one_dimensional_grids(self):
        mu, nu = _quotient_grid(1, 60, 300.0)
        ref = _quotient_two_airye(0.5, mu, nu, 300.0)
        two_d = spectral.airy_quotient(0.5, mu, nu, 300.0)
        one_d = spectral.airy_quotient(0.5, mu[0], nu[0], 300.0)
        assert two_d.shape == (1, 60) and one_d.shape == (60,)
        assert np.allclose(two_d[0], one_d, rtol=1e-15, atol=0.0)
        assert np.all(np.abs(one_d - ref[0]) <= 1e-12*np.abs(ref[0]))

    def test_scalar_inputs(self):
        got = spectral.airy_quotient(0.5, 0.9, -1.0, 300.0)
        ref = _quotient_two_airye(0.5, 0.9, -1.0, 300.0)
        assert np.ndim(got) == 0
        assert abs(got - ref) <= 1e-12*abs(ref)

    def test_x_broadcasts_with_the_grid(self):
        mu, nu = _quotient_grid(3, 5, 100.0)
        xs = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
        got = spectral.airy_quotient(xs, mu, nu, 100.0)
        for j, x in enumerate(xs):
            col = spectral.airy_quotient(x, mu[:, j], nu[:, j], 100.0)
            assert np.allclose(got[:, j], col, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("nu", [0.0, 0.5, np.array([-1.0, -0.9, 0.0])])
    def test_nonnegative_nu_raises(self, nu):
        with pytest.raises(DomainError):
            spectral.airy_quotient(0.5, 0.9, nu, 300.0)

    def test_oracle_path_avoids_amos(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sp.airye called on the oracle path")
        monkeypatch.setattr(scipy.special, "airye", refuse)
        res = spectral.exact_solution(0.5, 1.0, 1.0, 60.0)
        assert np.isfinite(res.value)


def frozen_trace(y, t, k):
    """The frozen-frame boundary datum g(y, t), built from raybeam alone.

    The beam phase at x = 0 with the central ray at y and the beam matrix
    frozen at its vertex value M(0); amplitude a(0) = 1.
    """
    p = central_ray(y)
    _, M, _ = closed_frame(0.0)
    dx, dt = -p.x, t - p.t
    return np.exp(1j*k*(dx*p.xi + dt*p.tau
                        + 0.5*(M[0, 0]*dx*dx + 2.0*M[0, 1]*dx*dt
                               + M[1, 1]*dt*dt)))


class TestBoundaryExponents:
    # the oracle's nu x z factor e^{-i k rho} must be the t-transform of the
    # datum g, a Gaussian integral in s = t - t(z); tau + k = +-3 sqrt(k)
    # puts its factor e^{-(tau + k)^2/(2k)} at e^{-9/2}
    @pytest.mark.parametrize("z", [-0.3, 0.0, 0.2])
    @pytest.mark.parametrize("k", [100.0, 1e3])
    def test_frozen_exponent_is_the_transform_of_the_trace(self, k, z):
        eta = 0.8*k
        tz = central_ray(z).t
        for tau in (-k, -k - 3.0*math.sqrt(k), -k + 3.0*math.sqrt(k)):
            def f(s):
                return np.exp(-1j*(z*eta + (s + tz)*tau))*frozen_trace(
                    z, s + tz, k)
            got = integrate_1d(IntegrandSpec(f, DampingProfile(k/2.0, 2),
                                             abs(tau + k)), 1e-13)
            want = math.sqrt(2.0*math.pi/k)*np.exp(
                -1j*k*spectral.boundary_exponent_frozen(z, eta/k, tau/k))
            assert got.converged
            assert abs(got.value - want) <= 1e-10*abs(want)

    @pytest.mark.parametrize("t", [-0.5, 0.0, 0.3, 1.0])
    def test_trace_at_the_vertex_is_the_beam(self, t):
        assert frozen_trace(0.0, t, 100.0) == beam_field(0.0, 0.0, t, 100.0)

    def test_vertex_exponents_agree(self):
        r_full = spectral.boundary_exponent_full(0.0, 0.7, -1.1)
        r_froz = spectral.boundary_exponent_frozen(0.0, 0.7, -1.1)
        assert abs(r_full - r_froz) <= 1e-14

    def test_exponent_difference_is_quintic(self):
        zs = np.geomspace(1e-2, 0.3, 12)
        diff = np.array([abs(spectral.boundary_exponent_full(z, 0.9, -1.0)
                             - spectral.boundary_exponent_frozen(z, 0.9, -1.0))
                         for z in zs])
        slope = np.polyfit(np.log(zs), np.log(diff), 1)[0]
        assert slope >= 4.8

    def test_amplitude_prefactor_linear_deviation(self):
        k = 100.0
        zs = np.geomspace(1e-2, 0.3, 12)
        dev = np.array([abs(math.sqrt(k)*spectral.boundary_prefactor_full(z, k)
                            - math.sqrt(2.0*math.pi)) for z in zs])
        slope = np.polyfit(np.log(zs), np.log(dev), 1)[0]
        assert slope >= 0.9


def trace_gap(x, k=100.0, y=-0.4, t=-0.5):
    """|w - g| of the oracle at (x, y, t) against the frozen datum g."""
    return abs(spectral.exact_solution(x, y, t, k).value
               - frozen_trace(y, t, k))


class TestOracleBoundaryTrace:
    # w equals the datum g on x = 0, so |w - g| is linear in x near it:
    # 1.456e-3 at x = 1e-4 and 1.456e-5 at x = 1e-6 (k = 100)
    def test_gap_to_the_datum_is_linear_in_x(self):
        assert trace_gap(1e-6)/1e-6 == pytest.approx(trace_gap(1e-4)/1e-4,
                                                     rel=0.01)

    @pytest.mark.xfail(strict=True, reason=(
        "the oracle's s-pad max(0.2, 0.6 (40/k)^{3/4}) is too narrow at "
        "tiny x: |w - g| = 1.15e-5 at x = 1e-8, k = 100, against 1.46e-7 "
        "by the linear law, and the row is marked converged (ROADMAP "
        "item 2)"))
    def test_gap_stays_linear_at_x_1e_8(self):
        slope = trace_gap(1e-6)/1e-6
        assert trace_gap(1e-8) <= 2.0*1e-8*slope


class TestPhaseFull:
    def test_imaginary_part_formula(self):
        for args in [(0.3, 0.5, 1.2, 0.2, 0.9, -1.1, 0.4),
                     (1.0, 1.0, 2.0, -0.3, 1.05, -0.9, -0.2)]:
            t, x, y, z, mu, nu, T = args
            val = spectral.phase_full(t, x, y, z, mu, nu, T)
            assert val.imag == pytest.approx(z**4/32.0 + (nu + 1)**2/2.0,
                                             abs=1e-14)

    def test_gradient_vanishes_on_grazing_set(self):
        x = 1.0
        y, z = 2.2, 0.2       # y - z = 2 sqrt(x)
        t, nu, T = 0.4, -1.0, 0.0
        mu = -nu              # s = 0
        h = 1e-5
        ps = (spectral.phase_full(t, x, y, z, mu + h, nu, T)
              - spectral.phase_full(t, x, y, z, mu - h, nu, T))/(2*h)
        pT = (spectral.phase_full(t, x, y, z, mu, nu, T + h)
              - spectral.phase_full(t, x, y, z, mu, nu, T - h))/(2*h)
        assert abs(ps) <= 1e-8 and abs(pT) <= 1e-8

    def test_T_derivative_formula(self):
        t, x, y, z, mu, nu, T = 0.3, 0.8, 1.7, 0.1, 0.95, -1.08, 0.35
        s = mu + nu
        h = 1e-6
        fd = (spectral.phase_full(t, x, y, z, mu, nu, T + h)
              - spectral.phase_full(t, x, y, z, mu, nu, T - h))/(2*h)
        formula = T*T - abs(nu)**(-4.0/3.0)*s*(2*nu - s)
        assert abs(fd - formula) <= 1e-6

    def test_derivative_formulas_random_points(self):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 50:
            x = rng.uniform(0.2, 1.5)
            nu = rng.uniform(-1.3, -0.7)
            mu = rng.uniform(0.1, math.sqrt(1.0 + x)*abs(nu)*0.98)
            y, z, t, T = (rng.uniform(0.5, 2.0), rng.uniform(-0.4, 0.4),
                          rng.uniform(0.0, 2.0), rng.uniform(-0.5, 0.5))
            s = mu + nu
            h = 1e-6
            fd_T = (spectral.phase_full(t, x, y, z, mu, nu, T + h)
                    - spectral.phase_full(t, x, y, z, mu, nu, T - h))/(2*h)
            want_T = T*T - abs(nu)**(-4.0/3.0)*s*(2*nu - s)
            fd_s = (spectral.phase_full(t, x, y, z, mu + h, nu, T)
                    - spectral.phase_full(t, x, y, z, mu - h, nu, T))/(2*h)
            rad = x + s*(2*nu - s)/nu**2
            want_s = (y - z - (math.sqrt(rad)/nu)*(2*nu - 2*s)
                      - abs(nu)**(-4.0/3.0)*(2*nu - 2*s)*T)
            assert abs(fd_T - want_T) <= 1e-6
            assert abs(fd_s - want_s) <= 1e-6
            checked += 1

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            spectral.phase_full(0.0, 0.0, 1.0, 0.0, 2.0, -1.0, 0.0)
        with pytest.raises(DomainError):
            spectral.phase_full(0.0, 0.5, 1.0, 0.0, 0.5, 1.0, 0.0)


def reciprocal_factor(T, mu, nu, k):
    """i k^{1/3} T - omega Ai'/Ai(zeta(0, k mu, k nu)), read off amplitude_Z.

    Z at x = 1 divided by its front k^{11/6}/(sqrt(2) (2 pi)^3 W(0)) and by
    zeta(1, k mu, k nu)^{-1/4}.
    """
    front = k**(11.0/6.0)/(math.sqrt(2.0)*(2.0*np.pi)**3*airy.WRONSKIAN_ZERO)
    return (spectral.amplitude_Z(k, 1.0, mu, nu, T)/front
            / spectral.zeta(1.0, k*mu, k*nu)**-0.25)


class TestReciprocalFactor:
    @pytest.mark.parametrize("nu, k", [(-1.0, 0.0), (-1.0, -20.0)])
    def test_refuses_nu_nonnegative_and_k_nonpositive(self, nu, k):
        with pytest.raises(ValueError):
            spectral.amplitude_Z(k, 1.0, 1.0, nu, 0.3)

    def test_turning_point_value(self):
        k, T = 20.0, 0.3
        got = reciprocal_factor(T, 1.0, -1.0, k)
        want = 1j*k**(1.0/3.0)*T - airy.OMEGA*airy.airy_ratio(0.0)
        assert abs(got - want) <= 1e-12

    @pytest.mark.parametrize("mu", [0.9, 0.95, 1.0, 1.05, 1.1])
    def test_reciprocal_identity_straddling_turning_point(self, mu):
        # (2 pi W(0))^{-1} int factor e^{ik(-c T + T^3/3)} k^{1/3} dT
        # must reproduce 1/Ai(zeta(0)); T-contour rotated to pi/6, 5pi/6
        from grazebeam.quadrature import rotated_ray_integral
        k, nu = 50.0, -1.0
        c_lin = abs(nu)**(2.0/3.0)*(1.0 - mu*mu/(nu*nu))

        def f(T):
            return (reciprocal_factor(T, mu, nu, k)
                    * np.exp(1j*k*(-c_lin*T + T**3/3.0))*k**(1.0/3.0))

        res = rotated_ray_integral(
            IntegrandSpec(f, DampingProfile(k/3.0, 3, scale=k)),
            np.pi/6.0, 1e-9)
        lhs = res.value/(2.0*np.pi*airy.WRONSKIAN_ZERO)
        z0 = spectral.zeta(0.0, k*mu, k*nu)
        rhs = 1.0/airy.airy_ai(z0).value
        assert abs(lhs - rhs)/abs(rhs) <= 1e-3

    def test_large_argument_form(self):
        k, mu, nu = 1e4, 0.5, -1.0
        z0 = spectral.zeta(0.0, k*mu, k*nu)
        got = reciprocal_factor(0.0, mu, nu, k)
        want = airy.OMEGA*np.sqrt(z0)
        assert abs(got - want)/abs(want) <= 1e-2


class TestAmplitudeZ:
    def test_k_scaling_at_turning_point(self):
        x, mu, nu, T = 1.0, 1.0, -1.0, 0.0
        z1 = spectral.amplitude_Z(1e3, x, mu, nu, T)
        z4 = spectral.amplitude_Z(4e3, x, mu, nu, T)
        assert abs(z4/z1) == pytest.approx(4.0**(5.0/3.0), rel=1e-2)

    def test_quarter_root_continuous_in_x(self):
        k = 1e3
        vals = np.array([spectral.amplitude_Z(k, x, 1.0, -1.0, 0.0)
                         for x in np.linspace(0.2, 2.0, 50)])
        steps = np.abs(np.diff(vals))/np.abs(vals[:-1])
        assert steps.max() <= 0.2

    def test_finite_at_generic_point(self):
        val = spectral.amplitude_Z(1e3, 1.0, 1.0, -1.0, 0.0)
        assert np.isfinite(val) and abs(val) > 0

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.floats(0.05, 20.0), st.floats(-math.pi, math.pi))
    def test_square_roots_are_the_principal_powers(self, rho, theta):
        # zeta^{-1/4} here and (-J)^{-1/2} in stationary.reduced_integrand
        # are taken as 1/sqrt(sqrt(v)) and 1/sqrt(v): sqrt maps into
        # Re >= 0, so both keep the principal branch, also on the negative
        # real axis, where either signed zero lands on its own side
        z = rho*complex(math.cos(theta), math.sin(theta))
        for v in (z, complex(-rho, 0.0), complex(-rho, -0.0)):
            for p, form in ((-0.5, lambda u: 1.0/np.sqrt(u)),
                            (-0.25, lambda u: 1.0/np.sqrt(np.sqrt(u)))):
                want = np.complex128(v)**p
                for got in (form(np.complex128(v)), form(np.array([v, v]))):
                    assert np.all(np.abs(got - want) <= 1e-15*abs(want))
        # on the axis both forms of the inverse square root give -+i
        for im, sign in ((0.0, -1.0), (-0.0, 1.0)):
            v = np.complex128(complex(-rho, im))
            want = sign*1j/math.sqrt(rho)
            for got in (1.0/np.sqrt(v), v**-0.5):
                assert abs(got - want) <= 1e-15*abs(want)


def _full_grid_oracle(x, y, t, k, axes):
    """The (z, s, nu) tensor rule contracted on whole grids (earlier form).

    ``axes`` are the (nodes, Kronrod weights, Gauss weights) of the z, s
    and nu axes; returns (value, error estimate, converged).
    """
    (zn, wzk, wzg), (sn, wsk, wsg), (nn, wnk, wng) = axes
    K0 = np.exp(-1j*k*np.outer(zn, sn))
    z3 = zn**3
    FZ = np.exp(1j*k*(-np.outer(nn, z3)/12.0 - z3[None, :]/8.0
                      + 1j*zn[None, :]**4/32.0))
    MU = sn[None, :] - nn[:, None]
    FS = (spectral.airy_quotient(x, MU, np.broadcast_to(nn[:, None],
                                                        MU.shape), k)
          * np.exp(1j*k*y*MU))
    Pnu = np.exp(1j*k*(t*nn + 0.5j*(nn + 1.0)**2))
    EK = (FZ*wzk[None, :]) @ K0
    EG = (FZ*wzg[None, :]) @ K0

    def contract(E, ws, wn):
        return np.einsum("ij,ij,j,i->", E, FS, ws, wn*Pnu)

    v_kkk = contract(EK, wsk, wnk)
    v_gkk = contract(EG, wsk, wnk)
    v_kgk = contract(EK, wsg, wnk)
    v_kkg = contract(EK, wsk, wng)
    pref = (k/(2.0*math.pi))**1.5
    value = pref*v_kkk
    # the nu-window truncation term: the Gaussian's share outside the window
    err = (pref*(abs(v_kkk - v_gkk) + abs(v_kkk - v_kgk) + abs(v_kkk - v_kkg))
           + math.erfc(math.sqrt(math.log(1.0/spectral._NU_TAIL)))*abs(value))
    return value, err, err <= 0.02*(1.0 + abs(value))


def _box_profiles(monkeypatch, x, y, t, k):
    """The arguments and (u, rate) profiles of the oracle's _window_rates."""
    seen = []
    window_rates = spectral._window_rates

    class BoxSeen(Exception):
        pass

    def recorded(*args):
        seen.append((args, window_rates(*args)))
        raise BoxSeen
    with monkeypatch.context() as m:
        m.setattr(spectral, "_window_rates", recorded)
        with pytest.raises(BoxSeen):
            spectral.exact_solution(x, y, t, k)
    return seen[0]


class TestExactSolution:
    # at k = 60 the Gauss weights of the z, s and nu axes are scaled by
    # 0.5, 0.6 and 0.7 in both routes, so that each axis's term of the error
    # estimate is of the size of the value and is checked at 1e-12 of it
    @pytest.mark.parametrize("k, gauss_scale", [(60.0, (0.5, 0.6, 0.7)),
                                                (150.0, (1.0, 1.0, 1.0))])
    def test_blocked_sum_matches_full_grid(self, k, gauss_scale,
                                           monkeypatch):
        x, y = 0.5, 1.2
        t = y + y**3/12.0 + 0.1
        axes = []
        axis_nodes = spectral._axis_nodes

        def recorded(*args, **kwargs):
            nodes, wk, wg, panels, clipped = axis_nodes(*args, **kwargs)
            wg = wg*gauss_scale[len(axes) % 3]
            axes.append((nodes, wk, wg))
            return nodes, wk, wg, panels, clipped
        monkeypatch.setattr(spectral, "_axis_nodes", recorded)
        spectral.exact_solution(x, y, t, k)
        n_z, n_s, n_nu = (len(a[0]) for a in axes[:3])
        # the oracle sums z on [0, z_max]; mirrored, the complex e^{-ikzs}
        # form of the full axis checks the fold too
        axes[0] = tuple(np.concatenate((sign*a[::-1], a))
                        for sign, a in zip((-1.0, 1.0, 1.0), axes[0]))
        value, err, converged = _full_grid_oracle(x, y, t, k, axes[:3])
        uneven = next(c for c in range(7, n_s) if n_s % c)
        # one s-column per block, an uneven last block, a single block
        for cols in (1, uneven, n_s):
            monkeypatch.setattr(spectral, "_QUOTIENT_BLOCK", cols*n_nu)
            got = spectral.exact_solution(x, y, t, k)
            assert abs(got.value - value) <= 1e-12*abs(value)
            assert abs(got.error_estimate - err) <= 1e-12*abs(value)
            assert got.converged == converged

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", ["x", "y", "t", "k"])
    def test_non_finite_input_refused(self, slot, bad):
        # at the parent a nan raised "cannot convert float NaN to integer"
        # from math.ceil, and an inf ran on into RuntimeWarnings
        args = dict(x=1.0, y=2.0, t=8.0/3.0, k=100.0)
        args[slot] = bad
        with pytest.raises(DomainError, match="must be finite$"):
            spectral.exact_solution(**args)

    def test_k_range_is_closed_at_the_cap(self, monkeypatch):
        # k = 1e4 passes every check (the stub stops the call right after
        # them); the next double above it is refused, as is 1e5
        class Checked(Exception):
            pass

        def stop(*args):
            raise Checked
        monkeypatch.setattr(spectral, "_window_rates", stop)
        with pytest.raises(Checked):
            spectral.exact_solution(1.0, 2.0, 8.0/3.0, 1e4)
        for k in (math.nextafter(1e4, math.inf), 1e5):
            with pytest.raises(DomainError, match=r"refuses k > 10000: "):
                spectral.exact_solution(1.0, 2.0, 8.0/3.0, k)

    @pytest.mark.parametrize("k, w", [
        (100.0, 0.39037553549259973-0.21082174933260908j),
        (300.0, 0.37001745586628665-0.21797767770790327j),
        (1e3, 0.3502700531393393-0.2239730872159901j)])
    def test_ray_cells_keep_the_full_axis_values(self, k, w):
        # w on the ray at x = 1 by the complex z-sum over the whole axis;
        # the real half-axis sum moves it by at most 2.1e-15 relative
        res = spectral.exact_solution(1.0, 2.0, 8.0/3.0, k)
        assert res.converged
        assert abs(res.value - w) <= 1e-13*abs(w)

    @pytest.mark.parametrize("x, k", [(0.5, 100.0), (1.0, 300.0),
                                      (2.0, 300.0), (1.0, 1000.0),
                                      (0.5, 1000.0)])
    def test_window_rates_are_gradients_of_the_exponent(self, x, k,
                                                        monkeypatch):
        # at each of the 9 samples of an axis, the max over the other two
        # axes of the oracle's 9^3 box of |dPhi/du|, u = z, s, nu, for the
        # exponent written out here, mu = s - nu
        y = 2.0*math.sqrt(x)
        t = y + y**3/12.0
        (_, _, _, _, z_max, s_lo, s_hi, nu_half), profiles = _box_profiles(
            monkeypatch, x, y, t, k)

        def phi(z, s, nu):
            mu = s - nu
            m2 = (mu/nu)**2
            quotient = (2.0*abs(nu)/3.0)*(np.maximum(1.0 + x - m2, 0.0)**1.5
                                          - np.maximum(1.0 - m2, 0.0)**1.5)
            return ((y - z)*mu + t*nu - nu*(z + z**3/12.0) - z**3/8.0
                    + 1j*(z**4/32.0 + (nu + 1.0)**2/2.0) + quotient)

        axes = (np.linspace(-z_max, z_max, 9), np.linspace(s_lo, s_hi, 9),
                np.linspace(-1.0 - nu_half, -1.0 + nu_half, 9))
        box = np.meshgrid(*axes, indexing="ij")
        h = 1e-6
        for axis, (u, rate) in enumerate(profiles):
            step = [h if a == axis else 0.0 for a in range(3)]
            up = phi(*(b + d for b, d in zip(box, step)))
            down = phi(*(b - d for b, d in zip(box, step)))
            want = np.moveaxis(np.abs(up - down), axis, 0).reshape(9, -1)
            want = want.max(axis=1)/(2.0*h)
            assert np.array_equal(u, axes[axis])
            assert np.all(np.abs(rate - want) <= 1e-6*want)

    @pytest.mark.parametrize("x, k, dy", [(1.0, 100.0, 0.0),
                                          (0.05, 300.0, 0.0),
                                          (1.0, 300.0, 0.1),
                                          (0.25, 1000.0, -0.05),
                                          (10.0, 1e4, 0.0)])
    def test_graded_panels_span_at_most_the_cycles_per_panel(self, x, k, dy,
                                                             monkeypatch):
        # cycles of each panel under the bound of each sample interval: the
        # largest of the samples i-1 .. i+2 of the interval [u_i, u_i+1]
        ray = central_ray(2.0*math.sqrt(x))
        _, profiles = _box_profiles(monkeypatch, x, ray.y + dy, ray.t, k)
        for (u, rate), spare in zip(profiles, (2, 2, 0)):  # z, s, nu
            nodes, wk, _, panels, clipped = spectral._axis_nodes((u, rate), k,
                                                                 spare)
            mid = nodes.reshape(panels, 15)[:, 7]
            half = wk.reshape(panels, 15).sum(axis=1)/2.0
            edges = np.append(mid - half, mid[-1] + half[-1])
            assert not clipped and 4 <= panels
            assert edges[0] == pytest.approx(u[0], abs=1e-15)
            assert edges[-1] == pytest.approx(u[-1], abs=1e-15)
            assert np.all(np.diff(edges) > 0.0)
            bound = [max(rate[max(i - 1, 0):i + 3]) for i in range(8)]
            cycles = [k/(2.0*math.pi)*sum(
                b*max(0.0, min(hi, u[i + 1]) - max(lo, u[i]))
                for i, b in enumerate(bound))
                for lo, hi in zip(edges[:-1], edges[1:])]
            assert max(cycles) <= spectral._CYCLES_PER_PANEL*(1.0 + 1e-9)
            if spare:
                # z and s: at least two panels more than the cycles need
                assert sum(cycles) <= spectral._CYCLES_PER_PANEL*(panels - 2)
            else:
                # nu: exactly the panels the cycles need, 4 at least
                assert panels == max(
                    math.ceil(sum(cycles)/spectral._CYCLES_PER_PANEL), 4)

    @pytest.mark.parametrize("lo, hi, rate, k", [(-0.7, 0.7, 3.0, 1e3),
                                                 (-2.5, 0.4, 1.7, 300.0),
                                                 (-1.2, -0.8, 0.5, 100.0),
                                                 (0.0, 1.0, 1e-3, 40.0)])
    def test_flat_profile_gives_equal_panels(self, lo, hi, rate, k):
        # the uniform layout: linspace edges, ceil(cycles/3) + spare panels,
        # 4 at least; spare is 0 on the nu axis and 2 on z and s
        u = np.linspace(lo, hi, 9)
        cycles = (hi - lo)*rate*k/(2.0*math.pi)
        for spare in (0, 2):
            nodes, wk, wg, panels, clipped = spectral._axis_nodes(
                (u, np.full(9, rate)), k, spare)
            assert panels == max(math.ceil(cycles/3.0) + spare, 4)
            assert not clipped
            edges = np.linspace(lo, hi, panels + 1)
            want, half, wk_want, wg_want = quadrature.kronrod_panels(
                edges[:-1], edges[1:])
            assert np.allclose(nodes, want.ravel(), rtol=0.0, atol=1e-15)
            assert np.allclose(wk, np.outer(half, wk_want).ravel(), rtol=0.0,
                               atol=1e-15)
            assert np.allclose(wg, np.outer(half, wg_want).ravel(), rtol=0.0,
                               atol=1e-15)

    def test_memory_is_bounded_at_k1000(self):
        spectral.exact_solution(1.0, 2.0, 8.0/3.0, 1e3)  # warm-up
        tracemalloc.start()
        try:
            spectral.exact_solution(1.0, 2.0, 8.0/3.0, 1e3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 6.0 MB measured; the whole-grid contraction peaks at 275 MB on
        # this call
        assert peak <= 100e6

    @pytest.mark.slow
    def test_memory_is_bounded_at_the_cli_cap(self):
        ray = central_ray(2.0)
        spectral.exact_solution(1.0, ray.y, ray.t, 100.0)  # warm-up
        tracemalloc.start()
        try:
            res = spectral.exact_solution(1.0, ray.y, ray.t, 1e4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 12.2 MB measured; the nu x z factor alone is 3.2 MB
        assert res.converged
        assert peak <= 40e6

    def test_panel_cap_is_flagged(self, monkeypatch):
        ray = central_ray(2.0)
        asked = []
        axis_nodes = spectral._axis_nodes

        def recorded(*args):
            out = axis_nodes(*args)
            asked.append(out[3])
            return out
        monkeypatch.setattr(spectral, "_axis_nodes", recorded)
        free = spectral.exact_solution(1.0, ray.y, ray.t, 100.0)
        most = max(asked)
        # an axis that asks for exactly the cap is not clipped
        monkeypatch.setattr(spectral, "_AXIS_PANEL_CAP", most)
        at_cap = spectral.exact_solution(1.0, ray.y, ray.t, 100.0)
        monkeypatch.setattr(spectral, "_AXIS_PANEL_CAP", most - 1)
        clipped = spectral.exact_solution(1.0, ray.y, ray.t, 100.0)
        assert free.converged and at_cap == free
        assert not clipped.converged
        assert clipped.panel_count == math.prod(min(n, most - 1)
                                                for n in asked[:3])
        assert abs(clipped.value - free.value) <= 1e-6*abs(free.value)

    @pytest.mark.parametrize("x, k, dy", [(0.5, 100.0, 0.0),
                                          (1.0, 100.0, 0.1),
                                          (0.05, 300.0, 0.0),
                                          (1.0, 300.0, 0.0)])
    def test_estimate_bounds_the_window_truncation(self, x, k, dy,
                                                   monkeypatch):
        # w_wide: nu tail 1e-16 and s-pad 1.2; the nu tail of 1e-8 moves w
        # by 5e-10 to 1.4e-9 relative at these cells
        ray = central_ray(2.0*math.sqrt(x))
        res = spectral.exact_solution(x, ray.y + dy, ray.t, k)
        monkeypatch.setattr(spectral, "_NU_TAIL", 1e-16)
        monkeypatch.setattr(spectral, "_S_PAD_FLOOR", 1.2)
        wide = spectral.exact_solution(x, ray.y + dy, ray.t, k)
        assert res.error_estimate >= abs(res.value - wide.value) > 0.0

    @pytest.mark.slow
    def test_concentration_on_ray(self):
        x = 0.5
        y = 2.0*math.sqrt(x)
        t = y + y**3/12.0
        on = spectral.exact_solution(x, y, t, 200.0)
        off = spectral.exact_solution(x, y, t + 1.0, 200.0)
        assert abs(off.value) <= 1e-3*abs(on.value)

    @pytest.mark.slow
    def test_agrees_with_u_route_at_k1000(self):
        from grazebeam.grazing import u_integral
        x = 0.5
        y = 2.0*math.sqrt(x)
        t = y + y**3/12.0
        qr = spectral.exact_solution(x, y, t, 1000.0)
        wu = u_integral(x, 1000.0).value
        assert qr.converged
        assert abs(qr.value - wu)/abs(wu) <= 0.20


#: (x, k, dy, dt): the ray point over x, moved by (dy, dt) in (y, t)
_REFERENCE_CELLS = [(1e-3, 40.0, 0.0, 0.0), (0.05, 40.0, 0.0, 0.0),
                    (1.0, 40.0, 0.0, 0.0), (4.0, 100.0, 0.0, 0.0),
                    (1e-3, 100.0, 0.1, 0.1), (1.0, 300.0, 0.1, 0.0),
                    (0.25, 1e3, -0.05, 0.02)]


def _written_out_reference(monkeypatch, x, y, t, k):
    """The oracle on uniform panels, 1.5 cycles each, s-pad 1.2, own tails.

    Every axis is tiled at the largest rate of its sample box, as by the
    oracle before graded panels, so the reference does not share the
    grading.  The panel cap is raised so that no axis is clipped: the
    k = 1e3 cell asks for 723 s-panels.
    """
    window_rates = spectral._window_rates

    def flat(*args):
        return tuple((u, np.full_like(rate, rate.max()))
                     for u, rate in window_rates(*args))
    with monkeypatch.context() as m:
        m.setattr(spectral, "_window_rates", flat)
        m.setattr(spectral, "_CYCLES_PER_PANEL", 1.5)
        m.setattr(spectral, "_S_PAD_FLOOR", 1.2)
        m.setattr(spectral, "_AXIS_PANEL_CAP", 3000)
        ref = spectral.exact_solution(x, y, t, k)
    assert ref.converged
    return ref.value


class TestWrittenOutReference:
    # 4.5 cycles per panel moves the k = 1e3 cell by 4e-8, and pad 0.2
    # moves the k = 40 cells by up to 2e-4; 3 cycles and the k-scaled pad
    # stay within 1e-10 (the k = 1e3 cell, padded by the floor 0.2, by
    # 9.7e-11)
    @pytest.mark.slow
    @pytest.mark.parametrize("x, k, dy, dt", _REFERENCE_CELLS)
    def test_oracle_matches_reference(self, x, k, dy, dt, monkeypatch):
        ray = central_ray(2.0*math.sqrt(x))
        y, t = ray.y + dy, ray.t + dt
        ref = _written_out_reference(monkeypatch, x, y, t, k)
        res = spectral.exact_solution(x, y, t, k)
        assert res.converged
        assert abs(res.value - ref) <= 1e-10*abs(ref)

    def test_cli_row_at_small_k(self, monkeypatch, capsys):
        # a pad of 0.2 puts w 2e-4 off here, yet the row reads ok
        ray = central_ray(2.0*math.sqrt(1e-3))
        ref = _written_out_reference(monkeypatch, 1e-3, ray.y, ray.t, 40.0)
        code = cli.main(["graze", "w", "--x", "1e-3", "--k", "40",
                         "--method", "spectral"])
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert code == 0 and row[-1] == "ok"
        w = complex(float(row[3]), float(row[4]))
        assert abs(w - ref) <= 1e-10*abs(ref)


#: (x, k, dy, dt, w): the oracle on uniform panels (each axis tiled at the
#: largest rate of its sample box, 3 cycles per panel), as it read before
#: graded panels, at the ray point over x moved by (dy, dt)
_UNIFORM_PANEL_VALUES = [
    (1e-3, 40.0, 0.0, 0.0, 0.9953928660582294+0.0063150822662949j),
    (0.05, 40.0, 0.0, 0.0, 0.8506363581643922+0.05238410284649753j),
    (1.0, 40.0, 0.05, 0.0, 0.031170637066077183+0.36876771554237064j),
    (0.5, 100.0, 0.0, 0.0, 0.5448295104231797-0.19240027899188902j),
    (4.0, 100.0, 0.0, 0.0, 0.2027031619537591-0.13718376910139782j),
    (1e-3, 100.0, 0.1, 0.1, 0.9902998769720995-0.005829631909578444j),
    (1.0, 100.0, 0.1, 0.0, -0.17194588868892896+0.011797595526347035j),
    (2.0, 300.0, 0.0, 0.0, 0.26121183485879207-0.18840966213141272j),
    (1.0, 300.0, 0.1, 0.0, -0.02955819484753044-0.0393203880570233j),
    (0.05, 300.0, 0.0, 0.0, 0.7490332686054305+0.01953277939598985j),
    (0.25, 1e3, -0.05, 0.02, 0.04004150773642751-0.02662376240431088j),
    (1.0, 1e3, 0.0, 0.0, 0.35027005313933496-0.22397308721599682j),
    (0.5, 1e3, 0.02, -0.01, -0.12490399420007216-0.24697183072441672j),
]


@pytest.mark.parametrize("x, k, dy, dt, w", _UNIFORM_PANEL_VALUES)
def test_graded_panels_keep_the_uniform_panel_values(x, k, dy, dt, w):
    # graded panels moved these cells by at most 4.1e-12 relative
    ray = central_ray(2.0*math.sqrt(x))
    res = spectral.exact_solution(x, ray.y + dy, ray.t + dt, k)
    assert res.converged
    assert abs(res.value - w) <= 1e-10*abs(w)
