"""Spectral representation: zeta branches, boundary data, phase, oracle."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from grazebeam import airy, spectral
from grazebeam.errors import DomainError
from grazebeam.quadrature import (DampingProfile, IntegrandSpec,
                                  integrate_1d, truncation_radius)


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


class TestBoundaryHatFrozen:
    def test_matches_2d_oracle(self):
        # two-variable quadrature of the beam trace in (z, s), s = t - t(z),
        # against the one-dimensional form with the analytic s-integral
        k = 100.0
        eta, tau = 100.0, -100.0

        def f2(z, s):
            tz = z + z**3/12.0
            psi = -z**3/8.0 - s + 0.5j*(z**4/16.0 + s*s)
            return np.exp(-1j*(z*eta + (s + tz)*tau) + 1j*k*psi)

        from grazebeam.quadrature import integrate_nd
        spec = IntegrandSpec(f2, (DampingProfile(k/32.0, 4),
                                  DampingProfile(k/2.0, 2)),
                             oscillation_scale=250.0)
        oracle = integrate_nd(spec, 1e-9).value
        got = spectral.boundary_hat_frozen(eta, tau, k, tol=1e-10)
        assert abs(got - oracle)/abs(oracle) <= 1e-6

    def test_gaussian_factor_at_scaled_pair(self):
        # moving (eta, tau) along a fixed direction mu/nu keeps the bare
        # z-integral nearly unchanged, isolating the explicit factor
        # e^{-(tau+k)^2/(2k)}; with tau + k = -3 sqrt(k) the ratio is e^{-9/2}
        k = 1e4
        eps = 3.0/math.sqrt(k)
        num = spectral.boundary_hat_frozen(k*(1 + eps), -k*(1 + eps), k)
        den = spectral.boundary_hat_frozen(k, -k, k)
        assert abs(num/den) == pytest.approx(math.exp(-4.5), rel=0.10)

    def test_smooth_in_eta(self):
        k = 50.0
        d = 1e-4
        f = lambda e: spectral.boundary_hat_frozen(e, -50.0, k, tol=1e-11)
        d1 = (f(50.0 + d) - f(50.0 - d))/(2*d)
        d2 = (f(50.0 + 2*d) - f(50.0 - 2*d))/(4*d)
        assert abs(d1 - d2)/abs(d1) <= 1e-4


#: (tau + k)/sqrt(k) at which e^{-(tau + k)^2/(2k)} = 1e-30
_GAUSS_1E30 = math.sqrt(2.0*math.log(1e30))


def transform_written_out(f, eta, tau, k, damping, tol=1e-8):
    """int f dz over the window and oscillation bound the transforms use."""
    radius = truncation_radius(damping, 4, tol/10.0)
    osc = abs(eta) + abs(tau)*(1.0 + radius**2/4.0) + 3.0*k*radius**2/8.0
    return integrate_1d(IntegrandSpec(f, DampingProfile(damping, 4), osc),
                        tol).value


class TestBoundaryTransformsWrittenOut:
    # eta = -tau puts the stationary point of the z-phase at z = 0, so the
    # bare integrals are O(k^{-1/3}) even where the Gaussian is 1e-30
    @pytest.mark.parametrize("shift", [0.0, -_GAUSS_1E30, _GAUSS_1E30])
    @pytest.mark.parametrize("k", [100.0, 1e3, 1e4])
    def test_frozen(self, k, shift):
        tau = -k + shift*math.sqrt(k)
        eta = -tau

        def f(z):
            return np.exp(-1j*z*eta - 1j*tau*(z + z**3/12.0)
                          - 1j*k*z**3/8.0 - k*z**4/32.0)

        want = (math.sqrt(2.0*math.pi/k)*math.exp(-(tau + k)**2/(2.0*k))
                * transform_written_out(f, eta, tau, k, k/32.0))
        got = spectral.boundary_hat_frozen(eta, tau, k)
        assert abs(got - want) <= 1e-12*abs(want)

    @pytest.mark.parametrize("shift", [0.0, -_GAUSS_1E30, _GAUSS_1E30])
    @pytest.mark.parametrize("k", [100.0, 1e3, 1e4])
    def test_full(self, k, shift):
        tau = -k + shift*math.sqrt(k)
        eta = -tau

        def f(z):
            return (spectral.boundary_prefactor_full(z, k)
                    * np.exp(-1j*k*spectral.boundary_exponent_full(
                        z, eta/k, tau/k)))

        want = transform_written_out(f, eta, tau, k, 0.7*k/32.0)
        got = spectral.boundary_hat_full(eta, tau, k)
        assert abs(got - want) <= 1e-12*abs(want)


class TestBoundaryHatFull:
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

    def test_full_transform_close_to_frozen(self):
        # the frame corrections are O(z) on a z-window of size k^{-1/4}
        k = 400.0
        full = spectral.boundary_hat_full(k, -k, k)
        froz = spectral.boundary_hat_frozen(k, -k, k)
        assert abs(full - froz)/abs(froz) <= 0.15


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


class TestReciprocalFactor:
    @pytest.mark.parametrize("nu, k", [(0.0, 20.0), (0.5, 20.0),
                                       (-1.0, 0.0), (-1.0, -20.0)])
    def test_refuses_nu_nonnegative_and_k_nonpositive(self, nu, k):
        with pytest.raises(ValueError):  # DomainError is a ValueError
            spectral.reciprocal_airy_factor(0.3, 1.0, nu, k)

    def test_turning_point_value(self):
        k, T = 20.0, 0.3
        got = spectral.reciprocal_airy_factor(T, 1.0, -1.0, k)
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
            return (spectral.reciprocal_airy_factor(T, mu, nu, k)
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
        got = spectral.reciprocal_airy_factor(0.0, mu, nu, k)
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
    err = pref*(abs(v_kkk - v_gkk) + abs(v_kkk - v_kgk) + abs(v_kkk - v_kkg))
    return value, err, err <= 0.02*(1.0 + abs(value))


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
            nodes, wk, wg, panels = axis_nodes(*args, **kwargs)
            wg = wg*gauss_scale[len(axes) % 3]
            axes.append((nodes, wk, wg))
            return nodes, wk, wg, panels
        monkeypatch.setattr(spectral, "_axis_nodes", recorded)
        spectral.exact_solution(x, y, t, k)
        value, err, converged = _full_grid_oracle(x, y, t, k, axes[:3])
        n_z, n_s, n_nu = (len(a[0]) for a in axes[:3])
        uneven = next(c for c in range(7, n_s) if n_s % c)
        # one s-column per block, an uneven last block, a single block
        for cols in (1, uneven, n_s):
            monkeypatch.setattr(spectral, "_QUOTIENT_BLOCK",
                                cols*max(n_nu, n_z))
            got = spectral.exact_solution(x, y, t, k)
            assert abs(got.value - value) <= 1e-12*abs(value)
            assert abs(got.error_estimate - err) <= 1e-12*abs(value)
            assert got.converged == converged

    @pytest.mark.parametrize("x, k", [(0.5, 100.0), (1.0, 300.0),
                                      (2.0, 300.0), (1.0, 1000.0),
                                      (0.5, 1000.0)])
    def test_window_rates_are_gradients_of_the_exponent(self, x, k,
                                                        monkeypatch):
        # max over the oracle's 9^3 sample box of |dPhi/du|, u = z, s, nu,
        # for the exponent written out here, mu = s - nu
        y = 2.0*math.sqrt(x)
        t = y + y**3/12.0
        seen = []
        window_rates = spectral._window_rates

        class BoxSeen(Exception):
            pass

        def recorded(*args):
            seen.append((args, window_rates(*args)))
            raise BoxSeen
        monkeypatch.setattr(spectral, "_window_rates", recorded)
        with pytest.raises(BoxSeen):
            spectral.exact_solution(x, y, t, k)
        (_, _, _, _, z_max, s_lo, s_hi, nu_half), rates = seen[0]

        def phi(z, s, nu):
            mu = s - nu
            m2 = (mu/nu)**2
            quotient = (2.0*abs(nu)/3.0)*(np.maximum(1.0 + x - m2, 0.0)**1.5
                                          - np.maximum(1.0 - m2, 0.0)**1.5)
            return ((y - z)*mu + t*nu - nu*(z + z**3/12.0) - z**3/8.0
                    + 1j*(z**4/32.0 + (nu + 1.0)**2/2.0) + quotient)

        box = np.meshgrid(np.linspace(-z_max, z_max, 9),
                          np.linspace(s_lo, s_hi, 9),
                          np.linspace(-1.0 - nu_half, -1.0 + nu_half, 9),
                          indexing="ij")
        h = 1e-6
        for axis, rate in enumerate(rates):
            step = [h if a == axis else 0.0 for a in range(3)]
            up = phi(*(b + d for b, d in zip(box, step)))
            down = phi(*(b - d for b, d in zip(box, step)))
            want = np.abs(up - down).max()/(2.0*h)
            assert abs(rate - want) <= 1e-6*want

    def test_memory_is_bounded_at_k1000(self):
        spectral.exact_solution(1.0, 2.0, 8.0/3.0, 1e3)  # warm-up
        tracemalloc.start()
        try:
            spectral.exact_solution(1.0, 2.0, 8.0/3.0, 1e3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the whole-grid contraction peaks at 275 MB on this call
        assert peak <= 100e6

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
