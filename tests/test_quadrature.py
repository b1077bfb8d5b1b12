"""Quadrature engine battery: analytic integrals, tails, contours."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import grazebeam.quadrature as quad
from grazebeam.errors import DomainError
from grazebeam.quadrature import (DampingProfile, IntegrandSpec, integrate_1d,
                                  integrate_nd, rotated_ray_integral,
                                  truncation_radius)


class TestIntegrate1d:
    def test_gaussian(self):
        res = integrate_1d(IntegrandSpec(lambda u: np.exp(-u*u),
                                         DampingProfile(1.0, 2)), 1e-12)
        assert res.converged
        assert abs(res.value - math.sqrt(math.pi)) <= 1e-12

    def test_oscillatory_gaussian_closed_form(self):
        # int e^{iku - u^2} du = sqrt(pi) e^{-k^2/4}; k = 5 keeps the result
        # far above the cancellation floor of the O(1) integrand
        k = 5.0
        res = integrate_1d(IntegrandSpec(lambda u: np.exp(1j*k*u - u*u),
                                         DampingProfile(1.0, 2), k), 1e-12)
        exact = math.sqrt(math.pi)*math.exp(-k*k/4.0)
        assert res.converged
        assert abs(res.value - exact)/exact <= 1e-10

    def test_oscillatory_gaussian_cancellation_floor(self):
        # at k = 20 the true value e^{-100} sits below double-precision
        # cancellation of the O(1) integrand; the absolute floor is what a
        # panel rule can honestly deliver
        k = 20.0
        res = integrate_1d(IntegrandSpec(lambda u: np.exp(1j*k*u - u*u),
                                         DampingProfile(1.0, 2), k), 1e-12)
        assert res.converged
        assert abs(res.value) <= 1e-13

    def test_quartic_moment_half_line(self):
        res = rotated_ray_integral(
            IntegrandSpec(lambda u: u*np.exp(-u**4), DampingProfile(1.0, 4)),
            0.0, 1e-12, half_line=True)
        from scipy.special import gamma
        assert res.converged
        assert abs(res.value - gamma(0.5)/4.0) <= 1e-12

    def test_self_consistency_on_halved_tolerance(self):
        spec = IntegrandSpec(lambda u: np.exp(2j*u - u*u)/(1 + u*u),
                             DampingProfile(1.0, 2), 2.0)
        r1 = integrate_1d(spec, 1e-8)
        r2 = integrate_1d(spec, 5e-9)
        assert r1.converged and r2.converged
        assert abs(r1.value - r2.value) <= max(r1.error_estimate, 1e-14)

    def test_determinism(self):
        spec = IntegrandSpec(lambda u: np.exp(1j*7*u - u*u),
                             DampingProfile(1.0, 2), 7.0)
        a = integrate_1d(spec, 1e-10)
        b = integrate_1d(spec, 1e-10)
        assert a.converged
        assert a.value == b.value and a.error_estimate == b.error_estimate

    def test_nonconvergence_carries_best_estimate(self, monkeypatch):
        monkeypatch.setattr(quad, "_MAX_PANELS", 16)
        spec = IntegrandSpec(lambda u: np.exp(1j*300*u - u*u),
                             DampingProfile(1.0, 2), 1.0)
        res = integrate_1d(spec, 1e-12)
        assert res.converged is False
        assert res.panel_count == 16
        assert np.isfinite(res.value) and res.error_estimate > 0

    def test_one_inner_call_per_outer_evaluation(self, monkeypatch):
        real = quad.integrate_1d
        tols, outer_nodes, columns = [], [], []

        results = []

        def counting(spec, tol):
            tols.append(tol)
            if len(tols) == 1:      # the outer integral: count its calls
                f = spec.evaluator
                spec = IntegrandSpec(
                    lambda u: outer_nodes.append(u.size) or f(u),
                    spec.damping_profile, spec.oscillation_scale)
            results.append(real(spec, tol))
            return results[-1]

        def fresnel(u, v):
            columns.append(u.shape)
            return np.exp((1j - 0.1)*(u*u + v*v))

        monkeypatch.setattr(quad, "integrate_1d", counting)
        res = integrate_nd(IntegrandSpec(
            fresnel, (DampingProfile(0.1, 2), DampingProfile(0.1, 2)), 14.0),
            1e-9)
        assert res.converged and len(outer_nodes) > 1
        assert tols == [1e-9] + [1e-9/4.0]*len(outer_nodes)
        # the evaluator takes u as a column of the evaluation's nodes
        assert set(columns) == {(n, 1) for n in outer_nodes}
        # the outer result and every inner batch's panels are counted
        assert res.panel_count == sum(r.panel_count for r in results)

    def test_any_spent_inner_budget_is_flagged(self, monkeypatch):
        # the second of several inner batches reports a spent budget
        real, calls = quad.integrate_1d, []

        def second_spent(spec, tol):
            calls.append(tol)
            res = real(spec, tol)
            return replace(res, converged=False) if len(calls) == 3 else res

        monkeypatch.setattr(quad, "integrate_1d", second_spent)
        res = integrate_nd(IntegrandSpec(
            lambda u, v: np.exp((1j - 0.1)*(u*u + v*v)),
            (DampingProfile(0.1, 2), DampingProfile(0.1, 2)), 14.0), 1e-9)
        assert len(calls) > 3 and res.converged is False

    @pytest.mark.parametrize("tol", [1.0, 1e300])
    def test_tol_at_least_one_refused(self, tol):
        # tail tol/10 >= 0.1 would shrink the window to radius 0.5 and
        # report 0.923 for sqrt(pi) as converged
        spec = IntegrandSpec(lambda u: np.exp(-u*u), DampingProfile(1.0, 2))
        with pytest.raises(ValueError, match=r"tol must lie in \(0, 1\)"):
            integrate_1d(spec, tol)


def _lorentzian(u, eps):
    """e^{-u^2} eps/(eps^2 + u^2): a peak of width eps forces refinement."""
    return np.exp(-u*u)*eps/(eps*eps + u*u)


class TestVectorIntegrand:
    """A batch of integrands is one quadrature on shared panels."""

    def _members(self, spec, params, tol):
        return [integrate_1d(IntegrandSpec(
            lambda u, p=p: spec.evaluator(u, p), spec.damping_profile,
            spec.oscillation_scale), tol) for p in params]

    @pytest.mark.parametrize("f, params, osc", [
        # smooth: every member at the double-precision floor
        (lambda u, k: np.exp(1j*k*u - u*u), [0.0, 0.5, 1.0, 2.0], 2.0),
        # the narrowest peak refines the shared panels
        (_lorentzian, [0.3, 0.03, 0.003], 1.0)])
    def test_batch_equals_scalar_calls(self, f, params, osc):
        col = np.array(params)[:, None]
        spec = IntegrandSpec(lambda u, p=col: f(u, p), DampingProfile(1.0, 2),
                             osc)
        batch = integrate_1d(spec, 1e-10)
        members = self._members(spec, params, 1e-10)
        assert batch.converged and all(r.converged for r in members)
        assert batch.value.shape == batch.error_estimate.shape == \
            (len(params),)
        # the member that needs the most panels sets the batch's
        assert batch.panel_count == max(r.panel_count for r in members)
        for got, r in zip(batch.value, members):
            assert abs(got - r.value) <= 1e-15*abs(r.value)
            assert r.truncation_radius == batch.truncation_radius

    def test_batch_of_one_and_leading_axes(self):
        def f(u):
            return np.exp(1j*u - u*u)
        scalar = integrate_1d(IntegrandSpec(f, DampingProfile(1.0, 2)), 1e-12)
        assert type(scalar.error_estimate) is float
        assert np.ndim(scalar.value) == 0
        one = integrate_1d(IntegrandSpec(lambda u: f(u)[None],
                                         DampingProfile(1.0, 2)), 1e-12)
        assert one.value.shape == (1,) and one.panel_count == \
            scalar.panel_count
        assert abs(one.value[0] - scalar.value) <= 1e-15*abs(scalar.value)
        grid = integrate_1d(IntegrandSpec(
            lambda u: np.ones((2, 3, 1))*f(u), DampingProfile(1.0, 2)),
            1e-12)
        assert grid.value.shape == grid.error_estimate.shape == (2, 3)
        assert np.all(np.abs(grid.value - scalar.value)
                      <= 1e-15*abs(scalar.value))

    def test_spent_budget_flags_the_whole_batch(self, monkeypatch):
        monkeypatch.setattr(quad, "_MAX_PANELS", 16)
        spec = IntegrandSpec(
            lambda u: np.exp(1j*np.array([[0.0], [300.0]])*u - u*u),
            DampingProfile(1.0, 2), 1.0)
        res = integrate_1d(spec, 1e-8)
        assert res.converged is False and res.panel_count == 16
        assert np.all(np.isfinite(res.value))
        # the smooth member meets tol; the flag is still the batch's
        assert res.error_estimate[0] <= 0.5e-8 < res.error_estimate[1]


class TestIntegrateNd:
    def test_product_gaussian(self):
        spec = IntegrandSpec(lambda u, v: np.exp(-u*u - v*v),
                             (DampingProfile(1.0, 2), DampingProfile(1.0, 2)))
        res = integrate_nd(spec, 1e-10)
        assert res.converged
        assert abs(res.value - math.pi) <= 1e-10

    def test_damped_fresnel_vs_closed_form(self):
        # int int e^{i(u^2+v^2)} e^{-(u^2+v^2)/10} du dv = pi/(1/10 - i)
        spec = IntegrandSpec(
            lambda u, v: np.exp((1j - 0.1)*(u*u + v*v)),
            (DampingProfile(0.1, 2), DampingProfile(0.1, 2)),
            oscillation_scale=14.0)
        res = integrate_nd(spec, 1e-9)
        exact = math.pi/(0.1 - 1j)
        assert res.converged
        assert abs(res.value - exact)/abs(exact) <= 1e-8

    def test_inner_spent_budget_is_flagged(self, monkeypatch):
        # the outer u-integral converges on 8 panels; its 120 inner
        # v-integrals of e^{300iv - v^2} are one batch, which spends its 16
        monkeypatch.setattr(quad, "_MAX_PANELS", 16)
        spec = IntegrandSpec(lambda u, v: np.exp(-u*u - v*v + 300j*v),
                             (DampingProfile(1.0, 2), DampingProfile(1.0, 2)))
        res = integrate_nd(spec, 1e-10)
        assert res.converged is False
        assert res.panel_count == 8 + 16

    def test_one_inner_call_per_outer_evaluation(self, monkeypatch):
        real = quad.integrate_1d
        tols, outer_nodes, columns = [], [], []

        results = []

        def counting(spec, tol):
            tols.append(tol)
            if len(tols) == 1:      # the outer integral: count its calls
                f = spec.evaluator
                spec = IntegrandSpec(
                    lambda u: outer_nodes.append(u.size) or f(u),
                    spec.damping_profile, spec.oscillation_scale)
            results.append(real(spec, tol))
            return results[-1]

        def fresnel(u, v):
            columns.append(u.shape)
            return np.exp((1j - 0.1)*(u*u + v*v))

        monkeypatch.setattr(quad, "integrate_1d", counting)
        res = integrate_nd(IntegrandSpec(
            fresnel, (DampingProfile(0.1, 2), DampingProfile(0.1, 2)), 14.0),
            1e-9)
        assert res.converged and len(outer_nodes) > 1
        assert tols == [1e-9] + [1e-9/4.0]*len(outer_nodes)
        # the evaluator takes u as a column of the evaluation's nodes
        assert set(columns) == {(n, 1) for n in outer_nodes}
        # the outer result and every inner batch's panels are counted
        assert res.panel_count == sum(r.panel_count for r in results)

    def test_any_spent_inner_budget_is_flagged(self, monkeypatch):
        # the second of several inner batches reports a spent budget
        real, calls = quad.integrate_1d, []

        def second_spent(spec, tol):
            calls.append(tol)
            res = real(spec, tol)
            return replace(res, converged=False) if len(calls) == 3 else res

        monkeypatch.setattr(quad, "integrate_1d", second_spent)
        res = integrate_nd(IntegrandSpec(
            lambda u, v: np.exp((1j - 0.1)*(u*u + v*v)),
            (DampingProfile(0.1, 2), DampingProfile(0.1, 2)), 14.0), 1e-9)
        assert len(calls) > 3 and res.converged is False

    @pytest.mark.parametrize("tol", [1.0, 1e300])
    def test_tol_at_least_one_refused(self, tol):
        spec = IntegrandSpec(lambda u, v: np.exp(-u*u - v*v),
                             (DampingProfile(1.0, 2), DampingProfile(1.0, 2)))
        with pytest.raises(ValueError, match=r"tol must lie in \(0, 1\)"):
            integrate_nd(spec, tol)


class TestTruncationRadius:
    def test_gaussian_radius_near_six(self):
        r = truncation_radius(1.0, 2, 1e-16)
        assert 5.6 <= r <= 6.6
        # the analytic tail bound the radius is built from must hold
        from scipy.special import erfc
        assert math.sqrt(math.pi)*erfc(r) <= 1e-16

    def test_quartic_radius(self):
        r = truncation_radius(1.0/32.0, 4, 1e-12)
        assert 4.8 <= r <= 6.5
        # numeric tail against the reported radius
        u = np.linspace(r, r + 6.0, 20001)
        tail = 2.0*np.trapezoid(np.exp(-u**4/32.0), u)
        assert tail <= 1e-12

    def test_monotone_in_coefficient(self):
        assert (truncation_radius(2.0, 2, 1e-12)
                < truncation_radius(1.0, 2, 1e-12))

    def test_tail_inequality_random(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = float(rng.uniform(0.05, 3.0))
            p = int(rng.choice([2, 4]))
            tol = float(10.0**rng.uniform(-14, -6))
            r = truncation_radius(a, p, tol)
            u = np.linspace(r, r*3 + 10, 40001)
            tail = 2.0*np.trapezoid(np.exp(-a*u**p), u)
            assert tail <= tol*1.0000001

    def test_unreachable_bound_raises(self):
        # at a = 2.5e-302 the tail bound first holds near R = 2e75
        with pytest.raises(DomainError):
            truncation_radius(2.5e-302, 4, 1e-10)


def _tail(a, p, tail_tol, scale, R):
    """The tail bound of truncation_radius, as a fraction of tail_tol."""
    return 2*max(scale, 1e-300)*math.exp(-a*R**p)/(p*a*R**(p - 1))/tail_tol


def _bisection_200_steps(a, p, tail_tol, scale=1.0):
    """truncation_radius as a fixed 200-step bisection."""
    c = max(scale, 1e-300)

    def tail(R):
        return 2*c*math.exp(-a*R**p)/(p*a*R**(p - 1))

    lo, hi = (tail_tol/c)**(1.0/p), 1.0
    while tail(hi) > tail_tol:
        hi *= 2
        if hi > 1e8:
            break
    lo = min(lo, hi/2)
    for _ in range(200):
        mid = 0.5*(lo + hi)
        if tail(mid) > tail_tol:
            lo = mid
        else:
            hi = mid
    return hi


class TestTruncationRadiusClosedForm:
    @settings(max_examples=400, deadline=None, database=None)
    @given(st.floats(-3.0, 5.0), st.sampled_from([2, 3, 4]),
           st.floats(-16.0, -2.0), st.floats(-2.0, 3.0))
    def test_least_radius_meeting_the_bound(self, log_a, p, log_tol,
                                            log_scale):
        a, tol, scale = 10.0**log_a, 10.0**log_tol, 10.0**log_scale
        R = truncation_radius(a, p, tol, scale)
        assert _tail(a, p, tol, scale, R) <= 1.0
        assert _tail(a, p, tol, scale, R*(1.0 - 1e-13)) > 1.0
        # the bisection's bracket starts at this floor and returns it when
        # the least radius lies below
        floor = min((tol/scale)**(1.0/p), 0.5)
        if _tail(a, p, tol, scale, floor) > 1.0:
            bisected = _bisection_200_steps(a, p, tol, scale)
            assert abs(R - bisected) <= 4*math.ulp(bisected)

    @pytest.mark.parametrize("args, pinned", [
        # grazing._U_WINDOW
        ((1.0/32.0, 4, 1e-14), 5.559904759207713),
        # z-route at (x, k) = (1, 1e3) and (1, 1e5), tol 1e-9: the radius
        # of its oscillation bound and the integrated window (scale k^1/4)
        ((0.8*1e3/32.0, 4, 1e-10), 0.9374478749392412),
        ((0.8*1e3/32.0, 4, 1e-10, 1e3**0.25), 0.957034560710161),
        ((0.8*1e5/32.0, 4, 1e-10), 0.2921032786987727),
        ((0.8*1e5/32.0, 4, 1e-10, 1e5**0.25), 0.3026409011342801),
    ])
    def test_radii_of_the_routes_keep_their_bisected_values(self, args,
                                                            pinned):
        assert abs(truncation_radius(*args) - pinned) <= 4*math.ulp(pinned)


class TestRotatedRay:
    def test_airy_defining_integral(self):
        # int e^{iu^3/3} du over the line equals 2 pi Ai(0) via the rays
        # arg = pi/6 and 5 pi/6 (cubic decay along both)
        from grazebeam.airy import airy_ai
        spec = IntegrandSpec(lambda w: np.exp(1j*w**3/3.0),
                             DampingProfile(1.0/3.0, 3))
        res = rotated_ray_integral(spec, np.pi/6.0, 1e-10)
        assert res.converged
        assert abs(res.value - 2.0*np.pi*airy_ai(0.0).value) <= 1e-8

    def test_quartic_moment_rotated_matches_formula(self):
        from grazebeam.grazing import quartic_moment
        b = np.exp(1j*np.pi/4)
        # u = e^{-i pi/16} s makes b u^4 positive real
        th = -np.pi/16.0
        spec = IntegrandSpec(lambda w: w*np.exp(-b*w**4),
                             DampingProfile(1.0, 4))
        res = rotated_ray_integral(spec, th, 1e-10, half_line=True)
        assert res.converged
        assert abs(res.value - quartic_moment(b)) <= 1e-8

    def test_angle_zero_reduces_to_line(self):
        spec = IntegrandSpec(lambda w: np.exp(-w*w + 0j),
                             DampingProfile(1.0, 2))
        line = integrate_1d(IntegrandSpec(lambda u: np.exp(-u*u + 0j),
                                          DampingProfile(1.0, 2)), 1e-12)
        rot = rotated_ray_integral(spec, 0.0, 1e-12)
        assert line.converged and rot.converged
        assert abs(rot.value - line.value) <= 1e-12

    def test_growth_raises_contour_error(self):
        spec = IntegrandSpec(lambda w: np.exp(w.real**2 + 0j),
                             DampingProfile(0.5, 2))
        with pytest.raises(DomainError, match="grows along the rotated ray"):
            rotated_ray_integral(spec, 0.1, 1e-8)

    def test_spent_budget_is_flagged(self, monkeypatch):
        monkeypatch.setattr(quad, "_MAX_PANELS", 16)
        spec = IntegrandSpec(lambda w: np.exp(300j*w - w*w),
                             DampingProfile(1.0, 2))
        res = rotated_ray_integral(spec, 0.0, 1e-12)
        assert res.converged is False
        assert res.panel_count == 16
        assert np.isfinite(res.value)

    def test_one_inner_call_per_outer_evaluation(self, monkeypatch):
        real = quad.integrate_1d
        tols, outer_nodes, columns = [], [], []

        results = []

        def counting(spec, tol):
            tols.append(tol)
            if len(tols) == 1:      # the outer integral: count its calls
                f = spec.evaluator
                spec = IntegrandSpec(
                    lambda u: outer_nodes.append(u.size) or f(u),
                    spec.damping_profile, spec.oscillation_scale)
            results.append(real(spec, tol))
            return results[-1]

        def fresnel(u, v):
            columns.append(u.shape)
            return np.exp((1j - 0.1)*(u*u + v*v))

        monkeypatch.setattr(quad, "integrate_1d", counting)
        res = integrate_nd(IntegrandSpec(
            fresnel, (DampingProfile(0.1, 2), DampingProfile(0.1, 2)), 14.0),
            1e-9)
        assert res.converged and len(outer_nodes) > 1
        assert tols == [1e-9] + [1e-9/4.0]*len(outer_nodes)
        # the evaluator takes u as a column of the evaluation's nodes
        assert set(columns) == {(n, 1) for n in outer_nodes}
        # the outer result and every inner batch's panels are counted
        assert res.panel_count == sum(r.panel_count for r in results)

    def test_any_spent_inner_budget_is_flagged(self, monkeypatch):
        # the second of several inner batches reports a spent budget
        real, calls = quad.integrate_1d, []

        def second_spent(spec, tol):
            calls.append(tol)
            res = real(spec, tol)
            return replace(res, converged=False) if len(calls) == 3 else res

        monkeypatch.setattr(quad, "integrate_1d", second_spent)
        res = integrate_nd(IntegrandSpec(
            lambda u, v: np.exp((1j - 0.1)*(u*u + v*v)),
            (DampingProfile(0.1, 2), DampingProfile(0.1, 2)), 14.0), 1e-9)
        assert len(calls) > 3 and res.converged is False

    @pytest.mark.parametrize("tol", [1.0, 1e300])
    def test_tol_at_least_one_refused(self, tol):
        spec = IntegrandSpec(lambda w: np.exp(-w*w + 0j),
                             DampingProfile(1.0, 2))
        with pytest.raises(ValueError, match=r"tol must lie in \(0, 1\)"):
            rotated_ray_integral(spec, 0.0, tol)
