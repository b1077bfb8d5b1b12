"""Grazing amplitude: constants, moments, integral routes, closed forms.

The u-integral's measured approach to the closed form is ~k^{-1/6}
(24-25% at k = 1e3 down to 8.7-8.9% at k = 1e6, both x = 0.5 and 1).  The
strict-xfail test asserts the nominal 5% band at k = 1e6; the companion
test freezes the measured law, and a high-k check shows the 5% band is
reached near k ~ 3e7.
"""

import cmath
import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from grazebeam import airy, grazing, quadrature, raybeam, spectral
from grazebeam.errors import DomainError
from grazebeam.quadrature import DampingProfile, IntegrandSpec, integrate_1d


class TestConstant:
    def test_modulus(self):
        c = grazing.constant_c()
        assert abs(c) == pytest.approx((4*math.pi)**-1.5*2*math.pi, abs=1e-12)

    def test_wronskian_consistency(self):
        want = (4*math.pi)**-1.5*cmath.exp(1j*math.pi/12)/airy.WRONSKIAN_ZERO
        assert abs(grazing.constant_c() - want) <= 1e-10


class TestQuarticMoment:
    def test_unit_coefficient_vs_quadrature(self):
        got = grazing.quartic_moment(1.0)
        u = np.linspace(0, 8, 400001)
        oracle = np.trapezoid(u*np.exp(-u**4), u)
        assert abs(got - oracle) <= 1e-9   # trapezoid oracle accuracy
        assert got == pytest.approx(math.sqrt(math.pi)/4.0, abs=1e-14)

    def test_grazing_coefficient_value(self):
        # b = -i a(1) = 1/32, giving exactly sqrt(2 pi)
        from grazebeam.stationary import quartic_coefficient
        b = -1j*quartic_coefficient(1.0)
        assert b == pytest.approx(1.0/32.0)
        got = grazing.quartic_moment(b)
        assert got == pytest.approx(math.sqrt(2*math.pi), abs=1e-12)
        u = np.linspace(0, 16, 400001)
        oracle = np.trapezoid(u*np.exp(-u**4/32.0), u)
        assert abs(got - oracle) <= 1e-9

    def test_domain_error(self):
        with pytest.raises(DomainError):
            grazing.quartic_moment(-1.0)

    def test_analytic_continuation_along_arc(self):
        # values on b = e^{i theta}/32 match rotated-contour quadrature
        from grazebeam.quadrature import rotated_ray_integral
        for theta in np.linspace(-np.pi/3, np.pi/3, 7):
            b = cmath.exp(1j*theta)/32.0
            spec = IntegrandSpec(lambda w: w*np.exp(-b*w**4),
                                 DampingProfile(1.0/32.0, 4))
            res = rotated_ray_integral(spec, -theta/4.0, 1e-10,
                                       half_line=True)
            assert abs(res.value - grazing.quartic_moment(b)) <= 1e-8


class TestClosedForms:
    def test_limit_at_zero_plus(self):
        assert grazing.w_on_ray_closed(0.0) == 0.5
        assert grazing.w_on_ray_closed(1e-12) == pytest.approx(0.5, abs=1e-5)

    def test_value_at_one(self):
        assert grazing.w_on_ray_closed(1.0) == pytest.approx((1 - 1j)/4.0,
                                                             abs=1e-14)

    def test_modulus_law(self):
        for x in np.geomspace(0.05, 5.0, 21):
            assert abs(abs(grazing.w_on_ray_closed(x))
                       - 0.5/math.sqrt(1 + x)) <= 1e-12

    @settings(max_examples=100, deadline=None, database=None)
    @given(st.floats(1e-6, 100.0))
    def test_branch_continuous_down_to_zero(self, x_end):
        # w followed on a geometric path from x_end down to 1e-14: steps of
        # at most 1.9% in x move w by under 1%, a flipped root by 2|w|
        xs = np.geomspace(x_end, 1e-14, 2001)
        w = np.array([grazing.w_on_ray_closed(x) for x in xs])
        assert np.max(np.abs(np.abs(w) - 0.5/np.sqrt(1.0 + xs))
                      / np.abs(w)) <= 1e-14
        assert np.max(np.abs(np.diff(w))/np.abs(w[:-1])) <= 0.1
        assert abs(w[-1] - 0.5) <= 1e-6

    @pytest.mark.parametrize("x", [0.3, 1.0, 2.0])
    def test_display_identity(self, x):
        assert grazing.closed_form_identity_check(x) <= 1e-12

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0])
    def test_limit_integral_equals_closed_form(self, x):
        assert abs(grazing.limit_integral(x)
                   - grazing.w_on_ray_closed(x)) <= 1e-10

    def test_limit_integrand_vanishes_for_negative_u(self):
        from grazebeam.stationary import quartic_coefficient
        a = quartic_coefficient(0.7)
        for u in (-3.0, -0.5):
            assert 1j*u + 1j*abs(u) == 0.0
            assert abs((1j*u + 1j*abs(u))*cmath.exp(1j*a*u**4)) == 0.0

    def test_limit_integral_direct_quadrature(self):
        from grazebeam.stationary import quartic_coefficient
        x = 0.8
        a = quartic_coefficient(x)
        spec = IntegrandSpec(lambda u: (1j*u + 1j*np.abs(u))*np.exp(1j*a*u**4),
                             DampingProfile(1.0/32.0, 4), 2.0)
        val = grazing.constant_c()/(2.0*x**0.25)*integrate_1d(spec, 1e-11).value
        assert abs(val - grazing.w_on_ray_closed(x)) <= 1e-8


class TestUIntegral:
    def test_no_amos_call(self, monkeypatch):
        # W(0) is the exact constant and Ai'/Ai comes from ratio_on_ray,
        # whose near branch calls scipy's airy on real arguments only
        def refuse(*args):
            raise AssertionError("AMOS routine called")
        real_airy = scipy.special.airy
        args = []

        def real_only(w):
            args.append(np.asarray(w))
            return real_airy(w)
        monkeypatch.setattr(airy, "wronskian", refuse)
        monkeypatch.setattr(airy, "airy_ai", refuse)
        monkeypatch.setattr(scipy.special, "airye", refuse)
        monkeypatch.setattr(scipy.special, "airy", real_only)
        res = grazing.u_integral(0.5, 1e3)
        assert np.isfinite(res.value)
        assert args and not any(np.iscomplexobj(a) for a in args)

    def test_monotone_k_ladder(self):
        for x in (0.5, 1.0):
            wc = grazing.w_on_ray_closed(x)
            devs = [abs(grazing.u_integral(x, k).value - wc)/abs(wc)
                    for k in (1e3, 1e4, 1e5, 1e6)]
            assert all(d2 < d1 for d1, d2 in zip(devs, devs[1:]))

    def test_measured_convergence_law(self):
        # deviation ~ k^{-1/6}: 8.7-8.9% at k = 1e6, not yet 5%
        for x, lo, hi in ((0.5, 0.07, 0.11), (1.0, 0.07, 0.11)):
            wc = grazing.w_on_ray_closed(x)
            dev = abs(grazing.u_integral(x, 1e6).value - wc)/abs(wc)
            assert lo <= dev <= hi

    @pytest.mark.parametrize("x", [0.5, 1.0])
    @pytest.mark.xfail(strict=True, reason=(
        "the u-integral converges to the closed form like k^{-1/6}; the "
        "measured deviation at k = 1e6 is 8.7-8.9%, and the 5% band is "
        "first reached near k ~ 3e7 (see test_five_percent_band_at_high_k)"))
    def test_nominal_five_percent_at_k1e6(self, x):
        wc = grazing.w_on_ray_closed(x)
        dev = abs(grazing.u_integral(x, 1e6).value - wc)/abs(wc)
        assert dev <= 0.05

    def test_five_percent_band_at_high_k(self):
        x = 1.0
        wc = grazing.w_on_ray_closed(x)
        dev = abs(grazing.u_integral(x, 4e7).value - wc)/abs(wc)
        assert dev <= 0.05

    def test_truncation_tail_bound(self):
        # restricting the window to |u| <= 4.5 moves the result by no more
        # than the quartic tail of the integrand scale
        from grazebeam.stationary import quartic_coefficient
        x, k = 1.0, 1e4
        a = quartic_coefficient(x)
        k16, k112 = k**(1/6), k**(-1/12)

        def f(u):
            zeta0 = np.exp(-1j*np.pi/3)*(u*u/4.0)*k16
            return (0.5j*u - k112*airy.OMEGA*airy.airy_ratio(zeta0)) \
                * np.exp(1j*a*u**4)

        u = np.linspace(-4.5, 4.5, 120001)
        narrow = grazing.constant_c()/x**0.25*np.trapezoid(f(u), u)
        full = grazing.u_integral(x, k).value
        scale = 4.5*k16*k112*abs(grazing.constant_c())
        assert abs(full - narrow) <= 20.0*scale*math.exp(-4.5**4/32.0)

    def test_small_x_error_follows_k_x_three_halves(self):
        # at small x the u-integral's error depends on k x^{3/2}: both cells
        # have k x^{3/2} = 1e-3 and converge to about 1.15 relative error
        for x, k in ((1e-6, 1e6), (1e-4, 1e3)):
            res = grazing.u_integral(x, k)
            wc = grazing.w_on_ray_closed(x)
            assert res.converged
            assert abs(res.value - wc)/abs(wc) == pytest.approx(1.15, rel=1e-2)

    @pytest.mark.parametrize("pairs, rel_err", [
        (((100.0, 1e3), (1e4, 1e6)), 0.54),
        (((1e4, 1e3), (1e6, 1e6)), 1.32),
    ])
    def test_large_x_error_follows_k_over_x_three_halves(self, pairs,
                                                         rel_err):
        # at large x the error depends on k / x^{3/2}: 1 in the first pair
        # of cells and 1e-3 in the second, all converged and marked ok
        errs = []
        for x, k in pairs:
            res = grazing.u_integral(x, k)
            wc = grazing.w_on_ray_closed(x)
            assert res.converged
            errs.append(abs(res.value - wc)/abs(wc))
        assert errs[0] == pytest.approx(errs[1], rel=2e-2)
        assert errs == pytest.approx([rel_err]*2, rel=2e-2)

    def test_k_below_ten_refused(self):
        with pytest.raises(DomainError):
            grazing.u_integral(1.0, 5.0)

    def test_modulus_bounded_by_one(self):
        for (x, k) in ((0.5, 1e3), (1.0, 1e5)):
            assert abs(grazing.u_integral(x, k).value) <= 1.0


#: the u-integral k of a ``graze w`` sweep row, 1e3 to 1e6
_ROW_K = np.logspace(3.0, 6.0, 13)


class TestURow:
    """u_integral over an array of k: one quadrature for the whole row."""

    @pytest.mark.parametrize("x", [0.05, 4.0])
    def test_row_equals_per_cell_calls(self, x):
        # the shared window moved a cell by at most 1.21e-11 (x = 0.05)
        row = grazing.u_integral(x, _ROW_K, 1e-8)
        assert row.converged
        assert row.value.shape == row.error_estimate.shape == _ROW_K.shape
        for k, w in zip(_ROW_K, row.value):
            cell = grazing.u_integral(x, k, 1e-8)
            assert cell.converged
            assert abs(w - cell.value) <= 1e-10*abs(cell.value)

    def test_one_quadrature_on_the_largest_k_window(self, monkeypatch):
        seen = _record_integrate_1d(monkeypatch)
        row = grazing.u_integral(1.0, list(_ROW_K[::-1]))
        assert len(seen) == 1
        widest = grazing.u_integral(1.0, _ROW_K[-1])
        assert row.truncation_radius == widest.truncation_radius
        assert row.truncation_radius > \
            grazing.u_integral(1.0, _ROW_K[0]).truncation_radius
        # the scalar call is the batch without axes
        assert isinstance(widest.value, complex)
        assert np.ndim(widest.error_estimate) == 0

    def test_refused_member_refuses_the_row(self):
        with pytest.raises(DomainError, match=r"expects k >= 10$"):
            grazing.u_integral(1.0, [1e3, 5.0, 1e4])
        with pytest.raises(DomainError, match=r"^k must be finite$"):
            grazing.u_integral(1.0, np.array([1e3, math.inf]))


class TestZIntegral:
    def test_cross_method_agreement_at_1e5(self):
        x, k = 1.0, 1e5
        wz = grazing.z_integral(x, k).value
        wu = grazing.u_integral(x, k).value
        assert abs(wz - wu)/abs(wu) <= 0.02
        wc = grazing.w_on_ray_closed(x)
        assert abs(wz - wc)/abs(wc) <= 0.20
        assert abs(wu - wc)/abs(wc) <= 0.20

    def test_x_half_agreement_band(self):
        # at x = 0.5 the shared-route difference is larger; measured ~3.2%
        x, k = 0.5, 1e5
        wz = grazing.z_integral(x, k).value
        wu = grazing.u_integral(x, k).value
        assert abs(wz - wu)/abs(wu) <= 0.05


#: (x, k, w, panels) of the z-route and the u-route as computed with libm
#: powers (z**3, z**4, u**4, complex (-nu)**alpha); the product forms move
#: z by at most 1.4e-12 relative and u by 4e-16, both through rounding
_Z_ROUTE_VALUES = [
    (0.25, 1e3, 0.5903914237286143-0.1386572648311343j, 244),
    (0.25, 1e4, 0.5245523908792478-0.16374509672466853j, 624),
    (0.25, 1e5, 0.4818662449140933-0.17752024227629276j, 1902),
    (1.0, 1e3, 0.3481675863995142-0.2258407827915782j, 212),
    (1.0, 1e4, 0.3185542168748604-0.23320331019670415j, 619),
    (1.0, 1e5, 0.29735550464480737-0.23828095840575053j, 1897),
    (4.0, 1e3, 0.16722434204323444-0.16407441682098803j, 698),
    (4.0, 1e4, 0.14892662422750091-0.17686776395448428j, 624),
    (4.0, 1e5, 0.1344126296839147-0.18516703869717924j, 1902),
]
_U_ROUTE_VALUES = [
    (0.05, 1e3, 0.6434902992252163-0.07507215920779209j, 58),
    (0.05, 1e6, 0.5365283640875153-0.0930888632208477j, 59),
    (4.0, 1e3, 0.16267925219522933-0.1947620329852545j, 32),
    (4.0, 1e6, 0.12159783797855914-0.19641631157788156j, 32),
]


class TestRouteValuesPinned:
    """A slipped formula moves these far beyond 1e-11; rounding does not."""

    @pytest.mark.parametrize("x, k, w, panels", _Z_ROUTE_VALUES)
    def test_z_integral(self, x, k, w, panels):
        res = grazing.z_integral(x, k)
        assert res.converged and res.panel_count == panels
        assert abs(res.value - w) <= 1e-11*abs(w)

    @pytest.mark.parametrize("x, k, w, panels", _U_ROUTE_VALUES)
    def test_u_integral(self, x, k, w, panels):
        res = grazing.u_integral(x, k)
        assert res.converged and res.panel_count == panels
        assert abs(res.value - w) <= 1e-11*abs(w)


class TestZAiryLayer:
    """The z-route flags its rows inside the Airy layer X = k^{2/3} x < X0."""

    def test_flag_only_below_x0(self, monkeypatch):
        seen = _record_integrate_1d(monkeypatch)
        for X, inside in ((6.0, True), (11.0, False)):
            res = grazing.z_integral(X/1e3**(2.0/3.0), 1e3)
            assert seen[-1].converged
            assert res.converged is not inside
            assert res.value == seen[-1].value

    @pytest.mark.slow
    @pytest.mark.parametrize("k", [1e3, 1e4])
    def test_no_ok_row_off_the_oracle(self, k):
        # measured: 3.7% at X = 10.5, falling to 1.1% at X = 30 (k = 1e3);
        # 4.4% to 1.9% at k = 1e4
        for X in (10.5, 16.0, 22.0, 30.0):
            x = X/k**(2.0/3.0)
            oracle = grazing.spectral_on_ray(x, k)
            assert oracle.converged
            res = grazing.z_integral(x, k)
            if res.converged:
                assert abs(res.value - oracle.value) <= \
                    0.05*abs(oracle.value), (x, k)


# Ai'/Ai as computed before the ray kernel: AMOS below |z| = 16 and the
# four-term differentiated expansion beyond, good to ~1.5e-9 there
_EXPANSION = (-0.25, 5.0/32.0, -15.0/64.0, 1105.0/2048.0)


def _amos_and_four_terms(z):
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.empty_like(z)
    small = np.abs(z) < 16.0
    eai, eaip, _, _ = scipy.special.airye(z[small])
    out[small] = eaip/eai
    zl = z[~small]
    far = -np.sqrt(zl)
    for j, c in enumerate(_EXPANSION):
        far = far + c*zl**(-1.0 - 1.5*j)
    out[~small] = far
    return out


def _record_integrate_1d(monkeypatch):
    """Route grazing's integrate_1d through a recorder of its results."""
    seen = []

    def recording(spec, tol):
        seen.append(integrate_1d(spec, tol))
        return seen[-1]
    monkeypatch.setattr(grazing, "integrate_1d", recording)
    return seen


class TestResultContract:
    """u_integral, z_integral and spectral_on_ray: one flagged result type."""

    @pytest.mark.parametrize("route", ["u_integral", "z_integral"])
    def test_carries_the_quadrature_window_and_panels(self, route,
                                                      monkeypatch):
        seen = _record_integrate_1d(monkeypatch)
        res = getattr(grazing, route)(1.0, 1e3)
        assert res.converged and len(seen) == 1
        assert res.truncation_radius == seen[0].truncation_radius
        assert res.panel_count == seen[0].panel_count

    def test_u_spent_budget_returns_scaled_best_estimate(self, monkeypatch):
        seen = _record_integrate_1d(monkeypatch)
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 16)
        x = 2.0
        res = grazing.u_integral(x, 1e3, tol=1e-17)
        assert len(seen) == 1 and not seen[0].converged
        assert not res.converged
        c = grazing.constant_c()
        assert res.value == complex(c/x**0.25*seen[0].value)
        assert res.error_estimate == abs(c)/x**0.25*seen[0].error_estimate
        assert res.panel_count == seen[0].panel_count

    def test_spent_budget_stays_within_the_cap(self):
        res = grazing.u_integral(1e-8, 1e3)
        assert not res.converged
        assert res.panel_count <= quadrature._MAX_PANELS == 20000

    def test_z_spent_budget_returns_best_estimate(self, monkeypatch):
        seen = _record_integrate_1d(monkeypatch)
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 16)
        res = grazing.z_integral(1.0, 1e3, tol=1e-17)
        assert len(seen) == 1 and not seen[0].converged
        assert res == seen[0]

    @pytest.mark.parametrize("tol", [1.0, 1e300])
    @pytest.mark.parametrize("route", ["u_integral", "z_integral",
                                       "spectral_on_ray"])
    def test_tol_at_least_one_refused(self, route, tol):
        # u_integral(1, 1e3, tol=1e300) once gave |w| = 0.0593 on a window
        # of radius 0.5, and spectral_on_ray(1, 100, tol=1e300) a row
        # marked converged whatever its estimate
        with pytest.raises(ValueError, match=r"tol must lie in \(0, 1\)"):
            getattr(grazing, route)(1.0, 1e3, tol=tol)

    @pytest.mark.parametrize("k", [0.0, -3.0])
    @pytest.mark.parametrize("route", ["u_integral", "z_integral",
                                       "spectral_on_ray"])
    def test_nonpositive_k_refused(self, route, k):
        # z_integral(1, 0) once refused with "damping coefficient must be
        # positive", naming no argument the caller gave
        with pytest.raises(DomainError, match=r"^k must be positive$"):
            getattr(grazing, route)(1.0, k)

    @pytest.mark.parametrize("k", [math.nextafter(1e4, math.inf), 1e5])
    def test_spectral_k_cap_refused(self, k):
        with pytest.raises(DomainError, match=r"refuses k > 10000: "):
            grazing.spectral_on_ray(1.0, k)

    def test_spectral_tol_floor(self):
        # the oracle's panels are laid, not refined: a tol below 0.02 is
        # raised to it, so the row keeps the flag of the oracle at 0.02
        x, k = 0.5, 60.0
        ray = raybeam.central_ray(2.0*math.sqrt(x))
        at_floor = spectral.exact_solution(x, ray.y, ray.t, k, 0.02)
        assert grazing.spectral_on_ray(x, k, 1e-9) == at_floor
        assert at_floor.converged
        assert not spectral.exact_solution(x, ray.y, ray.t, k, 1e-9).converged

    @pytest.mark.parametrize("x, k", [(math.nan, 1e3), (math.inf, 1e3),
                                      (1.0, math.nan), (1.0, math.inf),
                                      (1.0, -math.inf)])
    @pytest.mark.parametrize("route", ["u_integral", "z_integral",
                                       "spectral_on_ray"])
    def test_non_finite_input_refused(self, route, x, k):
        # at the parent a nan or inf x or k raised a bare ValueError or
        # OverflowError from math.ceil deep inside the route; the refusal
        # names the argument that is not finite
        bad = "x" if not math.isfinite(x) else "k"
        with pytest.raises(DomainError, match=r"\b%s\b.*must be finite$"
                           % bad):
            getattr(grazing, route)(x, k)

    def test_spectral_on_ray_is_the_oracle_at_the_ray_point(self):
        x, k = 0.5, 60.0
        ray = raybeam.central_ray(2.0*math.sqrt(x))
        assert (grazing.spectral_on_ray(x, k)
                == spectral.exact_solution(x, ray.y, ray.t, k))


class TestAiryRatioKernel:
    """Both routes against the AMOS + four-term Ai'/Ai they used before."""

    CELLS = [(0.05, 1e3), (1.0, 1e4), (4.0, 1e5)]

    def test_u_integral_makes_no_amos_call(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("sp.airye called on the u-route")
        monkeypatch.setattr(scipy.special, "airye", refuse)
        for x, k in self.CELLS:
            assert np.isfinite(grazing.u_integral(x, k).value)

    def test_z_integral_makes_no_amos_call(self, monkeypatch):
        # on these cells every Airy point of the z-route lies in the series
        # sector or within |Im q| <= 0.25 of the ray
        def refuse(*args):
            raise AssertionError("sp.airye called on the z-route")
        monkeypatch.setattr(airy.sp, "airye", refuse)
        for x in (0.25, 1.0, 4.0):
            for k in (1e3, 1e4, 1e5):
                res = grazing.z_integral(x, k)
                assert res.converged and np.isfinite(res.value)

    @pytest.mark.parametrize("x,k", CELLS)
    def test_routes_match_the_previous_kernel(self, x, k, monkeypatch):
        wu = grazing.u_integral(x, k).value
        wz = grazing.z_integral(x, k).value
        monkeypatch.setattr(airy, "ratio_on_ray", lambda q: (
            _amos_and_four_terms(np.exp(-1j*np.pi/3)*np.asarray(q))))
        monkeypatch.setattr(airy, "airy_ratio", _amos_and_four_terms)
        wu_before = grazing.u_integral(x, k).value
        wz_before = grazing.z_integral(x, k).value
        # measured: at most 1.4e-11 (u) and 6.2e-11 (z) on these cells
        assert abs(wu - wu_before) <= 1e-10*abs(wu_before)
        assert abs(wz - wz_before) <= 1e-10*abs(wz_before)


class TestReflected:
    def test_zero_plus_limit(self):
        assert grazing.reflected_amplitude(0.0) == pytest.approx(0.5)

    def test_half_ratio_near_zero(self):
        x = 1e-4
        r = abs(grazing.reflected_amplitude(x))/abs(raybeam.beam_on_ray(x))
        assert abs(r - 0.5) <= 0.05

    def test_curve_values_finite(self):
        for x in np.linspace(0.05, 4.0, 15):
            v = grazing.reflected_amplitude(x)
            assert np.isfinite(v) and abs(v) < 1.5


class TestZRouteDerivativeLaw:
    def test_ratios_near_one_at_1e5(self):
        # a beam concentrated on the ray: d_x w ~ ik sqrt(x) w, d_y w ~ ik w
        x, k, h = 1.0, 1e5, 2e-6
        ray = raybeam.central_ray(2.0*math.sqrt(x))

        def w(xx, yy):
            return grazing._z_route(xx, yy, ray.t, k, 1e-8).value

        w0 = w(x, ray.y)
        dwx = (w(x + h, ray.y) - w(x - h, ray.y))/(2.0*h)
        dwy = (w(x, ray.y + h) - w(x, ray.y - h))/(2.0*h)
        assert abs(dwx/(1j*k*math.sqrt(x)*w0) - 1.0) <= 0.10
        assert abs(dwy/(1j*k*w0) - 1.0) <= 0.10
