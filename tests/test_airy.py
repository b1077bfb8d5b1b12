"""Airy kernel: values, Wronskian, asymptotics, ratio."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import airye, gamma

from grazebeam import airy
from grazebeam.errors import DomainError

AI0 = 3.0**(-2.0/3.0)/gamma(2.0/3.0)
AIP0 = -(3.0**(-1.0/3.0))/gamma(1.0/3.0)


class TestAiryAi:
    def test_value_at_zero_exact_constants(self):
        v = airy.airy_ai(0.0)
        assert v.value == pytest.approx(0.355028053887817, abs=1e-14)
        assert v.derivative == pytest.approx(-0.258819403792807, abs=1e-14)
        assert abs(v.value - AI0) < 1e-15
        assert abs(v.derivative - AIP0) < 1e-15

    def test_matches_series_oracle_on_disk(self, airy_series_oracle):
        rng = np.random.default_rng(3)
        for _ in range(25):
            z = complex(rng.uniform(-9, 9), rng.uniform(-4, 4))
            if abs(z) > 10:
                continue
            ref_v, ref_d = airy_series_oracle(z)
            got = airy.airy_ai(z)
            assert abs(got.value - ref_v) <= 1e-10*abs(ref_v)
            assert abs(got.derivative - ref_d) <= 1e-10*abs(ref_d)

    def test_agrees_with_asymptotic_at_10(self):
        v = airy.airy_ai(10.0).value
        a = airy.airy_asymptotic(10.0, order=1)
        assert abs(v - a)/abs(v) <= 1e-2

    def test_connection_identity_at_1_plus_i(self):
        z = 1.0 + 1.0j
        w = airy.OMEGA
        total = (airy.airy_ai(z).value + w*airy.airy_ai(w*z).value
                 + w**2*airy.airy_ai(w**2*z).value)
        assert abs(total) <= 1e-10

    def test_domain_error_names_radius(self):
        with pytest.raises(DomainError, match="R_MAX"):
            airy.airy_ai(50.0 + 1.0j)

    def test_entire_function_cauchy_riemann(self):
        h = 1e-5
        for z in [0.5 + 0.5j, -2.0 + 1.0j, 3.0 - 2.0j]:
            dre = (airy.airy_ai(z + h).value - airy.airy_ai(z - h).value)/(2*h)
            dim = (airy.airy_ai(z + 1j*h).value
                   - airy.airy_ai(z - 1j*h).value)/(2*h)
            assert abs(dre + 1j*dim) <= 1e-5


#: arg z = pi/3 and its neighbours: one and two ulp either side
_BRANCH_EDGE = [math.nextafter(math.nextafter(np.pi/3, 0), 0),
                math.nextafter(np.pi/3, 0), np.pi/3,
                math.nextafter(np.pi/3, 4), math.nextafter(
                    math.nextafter(np.pi/3, 4), 4)]


class TestWronskian:
    def test_exact_value_at_zero(self):
        expected = (airy.OMEGA - 1.0)/(2.0*np.pi*np.sqrt(3.0))
        assert abs(airy.wronskian(0.0) - expected) < 1e-14
        assert abs(airy.WRONSKIAN_ZERO - expected) == 0.0

    @pytest.mark.parametrize("z", [2.0 - 1.0j, -3.0, 5.0 + 2.0j, -4.0 + 4.0j])
    def test_constancy(self, z):
        assert abs(airy.wronskian(z) - airy.WRONSKIAN_ZERO) <= 1e-9

    @settings(max_examples=300, deadline=None)
    @given(r=st.floats(0.0, 8.0),
           theta=st.one_of(st.floats(-np.pi, np.pi),
                           st.sampled_from(_BRANCH_EDGE)))
    def test_constancy_property(self, r, theta):
        # the rotation p = omega z starts just above arg z = pi/3; both
        # formulas hold to 2e-14 there, so the bound is 1e-12, not 1e-9
        z = r*np.exp(1j*theta)
        assert abs(airy.wronskian(z) - airy.WRONSKIAN_ZERO) <= 1e-12

    def test_branch_edge_points_take_either_side(self):
        z = 8.0*np.exp(1j*np.array(_BRANCH_EDGE))
        assert np.any(np.angle(z) <= np.pi/3) and np.any(np.angle(z) > np.pi/3)
        assert np.abs(airy.wronskian(z) - airy.WRONSKIAN_ZERO).max() <= 1e-12

    def test_constancy_on_a_polar_grid(self):
        # rotating from arg z = pi/2 instead of pi/3 leaves 9e-8 here, and
        # from pi/4 some 1e-11: the rotated sector is (pi/3, pi] and no other
        z = (np.linspace(0.0, 8.0, 33)
             * np.exp(1j*np.linspace(-np.pi, np.pi, 361))[:, None])
        assert np.abs(airy.wronskian(z) - airy.WRONSKIAN_ZERO).max() <= 1e-12

    def test_constancy_quasirandom_disk(self):
        from grazebeam.verification import _halton
        pts = _halton(100)
        zs = 8.0*np.sqrt(pts[:, 0])*np.exp(2j*np.pi*pts[:, 1])
        dev = max(abs(airy.wronskian(z) - airy.WRONSKIAN_ZERO) for z in zs)
        assert dev <= 1e-9


class TestAsymptotic:
    def test_leading_order_error_law_at_25(self):
        v = airy.airy_ai(25.0).value
        a = airy.airy_asymptotic(25.0, 0)
        assert abs(v - a)/abs(v) <= 10.0*25.0**-1.5

    def test_rotated_argument(self, airy_series_oracle):
        z = 8.0*np.exp(1j*np.pi/4)
        ref, _ = airy_series_oracle(z)
        assert abs(airy.airy_asymptotic(z, 0) - ref)/abs(ref) <= 0.01

    def test_order_one_beats_order_zero(self, airy_series_oracle):
        ref, _ = airy_series_oracle(4.0)
        e0 = abs(airy.airy_asymptotic(4.0, 0) - ref)
        e1 = abs(airy.airy_asymptotic(4.0, 1) - ref)
        assert e1 < e0

    def test_sector_fit_on_positive_axis(self):
        xs = np.linspace(10.0, 40.0, 31)
        rel = np.array([abs(airy.airy_ai(v).value - airy.airy_asymptotic(v, 0))
                        / abs(airy.airy_ai(v).value) for v in xs])
        assert np.max(rel*xs**1.5) <= 1.0

    def test_excluded_sector_raises(self):
        with pytest.raises(DomainError):
            airy.airy_asymptotic(5.0*np.exp(1j*(np.pi - 1e-4)), 0)
        with pytest.raises(DomainError):
            airy.airy_asymptotic(1.0, 0)   # |z| < 2


def _polar_asymptotic(z, order):
    """The asymptotic form at one point with Python's polar z**1.5, z**0.25."""
    z = complex(z)
    zeta = (2.0/3.0)*z**1.5
    series = sum(u*(-1.0/zeta)**n
                 for n, u in enumerate(airy._U_COEFFS[:order + 1]))
    return np.exp(-zeta)/(2.0*np.sqrt(np.pi)*z**0.25)*series


#: x in [10, 40] and a polar grid |z| in [10, 30], |arg z| <= 2
_FAR_GRIDS = {
    "real": np.linspace(10.0, 40.0, 16).astype(complex),
    "complex": (np.linspace(10.0, 30.0, 5)
                * np.exp(1j*np.linspace(-2.0, 2.0, 9))[:, None]).ravel(),
}


@pytest.fixture(scope="module")
def far_oracle(airy_series_oracle):
    """Ai on each of _FAR_GRIDS by the series, with digits for cancellation.

    The series cancels terms of size exp(|zeta|) down to Ai, so each point
    gets 40 digits more than 2 |zeta|/ln 10 = 0.58 |z|^{3/2}.
    """
    return {name: np.array([airy_series_oracle(
        v, dps=40 + int(0.7*abs(v)**1.5), max_terms=3000)[0] for v in z])
        for name, z in _FAR_GRIDS.items()}


class TestElementwise:
    def test_airy_ai_array_equals_point_calls_bitwise(self):
        rng = np.random.default_rng(11)
        z = (39.0*np.sqrt(rng.uniform(size=(4, 6)))
             * np.exp(2j*np.pi*rng.uniform(size=(4, 6))))
        z[0, :3] = [0.0, -3.5, 20.0]
        got = airy.airy_ai(z)
        assert got.value.shape == got.derivative.shape == (4, 6)
        for idx in np.ndindex(z.shape):
            one = airy.airy_ai(z[idx])
            assert got.value[idx] == one.value
            assert got.derivative[idx] == one.derivative

    def test_scalar_argument_gives_scalar(self):
        for z in (2.0, 1.0 - 3.0j, np.float64(0.5), np.array(4.0 + 1j)):
            v = airy.airy_ai(z)
            assert np.ndim(v.value) == np.ndim(v.derivative) == 0
            assert np.ndim(airy.wronskian(z)) == 0
        assert isinstance(airy.airy_ai(2.0).value, complex)
        assert np.ndim(airy.airy_asymptotic(5.0 + 1j, 3)) == 0

    def test_wronskian_and_asymptotic_arrays_equal_point_calls(self):
        z = np.array([[0.5, 6.0*np.exp(2j), -7.0], [3.0 + 3j, 1j, -2.0 - 1j]])
        w = airy.wronskian(z)
        assert w.shape == z.shape
        # numpy's vector and scalar complex products may round differently
        assert all(abs(w[i] - airy.wronskian(z[i])) <= 1e-15
                   for i in np.ndindex(z.shape))
        zf = np.array([2.0, 10.0 + 5j, 30.0*np.exp(-2.5j)])
        a = airy.airy_asymptotic(zf, 4)
        assert all(a[i] == airy.airy_asymptotic(zf[i], 4) for i in range(3))

    @pytest.mark.parametrize("grid", list(_FAR_GRIDS))
    def test_arrays_no_less_accurate_than_point_calls(self, far_oracle, grid):
        z, ref = _FAR_GRIDS[grid], far_oracle[grid]
        scalar = np.array([airy.airy_ai(v).value for v in z])
        assert np.array_equal(airy.airy_ai(z).value, scalar)
        # z^{3/2} as z sqrt(z) against Python's polar z**1.5: the two differ
        # by roundings of zeta, which exp(-zeta) turns into relative errors
        # of |zeta| ulp, so parity is within one rounding of the largest
        # zeta; numpy's complex ** (cexp(1.5 clog z)) misses that bound
        slack = (2.0/3.0)*np.abs(z).max()**1.5*2.0**-53
        for order in (0, 3, airy.MAX_ASYMPTOTIC_ORDER):
            e_old = np.abs([_polar_asymptotic(v, order) - r
                            for v, r in zip(z, ref)])/np.abs(ref)
            e_new = np.abs(airy.airy_asymptotic(z, order) - ref)/np.abs(ref)
            assert e_new.max() <= e_old.max() + slack
        assert e_new.max() <= 3e-14

    @pytest.mark.parametrize("call, match", [
        (lambda: airy.airy_ai(np.array([1.0, 2.0 + 1j, 40.5])), "R_MAX"),
        (lambda: airy.airy_ai(np.array([[1.0, np.nan]])), "finite"),
        (lambda: airy.wronskian(np.array([0.5, -41.0j])), "R_MAX"),
        (lambda: airy.airy_asymptotic(np.array([5.0, 1.9j, 8.0]), 0),
         r"\|z\| >= 2"),
        (lambda: airy.airy_asymptotic(np.array([5.0, -6.0 + 1e-3j]), 0),
         "outside"),
    ], ids=["radius", "finite", "wronskian-radius", "asymptotic-radius",
            "asymptotic-sector"])
    def test_one_bad_point_refuses_the_array(self, call, match):
        with pytest.raises(DomainError, match=match) as exc:
            call()
        assert "\n" not in str(exc.value)


class TestRatio:
    def test_value_at_zero(self):
        assert airy.airy_ratio(0.0) == pytest.approx(AIP0/AI0, abs=1e-12)
        assert airy.airy_ratio(0.0) == pytest.approx(-0.729011, abs=1e-6)

    def test_matches_two_term_expansion_at_30(self):
        # |z| = 30 is past the crossover, so this exercises the series branch
        got = airy.airy_ratio(30.0)
        ref = -np.sqrt(30.0) - 1.0/(4.0*30.0)
        assert abs(got - ref)/abs(ref) <= 1e-3

    def test_branches_agree_at_crossover_ray(self):
        # |z| = 9 is summed from the series; the direct route is the
        # quotient of the two AMOS values, written out here
        z = 9.0*np.exp(-1j*np.pi/3)
        eai, eaip, _, _ = airye(z)
        direct = eaip/eai
        asym = airy.airy_ratio(z)
        assert abs(direct - asym)/abs(direct) <= 1e-3

    def test_degeneracy_near_zero_of_ai(self):
        # first zero of Ai is near -2.3381074; tiny offsets trip the guard
        with pytest.raises(DomainError, match="too close to a zero of Ai"):
            airy.airy_ratio(-2.33810741045977 + 1e-14j)

    def test_no_false_alarm_in_decay_region(self):
        # Ai(12) ~ 3e-13 but is nowhere near a zero; must not raise
        val = airy.airy_ratio(12.0)
        assert np.isfinite(val)
        assert val.real < 0

    def test_vectorized_matches_scalar(self):
        zs = np.array([1.0 + 0.5j, 9.0*np.exp(-1j*np.pi/3), 25.0 + 0j])
        vec = airy.airy_ratio(zs)
        for i, z in enumerate(zs):
            assert vec[i] == airy.airy_ratio(complex(z))


def _ratio_mpmath(z):
    """Ai'(z)/Ai(z) in 30-digit arithmetic."""
    with mp.workdps(30):
        z = mp.mpc(z)
        return complex(mp.airyai(z, derivative=1)/mp.airyai(z))


class TestRatioSeries:
    """airy_ratio beyond the crossover: the DLMF 9.7.5/9.7.6 quotient."""

    # from |z| = 8; |8 e^{i theta}| may round below it
    _MODS = np.geomspace(8.0*(1.0 + 1e-12), airy.R_MAX, 7)
    _ARGS = np.linspace(-2*np.pi/3, 2*np.pi/3, 13)

    def test_matches_mpmath_in_its_sector(self):
        z = (self._MODS[:, None]*np.exp(1j*self._ARGS)).ravel()
        got = airy.airy_ratio(z)
        ref = np.array([_ratio_mpmath(v) for v in z])
        # |z| = 8 sums through u_24; the Stokes lines arg z = +-2 pi/3
        # carry the neglected exponential, ~1e-13 there
        edge = np.abs(np.angle(z)) > np.pi/2
        bound = np.where(edge, 2e-13, 5e-14)
        assert np.all(np.abs(got - ref) <= bound*np.abs(ref))

    def test_sector_makes_no_amos_call(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("sp.airye called in the series sector")
        monkeypatch.setattr(airy.sp, "airye", refuse)
        z = (self._MODS[:, None]*np.exp(1j*self._ARGS)).ravel()
        assert np.all(np.isfinite(airy.airy_ratio(z)))
        # e^{-i pi/3} q with q < 0 is on arg z = 2 pi/3 up to rounding
        q = -np.linspace(self._MODS[0], airy.R_MAX, 50)
        assert np.all(np.isfinite(airy.airy_ratio(np.exp(-1j*np.pi/3)*q)))

    @pytest.mark.parametrize("z", [-20.0, -30.0 + 0.1j, -8.0, -40.0,
                                   12.0*np.exp(2.2j), 39.0*np.exp(-2.9j),
                                   9.0*np.exp(-2.1j), -2.3381 - 8.0j])
    def test_outside_the_sector_matches_mpmath(self, z):
        # the series holds only for |arg z| < pi; near the negative axis
        # the ratio comes from AMOS
        ref = _ratio_mpmath(z)
        assert abs(airy.airy_ratio(z) - ref) <= 1e-12*abs(ref)

    def test_outside_the_sector_beyond_r_max_raises(self):
        with pytest.raises(DomainError, match="R_MAX"):
            airy.airy_ratio(-50.0)
        with pytest.raises(DomainError, match="R_MAX"):
            airy.airy_ratio(np.array([60.0, 45.0*np.exp(2.5j)]))
        # inside the sector the series needs no disk
        assert np.isfinite(airy.airy_ratio(60.0*np.exp(-1j*np.pi/3)))


class TestRatioNearRay:
    """airy_ratio within |Im q| <= 0.25 of the ray z = e^{-i pi/3} q."""

    @staticmethod
    def _band_points():
        # q = 0, both signs of Im q up to the band's edge, and points just
        # inside |z| = 8 on both sides of the ray; the edge is pulled in by
        # 1e-9 so that rounding in q -> z -> q keeps it in the band
        band = airy._RAY_BAND*(1.0 - 1e-9)
        re = np.linspace(-7.95, 7.95, 33)
        im = np.linspace(-band, band, 11)
        q = (re[:, None] + 1j*im[None, :]).ravel()
        b = np.array([band, 0.1, -0.1, -band])
        edge = np.sqrt((8.0*(1.0 - 1e-12))**2 - b*b)
        q = np.concatenate([q, edge + 1j*b, -edge + 1j*b])
        z = np.exp(-1j*np.pi/3)*q
        assert np.all(np.abs(z) < airy.RATIO_CROSSOVER)
        return z

    def test_matches_mpmath_without_amos(self, monkeypatch):
        # measured: 2.0e-15 at q = -7.95 + 0.25i, 3e-16 median
        def refuse(*args):
            raise AssertionError("sp.airye called near the ray")
        monkeypatch.setattr(airy.sp, "airye", refuse)
        z = self._band_points()
        got = airy.airy_ratio(z)
        ref = np.array([_ratio_mpmath(v) for v in z])
        assert np.all(np.abs(got - ref) <= 1e-13*np.abs(ref))

    def test_outside_the_band_is_amos(self):
        # |Im q| = 0.3: the quotient of the two AMOS values, bit for bit
        z = np.exp(-1j*np.pi/3)*(np.linspace(-7.0, 7.0, 15) + 0.3j)
        eai, eaip, _, _ = airye(z)
        assert np.array_equal(airy.airy_ratio(z), eaip/eai)


def _scaled_ai_mpmath(q):
    """Ai(z) exp((2/3) z^{3/2}) at z = e^{-i pi/3} q in 40-digit arithmetic."""
    with mp.workdps(40):
        z = mp.exp(-1j*mp.pi/3)*mp.mpf(q)
        return complex(mp.airyai(z)*mp.exp(mp.mpf(2)/3*z**mp.mpf(1.5)))


# both sides of the branch switch |q| = RATIO_CROSSOVER, on both halves of
# the ray
_R = airy.RATIO_CROSSOVER
_RAY_EDGES = [s*r for s in (-1.0, 1.0)
              for r in (_R*(1.0 - 1e-12), _R, _R*(1.0 + 1e-12), _R - 1e-3,
                        _R + 1e-3)]


class TestScaledOnRay:
    @pytest.mark.parametrize("q", list(np.linspace(-60.0, 60.0, 121))
                             + _RAY_EDGES
                             + [0.0, 1e-300, -1e-300, 1e-8, -1e-8])
    def test_matches_mpmath(self, q):
        ref = _scaled_ai_mpmath(q)
        got = airy.ai_scaled_on_ray(q)
        assert abs(got - ref) <= 1e-12*abs(ref)

    def test_zero_is_ai0(self):
        assert abs(airy.ai_scaled_on_ray(0.0) - AI0) <= 1e-15

    def test_agrees_with_amos_on_mixed_array(self):
        q = np.linspace(-40.0, 40.0, 2001).reshape(3, 667)
        ref = airye(np.exp(-1j*np.pi/3)*q)[0]
        got = airy.ai_scaled_on_ray(q)
        assert got.shape == q.shape
        assert np.max(np.abs(got - ref)/np.abs(ref)) <= 1e-12

    def test_scalar_in_scalar_out(self):
        assert np.ndim(airy.ai_scaled_on_ray(3.0)) == 0
        assert np.ndim(airy.ai_scaled_on_ray(30.0)) == 0

    def test_ray_exponent_is_principal_branch(self):
        q = np.array([-20.0, -1.0, 0.0, 1.0, 20.0])
        z = np.exp(-1j*np.pi/3)*q
        ref = (2.0/3.0)*z*np.sqrt(z)
        assert np.allclose(airy.ray_exponent(q), ref, rtol=1e-14, atol=0.0)

    # q-bands in which a call whose least |q| is the band's lower end sums
    # through u_n, for n = 5, 7, 10, 16 and 24
    _ORDER_BANDS = {5: (85.4, 173.8), 7: (36.6, 52.1), 10: (19.4, 22.7),
                    16: (11.72, 12.31), 24: (8.0, 9.66)}

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("order", sorted(_ORDER_BANDS))
    def test_truncated_series_matches_mpmath(self, order, sign):
        lo, hi = self._ORDER_BANDS[order]
        q = sign*np.linspace(lo, hi, 25)
        assert airy._series_order((2.0/3.0)*lo**1.5) == order
        got = airy.ai_scaled_on_ray(q)
        ref = np.array([_scaled_ai_mpmath(v) for v in q])
        # the first neglected term (DLMF 9.7(iv)), the exponential dropped
        # on the Stokes line (q < 0) and a few ulp of rounding
        r = (2.0/3.0)*np.abs(q)**1.5
        u = airy._U_COEFFS
        u_next = (u[order + 1] if order < airy.MAX_ASYMPTOTIC_ORDER
                  else u[-1]*(6*order + 1)*(6*order + 5)/(72.0*(order + 1)))
        bound = (u_next/r**(order + 1) + np.exp(-2.0*r)*(sign < 0)
                 + 2e-15)
        assert np.all(np.abs(got - ref) <= bound*np.abs(ref))

    def test_series_order_is_monotone_in_r(self):
        r = np.geomspace((2.0/3.0)*airy.RATIO_CROSSOVER**1.5, 1e17, 2000)
        orders = [airy._series_order(v) for v in r]
        assert orders[0] == airy.MAX_ASYMPTOTIC_ORDER and orders[-1] == 0
        assert all(a >= b for a, b in zip(orders, orders[1:]))
        # the chosen order's first neglected term is below 2^-56 ...
        for v, n in zip(r, orders):
            if n < airy.MAX_ASYMPTOTIC_ORDER:
                assert airy._U_COEFFS[n + 1]/v**(n + 1) < 2.0**-56
            # ... and one order fewer would not do
            if n > 0:
                assert airy._U_COEFFS[n]/v**n >= 2.0**-56

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.lists(st.tuples(st.sampled_from([1.0, -1.0]),
                              st.floats(8.0, 1e3)), min_size=1, max_size=12),
           st.sampled_from([1.0, -1.0]))
    def test_array_evaluation_matches_pointwise(self, points, sign8):
        # the |q| = 8 point makes the array call sum through u_24, while
        # alone each point may stop after a few terms
        q = np.array([sign8*8.0] + [s*m for s, m in points])
        whole = airy.ai_scaled_on_ray(q)
        alone = np.array([airy.ai_scaled_on_ray(v) for v in q])
        assert np.all(np.abs(whole - alone) <= 4e-15*np.abs(alone))


def _ray_ratio_mpmath(q):
    return _ratio_mpmath(mp.exp(-1j*mp.pi/3)*mp.mpf(q))


class TestRatioOnRay:
    @staticmethod
    def _bound(q):
        # a few ulp, and on the Stokes line (q <= -8) the neglected
        # exponential exp(-(4/3)|q|^{3/2}), 8e-14 at |q| = 8
        q = np.asarray(q, dtype=float)
        r = (2.0/3.0)*np.abs(q)**1.5
        stokes = (q <= -airy.RATIO_CROSSOVER)*4.0*np.exp(-2.0*r)
        return 3e-14 + stokes

    @pytest.mark.parametrize("q", list(np.linspace(-60.0, 100.0, 81))
                             + _RAY_EDGES + [0.0, 1e-8, -1e-8, 0.5, -0.5])
    def test_matches_mpmath(self, q):
        ref = _ray_ratio_mpmath(q)
        got = airy.ratio_on_ray(q)
        assert abs(got - ref) <= self._bound(q)*abs(ref)

    def test_zero_is_ai_prime_over_ai(self):
        assert abs(airy.ratio_on_ray(0.0) - AIP0/AI0) <= 4e-16*abs(AIP0/AI0)

    def test_two_dimensional_array(self):
        q = np.linspace(-30.0, 70.0, 60).reshape(4, 15)
        got = airy.ratio_on_ray(q)
        assert got.shape == q.shape
        ref = np.array([[_ray_ratio_mpmath(v) for v in row] for row in q])
        assert np.all(np.abs(got - ref) <= self._bound(q)*np.abs(ref))
        assert np.ndim(airy.ratio_on_ray(3.0)) == 0
        assert np.ndim(airy.ratio_on_ray(30.0)) == 0

    def test_agrees_with_airy_ratio_on_the_ray(self):
        # for |q| < 8 airy_ratio on the ray is ratio_on_ray itself, and
        # beyond both sum the same series, so the reference is the quotient
        # of the two AMOS values, written out here; AMOS is good to ~5e-14
        # for |q| < 8 (beyond, on the Stokes line, ratio_on_ray is the
        # better of the two: TestRatioOnRay.test_matches_mpmath)
        q = np.linspace(-7.8, 7.8, 79)
        z = np.exp(-1j*np.pi/3)*q
        eai, eaip, _, _ = airye(z)
        ref = eaip/eai
        for got in (airy.ratio_on_ray(q), airy.airy_ratio(z)):
            assert np.all(np.abs(got - ref) <= 1e-13*np.abs(ref))

    def test_real_airy_stays_below_ray_radius(self, monkeypatch):
        # scipy's real airy hands |w| > 10 to AMOS; the near branch stops
        # at |q| = 8, and nothing calls the complex AMOS routine
        seen = []
        real_airy = airy.sp.airy

        def record(w):
            seen.append(np.max(np.abs(w)))
            return real_airy(w)

        def refuse(*args):
            raise AssertionError("sp.airye called on the ray")
        monkeypatch.setattr(airy.sp, "airy", record)
        monkeypatch.setattr(airy.sp, "airye", refuse)
        airy.ratio_on_ray(np.linspace(-100.0, 100.0, 2001))
        assert seen and max(seen) < airy.RATIO_CROSSOVER
