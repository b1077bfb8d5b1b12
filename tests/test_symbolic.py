"""Taylor data at the grazing set, derived symbolically with sympy.

sympy expands ``root_r``'s closed form and the reduced phase in z about
the grazing point, for symbolic x = s^2 > 0, and the ladders of
:mod:`grazebeam.stationary` are checked against the exact coefficients:
as closed forms, and at floating x to 4 ulp of values evaluated at 50
digits.
"""

import math

import mpmath as mp
import pytest
import sympy as sp

from grazebeam import stationary

S, Z = sp.symbols("s z", positive=True)

#: x of the 4-ulp checks, 1e-4 to 1e4; near x = 1 see TestNearXOne
XS = (1e-4, 0.01, 0.25, 2.0, 4.0, 9.0, 100.0, 1e4)
ULPS = 4


@pytest.fixture(scope="session")
def ladders():
    """Raw z-derivatives of orders 0-4 of r and of phi, in s = sqrt(x).

    The base point is (x, y) = (s^2, 2s), so y - z = 2s - z and z = 0 lies
    on the grazing set 4x = (y - z)^2.  phi's coefficients through z^4 need
    r's only through z^4, so phi is expanded with r's truncated series in
    place of r, which keeps the derivation near a second.
    Returns (r ladder, phi ladder, truncated series of r).
    """
    w, x = 2*S - Z, S**2
    r = -w*sp.sqrt((x/2 + 1 + sp.sqrt(1 + x - w**2/4))/(2*(x**2 + w**2)))
    r_d = _raw_derivatives(r)
    r_poly = sum(c*Z**n/sp.factorial(n) for n, c in enumerate(r_d))
    phi = -Z + r_poly*w + w**3/(48*r_poly**3) + r_poly*x**2/w
    return r_d, _raw_derivatives(phi), r_poly


def _raw_derivatives(expr):
    series = sp.series(expr, Z, 0, 5).removeO()
    return [sp.factor(series.coeff(Z, n)*sp.factorial(n)) for n in range(5)]


def _assert_ulps(got, exact, x):
    """|got - exact(sqrt x)| within ULPS ulp of the exact value."""
    with mp.workdps(50):
        want = sp.lambdify(S, exact, "mpmath")(mp.sqrt(mp.mpf(x)))
        if want == 0:
            assert got == 0.0
        else:
            err = abs(mp.mpf(float(got)) - want)
            assert err <= ULPS*math.ulp(float(want)), (x, got, want)


class TestLadders:
    def test_root_solves_the_stationary_quartic(self, ladders):
        # r^4 (x^2 + w^2) - r^2 (x/2 + 1) w^2 + w^4/16 = 0, w = y - z, holds
        # for the expansion of the closed form through z^4
        *_, r = ladders
        w, x = 2*S - Z, S**2
        quartic = r**4*(x**2 + w**2) - r**2*(x/2 + 1)*w**2 + w**4/16
        expanded = sp.expand(quartic)
        assert all(sp.simplify(expanded.coeff(Z, n)) == 0 for n in range(5))

    def test_closed_forms(self, ladders):
        r_d, phi_d, _ = ladders
        q = sp.Rational
        r_doc = [-1, 0, q(1, 4), q(3, 8)*(1/S - S),
                 q(15, 16)*(S**2 - 1 + 1/S**2)]
        phi_doc = [-2*S - q(2, 3)*S**3, 0, 0, q(-1, 4), q(3, 8)*(S - 1/S)]
        for got, doc in zip(r_d + phi_d, r_doc + phi_doc):
            assert sp.simplify(got - doc) == 0

    @pytest.mark.parametrize("x", XS)
    def test_series_r(self, ladders, x):
        for got, exact in zip(stationary.series_r(x), ladders[0]):
            _assert_ulps(got, exact, x)

    @pytest.mark.parametrize("x", XS)
    def test_series_phi(self, ladders, x):
        for got, exact in zip(stationary.series_phi(x), ladders[1]):
            _assert_ulps(got, exact, x)

    @pytest.mark.parametrize("x", XS)
    def test_quartic_coefficient(self, ladders, x):
        # a = (B_zzzz - phi_zzzz)/24 with B = -z^3/8 + i z^4/32
        b_zzzz = sp.diff(-Z**3/8 + sp.I*Z**4/32, Z, 4)
        a = (b_zzzz - ladders[1][4])/24
        assert sp.im(a) == sp.Rational(1, 32)
        got = stationary.quartic_coefficient(x)
        _assert_ulps(got.real, sp.re(a), x)
        _assert_ulps(got.imag, sp.im(a), x)


class TestNearXOne:
    """The third-order r and fourth-order phi keep their digits as x -> 1.

    Written as (3/8)(1/sqrt(x) - sqrt(x)) they cancelled there: 6.5 ulp off
    at x = 0.9 and 185 at 1.01.
    """

    @pytest.mark.parametrize("x", [0.9, 1.01])
    def test_third_order_keeps_its_digits(self, ladders, x):
        _assert_ulps(stationary.series_r(x)[3], ladders[0][3], x)
        _assert_ulps(stationary.series_phi(x)[4], ladders[1][4], x)
