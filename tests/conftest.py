"""Shared oracle: the Airy function by its Maclaurin series at high precision.

The oracle deliberately avoids the code paths it checks: it sums the
series in 40-digit arithmetic from the exact gamma constants.  The ODE
oracles of the tests (the flow, the variational and the on-shell frame)
run on the RK4 engine of :mod:`grazebeam.verification`, which
``tests/test_raybeam.py`` checks against a step-by-step RK4 loop.
"""

import mpmath as mp
import pytest
import scipy.special


def series_airy(z, dps=40, min_terms=40, max_terms=400):
    """(Ai(z), Ai'(z)) by Maclaurin series at high precision.

    Coefficients follow a_n = a_{n-3} / (n (n-1)) from the ODE w'' = z w,
    seeded with the exact constants Ai(0) = 3^{-2/3}/Gamma(2/3) and
    Ai'(0) = -3^{-1/3}/Gamma(1/3).
    """
    with mp.workdps(dps):
        zm = mp.mpc(z)
        coeffs = [mp.mpf(3)**mp.mpf("-2/3")/mp.gamma(mp.mpf("2/3")),
                  -mp.mpf(3)**mp.mpf("-1/3")/mp.gamma(mp.mpf("1/3")),
                  mp.mpf(0)]
        eps = mp.mpf(10)**(-dps - 8)
        val = mp.mpc(0)
        der = mp.mpc(0)
        zn = mp.mpc(1)       # z^n
        znm1 = mp.mpc(0)     # z^(n-1)
        recent = [mp.inf, mp.inf, mp.inf]
        n = 0
        while n < max_terms:
            if n >= 3:
                coeffs.append(coeffs[n - 3]/(n*(n - 1)))
            term = coeffs[n]*zn
            val += term
            if n >= 1:
                der += n*coeffs[n]*znm1
            recent[n % 3] = abs(term)
            # every third coefficient vanishes, so require a full window
            if n > min_terms and max(recent) < eps*(1 + abs(val)):
                break
            znm1 = zn
            zn = zn*zm
            n += 1
        return complex(val), complex(der)


@pytest.fixture(scope="session")
def airy_series_oracle():
    return series_airy


@pytest.fixture
def no_scipy_airy(monkeypatch):
    """Make every call of scipy's Airy routines fail the test.

    The kernels import ``scipy.special`` where they call it, so patching the
    module reaches every call.
    """
    def refuse(*args, **kwargs):
        raise AssertionError("scipy Airy routine called")
    for name in ("airy", "airye", "itairy"):
        monkeypatch.setattr(scipy.special, name, refuse)
