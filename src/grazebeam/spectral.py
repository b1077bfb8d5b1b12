"""Airy-quotient representation of the wave reflected by the boundary x = 0.

For boundary data f on x = 0 the solution of (1+x) u_tt = u_xx + u_yy with
u = 0 for t << 0 is

    w(x, y, t) = (2 pi)^{-2} int e^{i(y eta + t tau)}
                 Ai(zeta(x, eta, tau)) / Ai(zeta(0, eta, tau))
                 fhat(eta, tau) d eta d tau,

with zeta = beta (1 + x - eta^2/tau^2), beta^3 = -tau^2 and the branch of
beta fixed by boundedness in Im tau < 0.  This module provides zeta and its
branch bookkeeping, the exponent of the boundary transform fhat of the beam
trace (with the beam frame frozen at y = 0 and with the full frame), the
four-variable phase and amplitude of the oscillatory-integral form obtained
after stretching (eta, tau) = k (mu, nu) and inverting Ai through the
constant Wronskian, and a direct numerical evaluation of w from the
three-fold (z, mu, nu) representation.  The direct evaluation is the
top-level oracle against which the asymptotic routes are checked.

Convention: fractional powers of the negative variable nu are taken as
powers of |nu| = -nu, analytically continued to complex nu near -1 through
principal powers of (-nu).  :func:`neg_power` owns this rule.
"""

from __future__ import annotations

import math

import numpy as np

from . import airy
from .errors import DomainError
# integrate_1d: read by perfbench/test_perfbench.py::test_wrappers_reach_rebound_names_and_are_removed
from .quadrature import QuadratureResult, integrate_1d, kronrod_panels
from .raybeam import closed_frame

__all__ = [
    "airy_quotient",
    "amplitude_Z",
    "boundary_exponent_frozen",
    "boundary_exponent_full",
    "boundary_prefactor_full",
    "exact_solution",
    "neg_power",
    "phase_full",
    "scaled_branch",
    "zeta",
]


def neg_power(nu, alpha: float):
    """|nu|^alpha for real nu < 0, continued as (-nu)^alpha (principal) off axis.

    Elementwise, scalars too, in polar form |nu|^alpha e^{i alpha arg(-nu)}.
    """
    return np.abs(nu)**alpha*np.exp(1j*alpha*np.angle(-np.asarray(nu)))


def zeta(x: float, eta: float, tau: float) -> complex:
    """zeta(x, eta, tau) = beta (1 + x - eta^2/tau^2) on the bounded branch.

    beta = |tau|^{2/3} e^{+i pi/3} for tau > 0 and |tau|^{2/3} e^{-i pi/3}
    for tau < 0, so that Re beta^{3/2} >= 0 and the Airy quotient stays
    bounded for x > 0; beta itself is zeta(0, 0, tau).
    """
    if tau == 0:
        raise DomainError("tau = 0: zeta undefined")
    beta = abs(tau)**(2.0/3.0)*np.exp(1j*np.pi/3.0*np.sign(tau))
    return complex(beta*(1.0 + x - eta*eta/(tau*tau)))


def scaled_branch(x, mu, nu, k: float):
    """(s, q(x), q(0)) of the bounded branch at (eta, tau) = k (mu, nu).

    beta = (|nu| k)^{2/3} e^{-i pi/3} = e^{-i pi/3} s, and
    zeta(x, k mu, k nu) = e^{-i pi/3} q(x) with q(x) = s (1 + x - mu^2/nu^2);
    (2/3) zeta^{3/2} is :func:`airy.ray_exponent` of q.  s and q are real
    for real nu < 0 (floats or arrays); complex nu continues |nu|^{2/3}
    through :func:`neg_power`.
    """
    scale = (k**(2.0/3.0)*neg_power(nu, 2.0/3.0) if np.iscomplexobj(nu)
             else (-nu*k)**(2.0/3.0))
    m2 = (mu/nu)**2
    return scale, scale*(1.0 + x - m2), scale*(1.0 - m2)


def airy_quotient(x, mu, nu, k: float):
    """Ai(zeta(x, k mu, k nu)) / Ai(zeta(0, k mu, k nu)), array-safe and stable.

    Both arguments lie on the ray e^{-i pi/3} q with q real: q = (|nu| k)^{2/3}
    (1 + x - mu^2/nu^2) and the same without x.  The exponentially scaled
    values of :func:`airy.ai_scaled_on_ray` keep the quotient representable
    when numerator and denominator leave double range (large |zeta| with
    mu^2 > nu^2).  One broadcast expression over the whole input: the only
    block loop is the one over s-columns in :func:`exact_solution`.
    """
    x, mu, nu = (np.asarray(a, dtype=float) for a in (x, mu, nu))
    if np.any(nu >= 0):
        raise DomainError("airy_quotient is implemented for nu < 0")
    _, qx, q0 = scaled_branch(x, mu, nu, k)
    return (airy.ai_scaled_on_ray(qx)/airy.ai_scaled_on_ray(q0)
            * np.exp(airy.ray_exponent(q0) - airy.ray_exponent(qx)))


# ---------------------------------------------------------------------------
# boundary data
# ---------------------------------------------------------------------------

def boundary_exponent_frozen(z, mu, nu):
    """Frozen-frame boundary exponent rho with (eta, tau) = k (mu, nu).

    rho = nu t(z) + mu z + z^3/8 - i z^4/32 - i (nu + 1)^2 / 2, the frozen
    transform being fhat(k mu, k nu) = (2 pi/k)^{1/2} int e^{-i k rho} dz.
    """
    z = np.asarray(z, dtype=float)
    return (nu*(z + z**3/12.0) + mu*z + z**3/8.0 - 1j*z**4/32.0
            - 0.5j*(nu + 1.0)**2)


def boundary_exponent_full(z, mu, nu):
    """Full-frame boundary exponent using the y-dependent beam matrix.

    rho = nu t(z) + mu z + z^3/8 - z^4 M11(z)/32
          + (nu + 1 + z^2 M12(z)/4)^2 / (2 M22(z)).

    At nu = -1 the difference from the frozen exponent is O(z^5); the
    vertex entries M(0) = i I reduce it to the frozen form at z = 0.
    """
    z = np.asarray(z, dtype=float)
    _, M, _ = closed_frame(z)
    return (nu*(z + z**3/12.0) + mu*z + z**3/8.0 - z**4*M[0, 0]/32.0
            + (nu + 1.0 + z*z*M[0, 1]/4.0)**2/(2.0*M[1, 1]))


def boundary_prefactor_full(z, k: float):
    """Amplitude factor (2 pi / (-i k M22(z)))^{1/2} a(z) of the full transform.

    Scaled by k^{1/2} it deviates from (2 pi)^{1/2} by O(z).
    """
    _, M, a = closed_frame(np.asarray(z, dtype=float))
    return np.sqrt(2.0*np.pi/(-1j*k*M[1, 1]))*a


# ---------------------------------------------------------------------------
# stretched four-variable phase and amplitude
# ---------------------------------------------------------------------------

def phase_full(t: float, x: float, y: float, z: float,
               mu: float, nu: float, T: float) -> complex:
    """The stretched phase Phi(t, x, y, z, mu, nu, T).

    Phi = y mu + t nu - rho(z, mu, nu) + (2|nu|/3)(1 + x - mu^2/nu^2)^{3/2}
          - |nu|^{2/3}(1 - mu^2/nu^2) T + T^3/3

    for nu < 0 and 1 + x - mu^2/nu^2 >= 0, with rho from
    :func:`boundary_exponent_frozen`; the Airy and T terms are
    i :func:`airy.ray_exponent` (q(x)) - q(0) T with q from
    :func:`scaled_branch` at k = 1.
    """
    if nu >= 0:
        raise DomainError("phase requires nu < 0")
    scale, qx, q0 = scaled_branch(x, mu, nu, 1.0)
    if qx < 0:
        raise DomainError(
            "radicand 1 + x - mu^2/nu^2 = %.3g is negative" % (qx/scale))
    return complex(y*mu + t*nu - boundary_exponent_frozen(z, mu, nu)
                   + 1j*airy.ray_exponent(qx) - q0*T + T**3/3.0)


def amplitude_Z(k: float, x: float, mu, nu, T):
    """Leading amplitude Z(k, x, mu, nu, T) of the four-fold representation.

    Z = k^{11/6} / (sqrt(2) (2 pi)^3 W(0))
        * (i k^{1/3} T - omega Ai'/Ai(zeta(0, k mu, k nu)))
        * zeta(x, k mu, k nu)^{-1/4},

    without the O(k^{-1}) correction.  The bracket, integrated against
    e^{i k [-|nu|^{2/3}(1 - mu^2/nu^2) T + T^3/3]} k^{1/3} dT / (2 pi W(0)),
    reproduces 1/Ai(zeta(0, k mu, k nu)).  ``mu``, ``nu``, ``T`` may be
    complex near the steepest-descent point nu = -1 + iC; the |nu| powers
    continue via :func:`neg_power`.
    """
    if k <= 0:
        raise DomainError("k must be positive")
    _, qx, q0 = scaled_branch(x, mu, nu, k)
    front = k**(11.0/6.0)/(np.sqrt(2.0)*(2.0*np.pi)**3*airy.WRONSKIAN_ZERO)
    bracket = (1j*k**(1.0/3.0)*np.asarray(T)
               - airy.OMEGA*airy.airy_ratio(airy.RAY*q0))
    return front*bracket/np.sqrt(np.sqrt(airy.RAY*qx))


# ---------------------------------------------------------------------------
# direct evaluation of the reflected wave (the oracle)
# ---------------------------------------------------------------------------

def _window_rates(x, y, t, k, z_max, s_lo, s_hi, nu_half):
    """Rate profiles of the exponent on a 9^3 grid of the box, for u = z, s, nu.

    For each axis returns (u, rate): its 9 sample positions and, at each,
    the largest |dPhi/du| over the other two axes.  Phi = y mu + t nu -
    rho(z, mu, nu) + (quotient phase) at mu = s - nu is the one exponent of
    the oracle's integrand; central differences.
    """
    def phi(zsn):
        z, s, nu = zsn
        # ray_exponent is real where q < 0, so .imag keeps only q >= 0
        _, qx, q0 = scaled_branch(x, s - nu, nu, k)
        return (y*(s - nu) + t*nu - boundary_exponent_frozen(z, s - nu, nu)
                + (airy.ray_exponent(q0) - airy.ray_exponent(qx)).imag/k)

    axes = (np.linspace(-z_max, z_max, 9), np.linspace(s_lo, s_hi, 9),
            np.linspace(-1.0 - nu_half, -1.0 + nu_half, 9))
    box = np.array(np.meshgrid(*axes, indexing="ij"))
    h = 1e-5
    grads = (np.abs(phi(box + e) - phi(box - e))/(2.0*h)
             for e in h*np.eye(3)[:, :, None, None, None])
    return tuple((u, np.moveaxis(g, a, 0).reshape(9, -1).max(axis=1))
                 for a, (u, g) in enumerate(zip(axes, grads)))


#: most points in a block's nu x s quotient (218 and 156 s-columns at k = 1e3
#: and 1e4); 2^13 .. 2^17 time alike at k <= 1e3, 2^13 is slower at 1e4
_QUOTIENT_BLOCK = 1 << 14

#: oscillation cycles of the exponent per K15 panel, on every axis
_CYCLES_PER_PANEL = 3.0

#: most K15 panels on one axis; an axis that asks for more is clipped and
#: the result is flagged not converged
_AXIS_PANEL_CAP = 700

#: the z and nu windows end where e^{-k z^4/32} and e^{-k (nu+1)^2/2} fall
#: to these tails
_Z_TAIL = 1e-8
_NU_TAIL = 1e-8

#: largest k the oracle accepts: at (x, k) = (1, 1e4) on the ray a call
#: already takes 122,157 panels and 0.3 s, and the s axis clips for x >~ 40.5
_K_CAP = 1e4

#: the s-window pads the stationary set by max(floor, at_k40 (40/k)^{3/4})
_S_PAD_FLOOR = 0.2
_S_PAD_AT_K40 = 0.6


def _axis_nodes(profile, k, spare):
    """Kronrod nodes/weights (K and G variants) on graded panels.

    ``profile`` is (u, rate) from :func:`_window_rates`.  On each sample
    interval the rate is bounded by the largest of its 4 nearest samples;
    the panel edges invert the cumulative cycle count k/(2 pi) int bound du
    at equal steps, so that every panel spans the same number of cycles,
    at most _CYCLES_PER_PANEL, on ceil(cycles/_CYCLES_PER_PANEL) + ``spare``
    panels (4 at least; a flat profile gives equal panels).  nu takes no
    spare; z and s keep 2: with none on z the written-out reference cell
    (x, k, dy, dt) = (0.25, 1e3, -0.05, 0.02) reads 9.99e-11 of its 1e-10
    bound, and with none on s (1e-3, 40, 0, 0) reads 7.2e-11.  Returns
    (nodes, Kronrod weights, Gauss weights, panels, clipped); ``clipped``
    says that the axis asked for more than _AXIS_PANEL_CAP.
    """
    u, rate = profile
    near = np.arange(len(u) - 1)[:, None] + np.arange(-1, 3)
    bound = rate[np.clip(near, 0, len(u) - 1)].max(axis=1)
    cycles = np.concatenate(([0.0], np.cumsum(bound*np.diff(u))))
    cycles *= k/(2.0*math.pi)
    asked = math.ceil(cycles[-1]/_CYCLES_PER_PANEL) + spare
    n_panels = min(max(asked, 4), _AXIS_PANEL_CAP)
    edges = np.interp(np.linspace(0.0, cycles[-1], n_panels + 1), cycles, u)
    nodes, half, wk, wg = kronrod_panels(edges[:-1], edges[1:])
    return (nodes.ravel(), np.outer(half, wk).ravel(),
            np.outer(half, wg).ravel(), n_panels, asked > _AXIS_PANEL_CAP)


def exact_solution(x: float, y: float, t: float, k: float,
                   tol: float = 0.02) -> QuadratureResult:
    """Evaluate the reflected wave from its three-fold representation.

    Integrates (k/2 pi)^{3/2} times the (z, s, nu) integrand
    e^{i k Phi} Ai(zeta(x))/Ai(zeta(0)) with s = mu + nu, using the exact
    Airy quotient (no asymptotic substitutions).  Truncation windows come
    from the explicit Gaussian factors e^{-k z^4/32} and e^{-k (nu+1)^2/2}
    (tails _Z_TAIL and _NU_TAIL); the s window covers the stationary set of
    the phase with a pad max(0.2, 0.6 (40/k)^{3/4}), outside of which the
    phase is uniformly non-stationary.  The pad widens as k falls: a fixed
    0.2 left w 2e-4 off at (x, k) = (1e-3, 40).  Each axis is tiled with
    K15 panels graded to the local oscillation rate (:func:`_axis_nodes`),
    at most _CYCLES_PER_PANEL = 3 cycles each.  The value is T[0,0,0] of
    T[z rule, nu rule, s rule], the sums under each axis's Kronrod (0) or
    embedded Gauss (1) weights; the error estimate is the sum of its spreads
    from the three entries with one Gauss index and the nu-window truncation
    erfc(sqrt(ln(1/_NU_TAIL))) |value| (1.3e-9 |value|).  It overstates on
    the measured on-ray cells (7e-9 to 8e-5 relative at k = 40 to 1e3, where
    graded panels move w by at most 4.1e-12 from uniform ones) but is not a
    bound: it reads 5.7e-7 at (x, y, t, k) = (1e-8, -0.4, -0.5, 100), where
    w is about 1.1e-5 off and converged, and off the ray its nu term is 7x
    short of the nu-window truncation.  It measures the G7 rule, not the
    returned K15 sum, so it reads larger on graded panels, which are wide
    where the rate is low, yet far below ``tol``.  If the estimate exceeds
    ``tol`` relative, or an axis asks for more than _AXIS_PANEL_CAP = 700
    panels and is clipped, the result is returned flagged
    (``converged=False``) rather than raised; at k = 1e4 the cap clips s on
    the ray for x >~ 40.5 (512 panels asked at x = 10) and for X = k^{2/3} x
    near 20 (701-709 asked at x = 0.0416-0.0440, with estimates near 1.8e-7;
    698 at X = 19, 638 at X = 21).  The z-phase is odd
    and the damping even, F(nu, -z) = conj F(nu, z), so per block of
    s-columns (one :func:`airy_quotient` call each, the oracle's one block
    loop) the z-sum on the half axis [0, z_max] is one real product of
    [cos kzs; sin kzs] with the (2 n_nu) x (2 n_z) factor [Re F, Im F]
    (Kronrod over Gauss rows), the only array held whole: 0.6 MB at
    k = 1e3, 3.2 MB at 1e4; nu and s then contract into T.  ``panel_count``
    is the product pz ps pn, pz on the half axis (4,770 at (x, k) = (1, 1e3)).
    """
    if not all(map(math.isfinite, (x, y, t, k))):
        raise DomainError("x, y, t and k must be finite")
    if x <= 0:
        raise DomainError("the representation is evaluated in x > 0")
    if k <= 0:
        raise DomainError("k must be positive")
    z_max = (32.0*math.log(1.0/_Z_TAIL)/k)**0.25
    nu_half = math.sqrt(2.0*math.log(1.0/_NU_TAIL)/k)
    if nu_half >= 1.0:
        raise DomainError(
            "the oracle needs k > 2 ln(1/tail) = %.4g so that its nu-window "
            "-1 +- sqrt(2 ln(1/tail)/k) stays in nu < 0; got k = %g"
            % (2.0*math.log(1.0/_NU_TAIL), k))
    if k > _K_CAP:
        raise DomainError(
            "the oracle refuses k > %g: its three-fold quadrature budget "
            "grows too fast; use u-integral or z-integral instead" % _K_CAP)

    # s-window from the stationary set s* = nu (1 + r(x, y - z)) over the
    # damped part of the z-window (admissible y - z only)
    from .stationary import root_r
    span_lo = max(1e-6, y - 0.85*z_max)
    span_hi = min(y + 0.85*z_max, 2.0*math.sqrt(1.0 + x)*(1.0 - 1e-12))
    spans = np.linspace(span_lo, span_hi, 41)
    rvals = root_r(x, 0.0, -spans)
    s_star = np.concatenate([(-1.0 - nu_half)*(1.0 + rvals),
                             (-1.0 + nu_half)*(1.0 + rvals)])
    pad = max(_S_PAD_FLOOR, _S_PAD_AT_K40*(40.0/k)**0.75)
    s_lo, s_hi = float(s_star.min() - pad), float(s_star.max() + pad)

    (zu, z_rate), s_rate, nu_rate = _window_rates(x, y, t, k, z_max, s_lo,
                                                  s_hi, nu_half)
    # z on the half axis [0, z_max], under the larger rate of +-z
    zn, wzk, wzg, pz, z_clip = _axis_nodes(
        (zu[4:], np.maximum(z_rate[4:], z_rate[4::-1])), k, 2)
    sn, wsk, wsg, ps, s_clip = _axis_nodes(s_rate, k, 2)
    nn, wnk, wng, pn, nu_clip = _axis_nodes(nu_rate, k, 0)

    # e^{ik Phi} = Pnu(nu) F(nu,z) e^{-ikzs} Q(nu,s) FS(s) by rho(z, mu, nu) =
    # rho(z, -nu, nu) + s z and e^{ik y mu} = e^{ik y s} e^{-ik y nu}
    F = 2.0*np.exp(-1j*k*boundary_exponent_frozen(zn, -nn[:, None],
                                                   nn[:, None]))
    FZ = np.block([[F.real*wzk, F.imag*wzk], [F.real*wzg, F.imag*wzg]])
    WS = np.stack([wsk, wsg], axis=1)*np.exp(1j*k*y*sn)[:, None]  # FS
    P = np.stack([wnk, wng])*np.exp(1j*k*(t - y)*nn)  # Pnu

    # T[z rule, nu rule, s rule], rule 0 Kronrod and 1 Gauss
    T = np.zeros((2, 2, 2), dtype=complex)
    nz = len(zn)
    cols = max(1, _QUOTIENT_BLOCK//len(nn))
    for j in range(0, len(sn), cols):
        blk = slice(j, j + cols)
        phase = np.outer(k*zn, sn[blk])
        CS = np.empty((2*nz, phase.shape[1]))
        np.cos(phase, out=CS[:nz])
        np.sin(phase, out=CS[nz:])
        Q = airy_quotient(x, sn[blk] - nn[:, None], nn[:, None], k)
        T += (P @ ((FZ @ CS).reshape(2, len(nn), -1)*Q)) @ WS[blk]

    pref, v = (k/(2.0*math.pi))**1.5, T[0, 0, 0]
    value = pref*v
    err = (pref*(abs(v - T[1, 0, 0]) + abs(v - T[0, 0, 1])
                 + abs(v - T[0, 1, 0]))
           + math.erfc(math.sqrt(math.log(1.0/_NU_TAIL)))*abs(value))
    clipped = z_clip or s_clip or nu_clip
    converged = err <= tol*(1.0 + abs(value)) and not clipped
    return QuadratureResult(complex(value), float(err), z_max,
                            pz*ps*pn, bool(converged))
