"""Adaptive quadrature for Gaussian/quartically damped oscillatory integrands.

The integrals in this package all carry explicit damping of the form
exp(-a*u**p) with p in {2, 4}, which makes truncated panel quadrature on a
finite window sufficient even at large oscillation scales.  The engine uses
embedded Gauss7/Kronrod15 panels, splits the worst panels until the summed
error estimate meets the tolerance, and always accumulates panels in
left-endpoint order so results are bit-stable.  An integrand may be
vector-valued, returning shape (..., n) at n nodes: the batch shares one
panel set, refined where its largest member error sits.

A rotated-ray variant integrates entire integrands along the bent contour
(arg = pi - theta) -> 0 -> (arg = theta), which converts cubic-phase
oscillation (Airy-type integrals) into exponential decay.

Every engine returns a :class:`QuadratureResult`; a spent panel budget is
a ``converged=False`` flag on the best estimate, never an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np
from scipy.special import wrightomega

from .errors import DomainError

__all__ = [
    "DampingProfile",
    "IntegrandSpec",
    "QuadratureResult",
    "integrate_1d",
    "integrate_nd",
    "kronrod_panels",
    "rotated_ray_integral",
    "truncation_radius",
]

# 15-point Kronrod nodes (positive half) with embedded 7-point Gauss rule.
_XGK = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
])
_WGK = np.array([
    0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
])
_WG = np.array([
    0.1294849661688697, 0.2797053914892767,
    0.3818300505051189, 0.4179591836734694,
])

# full 15-node layout: [-x0 .. -x6, 0, x6 .. x0]
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_WK_FULL = np.concatenate([_WGK[:-1], _WGK[::-1]])
_WG_FULL = np.zeros(15)
_WG_FULL[1:-1:2] = np.concatenate([_WG[:-1], _WG[::-1]])

_MAX_PANELS = 20000


@dataclass(frozen=True)
class DampingProfile:
    """Damping factor exp(-coefficient*|u|**power) bounding the tail.

    ``scale`` (finite and positive) bounds the integrand prefactor relative
    to its peak and enters the tail estimate multiplicatively.
    """

    coefficient: float
    power: int = 2
    scale: float = 1.0

    def __post_init__(self):
        if not 0 < self.coefficient < math.inf:
            raise DomainError("damping coefficient must be positive")
        if self.power not in (2, 3, 4):
            raise DomainError("damping power must be 2, 3 or 4")
        if not 0 < self.scale < math.inf:
            raise DomainError("damping scale must be finite and positive")


@dataclass(frozen=True)
class IntegrandSpec:
    """A vectorized complex integrand with damping and oscillation metadata.

    ``evaluator`` maps an ndarray of abscissae to integrand values.  For
    multi-dimensional integration it receives one broadcastable array per
    axis and ``damping_profile`` is a tuple, one profile per axis.
    ``oscillation_scale`` is an upper bound on |d(phase)/du| and fixes the
    initial panel density.
    """

    evaluator: Callable[..., np.ndarray]
    damping_profile: Union[DampingProfile, Sequence[DampingProfile]]
    oscillation_scale: float = 1.0


@dataclass(frozen=True)
class QuadratureResult:
    """An integral with its error estimate, window radius and panel count.

    value and error_estimate take the leading shape of a vector-valued
    integrand (a complex and a float for a scalar one); the window, panel
    count and flag are the batch's.  ``converged`` is False when a member
    missed tol within ``_MAX_PANELS`` panels, or when a route was asked
    outside its regime; value and error_estimate are then the best so far.
    """

    value: Union[complex, np.ndarray]
    error_estimate: Union[float, np.ndarray]
    truncation_radius: float
    panel_count: int
    converged: bool


def truncation_radius(damping_coefficient: float, power: int, tail_tol: float,
                      scale: float = 1.0) -> float:
    """Least radius R with scale * int_{|u|>R} exp(-a u^p) du <= tail_tol.

    By the bound int_R^inf exp(-a u^p) du <= exp(-a R^p)/(p a R^(p-1)),
    v = a R^p solves e^{-v} v^{-b} = e^{-L} with b = (p-1)/p and L =
    ln(2 scale/(p tail_tol)) - (ln a)/p, so R = (b omega(L/b - ln b)/a)^{1/p}
    by the Wright omega function (Corless and Jeffrey 2002), raised by the
    few ulp that make the bound hold in floating point; R = 0 where v
    underflows, as the whole integral is then below tail_tol.  Monotone
    decreasing in the coefficient.  Raises :class:`DomainError` where
    :class:`DampingProfile` does, and when R exceeds 1e8.
    """
    DampingProfile(damping_coefficient, power, scale)  # its entry checks
    if not tail_tol > 0:
        raise DomainError("tail tolerance must be positive")
    a, p, c = damping_coefficient, power, scale
    b, L = (p - 1)/p, math.log(2*c/p) - math.log(tail_tol) - math.log(a)/p
    R = (b*float(wrightomega(L/b - math.log(b)))/a)**(1/p)
    if not R <= 1e8:
        raise DomainError("no truncation radius up to 1e8 meets the tail "
                          "bound (coefficient %.3g, power %d)" % (a, p))
    while R > 0 and 2*c*math.exp(-a*R**p)/(p*a*R**(p - 1)) > tail_tol:
        R = math.nextafter(R, math.inf)
    return R


def kronrod_panels(lefts: np.ndarray, rights: np.ndarray):
    """The K15/G7 layout on panels [lefts[i], rights[i]].

    Returns the nodes (panels x 15), the half-widths, and the Kronrod and
    embedded-Gauss weights on [-1, 1] in node order (Gauss weights are zero
    off the Gauss nodes): panel i integrates f to
    half[i] * sum_j w[j] f(nodes[i, j]).
    """
    half = 0.5*(rights - lefts)
    mid = 0.5*(rights + lefts)
    return mid[:, None] + half[:, None]*_NODES, half, _WK_FULL, _WG_FULL


def _panel_sums(f: Callable[[np.ndarray], np.ndarray],
                lefts: np.ndarray, rights: np.ndarray):
    """Kronrod sums and error estimates per panel, keeping f's leading axes."""
    pts, half, wk, wg = kronrod_panels(lefts, rights)
    vals = np.asarray(f(pts.ravel()), dtype=complex)
    vals = vals.reshape(vals.shape[:-1] + pts.shape)
    k15 = (vals @ wk)*half
    g7 = (vals @ wg)*half
    return k15, np.abs(k15 - g7)


def _adapt(f, lo, hi, tol, oscillation_scale) -> QuadratureResult:
    """Refine K15 panels on [lo, hi]; hi is the reported window radius."""
    n0 = int(np.clip(math.ceil((hi - lo)*oscillation_scale/(2*math.pi)/1.5),
                     8, 4096))
    edges = np.linspace(lo, hi, n0 + 1)
    lefts, rights = edges[:-1], edges[1:]
    k15, err = _panel_sums(f, lefts, rights)

    while True:
        total = np.sum(k15[..., np.argsort(lefts, kind="stable")], axis=-1)
        total_err = err.sum(axis=-1)
        converged = bool(np.all(total_err <= 0.5*tol*(1.0 + abs(total))))
        if converged or len(lefts) >= _MAX_PANELS:
            return QuadratureResult(
                total, total_err if total_err.ndim else float(total_err), hi,
                len(lefts), converged)
        # split the worst ~12% of panels by their largest member error, at
        # least one, within the budget
        n_split = max(1, min(len(lefts)//8, _MAX_PANELS - len(lefts)))
        worst = np.argsort(err.reshape(-1, len(lefts)).max(axis=0),
                           kind="stable")[-n_split:]
        keep = np.setdiff1d(np.arange(len(lefts)), worst)
        mids = 0.5*(lefts[worst] + rights[worst])
        new_l = np.concatenate([lefts[worst], mids])
        new_r = np.concatenate([mids, rights[worst]])
        k15_new, err_new = _panel_sums(f, new_l, new_r)
        lefts = np.concatenate([lefts[keep], new_l])
        rights = np.concatenate([rights[keep], new_r])
        k15 = np.concatenate([k15[..., keep], k15_new], axis=-1)
        err = np.concatenate([err[..., keep], err_new], axis=-1)


def _window(spec: IntegrandSpec, tol: float) -> float:
    """Entry checks of the 1-d engines; the radius for tail tol/10."""
    if not 0 < tol < 1:
        raise DomainError("tol must lie in (0, 1)")
    prof = spec.damping_profile
    if not isinstance(prof, DampingProfile):
        raise TypeError("expected a single DampingProfile")
    return truncation_radius(prof.coefficient, prof.power, tol/10.0,
                             prof.scale)


def integrate_1d(spec: IntegrandSpec, tol: float) -> QuadratureResult:
    """Integrate over the real line, truncated via the damping profile.

    The window is chosen so the neglected tail is below tol/10; panels are
    then refined until the summed Kronrod-Gauss error estimate is below
    tol*(1 + |value|)/2, for every member of a vector-valued integrand.
    """
    R = _window(spec, tol)
    return _adapt(spec.evaluator, -R, R, tol, spec.oscillation_scale)


def integrate_nd(spec: IntegrandSpec, tol: float) -> QuadratureResult:
    """Nested application of integrate_1d over two axes, f(u, v).

    Axis 0 (u) is the outer integral; each evaluation of its integrand is
    one vector-valued inner integral over v, the evaluator taking u as a
    column.  The error adds the outer estimate to the largest inner one
    scaled by the outer window (conservative for near-separable damping);
    the panel count adds every panel laid.  ``converged`` is False if the
    outer or any inner integral spent its panel budget.
    """
    profiles = spec.damping_profile
    if isinstance(profiles, DampingProfile) or len(profiles) != 2:
        raise DomainError("need one damping profile per axis")
    inner = []

    def outer_integrand(u):
        inner.append(integrate_1d(IntegrandSpec(
            lambda v: spec.evaluator(u[:, None], v), profiles[1],
            spec.oscillation_scale), tol/4.0))
        return inner[-1].value

    top = integrate_1d(IntegrandSpec(outer_integrand, profiles[0],
                                     spec.oscillation_scale), tol)
    err = top.error_estimate + 2*top.truncation_radius*max(
        float(np.max(r.error_estimate)) for r in inner)
    return QuadratureResult(
        top.value, err, top.truncation_radius,
        top.panel_count + sum(r.panel_count for r in inner),
        top.converged and all(r.converged for r in inner))


def rotated_ray_integral(spec: IntegrandSpec, ray_angle: float, tol: float,
                         half_line: bool = False) -> QuadratureResult:
    """Integrate an entire integrand along rotated rays from the origin.

    With ``half_line=False`` the contour replaces the real line by the pair
    of rays arg = ray_angle (outgoing) and arg = pi - ray_angle (incoming),
    so ray_angle = 0 reduces to the real-line integral.  With
    ``half_line=True`` only the outgoing ray is used (for integrals over
    [0, inf)).  The caller asserts analyticity in the swept sectors and
    decay along the rays; decay is spot-checked and a
    :class:`DomainError` is raised if the tail has not died off.
    """
    R = _window(spec, tol)
    e_out = np.exp(1j*ray_angle)
    e_in = np.exp(1j*(math.pi - ray_angle))

    def along(sigma):
        out = np.asarray(spec.evaluator(sigma*e_out), dtype=complex)*e_out
        if not half_line:
            out = out - np.asarray(spec.evaluator(sigma*e_in),
                                   dtype=complex)*e_in
        return out

    probe = np.abs(along(np.linspace(0.9*R, R, 8)))
    head = np.abs(along(np.linspace(0.0, 0.2*R, 16)))
    ref = max(head.max(), 1e-300)
    if probe.max() > 10.0*ref:
        raise DomainError(
            "integrand grows along the rotated ray (|f(0.9R..R)| ~ %.2e vs "
            "head %.2e)" % (probe.max(), ref))

    return _adapt(along, 0.0, R, tol, spec.oscillation_scale)
