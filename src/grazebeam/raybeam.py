"""Ray geometry and the Gaussian beam grazing the boundary x = 0.

The model wave operator is (1+x) d_tt - d_xx - d_yy on x > 0.  Its
bicharacteristics (for half the symbol) solve

    x' = xi,  y' = eta,  t' = -(1+x) tau,  xi' = tau^2/2,  eta' = 0, tau' = 0,

and the central ray used throughout is the null solution

    x(y) = y^2/4,  t(y) = y + y^3/12,  xi(y) = y/2,  eta = 1,  tau = -1,

which is tangent to x = 0 at the origin.  The beam phase is the quadratic
form psi = (x - x(y)) xi(y) + (t - t(y)) tau(y) + 1/2 u.M(y)u in the
transverse displacement u, with M = W V^{-1} built from the closed-form
variational matrices V, W below, and amplitude a(y) = det(V)^{-1/2}
= D^{-1/2}, D = 1 + y^2 + i y^3/4.

Caveat (verified numerically and kept honest in the residual operations):
V and W solve the variational system of the flow displayed above with the
eta-component frozen, which is not the linearization of the characteristic
flow of the reduced eikonal psi_y = ((1+x) psi_t^2 - psi_x^2)^{1/2}.  As a
consequence the eikonal residual of psi vanishes on the ray together with
its first transverse derivatives but keeps a quadratic term, and the
first-order transport identity does not hold for a = D^{-1/2};
``eikonal_residual`` and ``transport_residual`` report the true values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "BeamFrame",
    "PhasePoint",
    "RayParams",
    "beam_field",
    "beam_matrix",
    "beam_on_ray",
    "beam_phase",
    "central_ray",
    "closed_frame",
    "eikonal_residual",
    "flow_general",
    "hamiltonian",
    "psi_gradient",
    "psi_yy_on_ray",
    "transport_residual",
    "variational_matrices",
]


@dataclass(frozen=True)
class PhasePoint:
    """A point (x, y, t, xi, eta, tau) in phase space."""

    x: float
    y: float
    t: float
    xi: float
    eta: float
    tau: float


@dataclass(frozen=True)
class RayParams:
    """Initial data (x0, t0, xi0, tau0) for the reduced flow with eta = 1."""

    x0: float
    t0: float
    xi0: float
    tau0: float


@dataclass(frozen=True)
class BeamFrame:
    """Beam matrices V, W, D = det V, M = W V^{-1} and amplitude a = D^{-1/2}."""

    V: np.ndarray
    W: np.ndarray
    D: complex
    M: np.ndarray
    a: complex


def central_ray(y: float) -> PhasePoint:
    """The grazing null bicharacteristic, parametrized by y."""
    if not math.isfinite(y):
        raise DomainError("the ray parameter y must be finite")
    return PhasePoint(y*y/4.0, y, y + y**3/12.0, y/2.0, 1.0, -1.0)


def hamiltonian(p: PhasePoint) -> float:
    """Half the wave symbol, (xi^2 + eta^2 - (1+x) tau^2)/2."""
    return 0.5*(p.xi**2 + p.eta**2 - (1.0 + p.x)*p.tau**2)


def flow_general(p0: RayParams, y: float) -> PhasePoint:
    """Closed-form solution of the reduced flow with parameter y, eta = 1."""
    x0, t0, xi0, tau0 = p0.x0, p0.t0, p0.xi0, p0.tau0
    x = x0 + xi0*y + tau0**2*y**2/4.0
    t = t0 - tau0*((1.0 + x0)*y + xi0*y**2/2.0 + tau0**2*y**3/12.0)
    xi = xi0 + tau0**2*y/2.0
    return PhasePoint(x, y, t, xi, 1.0, tau0)


def variational_matrices(y: float):
    """Closed-form variational matrices V(y), W(y) along the central ray.

    Columns are the transverse variations with initial data (1, 0, i, 0)
    and (0, 1, 0, i) in (dx, dt, dxi, dtau), propagated with the eta
    component of the flow held fixed.
    """
    V = np.array([[1.0 + 1j*y, -1j*y*y/2.0],
                  [y + 1j*y*y/2.0, 1.0 - 1j*y - 1j*y**3/4.0]], dtype=complex)
    W = np.array([[1j, -1j*y], [0.0, 1j]], dtype=complex)
    return V, W


def closed_frame(y):
    """D = det V, M = W V^{-1} = (i/D) N(y) and a = D^{-1/2} of the closed form.

    Plain arithmetic, elementwise in ``y`` (a float or an ndarray): M has
    shape (2, 2) + shape(y), so M[0, 0], M[0, 1], M[1, 1] are the entries.
    Re D = 1 + y^2 >= 1 for real y, so the principal square root of D is
    already the continuous branch and a = D^{-1/2} needs no unwinding.
    """
    D = 1.0 + y*y + 1j*y**3/4.0
    n12 = -y - 1j*y*y/2.0
    M = (1j/D)*np.array([[1.0 - 1j*y + y*y + 1j*y**3/4.0, n12],
                         [n12, 1.0 + 1j*y]])
    return D, M, D**-0.5


def _det_v_prime(y):
    """dD/dy = 2y + 3i y^2/4."""
    return 2.0*y + 0.75j*y*y


def beam_matrix(y: float) -> BeamFrame:
    """BeamFrame at parameter y; M from the closed form, a on the branch a(0)=1."""
    return BeamFrame(*variational_matrices(y), *closed_frame(y))


def _quadratic_phase(p: PhasePoint, M: np.ndarray, x: float, t: float):
    """psi at (x, t) from the ray point p and the matrix M at its y."""
    dx, dt = x - p.x, t - p.t
    return (dx*p.xi + dt*p.tau
            + 0.5*(M[0, 0]*dx*dx + 2.0*M[0, 1]*dx*dt + M[1, 1]*dt*dt))


def beam_phase(x: float, y: float, t: float) -> complex:
    """The beam phase psi(x, y, t)."""
    _, M, _ = closed_frame(y)
    return _quadratic_phase(central_ray(y), M, x, t)


def _m_prime(y: float, D: complex, M: np.ndarray) -> np.ndarray:
    """d/dy of M = i N/D at y, given D and M there: (i N' - D' M)/D."""
    Dp = _det_v_prime(y)
    Np = np.array([[Dp - 1j, -1.0 - 1j*y], [-1.0 - 1j*y, 1j]])
    return (1j*Np - Dp*M)/D


def psi_gradient(x: float, y: float, t: float):
    """Analytic (psi_x, psi_y, psi_t); the quadratic form is differentiated exactly."""
    D, M, _ = closed_frame(y)
    p = central_ray(y)
    Mp = _m_prime(y, D, M)
    u = np.array([x - p.x, t - p.t], dtype=complex)
    qp = np.array([y/2.0, 1.0 + y*y/4.0])       # (x'(y), t'(y))
    pp = np.array([0.5, 0.0])                   # (xi'(y), tau'(y))
    Mu = M @ u
    psi_x = p.xi + Mu[0]
    psi_t = p.tau + Mu[1]
    # -x' xi - t' tau = 1 identically on this ray family
    psi_y = 1.0 + u @ pp - qp @ Mu + 0.5*(u @ (Mp @ u))
    return psi_x, psi_y, psi_t


def eikonal_residual(x: float, y: float, t: float) -> complex:
    """psi_y - ((1+x) psi_t^2 - psi_x^2)^{1/2}, square root on the branch = +1 on the ray.

    Vanishes on the ray together with its first transverse derivatives; the
    quadratic term survives (see the module caveat), so off the ray the
    residual scales as the squared distance.
    """
    psi_x, psi_y, psi_t = psi_gradient(x, y, t)
    rad = (1.0 + x)*psi_t**2 - psi_x**2
    if rad.real <= 0.0 and abs(rad.imag) < 1e-14:
        raise DomainError("eikonal radicand on the negative real axis")
    return psi_y - np.sqrt(rad)


def _psi_yy(y: float, M: np.ndarray) -> complex:
    """-y/4 + q'.M q' with q' = (x'(y), t'(y)), given M at y."""
    qp = np.array([y/2.0, 1.0 + y*y/4.0])
    return -y/4.0 + qp @ (M @ qp)


def psi_yy_on_ray(y: float) -> complex:
    """Second y-partial of psi on the central ray: -y/4 + q'.M(y)q'."""
    return _psi_yy(y, closed_frame(y)[1])


def transport_residual(y: float) -> complex:
    """Residual a' - (1/2)((1+x) psi_tt - psi_xx - psi_yy)|_ray a, a = D^{-1/2}.

    The O(k) term of P(a e^{ik psi}) is ik(-2a' + (box psi) a) as psi_y = 1
    on the ray.  psi_xx = M11, psi_tt = M22 and psi_yy are analytic.  For
    this frame the residual is +i/2 at y = 0; it is reported as is.
    """
    D, M, a = closed_frame(y)
    ap = -0.5*_det_v_prime(y)*D**-1.5
    x = y*y/4.0
    coeff = (1.0 + x)*M[1, 1] - M[0, 0] - _psi_yy(y, M)
    return ap - 0.5*coeff*a


def beam_field(x: float, y: float, t: float, k: float) -> complex:
    """The beam v = a(y) exp(i k psi(x, y, t)), k > 0."""
    if not (0 < k < math.inf and math.isfinite(x) and math.isfinite(t)):
        raise DomainError("k must be positive and x, y, t, k finite")
    (_, M, a), p = closed_frame(y), central_ray(y)
    u = np.array([x - p.x, t - p.t])
    d = math.hypot(*u)
    # k Im psi = (k d^2/2) e.Im M.e with e = u/d: past 746, |v| is 0 and psi
    # itself may be NaN
    if d > 0.0 and 0.5*k*d*d*float(u/d @ M.imag @ (u/d)) > 746.0:
        return 0j
    with np.errstate(over="ignore", invalid="ignore"):
        v = a*np.exp(1j*k*_quadratic_phase(p, M, x, t))
    if not np.isfinite(v):
        raise OverflowError("k psi exceeds the float range")
    return v


def beam_on_ray(x: float) -> complex:
    """Beam value on the central ray at height x: (1 + 4x + 2i x^{3/2})^{-1/2}.

    Continuous branch with value 1 at x = 0 (the real part 1 + 4x stays
    positive, so the principal branch is the continuous one).
    """
    if not 0 <= x < math.inf:
        raise DomainError("x must be finite and nonnegative")
    return (1.0 + 4.0*x + 2j*x**1.5)**-0.5
