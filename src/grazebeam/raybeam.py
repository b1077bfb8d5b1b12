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

from .errors import BranchError, DegeneracyError

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
    "projected_ray",
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
    """Beam matrices V, W, M = W V^{-1}, D = det V and amplitude a = D^{-1/2}."""

    V: np.ndarray
    W: np.ndarray
    M: np.ndarray
    D: complex
    a: complex


def central_ray(y: float) -> PhasePoint:
    """The grazing null bicharacteristic, parametrized by y."""
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


def projected_ray(xi0_over_tau: float, eta_over_tau: float, span: float):
    """(x, t) of the null ray with data (x0, t0) = (0, 0), via direction ratios.

    The parameters live on the unit circle, (xi0/tau)^2 + (eta/tau)^2 = 1;
    ``span`` is the curve parameter (the offset y - z in the reflected-wave
    variables).  The grazing family is (xi0/tau, eta/tau) = (0, -1).
    """
    if abs(xi0_over_tau**2 + eta_over_tau**2 - 1.0) > 1e-9:
        raise DegeneracyError("direction ratios must satisfy the null "
                              "constraint (xi0/tau)^2 + (eta/tau)^2 = 1")
    if eta_over_tau == 0.0:
        raise DegeneracyError("eta/tau = 0: ray not parametrizable by y")
    g = eta_over_tau
    x = (xi0_over_tau/g)*span + span**2/(4.0*g*g)
    t = -span/g - (xi0_over_tau/(g*g))*span**2/2.0 - span**3/(12.0*g**3)
    return x, t


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
    V, W = variational_matrices(y)
    D, M, a = closed_frame(y)
    return BeamFrame(V, W, M, D, a)


def beam_phase(x: float, y: float, t: float) -> complex:
    """The beam phase psi(x, y, t)."""
    frame = beam_matrix(y)
    p = central_ray(y)
    dx, dt = x - p.x, t - p.t
    M = frame.M
    return (dx*p.xi + dt*p.tau
            + 0.5*(M[0, 0]*dx*dx + 2.0*M[0, 1]*dx*dt + M[1, 1]*dt*dt))


def _m_prime(y: float, D: complex, M: np.ndarray) -> np.ndarray:
    """d/dy of M = i N/D at y, given D and M there: (i N' - D' M)/D."""
    Dp = _det_v_prime(y)
    Np = np.array([[Dp - 1j, -1.0 - 1j*y], [-1.0 - 1j*y, 1j]])
    return (1j*Np - Dp*M)/D


def psi_gradient(x: float, y: float, t: float):
    """Analytic (psi_x, psi_y, psi_t); the quadratic form is differentiated exactly."""
    frame = beam_matrix(y)
    p = central_ray(y)
    M, Mp = frame.M, _m_prime(y, frame.D, frame.M)
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
        raise BranchError("eikonal radicand on the negative real axis")
    return psi_y - np.sqrt(rad)


def psi_yy_on_ray(y: float) -> complex:
    """Second y-partial of psi on the central ray: -y/4 + q'.M(y)q'."""
    frame = beam_matrix(y)
    qp = np.array([y/2.0, 1.0 + y*y/4.0])
    return -y/4.0 + qp @ (frame.M @ qp)


def transport_residual(y: float) -> complex:
    """Residual of d/dy a + (1/2)((1+x) psi_tt - psi_xx - psi_yy)|_ray a with a = D^{-1/2}.

    All second derivatives are analytic: psi_xx = M11, psi_tt = M22 and
    psi_yy from :func:`psi_yy_on_ray`.  For the closed-form frame this does
    not vanish (it equals -i/2 at y = 0); the quantity is reported as is.
    """
    frame = beam_matrix(y)
    ap = -0.5*_det_v_prime(y)*frame.D**-1.5
    x = y*y/4.0
    coeff = (1.0 + x)*frame.M[1, 1] - frame.M[0, 0] - psi_yy_on_ray(y)
    return ap + 0.5*coeff*frame.a


def beam_field(x: float, y: float, t: float, k: float) -> complex:
    """The beam v = a(y) exp(i k psi(x, y, t)), k > 0."""
    if k <= 0:
        raise ValueError("k must be positive")
    frame, p = beam_matrix(y), central_ray(y)
    d = math.hypot(x - p.x, t - p.t)
    # Im M > 0: |v| <= |a| e^{-k lam d^2/2} is 0 here, where psi may be NaN
    if 0.5*k*float(np.linalg.eigvalsh(frame.M.imag)[0])*d*d > 746.0:
        return 0j
    return frame.a*np.exp(1j*k*beam_phase(x, y, t))


def beam_on_ray(x: float) -> complex:
    """Beam value on the central ray at height x: (1 + 4x + 2i x^{3/2})^{-1/2}.

    Continuous branch with value 1 at x = 0 (the real part 1 + 4x stays
    positive, so the principal branch is the continuous one).
    """
    if x < 0:
        raise ValueError("x must be nonnegative")
    return (1.0 + 4.0*x + 2j*x**1.5)**-0.5
