"""Machine-checkable verification suites behind the ``verify`` command.

Each suite runs a battery of named checks and returns a
:class:`VerificationReport`; ``overall`` is the conjunction of the
per-check passes.  ``appendix1`` includes one check that is known to fail
for the closed-form beam frame, the first-order transport identity; it is
reported rather than patched, see the notes in :mod:`grazebeam.raybeam`.
The eikonal residual decays quadratically off the ray, not at the nominal
cubic order; no suite checks that, and a strict xfail in the tests
records it.

``appendix1``'s ODE oracle, :func:`_rk4_propagate`, runs classical RK4 on
a linear system as batched 4x4 step propagators multiplied pairwise; the
tests run their ODE oracles on it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

import numpy as np

from . import airy, grazing, raybeam, spectral, stationary
from .errors import DomainError
from .fd import richardson_derivatives

__all__ = ["CheckResult", "VerificationReport", "SUITES", "run_suite"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    expected: float
    actual: float
    tolerance: float
    passed: bool


@dataclass
class VerificationReport:
    suite: str
    checks: List[CheckResult] = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, expected: float, actual: float, tol: float,
            larger_ok: bool = False):
        """Record a check; by default passes when |actual - expected| <= tol.

        With ``larger_ok`` the check passes when actual >= expected (slope
        style thresholds).
        """
        ok = actual >= expected if larger_ok \
            else abs(actual - expected) <= tol
        self.checks.append(CheckResult(name, float(expected), float(actual),
                                       float(tol), bool(ok)))

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "checks": [c.__dict__ for c in self.checks],
            "overall": self.overall,
        }


def _halton(n):
    """Deterministic low-discrepancy points in [0, 1)^2 (bases 2 and 3).

    The first 20 points of the sequence are skipped.
    """
    base, denom, v = np.array([2, 3]), 1.0, 0.0
    i = np.arange(20, 20 + n)[:, None]
    while i.any():
        denom = denom*base
        i, rem = np.divmod(i, base)
        v = v + rem/denom
    return v


def suite_airy() -> VerificationReport:
    rep = VerificationReport("airy")
    pts = _halton(100)
    zs = 8.0*np.sqrt(pts[:, 0])*np.exp(2j*np.pi*pts[:, 1])
    dev = np.abs(airy.wronskian(zs) - airy.WRONSKIAN_ZERO).max()
    rep.add("wronskian_constancy_disk8", 0.0, dev, 1e-9)

    xs = np.linspace(10.0, 40.0, 40)
    ai = airy.airy_ai(xs).value
    rel = np.abs(ai - airy.airy_asymptotic(xs, 0))/np.abs(ai)
    rep.add("asymptotic_rel_error_fitted_C", 0.0, np.max(rel*xs**1.5), 1.0)

    axis = np.linspace(-5, 5, 9)
    z = (axis[:, None] + 1j*axis).ravel()
    conn = np.abs(airy.airy_ai(z).value
                  + airy.OMEGA*airy.airy_ai(airy.OMEGA*z).value
                  + airy.OMEGA**2*airy.airy_ai(airy.OMEGA**2*z).value).max()
    rep.add("connection_identity_grid", 0.0, conn, 1e-9)

    h = 1e-5
    z = np.array([0.3 + 0.2j, -1.0 + 2.0j, 2.5 - 1.5j, 4.0 + 0.0j])
    dre = (airy.airy_ai(z + h).value - airy.airy_ai(z - h).value)/(2*h)
    dim_ = (airy.airy_ai(z + 1j*h).value - airy.airy_ai(z - 1j*h).value)/(2*h)
    # analyticity: d/d(Re z) + i d/d(Im z) annihilates Ai
    rep.add("cauchy_riemann_grid", 0.0, np.abs(dre + 1j*dim_).max(), 1e-5)

    z = np.array([0.0, 0.5, 1.0 + 1j, -2.0 + 0.5j])
    fd = (airy.airy_ai(z + h).value - airy.airy_ai(z - h).value)/(2*h)
    dai = airy.airy_ai(z).derivative
    dcons = (np.abs(fd - dai)/np.maximum(np.abs(dai), 1.0)).max()
    rep.add("derivative_consistency_fd", 0.0, dcons, 1e-6)
    return rep


def suite_beam() -> VerificationReport:
    rep = VerificationReport("beam")
    ys = np.linspace(-5.0, 5.0, 41)
    frames = [raybeam.beam_matrix(v) for v in ys]
    sym = max(abs(f.M[0, 1] - f.M[1, 0]) for f in frames)
    rep.add("M_symmetry", 0.0, sym, 1e-12)

    min_eig = min(np.linalg.eigvalsh(f.M.imag).min() for f in frames)
    rep.add("ImM_positive_definite_min_eig", 1e-6, min_eig, 0.0,
            larger_ok=True)

    branch = max(abs(f.a**2*np.linalg.det(f.V) - 1.0) for f in frames)
    rep.add("amplitude_branch_a2_detV", 0.0, branch, 1e-12)

    # 50 rays with uniform x0 in [-0.5, 1), xi0 in [-1.5, 1.5) and t0 in
    # [-1, 1), drawn ray by ray, on null data at x0: xi0^2 + 1 = (1+x0) tau0^2
    lo, span = np.array([-0.5, -1.5, -1.0]), np.array([1.5, 3.0, 2.0])
    rng = np.random.default_rng(7)
    x0, xi0, t0 = (lo + span*rng.random((50, 3))).T[..., None]
    p0 = raybeam.RayParams(x0, t0, xi0, -np.sqrt((xi0*xi0 + 1.0)/(1.0 + x0)))
    h0 = raybeam.hamiltonian(raybeam.flow_general(p0, 0.0))
    cons = np.abs(raybeam.hamiltonian(
        raybeam.flow_general(p0, np.linspace(-3, 3, 7))) - h0).max()
    rep.add("hamiltonian_conservation", 0.0, cons, 1e-10)

    onray = max(abs(raybeam.beam_field(p.x, p.y, p.t, 50.0) - f.a)
                for p, f in zip(map(raybeam.central_ray, ys), frames))
    rep.add("field_equals_amplitude_on_ray", 0.0, onray, 1e-12)
    return rep


def _variational_generator(y):
    """G(y) of the variational system X' = G X, X = [V; W], at each ``y``.

    G = [[A, B], [0, Dm]] (shape shape(y) + (4, 4)) along the central ray,
    where tau = -1 and x = y^2/4: the variations solve d(dx)/dy = dxi,
    d(dt)/dy = -tau dx - (1+x) dtau, d(dxi)/dy = tau dtau and
    d(dtau)/dy = 0, with the eta component of the data held at zero.
    """
    y = np.asarray(y, dtype=float)
    tau = -1.0
    G = np.zeros(y.shape + (4, 4))
    G[..., 1, 0] = -tau                  # A = [[0, 0], [-tau, 0]]
    G[..., 0, 2] = 1.0                   # B = [[1, 0], [0, -(1+x)]]
    G[..., 1, 3] = -(1.0 + y*y/4.0)
    G[..., 2, 3] = tau                   # Dm = [[0, tau], [0, 0]]
    return G


def _segment_propagator(generator, h, i, n):
    """Product of the RK4 propagators of steps i, ..., n - 1 of size h.

    For X' = G(y) X one classical RK4 step from y is X -> P X with
    P = I + h/6 (L1 + 2 K2 + 2 K3 + K4), K2 = L2 (I + h/2 L1),
    K3 = L2 (I + h/2 K2), K4 = L3 (I + h K3), where L1, L2, L3 are G at
    y, y + h/2 and y + h.  G is evaluated once at the 2(n - i) + 1
    half-step points, every P is built in one batched pass, and the
    product P_{n-1} ... P_i is taken pairwise (``P[1::2] @ P[0::2]``,
    repeated), so the Python work is O(log(n - i)) per segment.
    """
    G = generator(h*np.arange(2*i, 2*n + 1)/2.0)
    L1, L2, L3 = G[:-1:2], G[1::2], G[2::2]
    eye = np.eye(G.shape[-1])
    K2 = L2 @ (eye + h/2*L1)
    K3 = L2 @ (eye + h/2*K2)
    P = eye + h/6*(L1 + 2*K2 + 2*K3 + L3 @ (eye + h*K3))
    while len(P) > 1:
        pairs = P[1::2] @ P[:len(P) - 1:2]
        P = np.concatenate([pairs, P[-1:]]) if len(P) % 2 else pairs
    return P[0]


def _rk4_propagate(generator, X0, ys, step=1e-3):
    """Classical RK4 for X' = G(y) X, X(0) = X0, read off at each of ``ys``.

    ``generator`` maps an array of y to the matrices G(y) (shape
    shape(y) + (m, m)).  Each side of y = 0 is integrated once, with
    h = y/n and n = round(|y|/step) at its farthest y, and X is read off
    at each of ``ys`` after round(|y|/step) steps (X0 where that is 0).
    The steps between consecutive stops form one segment whose
    propagator :func:`_segment_propagator` builds in one pass; a segment
    at a time keeps the memory at that of the longest segment, not of a
    whole side.
    """
    X0 = np.asarray(X0, dtype=complex)
    states = {}
    for side in (-1.0, 1.0):
        counts = {int(round(abs(y)/step)): y for y in ys if side*y > 0}
        n = max(counts, default=0)
        h, X, done = (counts[n]/n if n else 0.0), X0, 0
        for stop in sorted(counts):
            if stop > done:
                X = _segment_propagator(generator, h, done, stop) @ X
                done = stop
            states[side, stop] = X
    return [states.get((math.copysign(1.0, y), int(round(abs(y)/step))), X0)
            for y in ys]


def _variational_ode_oracle(ys):
    """(V, W) at each of ``ys`` by RK4 on the variational system.

    Columns start from (1, 0, i, 0) and (0, 1, 0, i); the system is
    :func:`_variational_generator`, integrated by :func:`_rk4_propagate`
    with its step 1e-3.  The system is linear, so each RK4 step is a 4x4
    propagator and the integration is a few batched matrix products:
    about 4 ms for the 6,000 steps of the suite, where a step-by-step loop
    took 0.4-0.5 s.  ``scipy.integrate.solve_ivp`` (DOP853) is as fast,
    but importing ``scipy.integrate`` pulls in ``scipy.optimize``: about
    25 MB and 0.2 s more for every ``grazebeam`` process.
    """
    X0 = np.vstack([np.eye(2), 1j*np.eye(2)])
    return [(X[:2], X[2:]) for X in _rk4_propagate(_variational_generator,
                                                    X0, ys)]


def suite_appendix1() -> VerificationReport:
    rep = VerificationReport("appendix1")
    dev_v = dev_w = dev_m = 0.0
    ys = np.linspace(-3.0, 3.0, 13)
    for yv, (Vo, Wo) in zip(ys, _variational_ode_oracle(ys)):
        frame = raybeam.beam_matrix(yv)
        dev_v = max(dev_v, np.abs(frame.V - Vo).max())
        dev_w = max(dev_w, np.abs(frame.W - Wo).max())
        dev_m = max(dev_m, np.abs(frame.M - Wo @ np.linalg.inv(Vo)).max())
    rep.add("V_closed_vs_ode", 0.0, dev_v, 1e-8)
    rep.add("W_closed_vs_ode", 0.0, dev_w, 1e-8)
    rep.add("M_closed_vs_ode", 0.0, dev_m, 1e-8)

    _, m0, _ = raybeam.closed_frame(0.0)
    rep.add("M0_equals_iI", 0.0, float(np.abs(m0 - 1j*np.eye(2)).max()), 0.0)

    tr = max(abs(raybeam.transport_residual(v))
             for v in np.linspace(-3.0, 3.0, 13))
    rep.add("transport_residual", 0.0, tr, 1e-8)
    return rep


def suite_appendix2() -> VerificationReport:
    rep = VerificationReport("appendix2")
    for x in (0.25, 0.5, 1.0, 2.0, 4.0):
        y0 = 2.0*math.sqrt(x)
        h = min(0.03, 0.12*(2.0*math.sqrt(1.0 + x) - 2.0*math.sqrt(x)))
        d = richardson_derivatives(lambda w: stationary.root_r(x, y0, w),
                                   0.0, h)
        sr = stationary.series_r(x)
        rep.add("r_z[x=%g]" % x, 0.0, abs(d[1]), 1e-5)
        rep.add("r_zz[x=%g]" % x, sr[2], abs(d[2]), 1e-5)
        rep.add("r_zzz[x=%g]" % x, sr[3], d[3].real, 1e-5)
        rep.add("r_zzzz[x=%g]" % x, sr[4], d[4].real, 1e-5)

        dphi = richardson_derivatives(
            lambda w: stationary.phi_reduced(x, y0, w), 0.0, h)
        sp_ = stationary.series_phi(x)
        rep.add("phi_zzz[x=%g]" % x, sp_[3], dphi[3].real, 1e-4)
        rep.add("phi_zzzz[x=%g]" % x, sp_[4], dphi[4].real, 1e-4)

        t0 = raybeam.central_ray(y0).t
        dg = richardson_derivatives(
            lambda w: (stationary.B_of_z(w)
                       - stationary.C_of(x, y0, w, t0)), 0.0, h)
        rep.add("quartic_coeff[x=%g]" % x, 0.0,
                abs(dg[4]/24.0 - stationary.quartic_coefficient(x)), 1e-3)
    return rep


def suite_appendix3() -> VerificationReport:
    rep = VerificationReport("appendix3")
    zs = np.geomspace(1e-2, 0.3, 12)
    diff = np.abs(spectral.boundary_exponent_full(zs, 0.9, -1.0)
                  - spectral.boundary_exponent_frozen(zs, 0.9, -1.0))
    slope = float(np.polyfit(np.log(zs), np.log(diff), 1)[0])
    rep.add("exponent_difference_slope", 4.8, slope, 0.0, larger_ok=True)

    amp = np.abs(math.sqrt(100.0)*spectral.boundary_prefactor_full(zs, 100.0)
                 - math.sqrt(2.0*math.pi))
    slope_a = float(np.polyfit(np.log(zs), np.log(amp), 1)[0])
    rep.add("amplitude_prefactor_slope", 0.9, slope_a, 0.0, larger_ok=True)

    rho0 = spectral.boundary_exponent_full(0.0, 0.7, -1.1)
    rhof = spectral.boundary_exponent_frozen(0.0, 0.7, -1.1)
    rep.add("vertex_exponents_agree", 0.0, abs(rho0 - rhof), 1e-14)
    return rep


def suite_closedform() -> VerificationReport:
    rep = VerificationReport("closedform")
    for x in (0.3, 1.0, 2.0):
        rep.add("display_identity[x=%g]" % x, 0.0,
                grazing.closed_form_identity_check(x), 1e-12)
    xs = np.geomspace(0.05, 5.0, 21)
    dev = max(abs(grazing.limit_integral(x) - grazing.w_on_ray_closed(x))
              for x in xs)
    rep.add("limit_equals_closed_grid", 0.0, dev, 1e-10)
    mod = max(abs(abs(grazing.w_on_ray_closed(x)) - 0.5/math.sqrt(1.0 + x))
              for x in xs)
    rep.add("modulus_law", 0.0, mod, 1e-12)
    return rep


SUITES = {
    "airy": suite_airy,
    "beam": suite_beam,
    "appendix1": suite_appendix1,
    "appendix2": suite_appendix2,
    "appendix3": suite_appendix3,
    "closedform": suite_closedform,
}


def run_suite(name: str) -> VerificationReport:
    if name not in SUITES:
        raise DomainError("unknown suite %r (have: %s)"
                       % (name, ", ".join(sorted(SUITES))))
    return SUITES[name]()
