"""Ray geometry, beam frame, phase and the residual operations.

The final two test classes document a genuine property of the closed-form
frame: it solves the frozen-eta variational system exactly (the ODE
equivalence tests), but that system is not the linearization of the
characteristic flow of the reduced eikonal.  Consequently the eikonal
residual keeps a quadratic transverse term and the first-order transport
identity fails by -i/2 * a at the vertex.  The strict-xfail tests assert
the nominal identities at their nominal tolerances; the companion tests
pin the measured values, and an on-shell variational oracle shows that the
characteristic-flow construction does satisfy both identities.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from grazebeam import raybeam
from conftest import reduced_flow_rhs, rk4


#: y on the central ray, away from the overflow of y^3
_Y = st.floats(-50.0, 50.0, allow_nan=False)


def _variational_rhs(y, S):
    """Variations of the reduced flow along the central ray."""
    V = S[:4].reshape(2, 2)
    W = S[4:].reshape(2, 2)
    x, tau = y*y/4.0, -1.0
    A = np.array([[0.0, 0.0], [-tau, 0.0]])
    B = np.array([[1.0, 0.0], [0.0, -(1.0 + x)]])
    Dm = np.array([[0.0, tau], [0.0, 0.0]])
    return np.concatenate([(A @ V + B @ W).ravel(), (Dm @ W).ravel()])


# data (1, 0, i, 0) and (0, 1, 0, i)
_VARIATIONAL_S0 = np.concatenate([np.eye(2, dtype=complex).ravel(),
                                  (1j*np.eye(2)).ravel()])


class TestRays:
    def test_central_ray_values(self):
        p = raybeam.central_ray(0.0)
        assert (p.x, p.y, p.t, p.xi, p.eta, p.tau) == (0, 0, 0, 0, 1, -1)
        p = raybeam.central_ray(2.0)
        assert p.x == pytest.approx(1.0)
        assert p.t == pytest.approx(8.0/3.0)
        assert p.xi == pytest.approx(1.0)

    @pytest.mark.parametrize("y", [-3.0, 0.7, 5.0])
    def test_central_ray_is_null(self, y):
        p = raybeam.central_ray(y)
        assert abs((1 + p.x)*p.tau**2 - p.xi**2 - p.eta**2) <= 1e-12

    def test_hamiltonian_values(self):
        assert raybeam.hamiltonian(raybeam.central_ray(1.3)) == pytest.approx(0.0, abs=1e-14)
        assert raybeam.hamiltonian(raybeam.PhasePoint(0, 0, 0, 1, 0, 1)) == 0.0
        assert raybeam.hamiltonian(raybeam.PhasePoint(1, 0, 0, 0, 1, 1)) == -0.5

    def test_flow_general_reproduces_central_ray(self):
        p0 = raybeam.RayParams(0.0, 0.0, 0.0, -1.0)
        for y in (-2.0, 0.0, 1.5, 3.0):
            got = raybeam.flow_general(p0, y)
            ref = raybeam.central_ray(y)
            assert got.x == pytest.approx(ref.x, abs=1e-14)
            assert got.t == pytest.approx(ref.t, abs=1e-14)
            assert got.xi == pytest.approx(ref.xi, abs=1e-14)

    def test_flow_general_at_zero_is_initial_point(self):
        p0 = raybeam.RayParams(0.3, -0.2, 0.7, -1.4)
        got = raybeam.flow_general(p0, 0.0)
        assert (got.x, got.t, got.xi, got.tau) == (0.3, -0.2, 0.7, -1.4)

    def test_flow_general_matches_rk4_oracle(self):
        p0 = raybeam.RayParams(0.1, 0.4, -0.3, -1.2)
        state = rk4(reduced_flow_rhs, 0.0,
                    np.array([0.1, 0.4, -0.3, -1.2]), 2.0, 2000)
        got = raybeam.flow_general(p0, 2.0)
        assert abs(got.x - state[0].real) <= 1e-8
        assert abs(got.t - state[1].real) <= 1e-8
        assert abs(got.xi - state[2].real) <= 1e-8

    def test_hamiltonian_conserved_along_flow(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            xi0 = rng.uniform(-1.5, 1.5)
            x0 = rng.uniform(-0.5, 1.0)
            tau0 = -math.sqrt((xi0**2 + 1.0)/(1.0 + x0))
            p0 = raybeam.RayParams(x0, rng.uniform(-1, 1), xi0, tau0)
            vals = [raybeam.hamiltonian(raybeam.flow_general(p0, y))
                    for y in np.linspace(-3, 3, 13)]
            assert max(abs(v - vals[0]) for v in vals) <= 1e-10


class TestBeamFrame:
    def test_vertex_matrices(self):
        V, W = raybeam.variational_matrices(0.0)
        assert np.allclose(V, np.eye(2))
        assert np.allclose(W, 1j*np.eye(2))

    def test_det_v_at_two(self):
        V, _ = raybeam.variational_matrices(2.0)
        assert np.linalg.det(V) == pytest.approx(5.0 + 2.0j, abs=1e-12)

    def test_variational_ode_oracle(self):
        S = rk4(_variational_rhs, 0.0, _VARIATIONAL_S0, 3.0, 3000)
        V, W = raybeam.variational_matrices(3.0)
        assert np.abs(S[:4].reshape(2, 2) - V).max() <= 1e-8
        assert np.abs(S[4:].reshape(2, 2) - W).max() <= 1e-8

    def test_suite_oracle_single_pass_matches_separate_runs(self):
        # the appendix1 suite integrates each side of y = 0 once; at its
        # grid points the values are those of a separate run to each point
        from grazebeam.verification import _variational_ode_oracle
        ys = np.linspace(-3.0, 3.0, 13)
        for y, (V, W) in zip(ys, _variational_ode_oracle(ys)):
            S = rk4(_variational_rhs, 0.0, _VARIATIONAL_S0, y,
                    max(1, int(round(abs(y)/1e-3))))
            assert np.array_equal(V, S[:4].reshape(2, 2))
            assert np.array_equal(W, S[4:].reshape(2, 2))

    def test_beam_matrix_vertex_and_amplitude(self):
        frame = raybeam.beam_matrix(0.0)
        assert np.abs(frame.M - 1j*np.eye(2)).max() == 0.0
        assert frame.a == 1.0

    @settings(max_examples=200, deadline=None, database=None)
    @given(_Y)
    def test_m_equals_w_vinv(self, y):
        frame = raybeam.beam_matrix(y)
        ref = frame.W @ np.linalg.inv(frame.V)
        assert np.abs(frame.M - ref).max() <= \
            1e-12*max(1.0, np.abs(frame.M).max())
        assert abs(frame.D - np.linalg.det(frame.V)) <= 1e-12*abs(frame.D)

    @settings(max_examples=200, deadline=None, database=None)
    @given(_Y)
    def test_beam_matrix_bits_match_written_out_formula(self, y):
        # the evaluation order (i/D) N of the closed form fixes the bits
        D = 1.0 + y*y + 1j*y**3/4.0
        M = (1j/D)*np.array([[1.0 - 1j*y + y*y + 1j*y**3/4.0,
                              -y - 1j*y*y/2.0],
                             [-y - 1j*y*y/2.0, 1.0 + 1j*y]], dtype=complex)
        frame = raybeam.beam_matrix(y)
        assert frame.D == D and frame.a == D**-0.5
        assert np.array_equal(frame.M, M)

    @settings(max_examples=100, deadline=None, database=None)
    @given(arrays(float, st.integers(1, 12), elements=_Y))
    def test_array_frame_matches_beam_matrix(self, ys):
        # numpy's vector loops (complex multiply, pow) may round the last
        # bit differently from scalar arithmetic, hence a few ulp
        D, M, a = raybeam.closed_frame(ys)
        assert M.shape == (2, 2) + ys.shape
        ulp = 8*np.finfo(float).eps
        for i, y in enumerate(ys.tolist()):
            frame = raybeam.beam_matrix(y)
            assert abs(D[i] - frame.D) <= ulp*abs(frame.D)
            assert abs(a[i] - frame.a) <= ulp*abs(frame.a)
            assert np.abs(M[..., i] - frame.M).max() <= \
                ulp*np.abs(frame.M).max()

    @pytest.mark.parametrize("y", np.linspace(-5, 5, 11).tolist())
    def test_amplitude_branch_identity(self, y):
        frame = raybeam.beam_matrix(y)
        assert abs(frame.a**2*np.linalg.det(frame.V) - 1.0) <= 1e-12

    def test_imag_m_positive_definite(self):
        for y in np.linspace(-5, 5, 41):
            eigs = np.linalg.eigvalsh(raybeam.beam_matrix(y).M.imag)
            assert eigs.min() > 0.0

    def test_determinant_lower_bound(self):
        for y in np.linspace(-5, 5, 21):
            D = raybeam.beam_matrix(y).D
            assert abs(D)**2 >= (1 + y*y)**2 + y**6/16.0 - 1e-12
            assert abs(D) >= 1.0

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.floats(-50.0, 50.0))
    def test_amplitude_continuous_from_vertex(self, y_end):
        # a = D^{-1/2} followed from a(0) = 1 to y_end: |a'/a| = |D'/2D|
        # is below 0.6, so neighbours 0.025 apart differ by under 2%; a
        # flipped root is a jump of 2|a|
        ys = np.linspace(0.0, y_end, 2001)
        D, _, a = raybeam.closed_frame(ys)
        assert a[0] == 1.0
        assert np.abs(a*a*D - 1.0).max() <= 1e-12
        assert np.max(np.abs(np.diff(a))/np.abs(a[:-1])) <= 0.1


class TestBeamPhase:
    def test_zero_on_ray(self):
        for y in (-1.0, 0.0, 2.0):
            p = raybeam.central_ray(y)
            assert abs(raybeam.beam_phase(p.x, y, p.t)) <= 1e-14

    @pytest.mark.parametrize("y", [0.0, 1.0, 2.0])
    def test_imaginary_part_positive_off_ray(self, y):
        p = raybeam.central_ray(y)
        assert raybeam.beam_phase(p.x + 0.1, y, p.t).imag > 0.0

    def test_vertex_value(self):
        assert raybeam.beam_phase(0.1, 0.0, 0.0) == pytest.approx(0.005j, abs=1e-15)

    def test_gradient_matches_fd(self):
        h = 1e-6
        x, y, t = 0.3, 0.8, 1.1
        px, py, pt = raybeam.psi_gradient(x, y, t)
        fx = (raybeam.beam_phase(x + h, y, t) - raybeam.beam_phase(x - h, y, t))/(2*h)
        fy = (raybeam.beam_phase(x, y + h, t) - raybeam.beam_phase(x, y - h, t))/(2*h)
        ft = (raybeam.beam_phase(x, y, t + h) - raybeam.beam_phase(x, y, t - h))/(2*h)
        assert abs(px - fx) <= 1e-8
        assert abs(py - fy) <= 1e-8
        assert abs(pt - ft) <= 1e-8


class TestBeamField:
    def test_vertex_value_one(self):
        assert raybeam.beam_field(0.0, 0.0, 0.0, 123.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("xbar", [0.25, 1.0, 2.0])
    def test_modulus_on_ray(self, xbar):
        y = 2.0*math.sqrt(xbar)
        p = raybeam.central_ray(y)
        v = raybeam.beam_field(p.x, y, p.t, 77.0)
        assert abs(v) == pytest.approx(
            abs(1.0 + 4.0*xbar + 2j*xbar**1.5)**-0.5, abs=1e-12)

    def test_exponential_decay_law_in_k(self):
        y = 1.0
        p = raybeam.central_ray(y)
        im = raybeam.beam_phase(p.x + 0.2, y, p.t).imag
        a = abs(raybeam.beam_matrix(y).a)
        for k in (10.0, 100.0):
            v = abs(raybeam.beam_field(p.x + 0.2, y, p.t, k))
            assert v == pytest.approx(a*math.exp(-k*im), rel=1e-6)

    def test_beam_on_ray_values(self):
        assert raybeam.beam_on_ray(0.0) == 1.0
        w = raybeam.beam_on_ray(1.0)
        assert w == pytest.approx((5.0 + 2.0j)**-0.5, abs=1e-14)
        assert abs(w) == pytest.approx(29.0**-0.25, abs=1e-12)

    def test_beam_on_ray_equals_field(self):
        x = 0.49
        y = 2.0*math.sqrt(x)
        p = raybeam.central_ray(y)
        assert abs(raybeam.beam_on_ray(x)
                   - raybeam.beam_field(p.x, y, p.t, 10.0)) <= 1e-12


# ---------------------------------------------------------------------------
# residual operations: nominal identities vs measured behavior
# ---------------------------------------------------------------------------

def _onshell_frame_rhs(y, S):
    """Linearization of the characteristic flow of the reduced eikonal.

    Flow (dx, dt)/dy = (-h_xi, -h_tau), (dxi, dtau)/dy = (h_x, 0) for
    h = ((1+x) tau^2 - xi^2)^{1/2}, linearized along the central ray.
    """
    x, xi, tau = y*y/4.0, y/2.0, -1.0
    h = 1.0
    h_xxi = xi*tau*tau/(2.0*h**3)
    h_xtau = tau/h - (1.0 + x)*tau**3/(2.0*h**3)
    h_xixi = -1.0/h - xi*xi/h**3
    h_xitau = xi*(1.0 + x)*tau/h**3
    h_tautau = (1.0 + x)/h - (1.0 + x)**2*tau*tau/h**3
    h_xx = -tau**4/(4.0*h**3)
    A = np.array([[-h_xxi, 0.0], [-h_xtau, 0.0]], dtype=complex)
    B = np.array([[-h_xixi, -h_xitau], [-h_xitau, -h_tautau]], dtype=complex)
    C = np.array([[h_xx, 0.0], [0.0, 0.0]], dtype=complex)
    Dm = np.array([[h_xxi, h_xtau], [0.0, 0.0]], dtype=complex)
    V = S[:4].reshape(2, 2)
    W = S[4:].reshape(2, 2)
    return np.concatenate([(A @ V + B @ W).ravel(), (C @ V + Dm @ W).ravel()])


def _onshell_phase(x, y, t, nsteps=3000):
    S0 = np.concatenate([np.eye(2, dtype=complex).ravel(),
                         (1j*np.eye(2)).ravel()])
    S = rk4(_onshell_frame_rhs, 0.0, S0, y, max(10, int(abs(y)*nsteps)))
    V = S[:4].reshape(2, 2)
    M = S[4:].reshape(2, 2) @ np.linalg.inv(V)
    p = raybeam.central_ray(y)
    dx, dt = x - p.x, t - p.t
    psi = (dx*p.xi + dt*p.tau
           + 0.5*(M[0, 0]*dx*dx + 2*M[0, 1]*dx*dt + M[1, 1]*dt*dt))
    return psi, V


class TestEikonal:
    def test_zero_on_ray(self):
        for y in (0.0, 1.0, -2.0):
            p = raybeam.central_ray(y)
            assert abs(raybeam.eikonal_residual(p.x, y, p.t)) <= 1e-13

    def test_psi_y_on_ray_equals_eta(self):
        for y in (0.0, 1.5, -0.7):
            p = raybeam.central_ray(y)
            assert raybeam.psi_gradient(p.x, y, p.t)[1] == pytest.approx(1.0, abs=1e-13)

    def test_first_transverse_derivatives_vanish(self):
        # residual = O(d^2): value and gradient vanish on the ray
        y = 1.0
        p = raybeam.central_ray(y)
        h = 1e-6
        gx = (raybeam.eikonal_residual(p.x + h, y, p.t)
              - raybeam.eikonal_residual(p.x - h, y, p.t))/(2*h)
        gt = (raybeam.eikonal_residual(p.x, y, p.t + h)
              - raybeam.eikonal_residual(p.x, y, p.t - h))/(2*h)
        assert abs(gx) <= 1e-8 and abs(gt) <= 1e-8

    def test_measured_decay_is_quadratic(self):
        # the quadratic term survives: log-log slope 2, not 3
        y = 1.0
        p = raybeam.central_ray(y)
        ds = np.geomspace(1e-3, 1e-1, 7)
        vals = np.array([abs(raybeam.eikonal_residual(p.x + d, y, p.t))
                         for d in ds])
        slope = np.polyfit(np.log(ds), np.log(vals), 1)[0]
        assert 1.9 <= slope <= 2.1

    @pytest.mark.xfail(strict=True, reason=(
        "the closed-form frame solves the frozen-eta variational system, "
        "not the characteristic-flow linearization, so the eikonal "
        "residual is quadratic off the ray (slope 2, not >= 2.9)"))
    def test_nominal_cubic_decay(self):
        y = 1.0
        p = raybeam.central_ray(y)
        ds = np.geomspace(1e-3, 1e-1, 7)
        vals = np.array([abs(raybeam.eikonal_residual(p.x + d, y, p.t))
                         for d in ds])
        slope = np.polyfit(np.log(ds), np.log(vals), 1)[0]
        assert slope >= 2.9

    def test_onshell_oracle_has_cubic_decay(self):
        # the characteristic-flow frame does satisfy the nominal law
        y = 1.0
        p = raybeam.central_ray(y)
        res = []
        for d in (1e-1, 1e-2):
            psi_p, _ = _onshell_phase(p.x + d, y, p.t)
            h = 1e-5

            def grad(xx, tt):
                px = (_onshell_phase(xx + h, y, tt)[0]
                      - _onshell_phase(xx - h, y, tt)[0])/(2*h)
                py = (_onshell_phase(xx, y + h, tt)[0]
                      - _onshell_phase(xx, y - h, tt)[0])/(2*h)
                pt = (_onshell_phase(xx, y, tt + h)[0]
                      - _onshell_phase(xx, y, tt - h)[0])/(2*h)
                return px, py, pt

            px, py, pt = grad(p.x + d, p.t)
            res.append(abs(py - np.sqrt((1 + p.x + d)*pt**2 - px**2)))
        slope = math.log(res[0]/res[1])/math.log(10.0)
        assert slope >= 2.7


class TestTransport:
    def test_measured_defect_at_vertex(self):
        # the residual is exactly -i/2 at y = 0 for a = D^{-1/2}
        assert raybeam.transport_residual(0.0) == pytest.approx(-0.5j, abs=1e-12)

    @pytest.mark.parametrize("y", [0.0, 2.0])
    @pytest.mark.xfail(strict=True, reason=(
        "first-order transport fails for the closed-form frame: the "
        "residual is -i a/2 at the vertex (frozen-eta variational system)"))
    def test_nominal_transport_identity(self, y):
        assert abs(raybeam.transport_residual(y)) <= 1e-8

    def test_trace_identity_gap_is_psi_yy(self):
        # measured relation: (eta_xi)_x + (eta_tau)_t = -D'/D - psi_yy|ray,
        # i.e. the nominal divergence identity (= +D'/D) misses by exactly
        # psi_yy + 2 D'/D; the sharp part is (1+x) M22 - M11 = -D'/D
        y = 1.0
        frame = raybeam.beam_matrix(y)
        x = y*y/4.0
        lhs = ((1 + x)*frame.M[1, 1] - frame.M[0, 0]
               - raybeam.psi_yy_on_ray(y))
        dpd = (2*y + 0.75j*y*y)/frame.D
        assert abs((lhs + raybeam.psi_yy_on_ray(y)) + dpd) <= 1e-12

    @pytest.mark.xfail(strict=True, reason=(
        "the divergence-trace identity fails for the frozen-eta frame; "
        "see test_trace_identity_gap_is_psi_yy for the measured relation"))
    def test_nominal_trace_identity(self):
        y = 1.0
        frame = raybeam.beam_matrix(y)
        x = y*y/4.0
        lhs = ((1 + x)*frame.M[1, 1] - frame.M[0, 0]
               - raybeam.psi_yy_on_ray(y))
        dpd = (2*y + 0.75j*y*y)/frame.D
        assert abs(lhs - dpd) <= 1e-8

    def test_onshell_oracle_satisfies_transport(self):
        # with the characteristic-flow frame and a = det(V)^{-1/2}, the
        # residual a' - ((1+x) psi_tt - psi_xx - psi_yy) a / 2 vanishes
        y = 1.0
        p = raybeam.central_ray(y)
        hh = 1e-4

        def psi(xx, yy, tt):
            return _onshell_phase(xx, yy, tt)[0]

        fxx = (psi(p.x + hh, y, p.t) - 2*psi(p.x, y, p.t)
               + psi(p.x - hh, y, p.t))/hh**2
        ftt = (psi(p.x, y, p.t + hh) - 2*psi(p.x, y, p.t)
               + psi(p.x, y, p.t - hh))/hh**2
        fyy = (psi(p.x, y + hh, p.t) - 2*psi(p.x, y, p.t)
               + psi(p.x, y - hh, p.t))/hh**2

        def amp(yy):
            return np.linalg.det(_onshell_phase(0.0, yy, 0.0)[1])**-0.5

        ap = (amp(y + 1e-5) - amp(y - 1e-5))/2e-5
        res = ap - 0.5*((1 + p.x)*ftt - fxx - fyy)*amp(y)
        assert abs(res) <= 1e-5
