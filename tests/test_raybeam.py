"""Ray geometry, beam frame, phase and the residual operations.

The final two test classes document a genuine property of the closed-form
frame: it solves the frozen-eta variational system exactly (the ODE
equivalence tests), but that system is not the linearization of the
characteristic flow of the reduced eikonal.  Consequently the eikonal
residual keeps a quadratic transverse term and the first-order transport
identity fails by +i/2 * a at the vertex.  The strict-xfail tests assert
the nominal identities at their nominal tolerances; the companion tests
pin the measured values, and an on-shell variational oracle shows that the
characteristic-flow construction does satisfy both identities.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from grazebeam import raybeam, verification
from grazebeam.verification import (_rk4_propagate, _variational_generator,
                                    _variational_ode_oracle)


#: y on the central ray, away from the overflow of y^3
_Y = st.floats(-50.0, 50.0, allow_nan=False)


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
        # at fixed tau the reduced flow x' = xi, t' = -tau (1 + x),
        # xi' = tau^2/2 is affine, so linear in the state (x, t, xi, 1)
        tau = -1.2
        G = np.array([[0.0, 0.0, 1.0, 0.0], [-tau, 0.0, 0.0, -tau],
                      [0.0, 0.0, 0.0, tau*tau/2.0], [0.0, 0.0, 0.0, 0.0]])
        state, = _rk4_propagate(
            lambda y: np.broadcast_to(G, np.shape(y) + G.shape),
            [0.1, 0.4, -0.3, 1.0], [2.0])
        got = raybeam.flow_general(raybeam.RayParams(0.1, 0.4, -0.3, tau),
                                   2.0)
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
        # the appendix1 suite's oracle at each of its 13 points
        ys = np.linspace(-3.0, 3.0, 13)
        for y, (Vo, Wo) in zip(ys, _variational_ode_oracle(ys)):
            V, W = raybeam.variational_matrices(y)
            assert np.abs(Vo - V).max() <= 1e-12
            assert np.abs(Wo - W).max() <= 1e-12

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
            _, M, _ = raybeam.closed_frame(y)
            eigs = np.linalg.eigvalsh(M.imag)
            assert eigs.min() > 0.0

    def test_determinant_lower_bound(self):
        for y in np.linspace(-5, 5, 21):
            D, _, _ = raybeam.closed_frame(y)
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


class TestRK4Propagator:
    """The batched RK4 engine of the ODE oracles against a step-by-step RK4."""

    _A = np.random.default_rng(3).standard_normal((3, 4, 4))

    @classmethod
    def _generator(cls, y):
        y = np.asarray(y, dtype=float)[..., None, None]
        return cls._A[0] + y*cls._A[1] + np.cos(3.0*y)*cls._A[2]

    @classmethod
    def _sequential(cls, X, h, n):
        y = 0.0
        for _ in range(n):
            k1 = cls._generator(y) @ X
            k2 = cls._generator(y + h/2) @ (X + h/2*k1)
            k3 = cls._generator(y + h/2) @ (X + h/2*k2)
            k4 = cls._generator(y + h) @ (X + h*k3)
            X = X + h/6*(k1 + 2*k2 + 2*k3 + k4)
            y += h
        return X

    def test_matches_sequential_rk4(self):
        # G(y) at different y do not commute, so the order of the products
        # matters
        G0, G1 = self._generator(0.0), self._generator(1.0)
        assert np.abs(G0 @ G1 - G1 @ G0).max() > 1.0
        # stops on both sides of 0; segments of 1, 499 and 1 steps for
        # y > 0 (h = 0.501/501) and of 3 and 697 steps for y < 0
        X0 = (np.random.default_rng(4).standard_normal((4, 2))
              + 1j*np.random.default_rng(5).standard_normal((4, 2)))
        ys = [0.501, -0.003, 0.0, 0.001, -0.7, 0.5]
        got = _rk4_propagate(self._generator, X0, ys, 1e-3)
        h = {1.0: 0.501/501, -1.0: -0.7/700}
        for y, X in zip(ys, got):
            ref = self._sequential(X0, h[math.copysign(1.0, y)],
                                   round(abs(y)/1e-3))
            assert np.abs(X - ref).max() <= 1e-13*max(1.0, np.abs(ref).max())
        assert np.array_equal(got[2], X0)

    def test_appendix1_suite_memory_is_segment_sized(self):
        # one stop-to-stop segment at a time: whole-side batching peaks
        # at about 3.6 MB
        verification.suite_appendix1()
        tracemalloc.start()
        try:
            verification.suite_appendix1()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_000_000


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


class TestOneFramePerCall:
    """Each beam function reads the closed frame and the ray once."""

    @staticmethod
    def _count(monkeypatch, *names):
        calls = dict.fromkeys(names, 0)
        for name in names:
            def counted(*args, _f=getattr(raybeam, name), _n=name):
                calls[_n] += 1
                return _f(*args)
            monkeypatch.setattr(raybeam, name, counted)
        return calls

    def test_beam_field(self, monkeypatch):
        # the parent built frame and ray twice, once more in beam_phase
        calls = self._count(monkeypatch, "closed_frame", "central_ray",
                            "beam_matrix", "variational_matrices")
        raybeam.beam_field(0.1, 0.5, 0.6, 50.0)
        assert calls == {"closed_frame": 1, "central_ray": 1,
                         "beam_matrix": 0, "variational_matrices": 0}

    def test_transport_residual(self, monkeypatch):
        # the parent built the frame twice, once more in psi_yy_on_ray
        calls = self._count(monkeypatch, "closed_frame", "beam_matrix",
                            "variational_matrices")
        raybeam.transport_residual(0.5)
        assert calls == {"closed_frame": 1, "beam_matrix": 0,
                         "variational_matrices": 0}

    @pytest.mark.parametrize("name, args", [
        ("beam_phase", (0.1, 0.5, 0.6)), ("psi_gradient", (0.1, 0.5, 0.6)),
        ("psi_yy_on_ray", (0.5,))])
    def test_phase_and_derivatives(self, monkeypatch, name, args):
        call = getattr(raybeam, name)
        calls = self._count(monkeypatch, "closed_frame", "beam_matrix",
                            "variational_matrices")
        call(*args)
        assert calls == {"closed_frame": 1, "beam_matrix": 0,
                         "variational_matrices": 0}

    def test_beam_matrix_is_both_halves(self):
        frame = raybeam.beam_matrix(0.7)
        V, W = raybeam.variational_matrices(0.7)
        D, M, a = raybeam.closed_frame(0.7)
        assert np.array_equal(frame.V, V) and np.array_equal(frame.W, W)
        assert frame.D == D and frame.a == a and np.array_equal(frame.M, M)


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
        a = abs(raybeam.closed_frame(y)[2])
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

def _onshell_generator(y):
    """Linearization of the characteristic flow of the reduced eikonal.

    Flow (dx, dt)/dy = (-h_xi, -h_tau), (dxi, dtau)/dy = (h_x, 0) for
    h = ((1+x) tau^2 - xi^2)^{1/2}, linearized along the central ray:
    G = [[A, B], [C, Dm]] acting on X = [V; W], at each y.
    """
    y = np.asarray(y, dtype=float)
    x, xi, tau = y*y/4.0, y/2.0, -1.0
    h = 1.0
    h_xxi = xi*tau*tau/(2.0*h**3)
    h_xtau = tau/h - (1.0 + x)*tau**3/(2.0*h**3)
    h_xixi = -1.0/h - xi*xi/h**3
    h_xitau = xi*(1.0 + x)*tau/h**3
    h_tautau = (1.0 + x)/h - (1.0 + x)**2*tau*tau/h**3
    h_xx = -tau**4/(4.0*h**3)
    G = np.zeros(y.shape + (4, 4))
    G[..., 0, 0], G[..., 1, 0] = -h_xxi, -h_xtau            # A
    G[..., 0, 2], G[..., 0, 3] = -h_xixi, -h_xitau          # B
    G[..., 1, 2], G[..., 1, 3] = -h_xitau, -h_tautau
    G[..., 2, 0] = h_xx                                     # C
    G[..., 2, 2], G[..., 2, 3] = h_xxi, h_xtau              # Dm
    return G


def _onshell_phase(x, y, t, nsteps=3000):
    n = max(10, int(abs(y)*nsteps))
    X0 = np.vstack([np.eye(2), 1j*np.eye(2)])
    X, = _rk4_propagate(_onshell_generator, X0, [y], abs(y)/n)
    V = X[:2]
    M = X[2:] @ np.linalg.inv(V)
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
        # the residual is exactly +i/2 at y = 0 for a = D^{-1/2}
        assert raybeam.transport_residual(0.0) == pytest.approx(0.5j, abs=1e-12)

    @pytest.mark.parametrize("y", [0.0, 2.0])
    @pytest.mark.xfail(strict=True, reason=(
        "first-order transport fails for the closed-form frame: the "
        "residual is +i a/2 at the vertex (frozen-eta variational system)"))
    def test_nominal_transport_identity(self, y):
        assert abs(raybeam.transport_residual(y)) <= 1e-8

    def test_trace_identity_gap_is_psi_yy(self):
        # measured relation: (eta_xi)_x + (eta_tau)_t = -D'/D - psi_yy|ray,
        # i.e. the nominal divergence identity (= +D'/D) misses by exactly
        # psi_yy + 2 D'/D; the sharp part is (1+x) M22 - M11 = -D'/D
        y = 1.0
        D, M, _ = raybeam.closed_frame(y)
        x = y*y/4.0
        lhs = (1 + x)*M[1, 1] - M[0, 0] - raybeam.psi_yy_on_ray(y)
        dpd = (2*y + 0.75j*y*y)/D
        assert abs((lhs + raybeam.psi_yy_on_ray(y)) + dpd) <= 1e-12

    @pytest.mark.xfail(strict=True, reason=(
        "the divergence-trace identity fails for the frozen-eta frame; "
        "see test_trace_identity_gap_is_psi_yy for the measured relation"))
    def test_nominal_trace_identity(self):
        y = 1.0
        D, M, _ = raybeam.closed_frame(y)
        x = y*y/4.0
        lhs = (1 + x)*M[1, 1] - M[0, 0] - raybeam.psi_yy_on_ray(y)
        dpd = (2*y + 0.75j*y*y)/D
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
