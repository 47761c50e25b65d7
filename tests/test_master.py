import numpy as np
import pytest
import scipy.linalg

from qtraj import (
    QuantumState,
    apply_liouvillian,
    build_model,
    equilibrium,
    evolve_master,
    hs_norm,
    vectorized_liouvillian,
)
from qtraj.errors import NonUniqueEquilibrium, ValidationError
from qtraj.linalg import _expm
from qtraj.master import _generator

from conftest import (
    SIGMA_MINUS,
    SIGMA_Z,
    random_complex,
    random_density_matrix,
    random_hermitian,
)
from test_model import random_model


def kernel_oracle(m):
    """Independent stationary-state oracle: least squares on the stacked
    system [L; trace-row] x = [0; 1] in the vectorized representation."""
    vec = vectorized_liouvillian(m)
    n = m.dim
    trace_row = np.eye(n, dtype=complex).flatten(order="F")[None, :]
    a = np.vstack([vec.matrix, trace_row])
    b = np.zeros(n * n + 1, dtype=complex)
    b[-1] = 1.0
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    eta = x.reshape((n, n), order="F")
    return 0.5 * (eta + eta.conj().T)


class TestVectorizedLiouvillian:
    def test_agrees_with_direct_application(self, rng):
        for _ in range(5):
            m = random_model(rng)
            vec = vectorized_liouvillian(m)
            for _ in range(20):
                x = random_hermitian(rng, 2)
                assert hs_norm(vec.apply(x) - apply_liouvillian(m, x)) <= 1e-10


class TestEvolveMaster:
    def test_zero_generator(self, rng):
        with pytest.warns(Warning):
            m = build_model({"dimension": 2, "hamiltonian": np.zeros((2, 2))})
        rho0 = QuantumState(random_density_matrix(2, rng))
        for eta in evolve_master(m, rho0, [0.0, 0.5, 2.0]):
            assert hs_norm(eta.matrix - rho0.matrix) < 1e-12

    def test_decay_scalar_ode_oracle(self, decay_model, rng):
        # For H=0, L=sigma_-, the excited population obeys d ee/dt = -ee.
        rho0 = QuantumState(random_density_matrix(2, rng))
        ee0 = rho0.matrix[0, 0].real
        for t, eta in zip([0.5, 1.0, 2.0], evolve_master(decay_model, rho0, [0.5, 1.0, 2.0])):
            assert eta.matrix[0, 0].real == pytest.approx(ee0 * np.exp(-t), abs=1e-9)

    def test_time_zero_exact(self, heterodyne_model, mixed):
        eta = evolve_master(heterodyne_model, mixed, [0.0])[0]
        assert hs_norm(eta.matrix - mixed.matrix) < 1e-12

    def test_trace_preserving_and_positive(self, rng):
        for _ in range(5):
            m = random_model(rng)
            rho0 = QuantumState(random_density_matrix(2, rng))
            for eta in evolve_master(m, rho0, [0.3, 0.9]):
                assert abs(np.trace(eta.matrix) - 1.0) <= 1e-9
                assert np.linalg.eigvalsh(eta.matrix).min() >= -1e-8

    def test_semigroup(self, heterodyne_model, mixed):
        t, s = 0.7, 0.4
        eta_ts = evolve_master(heterodyne_model, mixed, [t + s])[0]
        eta_t = evolve_master(heterodyne_model, mixed, [t])[0]
        eta_then_s = evolve_master(heterodyne_model, eta_t, [s])[0]
        assert hs_norm(eta_ts.matrix - eta_then_s.matrix) <= 1e-8

    def test_uniform_grid_matches_per_time(self, heterodyne_model, mixed):
        times = np.linspace(0.0, 1.0, 11)
        fast = evolve_master(heterodyne_model, mixed, times)
        slow = [evolve_master(heterodyne_model, mixed, [t])[0] for t in times]
        for a, b in zip(fast, slow):
            assert hs_norm(a.matrix - b.matrix) < 1e-9

    def test_nonuniform_times_match_exponential(self, rng):
        # gaps of 0.1, 0, 0.25, 0.55, 1.1: one propagator per gap, repeated time included
        times = [0.0, 0.1, 0.1, 0.35, 0.9, 2.0]
        for n in (2, 3):
            m = random_model(rng, n)
            rho0 = QuantumState(random_density_matrix(n, rng))
            vec = vectorized_liouvillian(m).matrix
            for t, eta in zip(times, evolve_master(m, rho0, times)):
                v = scipy.linalg.expm(vec * t) @ rho0.matrix.flatten(order="F")
                assert hs_norm(eta.matrix - v.reshape((n, n), order="F")) <= 1e-12

    @pytest.mark.parametrize("model", ["heterodyne_model", "direct_model"])
    def test_outputs_are_the_plain_conversion(self, model, excited, request):
        # no repair: the states are the matrices of the propagated coordinates
        m = request.getfixturevalue(model)
        dt = 0.02
        got = evolve_master(m, excited, np.arange(101) * dt)
        gen, basis = _generator(m)
        prop = _expm(gen * dt)  # the propagator evolve_master builds, bit for bit
        rows = [np.einsum("aij,ji->a", basis, excited.matrix).real]
        for _ in got[1:]:
            rows.append(prop @ rows[-1])
        want = np.einsum("ta,aij->tij", np.array(rows), basis)
        assert np.array_equal(np.array([state.matrix for state in got]), want)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_trace_row_is_exactly_zero(self, n):
        # the generator preserves the trace, so its row 0 is stored as exact
        # zeros, and every propagator copies x_0 = tr rho / sqrt(n) bit for bit
        rng = np.random.default_rng(60 + n)
        gen, basis = _generator(random_model(rng, n))
        assert not gen[0].any()
        prop = _expm(gen * 0.01)
        assert np.array_equal(prop[0], np.eye(n * n)[0])
        x = y = np.einsum("aij,ji->a", basis, random_density_matrix(n, rng)).real
        for _ in range(10_000):
            y = prop @ y
        assert y[0] == x[0]

    def test_rejects_bad_times(self, decay_model, mixed):
        with pytest.raises(ValidationError):
            evolve_master(decay_model, mixed, [1.0, 0.5])
        with pytest.raises(ValidationError):
            evolve_master(decay_model, mixed, [-1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_times(self, decay_model, mixed, bad):
        # a nan gap would reuse the last propagator, and an inf one overflow it
        with pytest.raises(ValidationError, match="finite"):
            evolve_master(decay_model, mixed, [0.0, bad])


class TestEquilibrium:
    def test_decay_ground_state(self, decay_model):
        eta = equilibrium(decay_model)
        assert np.allclose(eta.matrix, np.diag([0.0, 1.0]), atol=1e-9)

    def test_matches_kernel_oracle(self, heterodyne_model):
        rng = np.random.default_rng(5)
        for m in (heterodyne_model, random_model(rng, 3), random_model(rng, 4)):
            assert hs_norm(equilibrium(m).matrix - kernel_oracle(m)) <= 1e-8

    def test_resonance_fluorescence_bloch_oracle(self, heterodyne_model):
        # Independent oracle: steady state of the optical Bloch equations.
        # For gamma=1, Omega=2, Delta=0 and H = (Omega/2) sigma_x the
        # stationary Bloch vector solves the linear system directly.
        eta = equilibrium(heterodyne_model)
        z = np.trace(SIGMA_Z @ eta.matrix).real
        gamma, omega = 1.0, 2.0
        z_want = -(gamma**2) / (gamma**2 + 2.0 * omega**2)
        assert z == pytest.approx(z_want, abs=1e-9)

    def test_residual_small(self, heterodyne_model):
        eta = equilibrium(heterodyne_model)
        assert hs_norm(apply_liouvillian(heterodyne_model, eta.matrix)) <= 1e-9

    def test_fixed_point_of_master(self, heterodyne_model):
        eta = equilibrium(heterodyne_model)
        out = evolve_master(heterodyne_model, eta, [1.0])[0]
        assert hs_norm(out.matrix - eta.matrix) <= 1e-8

    def test_degenerate_generator_raises(self):
        m = build_model(
            {"dimension": 2, "hamiltonian": np.zeros((2, 2)), "diffusive_ops": [SIGMA_Z]}
        )
        with pytest.raises(NonUniqueEquilibrium):
            equilibrium(m)
