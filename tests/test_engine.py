import math
import multiprocessing
import os
import warnings

import numpy as np
import pytest
import scipy.linalg

from qtraj import (
    MeasurementModel,
    PureStateVector,
    QuantumState,
    TimeGrid,
    apply_jump,
    apply_k,
    apply_l0,
    apply_l1,
    apply_liouvillian,
    build_ergodic_report,
    build_model,
    check_ellipticity,
    deterministic_flow,
    evolve_master,
    generate_atom_model,
    hs_norm,
    lie_rank_check,
    quantum_variance,
    run_ensemble,
    simulate_linear,
    simulate_posterior,
    simulate_stratonovich_pure,
    standard_direct,
    variance_decomposition,
)
from qtraj import engine, linalg, master, steps
from qtraj.engine import _ModelArrays, _strat_a_b
from qtraj.errors import (
    DimensionMismatch,
    EnsembleFailure,
    JumpChannelsPresent,
    MultipleDiffusiveOps,
    NotPurePreserving,
    NumericalError,
    ValidationError,
)

from conftest import SIGMA_MINUS, SIGMA_X, SIGMA_Z, random_complex


def identity_jump_model(weight=1.0):
    return build_model(
        {
            "dimension": 2,
            "hamiltonian": np.zeros((2, 2)),
            "jump_channels": [{"label": "c", "weight": weight, "kraus": [np.eye(2)]}],
        }
    )


def _with_diffusion(m, op=0.1 * SIGMA_Z):
    """m plus one diffusive operator: a model with both diffusive operators
    and m's jump channels, which takes the split step."""
    return MeasurementModel(m.dim, m.hamiltonian, (op,), m.jump_channels, m.dissipative_ops)


class TestTimeGrid:
    def test_steps_and_times(self):
        grid = TimeGrid(t_final=5.0, dt=1e-3)
        assert grid.n_steps == 5000
        assert grid.times[0] == 0.0
        assert grid.times[-1] == pytest.approx(5.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            TimeGrid(t_final=1.0, dt=0.0)
        with pytest.raises(ValidationError):
            TimeGrid(t_final=0.5, dt=1.0)


class TestSimulateLinear:
    def test_identity_jump_constant(self, mixed):
        m = identity_jump_model()
        grid = TimeGrid(t_final=1.0, dt=1e-3)
        traj = simulate_linear(m, mixed, grid, seed=5)
        assert np.abs(traj.sigma_path - mixed.matrix).max() < 1e-12
        assert np.abs(traj.weight_path - 1.0).max() < 1e-12

    def test_unitary_weight_one(self):
        m = build_model({"dimension": 2, "hamiltonian": SIGMA_Z})
        plus = QuantumState(0.5 * np.ones((2, 2), dtype=complex))
        grid = TimeGrid(t_final=0.5, dt=1e-4)
        traj = simulate_linear(m, plus, grid, seed=9)
        assert np.abs(traj.weight_path - 1.0).max() < 1e-12
        # the Kraus step keeps the pure state pure, with no repair
        tr2 = np.einsum("tij,tji->t", traj.sigma_path, traj.sigma_path).real
        assert (1.0 - tr2 / traj.weight_path**2).max() <= 1e-12
        t = grid.times[-1]
        u = np.diag(np.exp(-1j * np.diag(SIGMA_Z) * t))
        exact = u @ plus.matrix @ u.conj().T
        assert hs_norm(traj.sigma_path[-1] - exact) < 5e-4

    def test_deterministic(self, heterodyne_model, mixed):
        grid = TimeGrid(t_final=0.2, dt=1e-3)
        a = simulate_linear(heterodyne_model, mixed, grid, seed=3)
        b = simulate_linear(heterodyne_model, mixed, grid, seed=3)
        assert np.array_equal(a.sigma_path, b.sigma_path)
        assert np.array_equal(a.output.wiener, b.output.wiener)

    def test_positivity_after_repair(self, heterodyne_model, excited):
        grid = TimeGrid(t_final=0.5, dt=1e-3)
        traj = simulate_linear(heterodyne_model, excited, grid, seed=17)
        evals = np.linalg.eigvalsh(traj.sigma_path)
        assert evals.min() >= -1e-8
        assert traj.weight_path.min() > 0.0
        assert not traj.weight_underflow


class TestSimulatePosterior:
    def test_identity_jump_constant(self, mixed):
        m = identity_jump_model()
        grid = TimeGrid(t_final=1.0, dt=1e-3)
        traj = simulate_posterior(m, mixed, grid, seed=5)
        assert np.abs(traj.state_path - mixed.matrix).max() < 1e-12

    def test_selfadjoint_eigenstate_fixed(self, excited):
        m = build_model(
            {"dimension": 2, "hamiltonian": np.zeros((2, 2)), "diffusive_ops": [SIGMA_Z]}
        )
        grid = TimeGrid(t_final=1.0, dt=1e-3)
        traj = simulate_posterior(m, excited, grid, seed=11)
        assert np.abs(traj.state_path - excited.matrix).max() < 1e-12

    def test_deterministic(self, heterodyne_model, mixed):
        grid = TimeGrid(t_final=0.2, dt=1e-3)
        a = simulate_posterior(heterodyne_model, mixed, grid, seed=3)
        b = simulate_posterior(heterodyne_model, mixed, grid, seed=3)
        assert np.array_equal(a.state_path, b.state_path)
        assert np.array_equal(a.output.compensated_wiener, b.output.compensated_wiener)

    def test_states_valid_each_step(self, heterodyne_model, mixed):
        grid = TimeGrid(t_final=0.3, dt=1e-3)
        traj = simulate_posterior(heterodyne_model, mixed, grid, seed=23)
        traces = np.einsum("tii->t", traj.state_path).real
        assert np.abs(traces - 1.0).max() < 1e-12
        assert np.linalg.eigvalsh(traj.state_path).min() >= -1e-12
        herm = traj.state_path - traj.state_path.conj().transpose(0, 2, 1)
        assert np.abs(herm).max() < 1e-12

    def test_wiener_reconstruction(self, heterodyne_model, homodyne_model, mixed):
        # increments of W are the drawn standard increments plus m dt, with
        # m_j = tr (L_j + L_j*) rho at the start of the step: posterior
        # heterodyne, Stratonovich homodyne, and a diffusive and jump model
        grid = TimeGrid(t_final=0.1, dt=1e-3)
        split = _with_diffusion(generate_atom_model(standard_direct(300.0, 1000.0)))
        psi0 = PureStateVector([1.0, 0.0])
        for m, traj in (
            (heterodyne_model, simulate_posterior(heterodyne_model, mixed, grid, seed=29)),
            (homodyne_model, simulate_stratonovich_pure(homodyne_model, psi0, grid, seed=29)),
            (split, simulate_posterior(split, mixed, grid, seed=29)),
        ):
            diff = traj.output.wiener - traj.output.compensated_wiener
            assert diff.shape == (grid.n_steps, m.n_diffusive)
            starts = traj.state_path[:-1]
            want = [np.einsum("ij,tji->t", op + op.conj().T, starts).real for op in m.diffusive_ops]
            assert np.abs(diff / grid.dt - np.stack(want, axis=1)).max() < 1e-12

    def test_adaptive_substepping_high_rate(self, mixed):
        m = identity_jump_model(weight=400.0)  # 0.4 jumps per step
        grid = TimeGrid(t_final=0.05, dt=1e-3)
        traj = simulate_posterior(m, mixed, grid, seed=31)
        assert np.abs(traj.state_path - mixed.matrix).max() < 1e-12
        assert traj.output.jump_counts.sum() > 0
        # with a diffusive operator at 5 expected jumps per step the split
        # model takes 2 substeps, and its path records the jumps
        split = _with_diffusion(identity_jump_model(weight=5000.0))
        assert _ModelArrays(split).substeps(grid.dt) == 2
        traj = simulate_posterior(split, mixed, grid, seed=31)
        assert np.isfinite(traj.state_path).all()
        assert traj.output.jump_counts.sum() > 0

    def test_substep_count_forgives_rounding(self):
        # peak total intensity 300.00000000000006: at dt = 0.08 the bound
        # 6.000000000000001 times _JUMP_BOUND gives 6
        arr = _ModelArrays(_with_diffusion(generate_atom_model(standard_direct(300.0, 1000.0))))
        assert arr.peak_total * 0.08 / steps._JUMP_BOUND > 6.0
        assert arr.substeps(0.08) == 6
        assert arr.substeps(0.08 * (1 + 1e-9)) == 7


def _counting_model(weight=500.0):
    """Three levels, two counting channels and a dissipative operator; at
    weight 500 and dt = 1e-3 about one jump per step, often several."""
    return _random_model(np.random.default_rng(5), 3, n_diff=0, n_jump=2, n_diss=1, jump_weight=weight)


def _superop(f, n):
    """The matrix of a linear map on n x n matrices, on row-major flattened matrices."""
    units = np.eye(n * n).reshape(n * n, n, n).astype(complex)
    return np.stack([f(e).reshape(-1) for e in units], axis=1)


def _factorial_moments(m, rho0, t, k, order=4):
    """E[N (N - 1) ... (N - r + 1)], r = 1..order, of channel k's count N by time t.

    E[z^N] = tr exp(t L_z) rho0 with L_z = L + (z - 1) nu_k J_k.  Block (0, r)
    of exp(t A), A block-bidiagonal with L on the diagonal and nu_k J_k above
    it, is the r-th z-derivative of exp(t L_z) at z = 1 over r! (Van Loan,
    IEEE TAC 23, 395, 1978)."""
    n = m.dim
    nn = n * n
    gen = _superop(lambda r: apply_liouvillian(m, r), n)
    count = _superop(lambda r: m.jump_channels[k].weight * apply_jump(m, r, k), n)
    a = np.zeros(((order + 1) * nn, (order + 1) * nn), dtype=complex)
    for r in range(order + 1):
        a[r * nn:(r + 1) * nn, r * nn:(r + 1) * nn] = gen
        if r < order:
            a[r * nn:(r + 1) * nn, (r + 1) * nn:(r + 2) * nn] = count
    top = scipy.linalg.expm(t * a)[:nn].reshape(nn, order + 1, nn)
    vec = np.asarray(rho0).reshape(-1)
    return [math.factorial(r) * np.trace((top[:, r] @ vec).reshape(n, n)).real
            for r in range(1, order + 1)]


def _mean_and_variance_law(f):
    """Mean, variance and the standard deviation of one sample's squared
    deviation (for the SE of a sample variance) from factorial moments f1..f4."""
    f1, f2, f3, f4 = f
    m2, m3 = f2 + f1, f3 + 3 * f2 + f1
    m4 = f4 + 6 * f3 + 7 * f2 + f1
    var = m2 - f1**2
    mu4 = m4 - 4 * f1 * m3 + 6 * f1**2 * m2 - 3 * f1**4
    return f1, var, math.sqrt(mu4 - var**2)


class TestWaitingTime:
    """The counting-only posterior step samples the counting process exactly:
    its laws match the master equation, and a step whose bound on the
    expected number of jumps exceeds ``steps._JUMP_BOUND`` is substepped."""

    N_TRAJ = 2000

    class _Fired:
        """Keeps the (K, F, B) jump counts of every flush."""

        def __init__(self):
            self.fired = []

        def collect(self, i, state, entropy, fired, *rest):
            if fired is not None:
                self.fired.append(fired.copy())

    def test_first_jump_time_law(self):
        # P(first jump by t_i) = 1 - tr exp(t_i K0) rho0, K0 = L - nu J
        m = generate_atom_model(standard_direct(300.0, 1000.0))
        rho0 = np.eye(2, dtype=complex) / 2
        grid = TimeGrid(t_final=0.02, dt=1e-3)
        rec = self._Fired()
        arr = _ModelArrays(m)
        assert arr.K == 1 and arr.substeps(grid.dt) == 1
        engine._simulate_batch(arr, "posterior", rho0, grid, list(range(self.N_TRAJ)), rec)
        counts = np.concatenate(rec.fired, axis=1).sum(axis=0).T  # (B, n_steps)
        first = np.where(counts.any(axis=1), counts.argmax(axis=1), grid.n_steps)
        k0 = _superop(lambda r: apply_liouvillian(m, r) - apply_jump(m, r, 0), 2)
        for i in (1, 2, 5, 10, 20):
            p = 1.0 - np.trace(
                (scipy.linalg.expm(i * grid.dt * k0) @ rho0.reshape(-1)).reshape(2, 2)
            ).real
            got = (first < i).mean()
            assert abs(got - p) <= 4.5 * math.sqrt(p * (1 - p) / self.N_TRAJ), (i, got, p)

    @pytest.mark.parametrize("name", ["direct", "mixed", "counting"])
    def test_count_mean_and_variance(self, name):
        if name == "direct":  # the high-rate atom: about 0.14 jumps per step
            m, t_final = generate_atom_model(standard_direct(300.0, 1000.0)), 0.2
        elif name == "mixed":  # the same atom with a diffusive operator: the split step
            m, t_final = _with_diffusion(generate_atom_model(standard_direct(300.0, 1000.0))), 0.2
        else:  # two channels, several jumps in many steps
            m, t_final = _counting_model(), 0.02
        rho0 = np.eye(m.dim, dtype=complex) / m.dim
        stats = run_ensemble(
            m, QuantumState(rho0), TimeGrid(t_final, 1e-3), self.N_TRAJ, 7, "posterior"
        )
        for k in range(m.n_jump):
            mean, var, sd_dev2 = _mean_and_variance_law(_factorial_moments(m, rho0, t_final, k))
            got_mean, se = stats.jump_count_mean[k], stats.jump_count_se[k]
            assert abs(got_mean - mean) <= 4.5 * se, (k, got_mean, mean, se)
            got_var = se**2 * self.N_TRAJ
            tol = 4.5 * sd_dev2 / math.sqrt(self.N_TRAJ)
            assert abs(got_var - var) <= tol, (k, got_var, var, tol)

    @pytest.mark.parametrize("dt, t_final", [(1e-3, 0.05), (1e-2, 1.0)])
    def test_identity_jumps_are_poisson(self, dt, t_final, mixed):
        # 0.4 and 4 jumps per step; the count by T is Poisson(nu T).  At 4
        # jumps per step, rounding every jump time up to the grid would
        # undercount by 4 / 512 relative, about 7 SE at T = 1
        m = identity_jump_model(weight=400.0)
        stats = run_ensemble(m, mixed, TimeGrid(t_final, dt), self.N_TRAJ, 11, "posterior")
        lam = 400.0 * t_final
        se = stats.jump_count_se[0]
        assert abs(stats.jump_count_mean[0] - lam) <= 4.5 * math.sqrt(lam / self.N_TRAJ)
        tol = 4.5 * math.sqrt((lam + 2 * lam**2) / self.N_TRAJ)
        assert abs(se**2 * self.N_TRAJ - lam) <= tol
        assert np.abs(stats.mean_state - mixed.matrix).max() < 1e-12

    def test_many_jumps_per_step_are_substepped(self, mixed):
        # 40 jumps per step: 10 waiting-time substeps of 4.  Without
        # substeps this reads -1.4 % (z = -27).  The cause is the 256-point
        # jump-time grid: each jump moves a row at least one grid point on,
        # and at 40 jumps per step that dead time undercounts even with a
        # fresh uniform per jump
        m = identity_jump_model(weight=4000.0)
        grid = TimeGrid(t_final=0.1, dt=1e-2)
        assert _ModelArrays(m).substeps(grid.dt) == 10
        stats = run_ensemble(m, mixed, grid, self.N_TRAJ, 13, "posterior")
        lam = 4000.0 * grid.t_final
        assert abs(stats.jump_count_mean[0] - lam) <= 4.5 * math.sqrt(lam / self.N_TRAJ)
        tol = 4.5 * math.sqrt((lam + 2 * lam**2) / self.N_TRAJ)
        assert abs(stats.jump_count_se[0] ** 2 * self.N_TRAJ - lam) <= tol

    @pytest.mark.parametrize("scale", [0.0, 1e-3, 0.3, 5.0, 40.0, "complex", "nilpotent", "master"])
    def test_expm_matches_scipy(self, scale):
        # real 9 x 9 matrices at five scales; a complex 3 x 3 matrix, as the
        # pure-state flow exponentiates; sigma_-, whose exponential I + sigma_-
        # is exact; and the direct atom's master generator over a gap of 10
        # (infinity norm 1.6e4), as evolve_master exponentiates
        rng = np.random.default_rng(23)
        if scale == "complex":
            a = 10.0 * random_complex(rng, 3)
        elif scale == "nilpotent":
            a = SIGMA_MINUS
        elif scale == "master":
            atom = generate_atom_model(standard_direct(linewidth=300.0, rabi=1000.0))
            a = 10.0 * master._generator(atom)[0]
            assert np.abs(a).sum(axis=1).max() == pytest.approx(1.6e4)
        else:
            a = scale * rng.standard_normal((9, 9))
        got, want = linalg._expm(a), scipy.linalg.expm(a)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
        if scale == "nilpotent":
            assert np.array_equal(got, np.eye(2) + SIGMA_MINUS)

    def test_substep_count_bounds_total_jumps(self):
        # two channels of peak 1368 each, 2350 together: the total sets s
        arr = _ModelArrays(_counting_model())
        assert arr.substeps(1e-3) == 1
        assert arr.substeps(1e-2) == math.ceil(arr.peak_total * 1e-2 / steps._JUMP_BOUND) == 6
        assert _ModelArrays(identity_jump_model(weight=400.0)).substeps(1e-2) == 1  # exactly 4


class TestStratonovichFields:
    def test_b_vanishes_at_eigenprojector(self, excited):
        m = build_model(
            {"dimension": 2, "hamiltonian": np.zeros((2, 2)), "diffusive_ops": [SIGMA_Z]}
        )
        arr = _ModelArrays(m)
        _, b, _ = _strat_a_b(arr, arr.coords(excited.matrix[None]))
        assert np.abs(b).max() < 1e-14

    def test_a_reduces_to_hamiltonian_flow(self, rng):
        m = build_model(
            {
                "dimension": 2,
                "hamiltonian": SIGMA_X,
                "diffusive_ops": [np.zeros((2, 2))],
            }
        )
        arr = _ModelArrays(m)
        rho = np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]], dtype=complex)
        a = arr.matrices(_strat_a_b(arr, arr.coords(rho[None]))[0])[0]
        want = -1j * (SIGMA_X @ rho - rho @ SIGMA_X)
        assert hs_norm(a - want) < 1e-14


class TestSimulateStratonovich:
    def test_path_stays_pure(self, homodyne_model):
        grid = TimeGrid(t_final=0.5, dt=1e-3)
        traj = simulate_stratonovich_pure(
            homodyne_model, PureStateVector([1.0, 0.0]), grid, seed=7
        )
        assert traj.entropy_path.max() <= 1e-6
        assert traj.purity_defect_max <= 10.0 * grid.dt

    def test_rejects_jump_models(self, direct_model):
        grid = TimeGrid(t_final=0.1, dt=1e-3)
        with pytest.raises(JumpChannelsPresent):
            simulate_stratonovich_pure(direct_model, PureStateVector([1.0, 0.0]), grid, 1)

    def test_rejects_dissipative(self):
        m = build_model(
            {
                "dimension": 2,
                "hamiltonian": np.zeros((2, 2)),
                "diffusive_ops": [SIGMA_MINUS],
                "dissipative_ops": [SIGMA_X],
            }
        )
        grid = TimeGrid(t_final=0.1, dt=1e-3)
        with pytest.raises(NotPurePreserving):
            simulate_stratonovich_pure(m, PureStateVector([1.0, 0.0]), grid, 1)


class TestDeterministicFlow:
    def test_decay_converges_to_ground(self, decay_model, rng):
        for _ in range(3):
            amp = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            amp[0] += 1.0  # ensure excited component
            amp /= np.linalg.norm(amp)
            res = deterministic_flow(decay_model, PureStateVector(amp), t_final=2000.0)
            assert hs_norm(res.states[-1].matrix - np.diag([0.0, 1.0])) < 1e-2

    def test_ground_is_fixed_point(self, decay_model):
        res = deterministic_flow(decay_model, PureStateVector([0.0, 1.0]), t_final=10.0)
        for state in res.states:
            assert hs_norm(state.matrix - np.diag([0.0, 1.0])) < 1e-12
        assert res.limit_point is not None

    def test_selfadjoint_dominant_eigenvector(self):
        m = build_model(
            {
                "dimension": 2,
                "hamiltonian": np.zeros((2, 2)),
                "diffusive_ops": [np.diag([1.0, -1.0]).astype(complex)],
            }
        )
        psi0 = PureStateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        res = deterministic_flow(m, psi0, t_final=30.0)
        # oracle: normalized exp(L t) psi0
        vec = scipy.linalg.expm(30.0 * m.diffusive_ops[0]) @ psi0.amplitudes
        vec = vec / np.linalg.norm(vec)
        want = np.outer(vec, vec.conj())
        assert hs_norm(res.states[-1].matrix - want) < 1e-9
        assert hs_norm(res.states[-1].matrix - np.diag([1.0, 0.0])) < 1e-9
        assert res.limit_point is not None

    def test_sign_reversal(self):
        m = build_model(
            {
                "dimension": 2,
                "hamiltonian": np.zeros((2, 2)),
                "diffusive_ops": [np.diag([1.0, -1.0]).astype(complex)],
            }
        )
        psi0 = PureStateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        res = deterministic_flow(m, psi0, t_final=30.0, sign=-1)
        assert hs_norm(res.states[-1].matrix - np.diag([0.0, 1.0])) < 1e-9

    @pytest.mark.parametrize("n_points", [0, -1, 2.5])
    def test_rejects_no_points(self, decay_model, n_points):
        with pytest.raises(ValidationError, match="n_points"):
            deterministic_flow(decay_model, PureStateVector([1.0, 0.0]), 1.0, n_points=n_points)

    def test_requires_single_op(self, heterodyne_model):
        with pytest.raises(MultipleDiffusiveOps):
            deterministic_flow(heterodyne_model, PureStateVector([1.0, 0.0]), 1.0)
        res = deterministic_flow(
            heterodyne_model, PureStateVector([1.0, 0.0]), 50.0, op_index=0
        )
        assert res.states[-1].dim == 2


class TestLinearStepPositivity:
    """Positive inputs stay positive; the weight is the Euler-Maruyama trace."""

    B = 20
    DT = 1e-2

    @pytest.mark.parametrize("n", [2, 3])
    def test_positive_with_euler_weight(self, n, rng, heterodyne_model):
        if n == 2:
            m = heterodyne_model
        else:
            m = _random_model(rng, 3, n_diff=2, n_jump=1, n_diss=1)
        arr = _ModelArrays(m)
        for pure in (True, False):
            sig = 1.2 * _random_states(rng, self.B, n, pure)
            dW = rng.standard_normal((self.B, m.n_diffusive)) * np.sqrt(self.DT)
            u = np.where(np.arange(self.B)[:, None] % 3 == 0, 0.0, 1.0) * np.ones((1, m.n_jump))
            out, fired = engine._step_linear(arr, sig, self.DT, dW, u)
            w = arr.tr0 * out[:, 0]
            out = arr.matrices(out)
            for i in range(self.B):
                assert np.linalg.eigvalsh(out[i]).min() >= -1e-14
                assert abs(w[i] - _euler_trace(m, sig[i], self.DT, dW[i], fired[i])) < 1e-12

    def test_zero_jump_image_underflows(self, direct_model, ground):
        # seed 4 fires sigma_- at the first step, on |g><g|, whose image is 0
        grid = TimeGrid(t_final=1.0, dt=1e-3)
        traj = simulate_linear(direct_model, ground, grid, seed=4)
        assert traj.output.jump_counts[0, 0] > 0
        assert np.isfinite(traj.sigma_path).all()
        traces = np.einsum("tii->t", traj.sigma_path).real
        assert np.abs(traces - traj.weight_path).max() < 1e-12
        assert traj.weight_underflow

    def test_entropy_of_underflowed_rows(self, direct_model, ground):
        # seed 4 resets the zero jump image to weight 1e-14, below which the
        # weight keeps shrinking; the entropy is that of sigma / w all along
        stats = run_ensemble(direct_model, ground, TimeGrid(2.0, 1e-3), 1, 4, "linear")
        assert stats.max_entropy_per_traj[0] <= 0.5 + 1e-12
        traj = stats.trajectory
        assert traj.weight_path.min() < 1e-14
        tr2 = np.einsum("tij,tji->t", traj.sigma_path, traj.sigma_path).real
        assert np.abs(traj.entropy_path - (1.0 - tr2 / traj.weight_path**2)).max() <= 1e-12
        assert traj.entropy_path.max() <= 0.5 + 1e-12


class TestRunEnsemble:
    def test_single_trajectory_equals_stats(self, heterodyne_model, mixed):
        grid = TimeGrid(t_final=0.2, dt=1e-3)
        stats = run_ensemble(heterodyne_model, mixed, grid, 1, seed=5, mode="posterior")
        traj = simulate_posterior(heterodyne_model, mixed, grid, seed=5)
        assert np.array_equal(stats.mean_state, traj.state_path)
        assert np.array_equal(stats.mean_entropy, traj.entropy_path)
        assert stats.n_traj == 1 and stats.n_failed == 0

    def test_martingale_small_run(self, heterodyne_model, mixed):
        grid = TimeGrid(t_final=1.0, dt=1e-3)
        stats = run_ensemble(heterodyne_model, mixed, grid, 256, seed=7, mode="linear")
        i = stats.index_of_time(1.0)
        dev = abs(stats.mean_weight[i] - 1.0)
        assert dev <= 4.0 * stats.se_weight[i]

    def test_posterior_mean_matches_master(self, heterodyne_model, mixed):
        grid = TimeGrid(t_final=1.0, dt=1e-3)
        stats = run_ensemble(heterodyne_model, mixed, grid, 256, seed=9, mode="posterior")
        eta = evolve_master(heterodyne_model, mixed, [1.0])[0]
        i = stats.index_of_time(1.0)
        diff = np.abs(stats.mean_state[i] - eta.matrix)
        se = np.sqrt(stats.se_state_re[i] ** 2 + stats.se_state_im[i] ** 2)
        assert (diff <= 4.0 * se + 2e-3).all()

    def test_girsanov_cross_check(self, heterodyne_model, mixed):
        grid = TimeGrid(t_final=1.0, dt=1e-3)
        lin = run_ensemble(
            heterodyne_model, mixed, grid, 256, seed=13, mode="linear", observable=SIGMA_Z
        )
        post = run_ensemble(
            heterodyne_model, mixed, grid, 256, seed=1013, mode="posterior", observable=SIGMA_Z
        )
        i = lin.index_of_time(1.0)
        diff = abs(lin.obs_mean[i].real - post.obs_mean[i].real)
        se = np.hypot(lin.obs_se_re[i], post.obs_se_re[i])
        assert diff <= 4.0 * se + 2e-3

    def test_wiener_increment_statistics(self, heterodyne_model, mixed):
        grid = TimeGrid(t_final=1.0, dt=1e-3)
        stats = run_ensemble(heterodyne_model, mixed, grid, 64, seed=15, mode="posterior")
        n = 64 * grid.n_steps
        assert np.abs(stats.wiener_increment_mean).max() <= 4.0 * np.sqrt(grid.dt / n)
        assert stats.wiener_increment_var == pytest.approx(grid.dt, rel=0.05)

    def test_stratonovich_mode_requires_pure(self, homodyne_model, mixed):
        grid = TimeGrid(t_final=0.1, dt=1e-3)
        with pytest.raises(ValidationError):
            run_ensemble(homodyne_model, mixed, grid, 2, seed=1, mode="stratonovich")

    def test_invalid_mode(self, heterodyne_model, mixed):
        grid = TimeGrid(t_final=0.1, dt=1e-3)
        with pytest.raises(ValidationError):
            run_ensemble(heterodyne_model, mixed, grid, 2, seed=1, mode="euler")

    def test_non_finite_observable(self, heterodyne_model, mixed):
        grid = TimeGrid(t_final=0.01, dt=1e-3)
        obs = SIGMA_Z.copy()
        obs[0, 1] = np.nan
        with pytest.raises(ValidationError, match="observable"):
            run_ensemble(heterodyne_model, mixed, grid, 2, 1, "posterior", observable=obs)

    def test_seed_outside_philox_keys(self, heterodyne_model, mixed, monkeypatch):
        # trajectory i takes key seed + i, so every key must be in [0, 2**128);
        # an ensemble checks all its keys before its first block, so also when
        # the bad key is in a later block (blocks of 2)
        grid = TimeGrid(t_final=0.01, dt=1e-3)
        run_ensemble(heterodyne_model, mixed, grid, 2, 2**128 - 2, "posterior")

        def no_step(*args):
            raise AssertionError("a step ran before the keys were checked")

        monkeypatch.setattr(engine, "_step_posterior", no_step)
        with pytest.raises(ValidationError, match="seed"):
            run_ensemble(heterodyne_model, mixed, grid, 1, -1, "posterior")
        with pytest.raises(ValidationError, match="seed"):
            run_ensemble(heterodyne_model, mixed, grid, 3, 2**128 - 2, "posterior")
        monkeypatch.setattr(engine, "_BLOCK", 2)
        with pytest.raises(ValidationError, match="seed"):
            run_ensemble(heterodyne_model, mixed, grid, 3, 2**128 - 2, "posterior")

    @pytest.mark.parametrize("seed", [1.7, 2.0, np.float64(1.0), "1", None])
    def test_non_integer_seed_is_a_validation_error(self, seed, heterodyne_model, mixed):
        # a seed is not truncated to an integer: 1.7 would run seed 1's paths
        grid = TimeGrid(t_final=0.01, dt=1e-3)
        with pytest.raises(ValidationError, match="seed must be an integer"):
            run_ensemble(heterodyne_model, mixed, grid, 3, seed, "posterior")
        with pytest.raises(ValidationError, match="seed must be an integer"):
            simulate_posterior(heterodyne_model, mixed, grid, seed)

    def test_numpy_integer_seed_is_the_same_seed(self, heterodyne_model, mixed):
        grid = TimeGrid(t_final=0.01, dt=1e-3)
        want = run_ensemble(heterodyne_model, mixed, grid, 3, 1, "posterior")
        got = run_ensemble(heterodyne_model, mixed, grid, 3, np.int64(1), "posterior")
        assert np.array_equal(got.mean_state, want.mean_state)
        path = simulate_posterior(heterodyne_model, mixed, grid, np.uint8(1)).state_path
        assert np.array_equal(path, want.trajectory.state_path)

    @pytest.mark.parametrize("t", [np.nan, np.inf, 1.5])
    def test_index_of_time_rejects(self, heterodyne_model, mixed, t):
        stats = run_ensemble(heterodyne_model, mixed, TimeGrid(1.0, 0.1), 1, 1, "posterior")
        with pytest.raises(ValidationError):
            stats.index_of_time(t)

    def test_parallel_matches_serial(self, mixed, monkeypatch):
        # 2 to 5 blocks of 8, the last one partial, so that the caller's
        # blocks 0, P, 2P, ... and the pool's interleave in every pattern
        grid = TimeGrid(t_final=0.1, dt=1e-3)
        m = _mixed_jump_model()
        monkeypatch.setattr(engine, "_BLOCK", 8)
        for n_traj in (13, 20, 27, 37):
            monkeypatch.setenv("QTRAJ_THREADS", "1")
            serial = run_ensemble(m, mixed, grid, n_traj, seed=3, mode="posterior")
            assert serial.jump_count_mean[0] > 0.0
            for threads in ("2", "3"):
                monkeypatch.setenv("QTRAJ_THREADS", threads)
                parallel = run_ensemble(m, mixed, grid, n_traj, seed=3, mode="posterior")
                for name in ("mean_state", "se_state_re", "mean_entropy",
                             "jump_count_mean", "max_entropy_per_traj"):
                    assert np.array_equal(getattr(serial, name), getattr(parallel, name))
                want, got = serial.trajectory, parallel.trajectory
                assert np.array_equal(got.state_path, want.state_path)
                assert np.array_equal(got.entropy_path, want.entropy_path)
                assert np.array_equal(got.output.wiener, want.output.wiener)
                assert np.array_equal(got.output.jump_counts, want.output.jump_counts)

    def test_pool_starts_no_idle_workers(self, heterodyne_model, mixed, monkeypatch):
        sizes, mapped = [], []

        class Recorder:
            """Records the pool size and the blocks it maps, and maps them in
            this process; starts no process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                items = list(items)
                mapped.extend((args[4][0] - 3) // 8 for args in items)  # first seed
                return map(fn, items)

        monkeypatch.setattr(engine, "ProcessPoolExecutor", Recorder)
        monkeypatch.setattr(engine, "_BLOCK", 8)
        grid = TimeGrid(t_final=0.01, dt=1e-3)
        # (QTRAJ_THREADS, trajectories in blocks of 8, pool sizes started,
        # blocks the pool runs: those whose index is not a multiple of P)
        cases = (
            ("64", 16, [1], [1]),
            ("2", 24, [1], [1]),
            ("2", 40, [1], [1, 3]),
            ("3", 24, [2], [1, 2]),
            ("3", 40, [2], [1, 2, 4]),
            ("64", 8, [], []),
        )
        for threads, n_traj, want_sizes, want_mapped in cases:
            sizes.clear()
            mapped.clear()
            monkeypatch.setenv("QTRAJ_THREADS", threads)
            run_ensemble(heterodyne_model, mixed, grid, n_traj, seed=3, mode="posterior")
            assert sizes == want_sizes
            assert mapped == want_mapped

    def test_pool_leaves_no_process(self, heterodyne_model, mixed, monkeypatch):
        # 3 blocks, P = 3: the caller runs block 0 and two workers the others.
        # A NumericalError is raised in the caller's own block while the
        # workers still hold theirs
        monkeypatch.setattr(engine, "_BLOCK", 8)
        monkeypatch.setenv("QTRAJ_THREADS", "3")
        grid = TimeGrid(0.01, 1e-3)
        run_ensemble(heterodyne_model, mixed, grid, 24, 3, "posterior")
        assert multiprocessing.active_children() == []
        caller = os.getpid()
        kernel = engine._step_posterior

        def step(*args):
            if os.getpid() == caller:
                raise NumericalError("the caller's block fails")
            return kernel(*args)

        monkeypatch.setattr(engine, "_step_posterior", step)
        with pytest.raises(NumericalError, match="the caller's block fails"):
            run_ensemble(heterodyne_model, mixed, grid, 24, 3, "posterior")
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("threads", ["two", "1.5", "0", "-3"])
    def test_non_integer_threads_is_a_validation_error(
        self, heterodyne_model, mixed, monkeypatch, threads
    ):
        monkeypatch.setenv("QTRAJ_THREADS", threads)
        grid = TimeGrid(t_final=0.01, dt=1e-3)
        with pytest.raises(ValidationError, match="QTRAJ_THREADS"):
            run_ensemble(heterodyne_model, mixed, grid, 2, seed=3, mode="posterior")

    def test_jump_counts_recorded(self, direct_model, mixed):
        grid = TimeGrid(t_final=2.0, dt=1e-3)
        stats = run_ensemble(direct_model, mixed, grid, 64, seed=19, mode="posterior")
        assert stats.jump_count_mean[0] > 0.0
        assert stats.jump_count_se[0] > 0.0

    def test_single_trajectory_record_holds_its_jump_counts(self, direct_model, mixed):
        grid = TimeGrid(t_final=2.0, dt=1e-3)
        stats = run_ensemble(direct_model, mixed, grid, 1, seed=19, mode="posterior")
        counts = stats.trajectory.output.jump_counts
        assert counts.shape == (grid.n_steps, 1) and counts.dtype == np.int64
        assert counts.sum() > 0
        assert np.array_equal(counts.sum(axis=0), stats.jump_count_mean)

    @pytest.mark.parametrize("n_traj", [0, 2.5, np.float64(2.0), "2"])
    def test_trajectory_count_is_an_integer_of_at_least_one(self, heterodyne_model, mixed,
                                                            n_traj):
        # the count is checked before the keys, so 2.5 is not blamed on the seed
        grid = TimeGrid(t_final=0.01, dt=1e-3)
        with pytest.raises(ValidationError, match="^n_traj must be"):
            run_ensemble(heterodyne_model, mixed, grid, n_traj, seed=3, mode="posterior")


# -- every state is checked against the model's dimension ----------------------

_GRID = TimeGrid(t_final=0.01, dt=1e-3)
_RHO3 = QuantumState(np.diag([1.0, 0.0, 0.0]).astype(complex))
_PSI3 = PureStateVector([1.0, 0.0, 0.0])

# each call gets a 2-level model (the homodyne atom) and a 2-level trajectory
_WRONG_DIMENSION = {
    "simulate_linear": lambda m, traj: simulate_linear(m, _RHO3, _GRID, 1),
    "simulate_posterior": lambda m, traj: simulate_posterior(m, _RHO3, _GRID, 1),
    "simulate_stratonovich_pure": lambda m, traj: simulate_stratonovich_pure(m, _PSI3, _GRID, 1),
    "run_ensemble_linear": lambda m, traj: run_ensemble(m, _RHO3, _GRID, 4, 1, "linear"),
    "run_ensemble_posterior": lambda m, traj: run_ensemble(m, _RHO3, _GRID, 4, 1, "posterior"),
    "run_ensemble_stratonovich":
        lambda m, traj: run_ensemble(m, _RHO3, _GRID, 4, 1, "stratonovich"),
    "evolve_master": lambda m, traj: evolve_master(m, _RHO3, [0.0, 1.0]),
    "deterministic_flow": lambda m, traj: deterministic_flow(m, _PSI3, 1.0),
    "lie_rank_check": lambda m, traj: lie_rank_check(m, _PSI3),
    "check_ellipticity": lambda m, traj: check_ellipticity(m, _PSI3),
    "quantum_variance": lambda m, traj: quantum_variance(SIGMA_Z, _RHO3),
    "variance_decomposition": lambda m, traj: variance_decomposition(np.eye(3), traj, _RHO3),
    "build_ergodic_report":
        lambda m, traj: build_ergodic_report(traj, _RHO3, {"sigma_z": SIGMA_Z}),
}


@pytest.mark.parametrize("name", list(_WRONG_DIMENSION))
def test_state_of_another_dimension_is_a_dimension_mismatch(name, homodyne_model, mixed):
    traj = simulate_posterior(homodyne_model, mixed, _GRID, 1)
    with pytest.raises(DimensionMismatch):
        _WRONG_DIMENSION[name](homodyne_model, traj)


# -- step kernels against a reference written with model.apply_* --------------

def _random_model(rng, n, n_diff, n_jump, n_diss=0, jump_weight=0.7):
    h = random_complex(rng, n)
    return build_model(
        {
            "dimension": n,
            "hamiltonian": 0.5 * (h + h.conj().T),
            "diffusive_ops": [0.5 * random_complex(rng, n) for _ in range(n_diff)],
            "jump_channels": [
                {
                    "label": f"c{k}",
                    "weight": jump_weight,
                    "kraus": [0.4 * random_complex(rng, n) for _ in range(2)],
                }
                for k in range(n_jump)
            ],
            "dissipative_ops": [0.3 * random_complex(rng, n) for _ in range(n_diss)],
        }
    )


def _random_states(rng, b, n, pure=False):
    g = rng.standard_normal((b, n, n)) + 1j * rng.standard_normal((b, n, n))
    if pure:
        psi = g[:, :, 0] / np.linalg.norm(g[:, :, 0], axis=1)[:, None]
        return psi[:, :, None] * psi.conj()[:, None, :]
    rho = g @ g.conj().transpose(0, 2, 1)
    return rho / np.einsum("bii->b", rho).real[:, None, None]


def _diffusion_ref(m, rho, dW, m_drift=None):
    out = np.zeros_like(rho)
    for j, op in enumerate(m.diffusive_ops):
        field = op @ rho + rho @ op.conj().T
        if m_drift is not None:
            field = field - m_drift[j] * rho
        out += dW[j] * field
    return out


def _kraus_ref(m, rho, dt, xi):
    """M rho M* + dt sum_h S_h rho S_h*, with M = I + dt G + sum_j xi_j L_j."""
    g = -1j * m.hamiltonian - 0.5 * (m.d1 + m.d2 + m.d3)
    mk = np.eye(m.dim) + dt * g + sum(x * op for x, op in zip(xi, m.diffusive_ops))
    out = mk @ rho @ mk.conj().T
    for op in m.dissipative_ops:
        out = out + dt * op @ rho @ op.conj().T
    return out


def _euler_trace(m, sig, dt, dW, fired):
    """Trace of the Euler-Maruyama step of the linear equation."""
    new = sig + dt * apply_k(m, sig) + _diffusion_ref(m, sig, dW)
    for k in np.flatnonzero(fired):
        new = new + apply_jump(m, sig, k) - sig
    return np.trace(new).real


def _linear_ref(m, sig, dt, dW, u):
    """Kraus image (or the fired jump images), rescaled to the Euler trace."""
    fired = np.array([u[k] < ch.weight * dt for k, ch in enumerate(m.jump_channels)], dtype=int)
    if fired.any():
        new = sum(apply_jump(m, sig, k) for k in np.flatnonzero(fired))
    else:
        new = _kraus_ref(m, sig, dt, dW)
    w = _euler_trace(m, sig, dt, dW, fired)
    return new * (w / np.trace(new).real), w, fired


def _posterior_ref(m, rho, dt, dW, t_jump=None):
    """The Kraus image with xi = dW + m dt, normalized, of a model without
    jump channels, or else of its diffusive part, followed by exp(dt K0),
    K0 = K - L1 - nu_tot id, normalized; with t_jump, channel 0 fires at
    t_jump in between: exp((dt - t_jump) K0) J_0 exp(t_jump K0), normalized
    after the jump and at the end."""
    m_drift = np.array(
        [np.trace((op + op.conj().T) @ rho).real for op in m.diffusive_ops]
    )
    part = build_model({"dimension": m.dim, "diffusive_ops": list(m.diffusive_ops)})
    new = _kraus_ref(part if m.n_jump else m, rho, dt, dW + m_drift * dt)
    new = new / np.trace(new).real
    if not m.n_jump:
        return new, m_drift
    k0 = _superop(lambda r: apply_k(m, r) - apply_l1(m, r) - m.total_jump_mass * r, m.dim)

    def propagate(t, r):
        return (scipy.linalg.expm(t * k0) @ r.reshape(-1)).reshape(m.dim, m.dim)

    if t_jump is not None:
        new = apply_jump(m, propagate(t_jump, new), 0)
        new, dt = new / np.trace(new).real, dt - t_jump
    new = propagate(dt, new)
    return new / np.trace(new).real, m_drift


def _stratonovich_ref(m, rho, dt, dW):
    """Heun step of the Stratonovich pure-state system, then the top eigenvector."""

    def fields(r):
        a = apply_l0(m, r)
        bs = []
        for op in m.diffusive_ops:
            x = op + op.conj().T
            mj = np.trace(x @ r)
            b = op @ r + r @ op.conj().T - mj * r
            c = x @ op @ r + r @ op.conj().T @ x
            a = a + mj * b - 0.5 * (c - np.trace(c) * r)
            bs.append(b)
        return a, bs

    a0, b0 = fields(rho)
    pred = rho + dt * a0 + sum(w * b for w, b in zip(dW, b0))
    a1, b1 = fields(pred)
    new = rho + 0.5 * dt * (a0 + a1) + sum(0.5 * w * (p + q) for w, p, q in zip(dW, b0, b1))
    evals, evecs = np.linalg.eigh(0.5 * (new + new.conj().T))
    evals = np.clip(evals, 0.0, None)
    defect = 1.0 - ((evals / evals.sum()) ** 2).sum()
    top = evecs[:, -1]
    m_drift = [np.trace((op + op.conj().T) @ rho).real for op in m.diffusive_ops]
    return np.outer(top, top.conj()), defect, np.array(m_drift)


class TestStepsMatchReference:
    B = 24
    DT = 1e-2

    def _noise(self, rng, m):
        dW = rng.standard_normal((self.B, m.n_diffusive)) * np.sqrt(self.DT)
        # a third of the rows fire every active channel, the rest none
        u = np.where(np.arange(self.B)[:, None] % 3 == 0, 0.0, 1.0) * np.ones((1, m.n_jump))
        return dW, u

    @pytest.mark.parametrize("n", [2, 3])
    def test_linear_with_jumps(self, n):
        rng = np.random.default_rng(100 + n)
        m = _random_model(rng, n, n_diff=2, n_jump=2, n_diss=1)
        sig = 1.3 * _random_states(rng, self.B, n)
        dW, u = self._noise(rng, m)
        arr = _ModelArrays(m)
        out, fired = engine._step_linear(arr, sig, self.DT, dW, u)
        w = arr.tr0 * out[:, 0]
        out = arr.matrices(out)
        assert fired.sum() > 0
        for i in range(self.B):
            want, w_want, f_want = _linear_ref(m, sig[i], self.DT, dW[i], u[i])
            assert np.abs(out[i] - want).max() < 1e-12
            assert abs(w[i] - w_want) < 1e-12
            assert np.array_equal(fired[i], f_want)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("n_jump", [0, 2])
    def test_posterior(self, n, n_jump):
        # with jump channels: the diffusive part's Kraus step, then the
        # waiting-time step.  A third of the rows jump (u_0 just below 1, so
        # at the first of the _GRID points) to channel 0 (u_1 = 1e-3), which
        # leaves too little of u_1 for a second jump; the rest (u = 0) do not
        rng = np.random.default_rng(200 + 10 * n + n_jump)
        m = _random_model(rng, n, n_diff=2, n_jump=n_jump, n_diss=1)
        rho = _random_states(rng, self.B, n)
        dW, _ = self._noise(rng, m)
        jump = np.arange(self.B) % 3 == 0
        u = np.where(jump[:, None], [np.nextafter(1.0, 0.0), 1e-3][:n_jump], 0.0)
        arr = _ModelArrays(m)
        assert arr.substeps(self.DT) == 1
        out, fired = engine._step_posterior(arr, rho, self.DT, dW, u, 1, None)
        m_drift = engine._apply_k_b(arr, arr.cols(rho), self.DT)[1].T  # m at the step start
        out = arr.matrices(out)
        if n_jump:
            assert np.array_equal(fired, np.where(jump[:, None], [1, 0], 0))
        for i in range(self.B):
            t_jump = self.DT / steps._GRID if n_jump and jump[i] else None
            want, m_want = _posterior_ref(m, rho[i], self.DT, dW[i], t_jump)
            assert np.abs(out[i] - want).max() < 1e-12
            assert np.abs(m_drift[i] - m_want).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_stratonovich(self, n):
        rng = np.random.default_rng(300 + n)
        m = _random_model(rng, n, n_diff=2, n_jump=0)
        rho = _random_states(rng, self.B, n, pure=True)
        dW, _ = self._noise(rng, m)
        arr = _ModelArrays(m)
        out, defect = engine._step_stratonovich(arr, rho, self.DT, dW)
        m_drift = _strat_a_b(arr, rho)[2]
        out = arr.matrices(out)
        for i in range(self.B):
            want, d_want, m_want = _stratonovich_ref(m, rho[i], self.DT, dW[i])
            assert np.abs(out[i] - want).max() < 1e-12
            assert abs(defect[i] - d_want) < 1e-12
            assert np.abs(m_drift[i] - m_want).max() < 1e-12


class TestRowProducts:
    """``steps._cols`` rounds each trajectory on its own: a column alone, in a
    sub-batch, in a strided view, in the transpose of rows or in a reshaped
    block equals the matching column of the full product, bit for bit, for
    every stack the engine uses.  The batch is padded to a multiple of 8
    columns; unpadded, the n = 6-8 stacks round per batch, among them the
    drift stack with two diffusive operators."""

    LARGE = {  # name: (n, n_diff, n_jump)
        f"{kind}{n}": (n, *shape)
        for n in (6, 7, 8)
        for kind, shape in (("diffusive2_", (2, 0)), ("diffusive3_", (3, 0)),
                            ("mixed", (2, 2)), ("counting", (0, 2)))
    }

    @pytest.mark.parametrize(
        "name", ["heterodyne", "direct", "random3", "random4", "counting5", *LARGE]
    )
    def test_rows_do_not_depend_on_the_batch(self, name, request):
        rng = np.random.default_rng(17)
        if name == "random3":
            m = _random_model(rng, 3, n_diff=2, n_jump=2, n_diss=1)
        elif name == "random4":
            m = _random_model(rng, 4, n_diff=2, n_jump=0)
        elif name == "counting5":
            m = _random_model(rng, 5, n_diff=0, n_jump=2, n_diss=1)
        elif name in self.LARGE:
            n, d, k = self.LARGE[name]
            m = _random_model(rng, n, n_diff=d, n_jump=k, n_diss=1)
        else:
            m = request.getfixturevalue(f"{name}_model")
        arr = _ModelArrays(m)
        grid = TimeGrid(t_final=0.01, dt=1e-3)
        obs = random_complex(rng, m.dim)
        to_cols = engine._StatsCollector(arr, "posterior", grid, obs, False, 1).to_cols
        stacks = [arr.kraus(1e-3), arr.kraus(1e-3 / 7), arr.strat, arr.drift, arr._to, arr._from]
        if arr.K:
            step, surv, _, jumps = arr.waiting(1e-3)
            stacks += [step, surv, jumps]
        if arr.diffusive is not None:
            stacks.append(arr.diffusive.kraus(1e-3))
        stacks.append(to_cols)
        b, f = 64, 8  # 512 columns, also viewed as a (N, F, B) flush buffer
        for mat in stacks:
            x = rng.standard_normal((mat.shape[0], f * b))
            full = steps._cols(x, mat)
            assert np.array_equal(steps._cols(np.ascontiguousarray(x.T).T, mat), full)
            for i in range(f * b):
                assert np.array_equal(steps._cols(x[:, i:i + 1], mat), full[:, i:i + 1])
            for size in (2, 3, 7, 8, 9, 15, 16, 32, 64, 200, 511):
                for off in (0, 1, 5, 100, f * b - size):
                    cols = slice(off, off + size)
                    assert np.array_equal(steps._cols(x[:, cols], mat), full[:, cols])
                    rows = np.ascontiguousarray(x[:, cols].T)
                    assert np.array_equal(steps._cols(rows.T, mat), full[:, cols])
            buf, want = x.reshape(-1, f, b), full.reshape(-1, f, b)
            for j in range(f):
                assert np.array_equal(steps._cols(buf[:, j], mat), want[:, j])
            for c in (1, 3, f):
                block = buf[:, :c].reshape(-1, b * c)
                assert np.array_equal(steps._cols(block, mat), want[:, :c].reshape(-1, b * c))

    @pytest.mark.parametrize(
        "name", ["heterodyne", "homodyne", "random3", "random4", "random5", "random6", "random8"]
    )
    def test_drift_equals_the_m_columns_of_both_stacks(self, name, request):
        # the path collector takes m off the rows with ``drift``; the steps
        # took it from their fused stacks
        rng = np.random.default_rng(23)
        if name.startswith("random"):
            m = _random_model(rng, int(name[-1]), n_diff=2, n_jump=1, n_diss=1)
        else:
            m = request.getfixturevalue(f"{name}_model")
        arr = _ModelArrays(m)
        d = arr.n_diff
        kraus, m_kraus, m_strat = arr.kraus(1e-3), arr.kraus_cuts[1], arr.strat_cuts[2]
        assert np.array_equal(arr.drift[:, :d], kraus[:, m_kraus])
        assert np.array_equal(arr.drift[:, :d], arr.strat[:, m_strat])
        for b in (1, 2, 7, 200, 512):
            x = rng.standard_normal((arr.drift.shape[0], b))
            m_drift = steps._cols(x, arr.drift)[:d]
            assert np.array_equal(m_drift, steps._cols(x, kraus)[m_kraus])
            assert np.array_equal(m_drift, steps._cols(x, arr.strat)[m_strat])

    @pytest.mark.parametrize("name", ["direct", "counting"])
    def test_per_row_products_do_not_depend_on_the_batch(self, name, request):
        # the waiting-time step multiplies the rows that jump by the
        # propagators at each row's own grid point
        m = _counting_model() if name == "counting" else request.getfixturevalue("direct_model")
        _, _, grid, _ = _ModelArrays(m).waiting(1e-3)
        rng = np.random.default_rng(19)
        b = 300
        x = rng.standard_normal((b, grid.shape[1]))
        at = rng.integers(0, steps._GRID + 1, size=b)
        full = steps._row_products(x, grid[at])
        for i in range(b):
            assert np.array_equal(steps._row_products(x[i:i + 1], grid[at[i:i + 1]]), full[i:i + 1])
        for size in (2, 3, 8, 16, 73, b - 1):
            for off in (0, 1, 5, b - size):
                rows = slice(off, off + size)
                assert np.array_equal(steps._row_products(x[rows], grid[at[rows]]), full[rows])


class TestMemoryOrder:
    """The kernels, ``_strat_a_b`` and ``steps._cols`` give the same bits for
    C-ordered rows, for rows that are the transpose of C-contiguous columns
    (as the driver passes the state and the noise) and for (B, n, n)
    matrices."""

    DT = 1e-3

    def _model(self, case, request):
        if case == "mixed":
            return _mixed_jump_model()
        if case == "direct":  # about one row in five jumps per step
            return generate_atom_model(standard_direct(300.0, 1000.0))
        if case.startswith("random3"):
            return _random_model(np.random.default_rng(3), 3, n_diff=2, n_jump=2, n_diss=1)
        pure = case in ("stratonovich", "fields")
        return request.getfixturevalue("homodyne_model" if pure else "heterodyne_model")

    @pytest.mark.parametrize("b", [1, 7, 512])
    @pytest.mark.parametrize("case", [
        "linear", "random3_linear", "posterior", "direct", "mixed", "random3", "stratonovich", "fields",
    ])
    def test_same_bits_in_any_layout(self, case, b, request):
        rng = np.random.default_rng(b)
        m = self._model(case, request)
        arr = _ModelArrays(m)
        mats = _random_states(rng, b, m.dim, pure=case in ("stratonovich", "fields"))
        rows = np.ascontiguousarray(arr.coords(mats))
        dW = rng.standard_normal((b, m.n_diffusive)) * math.sqrt(self.DT)
        u = rng.random((b, m.n_jump))

        def run(x, dW, u):
            if case.endswith("linear"):
                return engine._step_linear(arr, x, self.DT, dW, u)
            if case == "stratonovich":
                return engine._step_stratonovich(arr, x, self.DT, dW)
            if case == "fields":
                return _strat_a_b(arr, x)
            return engine._step_posterior(arr, x, self.DT, dW, u, 1, None)

        def columns(a):
            return np.ascontiguousarray(a.T).T

        want = run(rows, dW, u)
        for got in (run(columns(rows), columns(dW), columns(u)), run(mats, dW, u)):
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.shape == w.shape and np.array_equal(g, w)

    @pytest.mark.parametrize("b", [1, 7, 512])
    def test_product_same_bits_in_any_layout(self, b):
        rng = np.random.default_rng(b)
        mat = _ModelArrays(_random_model(rng, 3, n_diff=2, n_jump=2, n_diss=1)).kraus(self.DT)
        x = rng.standard_normal((mat.shape[0], b))
        want = steps._cols(x, mat)
        wide = np.zeros((mat.shape[0], 2 * b))
        wide[:, ::2] = x
        for layout in (np.asfortranarray(x), np.ascontiguousarray(x.T).T, wide[:, ::2]):
            assert np.array_equal(steps._cols(layout, mat), want)


class TestBatchIndependence:
    """A trajectory's path depends only on its seed (high-rate direct
    detection, heterodyne and homodyne detection)."""

    MODEL = generate_atom_model(standard_direct(linewidth=1000.0, rabi=300.0))
    GRID = TimeGrid(t_final=0.2, dt=1e-3)

    class _Record:
        """Keeps the (N, F, B) columns of every flush."""

        def __init__(self):
            self.states = []

        def collect(self, i, state, *rest):
            self.states.append(state.copy())

    def _paths(self, seeds, model=MODEL, mode="posterior", rho0=np.eye(2) / 2):
        rec = self._Record()
        arr = _ModelArrays(model)
        engine._simulate_batch(arr, mode, rho0, self.GRID, seeds, rec)
        paths = np.concatenate(rec.states, axis=1)
        return {s: paths[:, :, i] for i, s in enumerate(seeds)}

    def test_same_path_in_any_batch(self):
        alone = {s: self._paths([s])[s] for s in (5, 6)}
        for seeds in ([6, 5], [5, 6]):
            mixed = self._paths(seeds)
            for s in seeds:
                assert np.array_equal(mixed[s], alone[s])

    @pytest.mark.parametrize("mode", ["linear", "posterior", "stratonovich"])
    def test_diffusive_path_same_in_the_middle_of_a_batch(self, mode, request):
        model = request.getfixturevalue(
            "homodyne_model" if mode == "stratonovich" else "heterodyne_model"
        )
        rho0 = np.diag([1.0, 0.0]).astype(complex)  # pure, as the Stratonovich scheme needs
        alone = self._paths([5], model, mode, rho0)[5]
        mixed = self._paths([7, 5, 6], model, mode, rho0)[5]
        assert np.array_equal(mixed, alone)

    @pytest.mark.parametrize("batch", [3, 512])
    @pytest.mark.parametrize("weight", [None, 500.0, 3000.0])
    def test_split_path_same_in_the_middle_of_a_batch(self, weight, batch):
        # models with diffusive operators and jump channels, on the split
        # step: the direct atom (weight None), and three levels with two
        # channels and a dissipative operator, at weight 3000 in 4 substeps
        if weight is None:
            m = _with_diffusion(generate_atom_model(standard_direct(300.0, 1000.0)))
        else:
            m = _with_diffusion(_counting_model(weight), op=0.3 * np.diag([1.0, 0.0, -1.0]))
        assert _ModelArrays(m).substeps(self.GRID.dt) == (4 if weight == 3000.0 else 1)
        rho0 = np.eye(m.dim, dtype=complex) / m.dim
        alone = self._paths([5], m, "posterior", rho0)[5]
        seeds = [7, 5] + list(range(8, 6 + batch))
        assert np.array_equal(self._paths(seeds, m, "posterior", rho0)[5], alone)

    @pytest.mark.parametrize("weight", [500.0, 3000.0])
    def test_counting_path_same_in_the_middle_of_a_batch(self, weight):
        # two channels, several jumps in many steps, on the waiting-time
        # step; at weight 3000 in 4 substeps
        m, rho0 = _counting_model(weight), np.eye(3, dtype=complex) / 3
        alone = self._paths([5], m, "posterior", rho0)[5]
        mixed = self._paths([7, 5, 6], m, "posterior", rho0)[5]
        assert np.array_equal(mixed, alone)

    @pytest.mark.parametrize("kind", ["diffusive", "mixed", "counting"])
    def test_six_level_path_same_in_any_batch(self, kind):
        # at n = 6 a product rounds per batch unless the batch is padded to a
        # multiple of 8 columns; alone, in a batch of 3 and in one of 20
        n_diff, n_jump = {"diffusive": (2, 0), "mixed": (2, 2), "counting": (0, 2)}[kind]
        m = _random_model(np.random.default_rng(6), 6, n_diff, n_jump, n_diss=1, jump_weight=20.0)
        rho0 = np.eye(6, dtype=complex) / 6
        alone = self._paths([5], m, "posterior", rho0)[5]
        for seeds in ([7, 5, 6], [7, 5] + list(range(8, 26))):
            assert np.array_equal(self._paths(seeds, m, "posterior", rho0)[5], alone)

    def test_same_per_trajectory_results_for_blocks_and_workers(self, monkeypatch):
        mixed = QuantumState(np.eye(2, dtype=complex) / 2)
        want = [
            simulate_posterior(self.MODEL, mixed, self.GRID, seed=5 + i).entropy_path.max()
            for i in range(12)
        ]
        for block in (8, 512):
            for threads in ("1", "2"):
                monkeypatch.setattr(engine, "_BLOCK", block)
                monkeypatch.setenv("QTRAJ_THREADS", threads)
                stats = run_ensemble(self.MODEL, mixed, self.GRID, 12, seed=5, mode="posterior")
                assert np.array_equal(stats.max_entropy_per_traj, want)


class TestStreams:
    """Row t of a batch draws the stream of Generator(Philox(key=seeds[t])):
    per chunk of steps, its normals, then its jump uniforms."""

    KEYS = [0, 2**64 - 1, 2**64, 2**128 - 1]
    GRID = TimeGrid(t_final=0.011, dt=1e-3)  # 11 steps

    class _Noise:
        """Wraps the posterior kernel and keeps the (B, s, .) noise of every step."""

        def __init__(self, kernel):
            self.kernel = kernel
            self.normals = []
            self.uniforms = []

        def __call__(self, arr, x, dt, dW, u, s, sub):
            nrm, uni = (dW[:, None], u[:, None]) if sub is None else sub
            self.normals.append(nrm.copy())
            self.uniforms.append(uni.copy())
            return self.kernel(arr, x, dt, dW, u, s, sub)

    class _Discard:
        def collect(self, *args):
            pass

    @pytest.mark.parametrize("s", [1, 2])
    def test_batch_draws_the_keyed_streams(self, s, monkeypatch):
        # diffusive and jump models, in chunks of 4, 4, 3 steps (s = 1) and
        # of 3, 3, 3, 2 steps of 2 substeps each (s = 2)
        if s == 1:
            m, max_chunk = _mixed_jump_model(), 4
        else:
            m, max_chunk = _with_diffusion(identity_jump_model(weight=5000.0)), 6
        arr = _ModelArrays(m)
        assert arr.substeps(self.GRID.dt) == s and arr.n_diff and arr.K
        monkeypatch.setattr(engine, "_CHUNK", max_chunk)
        chunk = max_chunk // s
        n_steps = self.GRID.n_steps
        assert n_steps > 2 * chunk
        noise = self._Noise(engine._step_posterior)
        monkeypatch.setattr(engine, "_step_posterior", noise)
        engine._simulate_batch(arr, "posterior", np.eye(2) / 2, self.GRID, self.KEYS, self._Discard())
        normals = np.stack(noise.normals, axis=1)  # (B, n_steps, s, n_diff)
        uniforms = np.stack(noise.uniforms, axis=1)
        scale = math.sqrt(self.GRID.dt / s)
        for row, key in enumerate(self.KEYS):
            g = np.random.Generator(np.random.Philox(key=key))
            for start in range(0, n_steps, chunk):
                steps = slice(start, min(start + chunk, n_steps))
                n = steps.stop - start
                want = scale * g.standard_normal((n, s, arr.n_diff))
                assert np.array_equal(normals[row, steps], want), (key, start)
                assert np.array_equal(uniforms[row, steps], g.random((n, s, arr.K))), (key, start)

    def test_one_bit_generator_per_batch(self, monkeypatch):
        built = []
        philox = np.random.Philox

        def counted(*args, **kwargs):
            built.append(args)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counted)
        monkeypatch.setattr(engine, "_CHUNK", 4)  # 11 steps in 3 chunks
        arr = _ModelArrays(_mixed_jump_model())
        engine._simulate_batch(arr, "posterior", np.eye(2) / 2, self.GRID, list(range(20)), self._Discard())
        assert len(built) == 1


class TestRowCollectors:
    """Ensemble aggregates on coordinate rows against numpy over single paths."""

    GRID = TimeGrid(t_final=0.05, dt=1e-3)
    N_TRAJ = 20  # blocks of 8, 8 and 4 with _BLOCK = 8
    SEED = 41

    def _case(self, case, request):
        """(model, rho0, mode, simulate); "jumps" is the posterior mode of
        ``_mixed_jump_model``."""
        if case == "stratonovich":
            psi0 = PureStateVector([1.0, 0.0])
            m = request.getfixturevalue("homodyne_model")
            return m, QuantumState(psi0.projector()), case, lambda s: simulate_stratonovich_pure(
                m, psi0, self.GRID, s
            )
        rho0 = request.getfixturevalue("mixed")
        if case == "jumps":
            m = _mixed_jump_model()
            return m, rho0, "posterior", lambda s: simulate_posterior(m, rho0, self.GRID, s)
        m = request.getfixturevalue("heterodyne_model")
        sim = simulate_linear if case == "linear" else simulate_posterior
        return m, rho0, case, lambda s: sim(m, rho0, self.GRID, s)

    @staticmethod
    def _mean_se(vals):
        return vals.mean(axis=0), vals.std(axis=0, ddof=1) / np.sqrt(vals.shape[0])

    @pytest.mark.parametrize("case", ["linear", "posterior", "stratonovich", "jumps"])
    def test_fields_match_numpy_over_paths(self, case, request, monkeypatch):
        m, rho0, mode, simulate = self._case(case, request)
        trajs = [simulate(self.SEED + i) for i in range(self.N_TRAJ)]
        if mode == "linear":
            states = np.stack([t.sigma_path for t in trajs])
            weights = np.stack([t.weight_path for t in trajs])
            tr2 = np.einsum("ktij,ktji->kt", states, states).real
            entropy = 1.0 - tr2 / weights**2
            wiener = np.stack([t.output.wiener for t in trajs])
        else:
            states = np.stack([t.state_path for t in trajs])
            weights = np.ones(states.shape[:2])
            entropy = np.stack([t.entropy_path for t in trajs])
            wiener = np.stack([t.output.compensated_wiener for t in trajs])
        obs = np.einsum("ij,ktji->kt", SIGMA_X.conj().T, states)
        jumps = np.array([t.output.jump_counts.sum(axis=0) for t in trajs])
        if case == "jumps":
            assert jumps.sum() > 0
        w_mean = wiener.mean(axis=(0, 1))
        want = {
            "state": self._mean_se(states.real) + self._mean_se(states.imag)[1:],
            "weight": self._mean_se(weights),
            "entropy": self._mean_se(entropy),
            "obs": self._mean_se(obs.real) + self._mean_se(obs.imag),
            "wiener": (w_mean, np.square(wiener).mean(axis=(0, 1)) - w_mean**2),
            "jumps": self._mean_se(jumps),
        }

        def close(got, ref):
            # 1e-12 relative; 1e-15 absolute for values that are zero up to rounding
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-15)

        monkeypatch.setattr(engine, "_BLOCK", 8)
        for threads in ("1", "2"):
            monkeypatch.setenv("QTRAJ_THREADS", threads)
            stats = run_ensemble(
                m, rho0, self.GRID, self.N_TRAJ, self.SEED, mode, observable=SIGMA_X
            )
            mean_re, se_re, se_im = want["state"]
            close(stats.mean_state.real, mean_re)
            close(stats.mean_state.imag, states.imag.mean(axis=0))
            close(stats.se_state_re, se_re)
            close(stats.se_state_im, se_im)
            close(stats.mean_weight, want["weight"][0])
            close(stats.se_weight, want["weight"][1])
            close(stats.mean_entropy, want["entropy"][0])
            close(stats.se_entropy, want["entropy"][1])
            obs_re, obs_se_re, obs_im, obs_se_im = want["obs"]
            close(stats.obs_mean.real, obs_re)
            close(stats.obs_mean.imag, obs_im)
            close(stats.obs_se_re, obs_se_re)
            close(stats.obs_se_im, obs_se_im)
            close(stats.wiener_increment_mean, want["wiener"][0])
            close(stats.wiener_increment_var, want["wiener"][1])
            close(stats.max_entropy_per_traj, entropy.max(axis=1))
            close(stats.jump_count_mean, want["jumps"][0])
            close(stats.jump_count_se, want["jumps"][1])
            if mode == "stratonovich":
                defect = [t.purity_defect_max for t in trajs]
                assert np.array_equal(stats.max_purity_defect_per_traj, defect)

    @pytest.mark.parametrize("mode", ["linear", "posterior", "stratonovich"])
    def test_trajectory_zero_equals_single_path(self, mode, request, monkeypatch):
        m, rho0, mode, simulate = self._case(mode, request)
        want = simulate(self.SEED)
        monkeypatch.setattr(engine, "_BLOCK", 8)
        for threads in ("1", "2"):
            monkeypatch.setenv("QTRAJ_THREADS", threads)
            got = run_ensemble(m, rho0, self.GRID, self.N_TRAJ, self.SEED, mode).trajectory
            assert type(got) is type(want)
            for name in ("sigma_path", "weight_path", "state_path", "entropy_path"):
                if hasattr(want, name):
                    assert np.array_equal(getattr(got, name), getattr(want, name))
            assert np.array_equal(got.output.wiener, want.output.wiener)
            assert np.array_equal(got.output.jump_counts, want.output.jump_counts)
            if mode != "linear":
                assert np.array_equal(
                    got.output.compensated_wiener, want.output.compensated_wiener
                )
                assert got.purity_defect_max == want.purity_defect_max


def _mixed_jump_model():
    """A diffusive channel and a counting channel, with jumps on most paths."""
    return build_model(
        {
            "dimension": 2,
            "hamiltonian": SIGMA_X,
            "diffusive_ops": [0.7 * SIGMA_MINUS],
            "jump_channels": [{"label": "c", "weight": 40.0, "kraus": [SIGMA_MINUS]}],
        }
    )


class TestFailedTrajectory:
    """One row of a 200-trajectory ensemble turns NaN (or +-inf) at one step;
    the ensemble keeps the 199 survivors and the failed row's history up to
    that step.  More than 1 % of the rows failing fails the ensemble.  A
    failed row has no state from its failure record on: it is NaN there,
    in trajectory 0's path too, and a single path that fails raises
    ``NumericalError``."""

    GRID = TimeGrid(t_final=0.08, dt=1e-3)
    N_TRAJ = 200
    SEED = 900
    ROW = 17
    STEP = 30  # the step (0-based) whose output is NaN; it ends at record STEP + 1

    def _poisoned(self, monkeypatch, name, rows=(ROW,), value=np.nan):
        kernel = getattr(engine, name)
        calls = []

        def step(arr, x, *args):
            out = kernel(arr, x, *args)
            if len(calls) == self.STEP:
                out[0][list(rows)] = value
            calls.append(1)
            return out

        monkeypatch.setattr(engine, name, step)

    @staticmethod
    def _case(mode, request):
        """(model, initial state, run mode, kernel name, single-path simulator)."""
        if mode == "stratonovich":
            m = request.getfixturevalue("homodyne_model")
            psi0 = PureStateVector([1.0, 0.0])
            sim = lambda m, rho, grid, seed: simulate_stratonovich_pure(m, psi0, grid, seed)  # noqa: E731
            return m, QuantumState(psi0.projector()), mode, "_step_stratonovich", sim
        if mode == "counting":  # the waiting-time step
            m = _counting_model()
            return m, QuantumState(np.eye(3) / 3), "posterior", "_step_posterior", simulate_posterior
        rho0 = request.getfixturevalue("mixed")
        if mode == "linear":
            return _mixed_jump_model(), rho0, mode, "_step_linear", simulate_linear
        return _mixed_jump_model(), rho0, mode, "_step_posterior", simulate_posterior

    @pytest.mark.parametrize("mode", ["linear", "posterior", "stratonovich", "counting"])
    def test_failed_row_leaves_the_statistics(self, mode, monkeypatch, request):
        m, rho0, mode, kernel, sim = self._case(mode, request)
        trajs = [sim(m, rho0, self.GRID, self.SEED + i) for i in range(self.N_TRAJ)]
        for value in (np.nan, np.inf, -np.inf):
            with monkeypatch.context() as patch:
                self._poisoned(patch, kernel, value=value)
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    stats = run_ensemble(m, rho0, self.GRID, self.N_TRAJ, self.SEED, mode)
            self._check_one_failed(stats, m, mode, trajs)

    def _check_one_failed(self, stats, m, mode, trajs):
        assert stats.n_failed == 1
        assert np.isnan(stats.max_entropy_per_traj[self.ROW])
        survivors = [i for i in range(self.N_TRAJ) if i != self.ROW]
        want_max = [trajs[i].entropy_path.max() for i in survivors]
        assert np.array_equal(stats.max_entropy_per_traj[survivors], want_max)

        # the failed row counts at records 0 .. STEP, the survivors at every record
        fail = self.STEP + 1
        if mode == "linear":
            states = np.stack([t.sigma_path for t in trajs])
            weights = np.stack([t.weight_path for t in trajs])
            assert stats.n_underflow == sum(t.weight_underflow for t in trajs)
        else:
            states = np.stack([t.state_path for t in trajs])
            weights = np.ones(states.shape[:2])
        entropy = np.stack([t.entropy_path for t in trajs])
        for got_mean, got_se, vals in [
            (stats.mean_state.real, stats.se_state_re, states.real),
            (stats.mean_state.imag, stats.se_state_im, states.imag),
            (stats.mean_weight, stats.se_weight, weights),
            (stats.mean_entropy, stats.se_entropy, entropy),
        ]:
            for recs, rows in [(slice(0, fail), slice(None)), (slice(fail, None), survivors)]:
                v = vals[rows, recs]
                se = v.std(axis=0, ddof=1) / np.sqrt(v.shape[0])
                np.testing.assert_allclose(got_mean[recs], v.mean(axis=0), rtol=0, atol=1e-12)
                np.testing.assert_allclose(got_se[recs], se, rtol=0, atol=1e-12)

        # jump totals: the survivors only; Wiener sums: the failed row before step STEP
        counts = np.array([trajs[i].output.jump_counts.sum(axis=0) for i in survivors])
        assert (counts.sum() > 0) == (m.n_jump > 0)
        np.testing.assert_allclose(stats.jump_count_mean, counts.mean(axis=0), rtol=1e-12)
        dw = [t.output.wiener if mode == "linear" else t.output.compensated_wiener for t in trajs]
        pooled = np.concatenate([dw[i] for i in survivors] + [dw[self.ROW][: self.STEP]])
        if m.n_diffusive:
            np.testing.assert_allclose(stats.wiener_increment_mean, pooled.mean(axis=0), rtol=1e-12)
            np.testing.assert_allclose(stats.wiener_increment_var, pooled.var(axis=0), rtol=1e-12)

    def test_failed_row_jump_total_stops_at_failure(self, monkeypatch, mixed):
        m = _mixed_jump_model()
        want = simulate_posterior(m, mixed, self.GRID, self.SEED + self.ROW).output.jump_counts
        self._poisoned(monkeypatch, "_step_posterior")
        seeds = [self.SEED + i for i in range(self.N_TRAJ)]
        coll = engine._run_block((m, "posterior", mixed.matrix, self.GRID, seeds, None, True))
        assert np.flatnonzero(~coll.alive).tolist() == [self.ROW]
        assert coll.jump_totals[0, self.ROW] == want[: self.STEP].sum()

    @pytest.mark.parametrize("n_poisoned", [2, 3])
    def test_ensemble_fails_above_one_percent(self, n_poisoned, monkeypatch, mixed):
        # 2 failed rows of 200 are within the 1 % limit, 3 are not
        m = _mixed_jump_model()
        self._poisoned(monkeypatch, "_step_posterior", rows=range(self.ROW, self.ROW + n_poisoned))
        if n_poisoned == 3:
            with pytest.raises(EnsembleFailure, match="3 of 200 trajectories failed"):
                run_ensemble(m, mixed, self.GRID, self.N_TRAJ, self.SEED, "posterior")
        else:
            stats = run_ensemble(m, mixed, self.GRID, self.N_TRAJ, self.SEED, "posterior")
            assert stats.n_failed == 2

    def test_failed_path_is_nan_from_its_failure_record(self, monkeypatch, mixed):
        # trajectory 0 is recorded in full: it is the unpoisoned path up to the
        # failing record and NaN from there on, and its noise is its own
        m = _mixed_jump_model()
        want = simulate_posterior(m, mixed, self.GRID, self.SEED)
        self._poisoned(monkeypatch, "_step_posterior", rows=(0,))
        got = run_ensemble(m, mixed, self.GRID, self.N_TRAJ, self.SEED, "posterior").trajectory
        fail = self.STEP + 1
        for name in ("state_path", "entropy_path"):
            path, ref = getattr(got, name), getattr(want, name)
            assert np.array_equal(path[:fail], ref[:fail])
            assert np.isnan(path[fail:]).all()
        assert np.array_equal(got.output.wiener[:fail], want.output.wiener[:fail])
        assert np.isnan(got.output.wiener[fail:]).all()  # dW~ + m dt at no state
        assert np.array_equal(got.output.compensated_wiener, want.output.compensated_wiener)
        assert np.array_equal(got.output.jump_counts[:fail], want.output.jump_counts[:fail])

    def test_overflowing_single_path_raises(self):
        # n = 3, H = 0 and one diffusive operator of norm ~1e60: the first
        # Stratonovich step overflows, in a single path and in every row
        rng = np.random.default_rng(3)
        op = 1e60 * random_complex(rng, 3)
        m = build_model({"dimension": 3, "hamiltonian": np.zeros((3, 3)), "diffusive_ops": [op]})
        psi0 = PureStateVector([1.0, 0.0, 0.0])
        grid = TimeGrid(t_final=0.01, dt=1e-3)
        with pytest.raises(NumericalError, match="of seed 5 is not finite at t = 0.001"):
            simulate_stratonovich_pure(m, psi0, grid, 5)
        with pytest.raises(EnsembleFailure, match="4 of 4 trajectories failed"):
            run_ensemble(m, QuantumState(psi0.projector()), grid, 4, 5, "stratonovich")

    def test_poisoned_single_path_raises(self, monkeypatch, mixed):
        self._poisoned(monkeypatch, "_step_posterior", rows=(0,))
        with pytest.raises(NumericalError, match="posterior trajectory .* at t = 0.031"):
            simulate_posterior(_mixed_jump_model(), mixed, self.GRID, self.SEED)

    def test_stratonovich_row_that_overflows_fails_alone(self):
        # at n = 3 the projection takes eigh, which refuses a non-finite
        # matrix; the row stays non-finite and the others project as alone
        rng = np.random.default_rng(8)
        arr = _ModelArrays(_random_model(rng, 3, n_diff=1, n_jump=0))
        x = np.ascontiguousarray(arr.coords(_random_states(rng, 3, 3, pure=True)))
        x[1] *= 1e160  # its Heun step overflows
        dW = rng.standard_normal((3, 1)) * math.sqrt(1e-3)
        with np.errstate(all="ignore"):
            out, defect = engine._step_stratonovich(arr, x, 1e-3, dW)
        alone = engine._step_stratonovich(arr, x[[0, 2]], 1e-3, dW[[0, 2]])
        assert np.array_equal(out[[0, 2]], alone[0]) and np.array_equal(defect[[0, 2]], alone[1])
        assert not np.isfinite(out[1]).all() and np.isnan(defect[1])


class TestFailedRowStops:
    """A row that fails is NaN from its first failure record on, in states and
    entropy, and is not stepped again: the kernel runs once per step, and
    every other row keeps the path, jumps, noise and defects of the
    unpoisoned run.  Failures sit in the first and the last slot of a flush,
    in two rows at different records of one flush, and twice in one row,
    with flushes of 1, 7 and up to 4096 steps (``_FLUSH`` counts row-steps,
    F steps of B rows)."""

    GRID = TimeGrid(t_final=0.03, dt=1e-3)  # 30 steps
    SEEDS = [40, 41, 42]
    KERNEL = {"linear": "_step_linear", "stratonovich": "_step_stratonovich"}

    class _Record:
        """Every flush's records, joined per field along the record axis."""

        def __init__(self):
            self.parts = []

        def collect(self, i, state, entropy, fired, dW, defect, alive):
            self.parts.append([None if a is None else np.array(a) for a in
                               (state, entropy, fired, dW, defect, alive)])

        def field(self, k, axis):
            return np.concatenate([p[k] for p in self.parts if p[k] is not None], axis=axis)

    class _Kernel:
        """Wraps a step kernel: call ``t`` outputs ``value`` in row ``r`` for
        each (r, t) in ``at``."""

        def __init__(self, kernel, at=(), value=None):
            self.kernel, self.at, self.value = kernel, at, value
            self.calls = 0

        def __call__(self, arr, x, *rest):
            out = self.kernel(arr, x, *rest)
            for r, t in self.at:
                if t == self.calls:
                    out[0][r] = self.value
            self.calls += 1
            return out

    def _case(self, case, request):
        if case == "stratonovich":
            return request.getfixturevalue("homodyne_model"), np.diag([1.0, 0.0]), case
        if case == "stratonovich3":  # the projection takes eigh at n = 3
            m = _random_model(np.random.default_rng(3), 3, n_diff=1, n_jump=0)
            return m, np.diag([1.0, 0.0, 0.0]), "stratonovich"
        if case == "counting":
            return _counting_model(), np.eye(3) / 3, "posterior"
        return _mixed_jump_model(), np.eye(2) / 2, case

    def _run(self, monkeypatch, case, request, flush, at=(), value=None):
        m, rho0, mode = self._case(case, request)
        name = self.KERNEL.get(mode, "_step_posterior")
        kernel = self._Kernel(getattr(engine, name), at, value)
        monkeypatch.setattr(engine, "_FLUSH", flush * len(self.SEEDS))
        monkeypatch.setattr(engine, name, kernel)
        rec = self._Record()
        alive, under = engine._simulate_batch(
            _ModelArrays(m), mode, rho0.astype(complex), self.GRID, self.SEEDS, rec
        )
        assert kernel.calls == self.GRID.n_steps  # no step is taken again
        return rec, alive, under

    @staticmethod
    def _targets(where, flush, n_steps):
        """(row, step) failures; first and last are the first and last
        step of the second flush, or of the only one."""
        first, last = (flush, 2 * flush - 1) if 2 * flush <= n_steps else (0, n_steps - 1)
        return {
            "first": [(1, first)],
            "last": [(1, last)],
            "two_rows": [(0, first + 1), (2, last - 1)],
            "twice": [(1, first + 1), (1, last - 1)],
        }[where]

    @pytest.mark.parametrize("where", ["first", "last", "two_rows", "twice"])
    @pytest.mark.parametrize("flush", [1, 7, 4096])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "case", ["linear", "posterior", "stratonovich", "stratonovich3", "counting"]
    )
    def test_failed_rows_are_nan_from_their_failure(self, case, value, flush, where,
                                                   monkeypatch, request):
        at = self._targets(where, flush, self.GRID.n_steps)
        want, want_alive, want_under = self._run(monkeypatch, case, request, 4096)
        assert want_alive.all()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got, alive, under = self._run(monkeypatch, case, request, flush, at, value)

        rows = sorted({r for r, _ in at})
        fail = {r: min(t for q, t in at if q == r) + 1 for r in rows}  # first failure record
        assert np.flatnonzero(~alive).tolist() == rows
        assert np.array_equal(under, want_under)
        live = got.field(5, 0)
        # records of states and entropy; steps of jumps, noise and defects,
        # where step t ends at record t + 1, so the failing step is kept
        fields = [(0, 1), (1, 0), (2, 1), (3, 0), (4, 0)]
        for r in range(len(self.SEEDS)):
            end = fail.get(r, self.GRID.n_steps + 1)
            for k, axis in fields:
                if want.parts[-1][k] is None:  # defects outside the stratonovich scheme
                    continue
                a, b = (np.moveaxis(rec.field(k, axis)[..., r], axis, 0) for rec in (got, want))
                assert np.array_equal(a[:end], b[:end]), (k, r)
                if k < 2:
                    assert np.isnan(a[end:]).all(), (k, r)
                if k == 3:  # the noise is the trajectory's own
                    assert np.array_equal(a, b)
            assert np.array_equal(live[:, r], np.arange(self.GRID.n_steps + 1) < end)


class TestFlushSize:
    """Outputs do not depend on how many steps are buffered per collector call."""

    GRID = TimeGrid(t_final=0.05, dt=1e-3)
    N_TRAJ = 13

    def _runs(self, monkeypatch, run, batch):
        """run() with flushes of 1 and 7 steps, then with the default _FLUSH."""
        out = []
        for flush in (batch, 7 * batch, engine._FLUSH):
            monkeypatch.setattr(engine, "_FLUSH", flush)
            out.append(run())
        return out

    @pytest.mark.parametrize("mode", ["linear", "posterior", "stratonovich", "counting"])
    def test_paths_and_stats(self, mode, monkeypatch, request, mixed):
        obs = SIGMA_X
        if mode == "stratonovich":
            m = request.getfixturevalue("homodyne_model")
            rho0 = QuantumState(np.diag([1.0, 0.0]).astype(complex))
        elif mode == "counting":  # posterior on the waiting-time step
            m, rho0 = _counting_model(), QuantumState(np.eye(3, dtype=complex) / 3)
            obs = np.diag([1.0, 0.0, -1.0])
        else:
            m, rho0 = _mixed_jump_model(), mixed
        run_mode = "posterior" if mode == "counting" else mode
        monkeypatch.setattr(engine, "_CHUNK", 20)  # 50 steps: chunks of 20, 20 and 10
        runs = self._runs(
            monkeypatch,
            lambda: run_ensemble(m, rho0, self.GRID, self.N_TRAJ, 3, run_mode, observable=obs),
            self.N_TRAJ,
        )
        ref = runs[-1]
        if mode == "counting":  # several jumps in one step, in the first chunk
            per_step = ref.trajectory.output.jump_counts.sum(axis=1)
            assert per_step[:20].max() >= 2
        for got in runs[:-1]:
            a, b = got.trajectory, ref.trajectory
            for name in ("sigma_path", "weight_path", "state_path", "entropy_path"):
                if hasattr(b, name):
                    assert np.array_equal(getattr(a, name), getattr(b, name))
            assert np.array_equal(a.output.wiener, b.output.wiener)
            assert np.array_equal(a.output.jump_counts, b.output.jump_counts)
            if mode != "linear":
                assert np.array_equal(a.output.compensated_wiener, b.output.compensated_wiener)
            assert (got.n_failed, got.n_underflow) == (ref.n_failed, ref.n_underflow)
            for name, value in vars(ref).items():
                if isinstance(value, np.ndarray):
                    np.testing.assert_allclose(
                        getattr(got, name), value, rtol=1e-12, atol=1e-15, err_msg=name
                    )

    def test_substepped_path(self, monkeypatch, mixed):
        # a diffusive and jump model at 5 expected jumps per step, in 2
        # substeps: chunks of 30 steps
        m = _with_diffusion(identity_jump_model(weight=5000.0))
        self._check_substepped(monkeypatch, m, mixed, 2)

    def test_substepped_counting_path(self, monkeypatch):
        # 4 waiting-time substeps of a counting-only model: chunks of 15 steps
        self._check_substepped(monkeypatch, _counting_model(weight=3000.0), QuantumState(np.eye(3) / 3), 4)

    def _check_substepped(self, monkeypatch, m, rho0, s):
        grid = TimeGrid(t_final=0.03, dt=1e-3)
        assert _ModelArrays(m).substeps(grid.dt) == s
        monkeypatch.setattr(engine, "_CHUNK", 60)
        runs = self._runs(monkeypatch, lambda: simulate_posterior(m, rho0, grid, 5), 1)
        assert runs[-1].output.jump_counts.sum() > 0
        for got in runs[:-1]:
            assert np.array_equal(got.state_path, runs[-1].state_path)
            assert np.array_equal(got.entropy_path, runs[-1].entropy_path)
            assert np.array_equal(got.output.wiener, runs[-1].output.wiener)
            assert np.array_equal(got.output.jump_counts, runs[-1].output.jump_counts)


class TestPathwiseOracle:
    """Strong convergence against the exact solution sigma_t = Z_t sigma_0 Z_t,
    Z_t = exp(L W_t - L^2 t), of the linear equation with H = 0 and one
    self-adjoint L (Higham, SIAM Rev. 43, 525, 2001).  Coarse increments are
    sums of one fine Brownian path; the posterior step is compared with the
    normalized solution driven by its own output Y = W + int m dt."""

    L = 0.5 * np.array([[1.0, 0.3], [0.3, -0.5]], dtype=complex)
    RHO0 = 0.5 * np.ones((2, 2), dtype=complex)
    PATHS = 2000
    LEVELS = range(4, 10)  # dt = 2^-4 .. 2^-9 on [0, 1]

    def _exact(self, w_t):
        ev, vecs = np.linalg.eigh(self.L.real)
        z = np.einsum("ij,pj,kj->pik", vecs, np.exp(np.outer(w_t, ev) - ev**2), vecs)
        sig = z @ self.RHO0 @ z
        return sig, sig / np.einsum("pii->p", sig).real[:, None, None]

    def test_strong_order_one_half(self):
        m = build_model({"dimension": 2, "hamiltonian": np.zeros((2, 2)), "diffusive_ops": [self.L]})
        arr = _ModelArrays(m)
        rng = np.random.default_rng(2024)
        n_fine = 2 ** max(self.LEVELS)
        fine = rng.standard_normal((self.PATHS, n_fine)) / np.sqrt(n_fine)
        u = np.zeros((self.PATHS, 0))
        errors = {"linear": [], "linear_normalized": [], "posterior": []}
        for k in self.LEVELS:
            n = 2**k
            dW = fine.reshape(self.PATHS, n, -1).sum(axis=2)
            x = y = arr.coords(np.repeat(self.RHO0[None], self.PATHS, axis=0))
            out_y = np.zeros(self.PATHS)
            for i in range(n):
                x, _ = engine._step_linear(arr, x, 1.0 / n, dW[:, i : i + 1], u)
                out_y += dW[:, i] + steps._cols(y.T, arr.drift)[0] / n
                y, _ = engine._posterior_substep(arr, y, 1.0 / n, dW[:, i : i + 1], u)
            sig, rho = self._exact(dW.sum(axis=1))
            sig_h = arr.matrices(x)
            rho_h = sig_h / np.einsum("pii->p", sig_h).real[:, None, None]
            errors["linear"].append(np.linalg.norm(sig_h - sig, axis=(1, 2)).mean())
            errors["linear_normalized"].append(np.linalg.norm(rho_h - rho, axis=(1, 2)).mean())
            rho_y = self._exact(out_y)[1]
            errors["posterior"].append(np.linalg.norm(arr.matrices(y) - rho_y, axis=(1, 2)).mean())
        log_dt = -np.log(2.0) * np.array(self.LEVELS)
        for name in ("linear", "posterior"):
            order = np.polyfit(log_dt, np.log(errors[name]), 1)[0]
            assert 0.4 <= order <= 0.65, (name, order, errors[name])
        # the normalized states are measured at 2.9e-3 (linear) and 2.4e-3
        # (posterior) at dt = 2^-9; an Euler step projected back onto the
        # states gives 1.2e-2 and 8.4e-3
        assert errors["linear_normalized"][-1] < 5e-3
        assert errors["posterior"][-1] < 5e-3
