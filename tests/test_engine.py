import numpy as np
import pytest

from qtraj import (
    PureStateVector,
    QuantumState,
    TimeGrid,
    apply_jump,
    apply_k,
    apply_l0,
    apply_liouvillian,
    build_model,
    deterministic_flow,
    evolve_master,
    generate_atom_model,
    hs_norm,
    matrix_exp_action,
    project_to_simplex,
    project_to_state,
    run_ensemble,
    simulate_linear,
    simulate_posterior,
    simulate_stratonovich_pure,
    standard_direct,
)
from qtraj import engine
from qtraj.engine import _ModelArrays, _repair_positive_b, _strat_a_b
from qtraj.errors import (
    JumpChannelsPresent,
    MultipleDiffusiveOps,
    NotPurePreserving,
    StepTooLarge,
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

    def test_wiener_reconstruction(self, heterodyne_model, mixed):
        # increments of W are the drawn standard increments plus m dt
        grid = TimeGrid(t_final=0.1, dt=1e-3)
        traj = simulate_posterior(heterodyne_model, mixed, grid, seed=29)
        diff = traj.output.wiener - traj.output.compensated_wiener
        assert diff.shape == (grid.n_steps, 2)
        assert np.abs(diff).max() <= 2.0 * grid.dt + 1e-12  # |m_j| <= 2||L_j||

    def test_adaptive_substepping_high_rate(self, mixed):
        m = identity_jump_model(weight=400.0)  # nu dt = 0.4 > cap
        grid = TimeGrid(t_final=0.05, dt=1e-3)
        traj = simulate_posterior(m, mixed, grid, seed=31)
        assert np.abs(traj.state_path - mixed.matrix).max() < 1e-12
        assert len(traj.output.jump_events) > 0
        with pytest.raises(StepTooLarge):
            simulate_posterior(m, mixed, grid, seed=31, adaptive=False)


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
        # oracle: normalized exp(L t) psi0 via matrix_exp_action
        vec = matrix_exp_action(m.diffusive_ops[0], 30.0, psi0.amplitudes)
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

    def test_requires_single_op(self, heterodyne_model):
        with pytest.raises(MultipleDiffusiveOps):
            deterministic_flow(heterodyne_model, PureStateVector([1.0, 0.0]), 1.0)
        res = deterministic_flow(
            heterodyne_model, PureStateVector([1.0, 0.0]), 50.0, op_index=0
        )
        assert res.states[-1].dim == 2


class TestRepair:
    def test_trace_preserved(self, rng, heterodyne_model):
        arr = _ModelArrays(heterodyne_model)
        for _ in range(20):
            a = random_complex(rng, 2)
            a = 0.5 * (a + a.conj().T)
            a += (0.6 - 0.5 * np.trace(a).real) * np.eye(2)  # trace 1.2 > 0
            out, w = _repair_positive_b(arr, arr.coords(a[None]))
            assert w[0] == pytest.approx(np.trace(a).real, abs=1e-12)
            assert np.linalg.eigvalsh(arr.matrices(out)[0]).min() >= -1e-14

    def test_general_dim(self, rng):
        arr = _ModelArrays(build_model({"dimension": 3, "hamiltonian": np.diag([1.0, 0.0, 0.0])}))
        a = np.diag([0.5, 0.4, -0.1]).astype(complex)
        out, w = _repair_positive_b(arr, arr.coords(a[None]))
        assert w[0] == pytest.approx(0.8, abs=1e-12)
        assert np.linalg.eigvalsh(arr.matrices(out)[0]).min() >= -1e-14


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

    def test_parallel_matches_serial(self, heterodyne_model, mixed, monkeypatch):
        grid = TimeGrid(t_final=0.1, dt=1e-3)
        monkeypatch.setattr(engine, "_BLOCK", 8)
        serial = run_ensemble(heterodyne_model, mixed, grid, 32, seed=3, mode="posterior")
        monkeypatch.setenv("QTRAJ_THREADS", "2")
        parallel = run_ensemble(heterodyne_model, mixed, grid, 32, seed=3, mode="posterior")
        assert np.array_equal(serial.mean_state, parallel.mean_state)
        assert np.array_equal(serial.se_state_re, parallel.se_state_re)
        assert np.array_equal(serial.mean_entropy, parallel.mean_entropy)

    def test_jump_counts_recorded(self, direct_model, mixed):
        grid = TimeGrid(t_final=2.0, dt=1e-3)
        stats = run_ensemble(direct_model, mixed, grid, 64, seed=19, mode="posterior")
        assert stats.jump_count_mean[0] > 0.0
        assert stats.jump_count_se[0] > 0.0


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


def _linear_ref(m, sig, dt, dW, u):
    """Euler step of the linear equation, then eigenvalue repair at fixed trace."""
    new = sig + dt * apply_k(m, sig) + _diffusion_ref(m, sig, dW)
    fired = np.array([u[k] < ch.weight * dt for k, ch in enumerate(m.jump_channels)], dtype=int)
    for k in np.flatnonzero(fired):
        new = new + apply_jump(m, sig, k) - sig
    evals, evecs = np.linalg.eigh(0.5 * (new + new.conj().T))
    s = evals.sum()
    if evals.min() < 0.0 < s:
        evals = project_to_simplex(evals / s) * s
    evals = np.clip(evals, 0.0, None)
    return (evecs * evals) @ evecs.conj().T, evals.sum(), fired


def _posterior_ref(m, rho, dt, dW, u):
    """Euler step of the nonlinear equation, then projection onto the states."""
    m_drift = np.array(
        [np.trace((op + op.conj().T) @ rho).real for op in m.diffusive_ops]
    )
    incr = dt * apply_liouvillian(m, rho) + _diffusion_ref(m, rho, dW, m_drift)
    fired = np.zeros(m.n_jump, dtype=int)
    for k, ch in enumerate(m.jump_channels):
        jrho = apply_jump(m, rho, k)
        lam = max(np.trace(jrho).real, 0.0)
        if lam <= 1e-12:
            continue
        incr -= ch.weight * dt * (jrho - lam * rho)
        if u[k] < min(lam * ch.weight * dt, 1.0):
            incr += jrho / lam - rho
            fired[k] = 1
    return project_to_state(rho + incr).matrix, fired, m_drift


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
        out, w, fired = engine._step_linear(arr, sig, self.DT, dW, u)
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
        rng = np.random.default_rng(200 + 10 * n + n_jump)
        m = _random_model(rng, n, n_diff=2, n_jump=n_jump, n_diss=1)
        rho = _random_states(rng, self.B, n)
        if n_jump:
            # channel 1 annihilates |0><0|, so it is inactive on those rows
            ops = [np.eye(n)[:, [k]] @ np.eye(n)[[k + 1], :] for k in range(n - 1)]
            m = build_model(
                {
                    "dimension": n,
                    "hamiltonian": m.hamiltonian,
                    "diffusive_ops": list(m.diffusive_ops),
                    "jump_channels": [m.jump_channels[0], {"label": "d", "weight": 0.9, "kraus": ops}],
                }
            )
            rho[1::4] = np.diag(np.eye(n)[0]).astype(complex)
        dW, u = self._noise(rng, m)
        arr = _ModelArrays(m)
        assert arr.substeps(self.DT) == 1
        out, fired, m_drift = engine._step_posterior(arr, rho, self.DT, dW, u, False, None)
        out = arr.matrices(out)
        if n_jump:
            assert fired[:, 0].sum() > 0 and fired[:, 1].sum() > 0
            assert not fired[1::4, 1].any()
        for i in range(self.B):
            want, f_want, m_want = _posterior_ref(m, rho[i], self.DT, dW[i], u[i])
            assert np.abs(out[i] - want).max() < 1e-12
            assert np.array_equal(fired[i], f_want)
            assert np.abs(m_drift[i] - m_want).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_stratonovich(self, n):
        rng = np.random.default_rng(300 + n)
        m = _random_model(rng, n, n_diff=2, n_jump=0)
        rho = _random_states(rng, self.B, n, pure=True)
        dW, _ = self._noise(rng, m)
        arr = _ModelArrays(m)
        out, defect, m_drift = engine._step_stratonovich(arr, rho, self.DT, dW)
        out = arr.matrices(out)
        for i in range(self.B):
            want, d_want, m_want = _stratonovich_ref(m, rho[i], self.DT, dW[i])
            assert np.abs(out[i] - want).max() < 1e-12
            assert abs(defect[i] - d_want) < 1e-12
            assert np.abs(m_drift[i] - m_want).max() < 1e-12


class TestBatchIndependence:
    """A trajectory's path depends only on its seed (high-rate direct detection)."""

    MODEL = generate_atom_model(standard_direct(linewidth=1000.0, rabi=300.0))
    GRID = TimeGrid(t_final=0.2, dt=1e-3)

    class _Record:
        def __init__(self):
            self.states = []

        def collect(self, i, state, *rest):
            self.states.append(state.copy())

    def _paths(self, seeds):
        rec = self._Record()
        arr = _ModelArrays(self.MODEL)
        engine._simulate_batch(arr, "posterior", np.eye(2) / 2, self.GRID, seeds, rec)
        paths = np.stack(rec.states, axis=1)
        return {s: paths[i] for i, s in enumerate(seeds)}

    def test_same_path_in_any_batch(self):
        alone = {s: self._paths([s])[s] for s in (5, 6)}
        for seeds in ([6, 5], [5, 6]):
            mixed = self._paths(seeds)
            for s in seeds:
                assert np.array_equal(mixed[s], alone[s])

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


class TestRowCollectors:
    """Ensemble aggregates on coordinate rows against numpy over single paths."""

    GRID = TimeGrid(t_final=0.05, dt=1e-3)
    N_TRAJ = 20  # blocks of 8, 8 and 4 with _BLOCK = 8
    SEED = 41

    def _case(self, mode, request):
        if mode == "stratonovich":
            psi0 = PureStateVector([1.0, 0.0])
            m = request.getfixturevalue("homodyne_model")
            return m, QuantumState(psi0.projector()), lambda s: simulate_stratonovich_pure(
                m, psi0, self.GRID, s
            )
        m = request.getfixturevalue("heterodyne_model")
        rho0 = request.getfixturevalue("mixed")
        sim = simulate_linear if mode == "linear" else simulate_posterior
        return m, rho0, lambda s: sim(m, rho0, self.GRID, s)

    @staticmethod
    def _mean_se(vals):
        return vals.mean(axis=0), vals.std(axis=0, ddof=1) / np.sqrt(vals.shape[0])

    @pytest.mark.parametrize("mode", ["linear", "posterior", "stratonovich"])
    def test_fields_match_numpy_over_paths(self, mode, request, monkeypatch):
        m, rho0, simulate = self._case(mode, request)
        trajs = [simulate(self.SEED + i) for i in range(self.N_TRAJ)]
        if mode == "linear":
            states = np.stack([t.sigma_path for t in trajs])
            weights = np.stack([t.weight_path for t in trajs])
            tr2 = np.einsum("ktij,ktji->kt", states, states).real
            entropy = 1.0 - tr2 / weights**2
        else:
            states = np.stack([t.state_path for t in trajs])
            weights = np.ones(states.shape[:2])
            entropy = np.stack([t.entropy_path for t in trajs])
        obs = np.einsum("ij,ktji->kt", SIGMA_X.conj().T, states)
        want = {
            "state": self._mean_se(states.real) + self._mean_se(states.imag)[1:],
            "weight": self._mean_se(weights),
            "entropy": self._mean_se(entropy),
            "obs": self._mean_se(obs.real) + self._mean_se(obs.imag),
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

    @pytest.mark.parametrize("mode", ["linear", "posterior", "stratonovich"])
    def test_trajectory_zero_equals_single_path(self, mode, request, monkeypatch):
        m, rho0, simulate = self._case(mode, request)
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
            assert got.output.jump_events == want.output.jump_events
            if mode != "linear":
                assert np.array_equal(
                    got.output.compensated_wiener, want.output.compensated_wiener
                )
                assert got.purity_defect_max == want.purity_defect_max
