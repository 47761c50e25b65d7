import json

import numpy as np
import pytest

from qtraj import (
    MeasurementModel,
    QuantumState,
    TimeGrid,
    build_model,
    empirical_invariant_measure,
    evolve_master,
    generate_atom_model,
    run_ensemble,
    simulate_linear,
    simulate_posterior,
    standard_direct,
    standard_heterodyne,
)
from qtraj.errors import ConfigError
from qtraj.serialize import (
    load_model,
    model_hash,
    model_to_config,
    save_model,
    write_ensemble_csv,
    write_histogram_csv,
    write_states_csv,
    write_trajectory_csv,
)

from conftest import SIGMA_Z


class TestModelRoundTrip:
    def test_save_load_exact(self, tmp_path, heterodyne_model):
        path = tmp_path / "model.json"
        h1 = save_model(heterodyne_model, path)
        loaded, h2 = load_model(path)
        assert h1 == h2
        assert np.array_equal(loaded.hamiltonian, heterodyne_model.hamiltonian)
        for a, b in zip(loaded.diffusive_ops, heterodyne_model.diffusive_ops):
            assert np.array_equal(a, b)

    def test_jump_channels_roundtrip(self, tmp_path, direct_model):
        path = tmp_path / "model.json"
        save_model(direct_model, path)
        loaded, _ = load_model(path)
        assert loaded.n_jump == 1
        assert loaded.jump_channels[0].outcome_label == "count"
        assert np.array_equal(
            loaded.jump_channels[0].kraus_ops[0], direct_model.jump_channels[0].kraus_ops[0]
        )

    def test_numpy_integer_dimension_saves_as_the_same_model(self, tmp_path):
        # the model keeps its checked dimension as a Python int, so a numpy
        # integer saves, loads back and hashes as dim = 2 does
        path = tmp_path / "model.json"
        m = MeasurementModel(np.int64(2), SIGMA_Z, (0.5 * SIGMA_Z,))
        assert type(m.dim) is int
        h = save_model(m, path)
        loaded, h_loaded = load_model(path)
        assert h == h_loaded == model_hash(model_to_config(MeasurementModel(2, SIGMA_Z, (0.5 * SIGMA_Z,))))
        assert loaded.dim == 2 and np.array_equal(loaded.hamiltonian, m.hamiltonian)

    def test_hash_stable_and_sensitive(self, heterodyne_model):
        cfg = model_to_config(heterodyne_model)
        h1 = model_hash(cfg)
        h2 = model_hash(json.loads(json.dumps(cfg)))
        assert h1 == h2
        other = model_to_config(generate_atom_model(standard_heterodyne(1.0, 2.1)))
        assert model_hash(other) != h1

    def test_bad_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_model(path)
        with pytest.raises(ConfigError):
            load_model(tmp_path / "missing.json")

    def test_simulation_identical_through_roundtrip(self, tmp_path, mixed):
        # in-process model and file round-trip drive identical trajectories
        m1 = generate_atom_model(standard_heterodyne(0.7, 1.3, delta_omega=0.2))
        path = tmp_path / "m.json"
        save_model(m1, path)
        m2, _ = load_model(path)
        grid = TimeGrid(t_final=0.2, dt=1e-3)
        t1 = simulate_posterior(m1, mixed, grid, seed=5)
        t2 = simulate_posterior(m2, mixed, grid, seed=5)
        assert np.array_equal(t1.state_path, t2.state_path)


class TestCsv:
    def test_trajectory_csv_layout(self, tmp_path, heterodyne_model, mixed):
        grid = TimeGrid(t_final=0.05, dt=1e-3)
        traj = simulate_posterior(heterodyne_model, mixed, grid, seed=3)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj, {"command": "test", "seed": 3})
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# command=test")
        header = lines[1].split(",")
        assert header[0] == "t"
        assert "rho00_re" in header and "entropy" in header
        assert "cum_W0" in header and "cum_W1" in header
        assert len(lines) == 2 + grid.n_steps + 1

    def test_full_precision(self, tmp_path, heterodyne_model, mixed):
        grid = TimeGrid(t_final=0.02, dt=1e-3)
        traj = simulate_linear(heterodyne_model, mixed, grid, seed=3)
        path = tmp_path / "t.csv"
        write_trajectory_csv(path, traj, {"command": "test"})
        row = path.read_text().splitlines()[3].split(",")
        weight_col = row[1 + 8]  # t + 4 complex entries
        assert float(weight_col) == traj.weight_path[1]

    def test_jump_counts_column(self, tmp_path, mixed):
        m = generate_atom_model(standard_direct(4.0, 2.0))
        grid = TimeGrid(t_final=2.0, dt=1e-3)
        traj = simulate_posterior(m, mixed, grid, seed=11)
        assert traj.output.jump_counts.sum()  # decay at rate ~2 over T=2
        path = tmp_path / "t.csv"
        write_trajectory_csv(path, traj, {"command": "test"})
        lines = path.read_text().splitlines()
        header = lines[1].split(",")
        assert header[-1] == "cum_N0"
        final = int(lines[-1].split(",")[-1])
        assert final == traj.output.jump_counts.sum()


def _state_cols(prefix, n):
    return [f"{prefix}{i}{j}_{p}" for i in range(n) for j in range(n) for p in ("re", "im")]


def _interleaved(mats):
    """(T, n, n) complex -> (T, 2 n^2) columns re, im per entry, row-major."""
    mats = np.asarray(mats)
    out = np.empty((mats.shape[0], 2 * mats[0].size))
    out[:, 0::2] = mats.real.reshape(mats.shape[0], -1)
    out[:, 1::2] = mats.imag.reshape(mats.shape[0], -1)
    return out


class TestCsvRoundTrip:
    """Every written column reads back equal to its source array."""

    def _read(self, path, meta):
        lines = path.read_text().splitlines()
        assert lines[0] == "# " + " ".join(f"{k}={v}" for k, v in meta.items())
        return lines[1].split(","), lines[2:], np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)

    def _check_ints(self, rows, cols):
        for line in rows:
            fields = line.split(",")
            for c in cols:
                assert fields[c].lstrip("-").isdigit()

    def test_linear_dim3_with_jumps(self, tmp_path):
        lower = np.zeros((3, 3))
        lower[0, 1] = lower[1, 2] = 1.0
        m = build_model(
            {
                "dimension": 3,
                "hamiltonian": np.diag([1.0, 0.0, -1.0]),
                "diffusive_ops": [0.5 * np.diag([1.0, 0.0, -1.0])],
                "jump_channels": [
                    {"label": "a", "weight": 3.0, "kraus": [lower]},
                    {"label": "b", "weight": 2.0, "kraus": [np.eye(3)]},
                ],
            }
        )
        rho0 = QuantumState(np.eye(3, dtype=complex) / 3)
        traj = simulate_linear(m, rho0, TimeGrid(t_final=1.0, dt=1e-2), seed=2)
        counts = traj.output.jump_counts
        assert np.flatnonzero(counts.sum(axis=0)).tolist() == [0, 1]
        path = tmp_path / "t.csv"
        meta = {"command": "test", "seed": 2}
        write_trajectory_csv(path, traj, meta)
        header, rows, data = self._read(path, meta)
        assert header == ["t"] + _state_cols("sigma", 3) + [
            "weight", "entropy", "cum_W0", "cum_N0", "cum_N1"
        ]
        self._check_ints(rows, [-2, -1])
        n_rec = traj.grid.n_steps + 1
        cum_n = np.zeros((n_rec, 2))
        for step, k in zip(*np.nonzero(counts)):
            cum_n[step + 1 :, k] += counts[step, k]
        assert np.array_equal(data[:, 0], traj.grid.times)
        assert np.array_equal(data[:, 1:19], _interleaved(traj.sigma_path))
        assert np.array_equal(data[:, 19], traj.weight_path)
        assert np.array_equal(data[:, 20], traj.entropy_path)
        assert data[0, 21] == 0.0
        assert np.array_equal(data[1:, 21], np.cumsum(traj.output.wiener[:, 0]))
        assert np.array_equal(data[:, 22:], cum_n)

    def test_direct_without_jumps(self, tmp_path, mixed):
        # every channel has its column, whether or not it fired
        m = generate_atom_model(standard_direct(1.0, 1.0))
        traj = simulate_posterior(m, mixed, TimeGrid(t_final=0.002, dt=1e-3), seed=1)
        assert np.array_equal(traj.output.jump_counts, np.zeros((traj.grid.n_steps, 1)))
        path = tmp_path / "t.csv"
        meta = {"command": "test"}
        write_trajectory_csv(path, traj, meta)
        header, rows, data = self._read(path, meta)
        assert header == ["t"] + _state_cols("rho", 2) + ["weight", "entropy", "cum_N0"]
        self._check_ints(rows, [-1])
        assert np.array_equal(data[:, -1], np.zeros(traj.grid.n_steps + 1))

    def test_posterior(self, tmp_path, heterodyne_model, mixed):
        traj = simulate_posterior(heterodyne_model, mixed, TimeGrid(0.1, 1e-3), seed=7)
        path = tmp_path / "t.csv"
        meta = {"command": "test"}
        write_trajectory_csv(path, traj, meta)
        header, _, data = self._read(path, meta)
        assert header == ["t"] + _state_cols("rho", 2) + [
            "weight", "entropy", "cum_W0", "cum_W1"
        ]
        assert np.array_equal(data[:, 0], traj.grid.times)
        assert np.array_equal(data[:, 1:9], _interleaved(traj.state_path))
        assert np.array_equal(data[:, 9], np.ones(traj.grid.n_steps + 1))
        assert np.array_equal(data[:, 10], traj.entropy_path)
        assert np.array_equal(data[1:, 11:], np.cumsum(traj.output.wiener, axis=0))

    def test_ensemble_with_observable(self, tmp_path, heterodyne_model, mixed):
        stats = run_ensemble(
            heterodyne_model, mixed, TimeGrid(0.05, 1e-3), 6, seed=1,
            mode="posterior", observable=SIGMA_Z,
        )
        path = tmp_path / "e.csv"
        meta = {"command": "test", "mode": "posterior"}
        write_ensemble_csv(path, stats, meta)
        header, _, data = self._read(path, meta)
        assert header == ["t"] + _state_cols("mean", 2) + _state_cols("se", 2) + [
            "mean_weight", "se_weight", "mean_entropy", "se_entropy",
            "obs_re", "obs_im", "obs_se_re", "obs_se_im",
        ]
        se = np.empty((len(stats.times), 8))
        se[:, 0::2] = stats.se_state_re.reshape(-1, 4)
        se[:, 1::2] = stats.se_state_im.reshape(-1, 4)
        expected = [
            stats.times[:, None],
            _interleaved(stats.mean_state),
            se,
            np.stack([stats.mean_weight, stats.se_weight], axis=1),
            np.stack([stats.mean_entropy, stats.se_entropy], axis=1),
            np.stack([stats.obs_mean.real, stats.obs_mean.imag], axis=1),
            np.stack([stats.obs_se_re, stats.obs_se_im], axis=1),
        ]
        assert np.array_equal(data, np.hstack(expected))

    def test_master_states(self, tmp_path, heterodyne_model, excited):
        times = np.linspace(0.0, 1.0, 11)
        states = evolve_master(heterodyne_model, excited, times)
        path = tmp_path / "m.csv"
        meta = {"command": "master"}
        write_states_csv(path, times, states, meta)
        header, _, data = self._read(path, meta)
        assert header == ["t"] + _state_cols("eta", 2)
        assert np.array_equal(data[:, 0], times)
        assert np.array_equal(data[:, 1:], _interleaved([s.matrix for s in states]))

    def test_histogram(self, tmp_path, heterodyne_model, excited):
        traj = simulate_posterior(heterodyne_model, excited, TimeGrid(2.0, 1e-2), seed=3)
        hist = empirical_invariant_measure(traj, grid=(3, 5))
        path = tmp_path / "h.csv"
        meta = {"command": "invariant"}
        write_histogram_csv(path, hist, meta)
        header, rows, data = self._read(path, meta)
        assert header == ["theta_index", "phi_index", "dwell_time", "count"]
        self._check_ints(rows, [0, 1, 3])
        theta, phi = np.meshgrid(np.arange(3), np.arange(5), indexing="ij")
        assert np.array_equal(data[:, 0], theta.ravel())
        assert np.array_equal(data[:, 1], phi.ravel())
        assert np.array_equal(data[:, 2], hist.dwell_time.ravel())
        assert np.array_equal(data[:, 3], hist.counts.ravel())
        assert hist.counts.sum() > 0
