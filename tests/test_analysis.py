import numpy as np
import pytest

from qtraj import (
    PosteriorTrajectory,
    PureStateVector,
    QuantumState,
    TimeGrid,
    build_model,
    empirical_invariant_measure,
    generate_atom_model,
    haar_random_state_vector,
    lie_rank_check,
    linear_entropy,
    quantum_variance,
    random_density_matrix,
    standard_heterodyne,
    standard_homodyne,
    time_average_state,
    traceless_hermitian_basis,
    variance_decomposition,
    von_neumann_entropy,
)
from qtraj import analysis
from qtraj.analysis import _brackets
from qtraj.engine import OutputRecord, _ModelArrays
from qtraj.errors import DimensionNotTwo, EmptyAverageWindow, NoDiffusiveChannels

from conftest import SIGMA_MINUS, SIGMA_Z, random_complex


def constant_trajectory(rho, t_final=1.0, dt=0.01):
    grid = TimeGrid(t_final=t_final, dt=dt)
    path = np.repeat(rho.matrix[None], grid.n_steps + 1, axis=0)
    g = linear_entropy(rho)
    return PosteriorTrajectory(
        grid=grid,
        state_path=path,
        output=OutputRecord(np.zeros((grid.n_steps, 0)), []),
        entropy_path=np.full(grid.n_steps + 1, g),
    )


class TestEntropies:
    def test_linear_entropy_pure(self, excited):
        assert linear_entropy(excited) == 0.0

    def test_linear_entropy_mixed(self, mixed):
        assert linear_entropy(mixed) == pytest.approx(0.5)

    def test_linear_entropy_diag(self):
        rho = QuantumState(np.diag([0.75, 0.25]).astype(complex))
        assert linear_entropy(rho) == pytest.approx(0.375)

    def test_range(self, rng):
        for n in (2, 3, 4):
            for _ in range(10):
                rho = QuantumState(random_density_matrix(n, rng))
                assert 0.0 <= linear_entropy(rho) < 1.0

    def test_von_neumann_pure(self, ground):
        assert von_neumann_entropy(ground) == 0.0

    def test_von_neumann_maximally_mixed(self):
        for n in (2, 3, 5):
            rho = QuantumState(np.eye(n, dtype=complex) / n)
            assert von_neumann_entropy(rho) == pytest.approx(np.log(n), abs=1e-12)


class TestTimeAverage:
    def test_constant_trajectory(self, rng):
        rho = QuantumState(random_density_matrix(2, rng))
        traj = constant_trajectory(rho)
        avg = time_average_state(traj, burn_in=0.2)
        assert np.abs(avg.matrix - rho.matrix).max() < 1e-12

    def test_burn_in_at_end_errors(self, mixed):
        traj = constant_trajectory(mixed)
        with pytest.raises(EmptyAverageWindow):
            time_average_state(traj, burn_in=1.0)


class TestQuantumVariance:
    def test_identity(self, rng):
        rho = QuantumState(random_density_matrix(3, rng))
        assert quantum_variance(np.eye(3), rho) == pytest.approx(0.0, abs=1e-12)

    def test_eigenstate(self, excited):
        assert quantum_variance(SIGMA_Z, excited) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self, mixed):
        assert quantum_variance(SIGMA_Z, mixed) == pytest.approx(1.0)

    def test_nonnegative(self, rng):
        for _ in range(20):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            rho = QuantumState(random_density_matrix(3, rng))
            assert quantum_variance(a, rho) >= 0.0


class TestVarianceDecomposition:
    def test_constant_at_equilibrium(self, rng):
        rho = QuantumState(random_density_matrix(2, rng))
        traj = constant_trajectory(rho)
        dec = variance_decomposition(SIGMA_Z, traj, rho, burn_in=0.0)
        assert dec.term2 == pytest.approx(0.0, abs=1e-12)
        assert dec.residual == pytest.approx(0.0, abs=1e-12)

    def test_identity_observable(self, mixed, rng):
        rho = QuantumState(random_density_matrix(2, rng))
        traj = constant_trajectory(rho)
        dec = variance_decomposition(np.eye(2), traj, mixed, burn_in=0.0)
        assert dec.lhs == pytest.approx(0.0, abs=1e-12)
        assert dec.term1 == pytest.approx(0.0, abs=1e-12)


class TestBlochHistogram:
    def test_constant_trajectory_single_bin(self, excited):
        traj = constant_trajectory(excited)
        hist = empirical_invariant_measure(traj, grid=(12, 24))
        assert (hist.counts > 0).sum() == 1
        assert hist.counts.sum() == hist.total
        assert hist.dwell_time.sum() == pytest.approx(hist.total * traj.grid.dt)

    def test_polar_axis_rotation(self, excited):
        # +z state lands on the equator when the polar axis is x
        traj = constant_trajectory(excited)
        hist = empirical_invariant_measure(traj, grid=(12, 24), polar_axis=(1, 0, 0))
        ti = np.nonzero(hist.counts)[0]
        assert set(ti) <= {5, 6}

    def test_mixed_samples_flagged(self, mixed):
        rho = QuantumState(np.diag([0.8, 0.2]).astype(complex))
        traj = constant_trajectory(rho)
        hist = empirical_invariant_measure(traj, grid=(6, 6))
        assert hist.mixed_samples == hist.total
        ti = np.nonzero(hist.counts)[0]
        assert list(ti) == [0]  # dominant eigenvector is +z

    def test_wrong_dimension(self, rng):
        rho = QuantumState(random_density_matrix(3, rng))
        grid = TimeGrid(t_final=1.0, dt=0.01)
        path = np.repeat(rho.matrix[None], grid.n_steps + 1, axis=0)
        traj = PosteriorTrajectory(
            grid=grid,
            state_path=path,
            output=OutputRecord(np.zeros((grid.n_steps, 0)), []),
            entropy_path=np.zeros(grid.n_steps + 1),
        )
        with pytest.raises(DimensionNotTwo):
            empirical_invariant_measure(traj)


class TestTracelessBasis:
    def test_orthonormal_and_traceless(self):
        for n in (2, 3, 4):
            basis = traceless_hermitian_basis(n)
            assert basis.shape == (n * n - 1, n, n)
            for a in basis:
                assert abs(np.trace(a)) < 1e-14
                assert np.abs(a - a.conj().T).max() < 1e-14
            gram = np.einsum("aij,bji->ab", basis, basis).real
            assert np.abs(gram - np.eye(n * n - 1)).max() < 1e-12


class TestLieRank:
    def test_heterodyne_full_at_ground(self, heterodyne_model):
        rep = lie_rank_check(heterodyne_model, PureStateVector([0.0, 1.0]))
        assert rep.full
        assert rep.rank == rep.tangent_dim == 2

    def test_all_fields_vanish(self, ):
        m = build_model(
            {"dimension": 2, "hamiltonian": np.zeros((2, 2)), "diffusive_ops": [SIGMA_Z]}
        )
        rep = lie_rank_check(m, PureStateVector([1.0, 0.0]))
        assert rep.rank == 0
        assert not rep.full

    def test_rank_bounded_by_tangent_dim(self, heterodyne_model, rng):
        from qtraj import haar_random_state_vector

        for _ in range(5):
            psi = PureStateVector(haar_random_state_vector(2, rng))
            rep = lie_rank_check(heterodyne_model, psi, max_depth=2)
            assert rep.rank <= 2 * (2 - 1)

    def test_requires_diffusive(self, direct_model):
        with pytest.raises(NoDiffusiveChannels):
            lie_rank_check(direct_model, PureStateVector([1.0, 0.0]))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_diffusion_bracket_closed_form(self, n):
        # b_j(x) = G_j x - (g_j . x) x, so Db_j(x) = G_j - x g_j^T - (g_j . x) I
        rng = np.random.default_rng(10 + n)
        arr = _ModelArrays(lie_model(rng, n, 2))
        x = lie_point(arr, rng)[0]
        nn = n * n
        _, g_cols, m_cols, _ = arr.strat_cuts
        gs = arr.strat[:, g_cols].reshape(nn, 2, nn).transpose(1, 2, 0)  # G_j on columns
        ms = arr.strat[:, m_cols].T  # m_j(x) = g_j . x
        b = [gs[j] @ x - (ms[j] @ x) * x for j in range(2)]
        db = [gs[j] - np.outer(x, ms[j]) - (ms[j] @ x) * np.eye(nn) for j in range(2)]
        want = db[1] @ b[0] - db[0] @ b[1]  # [b_1, b_2] = Db_2 b_1 - Db_1 b_2
        got = _brackets(arr, x[None], 2)[1 * 3 + 2, 0]  # word (1, 2) of G = 3 fields
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_depth_three_brackets_exact_at_any_spacing(self, n, monkeypatch):
        # the stencils are exact only if no bracket's degree is underestimated
        rng = np.random.default_rng(20 + n)
        arr = _ModelArrays(lie_model(rng, n, 2))
        x = lie_point(arr, rng)
        unit = _brackets(arr, x, 3)
        monkeypatch.setattr(analysis, "_SPACING", 0.5)
        half = _brackets(arr, x, 3)
        assert np.abs(unit - half).max() <= 1e-12 * np.abs(unit).max()

    def test_rank_battery(self):
        # (rank, full, n_fields) as reported by the central-difference brackets
        # this check replaced; every kept singular value is >= 0.2 and every
        # dropped one <= 1e-15, so no decision sits near the 1e-6 threshold
        s = 1.0 / np.sqrt(2.0)
        points = {"0": [1.0, 0.0], "1": [0.0, 1.0], "+": [s, s]}
        atoms = {
            ("homodyne", "0"): (2, True, 2),
            ("homodyne", "1"): (2, True, 14),
            ("homodyne", "+"): (2, True, 6),
            ("heterodyne", "0"): (2, True, 3),
            ("heterodyne", "1"): (2, True, 39),
            ("heterodyne", "+"): (2, True, 3),
        }
        specs = {"homodyne": standard_homodyne, "heterodyne": standard_heterodyne}
        for (name, point), want in atoms.items():
            m = generate_atom_model(specs[name](1.0, 2.0))
            rep = lie_rank_check(m, PureStateVector(points[point]))
            assert (rep.rank, rep.full, rep.n_fields) == want, (name, point)
        randoms = {
            (2, 1): (2, True, 2),
            (2, 2): (2, True, 3),
            (3, 1): (4, True, 14),
            (3, 2): (4, True, 12),
            (4, 1): (5, False, 14),
            (4, 2): (6, True, 12),
        }
        for (n, n_diff), want in randoms.items():
            rng = np.random.default_rng(100 * n + n_diff)
            m = lie_model(rng, n, n_diff)
            rep = lie_rank_check(m, PureStateVector(haar_random_state_vector(n, rng)))
            assert (rep.rank, rep.full, rep.n_fields) == want, (n, n_diff)


def lie_model(rng, n, n_diff):
    """Random Hamiltonian and n_diff random diffusive operators."""
    h = random_complex(rng, n)
    return build_model(
        {
            "dimension": n,
            "hamiltonian": 0.5 * (h + h.conj().T),
            "diffusive_ops": [random_complex(rng, n) for _ in range(n_diff)],
        }
    )


def lie_point(arr, rng):
    """Coordinates (1, N) of a Haar-random pure state."""
    psi = PureStateVector(haar_random_state_vector(arr.n, rng))
    return arr.coords(psi.projector()[None])
