import numpy as np
import pytest
import scipy.optimize

from qtraj import (
    PureStateVector,
    QuantumState,
    hs_inner,
    hs_norm,
    matrix_exp_action,
    operator_norm,
    project_to_simplex,
    project_to_state,
    random_density_matrix,
    spectral_decomposition,
    trace_norm,
)
from qtraj.errors import DimensionMismatch, NotHermitian, ValidationError, ZeroTrace

from conftest import SIGMA_MINUS, SIGMA_X, SIGMA_Z, random_complex, random_hermitian


def svd_trace_norm(a):
    """Independent oracle: sum of singular values via SVD."""
    return float(np.linalg.svd(a, compute_uv=False).sum())


def simplex_oracle(v):
    """Independent oracle: constrained quadratic program via SLSQP."""
    v = np.asarray(v, dtype=float)
    n = v.shape[0]
    res = scipy.optimize.minimize(
        lambda x: 0.5 * np.sum((x - v) ** 2),
        np.ones(n) / n,
        jac=lambda x: x - v,
        bounds=[(0.0, None)] * n,
        constraints=[{"type": "eq", "fun": lambda x: x.sum() - 1.0}],
        method="SLSQP",
        tol=1e-14,
    )
    assert res.success
    return res.x


class TestTraceNorm:
    def test_sigma_z(self):
        assert trace_norm(SIGMA_Z) == pytest.approx(2.0, abs=1e-12)

    def test_rank_one_partial_isometry(self):
        eg = np.zeros((2, 2), dtype=complex)
        eg[0, 1] = 1.0
        assert trace_norm(eg) == pytest.approx(1.0, abs=1e-12)

    def test_against_svd_oracle(self, rng):
        for _ in range(100):
            a = random_complex(rng, rng.integers(2, 6))
            assert trace_norm(a) == pytest.approx(svd_trace_norm(a), abs=1e-10)

    def test_equals_trace_for_positive(self, rng):
        rho = random_density_matrix(4, rng)
        assert trace_norm(rho) == pytest.approx(np.trace(rho).real, abs=1e-12)

    def test_dominates_abs_trace(self, rng):
        for _ in range(50):
            a = random_complex(rng, 3)
            assert trace_norm(a) >= abs(np.trace(a)) - 1e-12


class TestNormOrdering:
    def test_infty_le_hs_le_trace(self, rng):
        for _ in range(50):
            a = random_complex(rng, rng.integers(2, 6))
            assert operator_norm(a) <= hs_norm(a) + 1e-12
            assert hs_norm(a) <= trace_norm(a) + 1e-12


class TestHsInner:
    def test_identity_with_state(self, rng):
        rho = random_density_matrix(3, rng)
        assert hs_inner(np.eye(3), rho) == pytest.approx(1.0, abs=1e-12)

    def test_traceless(self):
        assert hs_inner(SIGMA_Z, np.eye(2) / 2) == pytest.approx(0.0, abs=1e-14)

    def test_sigma_x_with_itself(self):
        assert hs_inner(SIGMA_X, SIGMA_X) == pytest.approx(2.0, abs=1e-14)

    def test_conjugate_symmetry_and_linearity(self, rng):
        a, b, c = (random_complex(rng, 3) for _ in range(3))
        assert hs_inner(a, b) == pytest.approx(np.conj(hs_inner(b, a)), abs=1e-12)
        z = 0.7 - 0.3j
        assert hs_inner(a, z * b + c) == pytest.approx(
            z * hs_inner(a, b) + hs_inner(a, c), abs=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            hs_inner(np.eye(2), np.eye(3))


class TestSpectralDecomposition:
    def test_sigma_z(self):
        pairs = spectral_decomposition(SIGMA_Z)
        assert pairs[0][0] == pytest.approx(1.0)
        assert pairs[1][0] == pytest.approx(-1.0)
        assert abs(pairs[0][1][0]) == pytest.approx(1.0)
        assert abs(pairs[1][1][1]) == pytest.approx(1.0)

    def test_degenerate_identity(self):
        pairs = spectral_decomposition(np.eye(2) / 2)
        assert [w for w, _ in pairs] == pytest.approx([0.5, 0.5])
        u, v = pairs[0][1], pairs[1][1]
        assert abs(np.vdot(u, v)) < 1e-10

    def test_diagonal(self):
        pairs = spectral_decomposition(np.diag([0.75, 0.25]).astype(complex))
        assert [w for w, _ in pairs] == pytest.approx([0.75, 0.25])

    def test_reconstruction_and_orthonormality(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 6))
            a = random_hermitian(rng, n)
            pairs = spectral_decomposition(a)
            recon = sum(w * np.outer(v, v.conj()) for w, v in pairs)
            assert hs_norm(a - recon) <= 1e-10 * n
            vecs = np.array([v for _, v in pairs])
            gram = vecs.conj() @ vecs.T
            assert np.abs(gram - np.eye(n)).max() <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            spectral_decomposition(SIGMA_MINUS)


class TestProjectToSimplex:
    def test_spec_vectors(self):
        assert project_to_simplex(np.array([1.2, -0.2])) == pytest.approx([1.0, 0.0])
        assert project_to_simplex(np.array([0.6, 0.6])) == pytest.approx([0.5, 0.5])

    def test_against_qp_oracle(self, rng):
        for _ in range(25):
            v = rng.standard_normal(int(rng.integers(2, 6))) * 2.0
            got = project_to_simplex(v)
            want = simplex_oracle(v)
            assert got == pytest.approx(want, abs=1e-7)
            assert got.min() >= 0.0
            assert got.sum() == pytest.approx(1.0, abs=1e-12)


class TestProjectToState:
    def test_idempotent_on_states(self, rng):
        for _ in range(20):
            rho = random_density_matrix(3, rng)
            out = project_to_state(rho)
            assert hs_norm(out.matrix - rho) <= 1e-10

    def test_spec_examples(self):
        out = project_to_state(np.diag([1.2, -0.2]).astype(complex))
        assert np.diag(out.matrix).real == pytest.approx([1.0, 0.0], abs=1e-12)
        out = project_to_state(np.diag([0.6, 0.6]).astype(complex))
        assert np.diag(out.matrix).real == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_output_satisfies_state_invariants(self, rng):
        for _ in range(20):
            a = random_complex(rng, 4)
            out = project_to_state(a)  # QuantumState validates on construction
            assert isinstance(out, QuantumState)

    def test_zero_trace_error(self):
        with pytest.raises(ZeroTrace):
            project_to_state(np.diag([-2.0, -3.0]).astype(complex))


class TestMatrixExpAction:
    def test_zero_matrix(self, rng):
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        out = matrix_exp_action(np.zeros((3, 3)), 2.7, v)
        assert out == pytest.approx(v, abs=1e-14)

    def test_nilpotent(self):
        t = 1.7
        out = matrix_exp_action(SIGMA_MINUS, t, np.array([0.6, 0.8]))
        assert out == pytest.approx([0.6, 0.8 + 0.6 * t], abs=1e-12)

    def test_diagonal(self):
        out = matrix_exp_action(np.diag([1.0, -1.0]).astype(complex), 1.0, np.array([1.0, 1.0]))
        assert out == pytest.approx([np.e, 1.0 / np.e], rel=1e-9)

    def test_rejects_nonfinite_time(self):
        with pytest.raises(ValidationError):
            matrix_exp_action(SIGMA_Z, np.inf, np.array([1.0, 0.0]))


class TestStateTypes:
    def test_quantum_state_validation(self):
        with pytest.raises(NotHermitian):
            QuantumState(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))
        with pytest.raises(ValidationError):
            QuantumState(np.diag([1.5, -0.5]).astype(complex))
        with pytest.raises(ValidationError):
            QuantumState(np.diag([0.7, 0.7]).astype(complex))

    def test_pure_state_vector_validation(self):
        PureStateVector([1.0, 0.0])
        with pytest.raises(ValidationError):
            PureStateVector([1.0, 1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            QuantumState(np.full((2, 2), np.nan))
        with pytest.raises(ValidationError):
            QuantumState(np.diag([1.0, np.inf]))
        with pytest.raises(ValidationError):
            PureStateVector([np.nan, 0.0])

    def test_immutable(self, mixed):
        with pytest.raises(ValueError):
            mixed.matrix[0, 0] = 9.0

    def test_from_stack_matches_constructor(self, rng):
        mats = np.stack([random_density_matrix(3, rng) for _ in range(5)])
        states = QuantumState.from_stack(mats)
        want = mats.copy()
        mats[:] = 0.0  # the states hold their own copy
        for got, ref in zip(states, want):
            assert np.array_equal(got.matrix, ref)
            assert np.array_equal(got.matrix, QuantumState(ref).matrix)
        with pytest.raises(ValueError):
            states[2].matrix[0, 0] = 9.0

    def test_from_stack_rejects_any_bad_matrix(self):
        good = np.eye(2, dtype=complex) / 2
        for bad, error in [
            (np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex), NotHermitian),
            (np.diag([1.5, -0.5]).astype(complex), ValidationError),
            (np.diag([0.7, 0.7]).astype(complex), ValidationError),
            (np.diag([1.0, np.nan]).astype(complex), ValidationError),
        ]:
            with pytest.raises(error):
                QuantumState.from_stack([good, bad, good])
        with pytest.raises(DimensionMismatch):
            QuantumState.from_stack(good)
