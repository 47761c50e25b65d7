import numpy as np
import pytest
import scipy.optimize

from qtraj import (
    PureStateVector,
    QuantumState,
    hs_norm,
    project_to_simplex,
    project_to_state,
    trace_norm,
)
from qtraj.errors import DimensionMismatch, NotHermitian, ValidationError, ZeroTrace

from conftest import SIGMA_Z, random_complex, random_density_matrix


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
            assert hs_norm(a) <= trace_norm(a) + 1e-12


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
