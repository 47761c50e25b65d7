import numpy as np
import pytest

from qtraj import (
    QuantumState,
    build_model,
    generate_atom_model,
    standard_direct,
    standard_heterodyne,
    standard_homodyne,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def excited():
    return QuantumState(np.diag([1.0, 0.0]).astype(complex))


@pytest.fixture
def ground():
    return QuantumState(np.diag([0.0, 1.0]).astype(complex))


@pytest.fixture
def mixed():
    return QuantumState(np.eye(2, dtype=complex) / 2)


@pytest.fixture
def decay_model():
    """H = 0, single diffusive decay operator sigma_-."""
    return build_model(
        {
            "dimension": 2,
            "hamiltonian": np.zeros((2, 2)),
            "diffusive_ops": [SIGMA_MINUS],
        }
    )


@pytest.fixture
def heterodyne_model():
    return generate_atom_model(standard_heterodyne(linewidth=1.0, rabi=2.0))


@pytest.fixture
def homodyne_model():
    return generate_atom_model(standard_homodyne(linewidth=1.0, rabi=2.0))


@pytest.fixture
def direct_model():
    return generate_atom_model(standard_direct(linewidth=1.0, rabi=2.0))


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_density_matrix(dim, rng):
    """Random full-rank state from a Ginibre matrix G: G G* / tr(G G*)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real
