"""Dense complex linear algebra on small operator spaces.

At finite dimension the bounded, Hilbert-Schmidt and trace-class operators
all reduce to n x n complex matrices; this module supplies the norms,
inner products, decompositions and state-space repairs everything else is
built on.  All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NotHermitian, ValidationError, ZeroTrace


def as_complex_matrix(a, dim: int | None = None) -> np.ndarray:
    """Coerce to a square complex128 array, checking the dimension."""
    mat = np.asarray(a, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {mat.shape}")
    if mat.shape[0] < 1:
        raise DimensionMismatch("matrix dimension must be >= 1")
    if dim is not None and mat.shape[0] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {mat.shape[0]}")
    if not np.isfinite(mat).all():
        raise ValidationError("matrix has a non-finite entry")
    return mat


def hermitize(a: np.ndarray) -> np.ndarray:
    """Nearest Hermitian matrix in Hilbert-Schmidt norm, (a + a*)/2."""
    return 0.5 * (a + a.conj().T)


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Inner product <a, b> = tr(a* b)."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b, dim=a.shape[0])
    return complex(np.sum(a.conj() * b))


def hs_norm(a: np.ndarray) -> float:
    """Hilbert-Schmidt norm, sqrt(tr(a* a))."""
    return float(np.linalg.norm(np.asarray(a)))


def operator_norm(a: np.ndarray) -> float:
    """Operator (spectral) norm, the largest singular value."""
    return float(np.linalg.norm(as_complex_matrix(a), ord=2))


def trace_norm(a: np.ndarray) -> float:
    """Trace norm tr sqrt(a* a), the sum of singular values.

    Computed from the eigenvalues of a* a rather than an SVD so that
    tests can cross-check against an independent SVD route.
    """
    a = as_complex_matrix(a)
    gram = a.conj().T @ a
    evals = np.linalg.eigvalsh(hermitize(gram))
    return float(np.sum(np.sqrt(np.clip(evals, 0.0, None))))


def spectral_decomposition(a: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """Eigenpairs of a Hermitian matrix, eigenvalues descending.

    Raises NotHermitian if ||a - a*||_2 exceeds 1e-10 * dim.
    """
    a = as_complex_matrix(a)
    n = a.shape[0]
    if hs_norm(a - a.conj().T) > 1e-10 * n:
        raise NotHermitian("matrix is not Hermitian within tolerance")
    evals, evecs = np.linalg.eigh(hermitize(a))
    order = np.argsort(evals)[::-1]
    return [(float(evals[i]), evecs[:, i].copy()) for i in order]


def traceless_hermitian_basis(n: int) -> np.ndarray:
    """Orthonormal basis of traceless Hermitian n x n matrices, (n^2-1, n, n)."""
    mats = []
    for j in range(n):
        for k in range(j + 1, n):
            sym = np.zeros((n, n), dtype=np.complex128)
            sym[j, k] = sym[k, j] = 1.0 / np.sqrt(2.0)
            mats.append(sym)
            asym = np.zeros((n, n), dtype=np.complex128)
            asym[j, k] = -1.0j / np.sqrt(2.0)
            asym[k, j] = 1.0j / np.sqrt(2.0)
            mats.append(asym)
    for l in range(1, n):
        diag = np.zeros(n)
        diag[:l] = 1.0
        diag[l] = -float(l)
        mats.append(np.diag(diag / np.sqrt(l * (l + 1))).astype(np.complex128))
    return np.stack(mats)


def coherence_basis(n: int) -> np.ndarray:
    """Orthonormal Hermitian basis {I/sqrt(n), tau_a} of n x n matrices, (n^2, n, n)."""
    eye = np.eye(n, dtype=np.complex128)[None] / np.sqrt(n)
    return np.concatenate([eye, traceless_hermitian_basis(n)])


def superoperator_matrix(f, basis: np.ndarray) -> np.ndarray:
    """Matrix of the linear map f in a basis: M[a, b] = tr(basis_a* f(basis_b)).

    ``basis`` is a stack (N, n, n) orthonormal in the Hilbert-Schmidt inner
    product, so x -> M x acts on expansion coefficients as f acts on
    matrices.  Over a Hermitian basis a Hermiticity-preserving f gives a
    real M (returned with a zero imaginary part).
    """
    images = np.stack([f(b) for b in basis])
    return np.einsum("aij,bij->ab", basis.conj(), images)


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of real vector(s) onto the probability simplex.

    Accepts a 1-D vector or a 2-D array of row vectors.
    """
    arr = np.asarray(v, dtype=float)
    single = arr.ndim == 1
    rows = np.atleast_2d(arr)
    n = rows.shape[1]
    u = np.sort(rows, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - 1.0
    idx = np.arange(1, n + 1)
    k = np.count_nonzero(u - css / idx > 0.0, axis=1)
    theta = css[np.arange(rows.shape[0]), k - 1] / k
    w = np.maximum(rows - theta[:, None], 0.0)
    return w[0] if single else w


def matrix_exp_action(a: np.ndarray, t: float, v: np.ndarray) -> np.ndarray:
    """exp(a t) v via scaling-and-squaring on the dense matrix."""
    a = as_complex_matrix(a)
    if not np.isfinite(t):
        raise ValidationError("t must be finite")
    v = np.asarray(v, dtype=np.complex128)
    if v.shape[0] != a.shape[0]:
        raise DimensionMismatch("vector length does not match matrix dimension")
    return scipy.linalg.expm(a * t) @ v


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Hermitian, positive semidefinite, unit-trace matrix.

    Invariants are checked on construction; instances are immutable.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = as_complex_matrix(self.matrix)
        n = mat.shape[0]
        if hs_norm(mat - mat.conj().T) > 1e-12 * n:
            raise NotHermitian("state is not Hermitian within 1e-12 * dim")
        if float(np.linalg.eigvalsh(hermitize(mat)).min()) < -1e-10:
            raise ValidationError("state has an eigenvalue below -1e-10")
        if abs(complex(np.trace(mat)) - 1.0) > 1e-12:
            raise ValidationError("state trace differs from 1 by more than 1e-12")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class PureStateVector:
    """Unit-norm complex vector."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amp.shape[0] < 1:
            raise ValidationError("state vector must have length >= 1")
        if not np.isfinite(amp).all():
            raise ValidationError("state vector has a non-finite entry")
        if abs(float(np.linalg.norm(amp)) - 1.0) > 1e-12:
            raise ValidationError("state vector norm differs from 1 by more than 1e-12")
        amp = amp.copy()
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def projector(self) -> np.ndarray:
        """Rank-one density matrix |psi><psi|."""
        return np.outer(self.amplitudes, self.amplitudes.conj())


def _nearest_states(a: np.ndarray) -> np.ndarray:
    """Nearest density matrices of a stack (T, n, n), as a (T, n, n) array.

    Each matrix is Hermitized; the eigenbasis of (a + a*)/2 is kept and the
    eigenvalue vector is replaced by its Euclidean projection onto the
    probability simplex.  One batched eigendecomposition serves the stack.
    """
    herm = 0.5 * (a + a.conj().transpose(0, 2, 1))
    evals, evecs = np.linalg.eigh(herm)
    if np.any(evals.max(axis=1) <= -1.0):
        raise ZeroTrace("all eigenvalues are <= -1; no meaningful state nearby")
    mats = (evecs * project_to_simplex(evals)[:, None, :]) @ evecs.conj().transpose(0, 2, 1)
    return 0.5 * (mats + mats.conj().transpose(0, 2, 1))


def project_to_state(a: np.ndarray) -> QuantumState:
    """Nearest density matrix: Hermitize, then project the spectrum onto
    the probability simplex (``_nearest_states`` of one matrix).

    Idempotent on valid states.
    """
    return QuantumState(_nearest_states(as_complex_matrix(a)[None])[0])


def haar_random_state_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unit vector: normalized iid standard complex Gaussians."""
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    nrm = np.linalg.norm(z)
    while nrm == 0.0:  # pragma: no cover - probability zero
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        nrm = np.linalg.norm(z)
    return z / nrm


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank state from a Ginibre matrix G: G G* / tr(G G*)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real
