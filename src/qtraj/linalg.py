"""Dense complex linear algebra on small operator spaces.

At finite dimension the bounded, Hilbert-Schmidt and trace-class operators
all reduce to n x n complex matrices; this module supplies the norms, the
operator bases, the matrix exponential, the orthogonal complement of a
state vector and the nearest-state projection everything else is built on.
All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

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


def hs_norm(a: np.ndarray) -> float:
    """Hilbert-Schmidt norm, sqrt(tr(a* a))."""
    return float(np.linalg.norm(np.asarray(a)))


def trace_norm(a: np.ndarray) -> float:
    """Trace norm tr sqrt(a* a), the sum of singular values.

    Computed from the eigenvalues of a* a rather than an SVD so that
    tests can cross-check against an independent SVD route.
    """
    a = as_complex_matrix(a)
    gram = a.conj().T @ a
    evals = np.linalg.eigvalsh(hermitize(gram))
    return float(np.sum(np.sqrt(np.clip(evals, 0.0, None))))


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


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring of the degree-16 Taylor polynomial
    (Moler & Van Loan, SIAM Rev. 45, 3, 2003).

    a is scaled by 2^-j so that its infinity norm is at most 1/2, where the
    truncation error is below 1e-19 relative.  It serves the waiting-time
    tables of the step kernels (a step of dt / 256, where j is mostly 0),
    the master propagator and the pure-state flow.
    """
    norm = float(np.abs(a).sum(axis=1).max())
    j = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.0 else 0
    a = a / 2.0**j
    term = out = np.eye(a.shape[0])
    for k in range(1, 17):
        term = term @ a / k
        out = out + term
    for _ in range(j):
        out = out @ out
    return out


def _complement(amp: np.ndarray) -> np.ndarray:
    """Orthonormal basis (n, n-1) of the vectors orthogonal to a unit vector
    amp: the trailing right singular vectors of the row amp*."""
    return np.linalg.svd(amp.conj()[None, :])[2][1:].conj().T


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Hermitian, positive semidefinite, unit-trace matrix.

    Invariants are checked on construction; instances are immutable.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = as_complex_matrix(self.matrix)
        _check_states(mat[None])
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def from_stack(cls, mats) -> list[QuantumState]:
        """The states of a (T, n, n) stack, checked in one vectorized pass.

        The checks are the constructor's, applied to all T matrices at once;
        each state then holds a read-only view of one copy of the stack,
        wrapped without checking it again.
        """
        mats = np.array(mats, dtype=np.complex128)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2] or mats.shape[1] < 1:
            raise DimensionMismatch(f"expected a (T, n, n) stack, got shape {mats.shape}")
        if not np.isfinite(mats).all():
            raise ValidationError("matrix has a non-finite entry")
        _check_states(mats)
        mats.setflags(write=False)
        states = []
        for mat in mats:
            state = object.__new__(cls)
            object.__setattr__(state, "matrix", mat)
            states.append(state)
        return states

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _check_states(mats: np.ndarray) -> None:
    """Raise unless every matrix of a finite (T, n, n) stack is Hermitian
    within 1e-12 n in Hilbert-Schmidt norm, has no eigenvalue below -1e-10
    and has a trace within 1e-12 of 1."""
    n = mats.shape[1]
    adj = mats.conj().transpose(0, 2, 1)
    if np.linalg.norm((mats - adj).reshape(mats.shape[0], -1), axis=1).max() > 1e-12 * n:
        raise NotHermitian("state is not Hermitian within 1e-12 * dim")
    if np.linalg.eigvalsh(0.5 * (mats + adj)).min() < -1e-10:
        raise ValidationError("state has an eigenvalue below -1e-10")
    if np.abs(np.einsum("tii->t", mats) - 1.0).max() > 1e-12:
        raise ValidationError("state trace differs from 1 by more than 1e-12")


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


def project_to_state(a: np.ndarray) -> QuantumState:
    """Nearest density matrix: Hermitize, keep the eigenbasis of (a + a*)/2
    and replace its eigenvalue vector by the Euclidean projection onto the
    probability simplex.

    Idempotent on valid states.
    """
    evals, evecs = np.linalg.eigh(hermitize(as_complex_matrix(a)))
    if evals.max() <= -1.0:
        raise ZeroTrace("all eigenvalues are <= -1; no meaningful state nearby")
    return QuantumState(hermitize((evecs * project_to_simplex(evals)) @ evecs.conj().T))


def _count(value, name: str, low: str | None = None) -> int:
    """``value`` as a count >= 1; one that is not an integer (Python or numpy) is
    refused, not truncated, and one below 1 raises ``low`` or "<name> must be >= 1"."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, not {value!r}") from None
    if count < 1:
        raise ValidationError(low or f"{name} must be >= 1")
    return count


def _philox_key(key) -> int:
    """``key`` as a Philox4x64 key, which lies in [0, 2^128); a seed that is
    not an integer (Python or numpy) is refused, not truncated."""
    try:
        key = operator.index(key)
    except TypeError:
        raise ValidationError(f"seed must be an integer, not {key!r}") from None
    if not 0 <= key < 2**128:
        raise ValidationError(f"seed {key} is outside [0, 2**128)")
    return key


def _philox_state(key) -> dict:
    """The Philox4x64 state keyed ``key`` at counter 0, before any draw.
    Setting it on any Philox bit generator starts the stream of
    ``Philox(key=key)``, for a fraction of the cost of building one."""
    key = _philox_key(key)
    return {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (key & (2**64 - 1), key >> 64)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _philox(key) -> np.random.Generator:
    """The Philox4x64 stream of every seeded draw."""
    return np.random.Generator(np.random.Philox(key=_philox_key(key)))


def haar_random_state_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unit vector: normalized iid standard complex Gaussians."""
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    nrm = np.linalg.norm(z)
    while nrm == 0.0:  # pragma: no cover - probability zero
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        nrm = np.linalg.norm(z)
    return z / nrm

