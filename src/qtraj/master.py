"""Deterministic reference dynamics: master equation and equilibrium states.

Both work on coherence-vector coordinates x_a = tr(basis_a rho) over the
Hermitian basis {I/sqrt(n), tau_a} of ``linalg.coherence_basis``; the generator,
derived from ``model.apply_liouvillian`` as in the trajectory engine, is one
real N x N matrix (N = n^2).  It preserves the trace, so its row 0 is zero,
and x_0 = tr rho / sqrt(n).  Its dense exponentials are an exact reference
at the small dimensions this package targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NonUniqueEquilibrium, NumericalError, ValidationError
from .linalg import (
    QuantumState,
    _nearest_states,
    as_complex_matrix,
    coherence_basis,
    hs_norm,
    project_to_state,
    superoperator_matrix,
)
from .model import MeasurementModel, apply_liouvillian


@dataclass(frozen=True, eq=False)
class VectorizedLiouvillian:
    """Matrix of rho -> L[rho] on column-stacked matrices, vec(A X B) = (B^T kron A) vec(X)."""

    dim: int
    matrix: np.ndarray

    def apply(self, rho: np.ndarray) -> np.ndarray:
        v = as_complex_matrix(rho, dim=self.dim).flatten(order="F")
        return (self.matrix @ v).reshape((self.dim, self.dim), order="F")


def vectorized_liouvillian(m: MeasurementModel) -> VectorizedLiouvillian:
    """Build the vectorized generator."""
    n = m.dim
    units = np.eye(n * n, dtype=np.complex128).reshape(-1, n, n).transpose(0, 2, 1)
    mat = superoperator_matrix(lambda r: apply_liouvillian(m, r), units)
    return VectorizedLiouvillian(dim=n, matrix=mat)


def _generator(m: MeasurementModel) -> tuple[np.ndarray, np.ndarray]:
    """The real generator matrix on coordinates over the coherence basis, and the basis."""
    basis = coherence_basis(m.dim)
    return superoperator_matrix(lambda r: apply_liouvillian(m, r), basis).real, basis


def evolve_master(
    m: MeasurementModel, rho0: QuantumState, times) -> list[QuantumState]:
    """Solve d eta/dt = L[eta] at the requested times.

    Times must be nonnegative and ascending.  The coordinates are advanced
    from each time to the next by exp(L gap), recomputed only when the gap
    differs by more than 1e-12 from the one the propagator was built for,
    so a uniform grid costs two exponentials.  Each output is re-validated
    (trace drift below 1e-9) and repaired onto the state space, all in one
    batched projection.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.shape[0] == 0:
        raise ValidationError("times must be a nonempty 1-D sequence")
    if np.any(times < 0) or np.any(np.diff(times) < 0):
        raise ValidationError("times must be nonnegative and ascending")
    gen, basis = _generator(m)
    x = np.einsum("aij,ji->a", basis, rho0.matrix).real
    rows = np.empty((times.shape[0], x.shape[0]))
    built = np.inf
    for i, gap in enumerate(np.diff(times, prepend=0.0).tolist()):
        if abs(gap - built) > 1e-12:
            prop, built = scipy.linalg.expm(gen * gap), gap
        x = prop @ x
        rows[i] = x
    drift = np.abs(rows[:, 0] * np.sqrt(m.dim) - 1.0)
    if np.any(drift > 1e-9):
        raise NumericalError(
            f"master propagation lost trace by {drift[np.argmax(drift > 1e-9)]:.3e}"
        )
    return [QuantumState(eta) for eta in _nearest_states(np.einsum("ta,aij->tij", rows, basis))]


def equilibrium(m: MeasurementModel) -> QuantumState:
    """Unique stationary state of the master equation.

    With x_0 = 1/sqrt(n) fixed by the unit trace, the stationary coordinates
    solve the (N-1) x (N-1) traceless block L_ab x_b = -L_a0 x_0.  Every
    trace-preserving generator has a stationary state, so a singular block
    (smallest singular value <= 1e-8 max(1, largest)) means a kernel of
    dimension >= 2 and raises NonUniqueEquilibrium.  The result satisfies
    ||L[eta]||_2 <= 1e-9.
    """
    gen, basis = _generator(m)
    block = gen[1:, 1:]
    s = np.linalg.svd(block, compute_uv=False)
    degenerate = int(np.count_nonzero(s <= 1e-8 * s.max(initial=1.0)))
    if degenerate:
        raise NonUniqueEquilibrium(
            f"stationary state is not unique: kernel dimension {1 + degenerate}"
        )
    x0 = 1.0 / np.sqrt(m.dim)
    x = np.concatenate([[x0], np.linalg.solve(block, -x0 * gen[1:, 0])])
    eta = project_to_state(np.einsum("a,aij->ij", x, basis))
    residual = hs_norm(apply_liouvillian(m, eta.matrix))
    if residual > 1e-9:
        raise NumericalError(
            f"stationary candidate has residual ||L[eta]||_2 = {residual:.3e}"
        )
    return eta
