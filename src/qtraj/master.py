"""Deterministic reference dynamics: master equation and equilibrium states.

The generator is vectorized in a column-stacking convention
(vec(A X B) = (B^T kron A) vec(X)) and exponentiated densely, which is an
exact reference at the small dimensions this package targets.  Its matrix
is derived from ``model.apply_liouvillian`` applied to the matrix units,
so the master equation and the trajectory engine share one generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NonUniqueEquilibrium, NoStationaryState, NumericalError, ValidationError
from .linalg import (
    QuantumState,
    _nearest_states,
    as_complex_matrix,
    hermitize,
    hs_norm,
    project_to_state,
    superoperator_matrix,
)
from .model import MeasurementModel, apply_liouvillian


def _vec(x: np.ndarray) -> np.ndarray:
    return x.flatten(order="F")


def _unvec(x: np.ndarray, n: int) -> np.ndarray:
    return x.reshape((n, n), order="F")


@dataclass(frozen=True, eq=False)
class VectorizedLiouvillian:
    """Matrix representation of rho -> L[rho] on column-stacked matrices."""

    dim: int
    matrix: np.ndarray

    def apply(self, rho: np.ndarray) -> np.ndarray:
        rho = as_complex_matrix(rho, dim=self.dim)
        return _unvec(self.matrix @ _vec(rho), self.dim)


def vectorized_liouvillian(m: MeasurementModel) -> VectorizedLiouvillian:
    """Build the vectorized generator."""
    n = m.dim
    units = np.stack([_unvec(e, n) for e in np.eye(n * n, dtype=np.complex128)])
    mat = superoperator_matrix(lambda r: apply_liouvillian(m, r), units)
    return VectorizedLiouvillian(dim=n, matrix=mat)


def evolve_master(
    m: MeasurementModel, rho0: QuantumState, times) -> list[QuantumState]:
    """Solve d eta/dt = L[eta] at the requested times via exp(L t).

    Times must be nonnegative and ascending.  Each output is re-validated
    (trace drift below 1e-9) and repaired onto the state space, all in one
    batched projection.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.shape[0] == 0:
        raise ValidationError("times must be a nonempty 1-D sequence")
    if np.any(times < 0) or np.any(np.diff(times) < 0):
        raise ValidationError("times must be nonnegative and ascending")
    vec = vectorized_liouvillian(m)
    n = m.dim
    v0 = _vec(rho0.matrix)

    diffs = np.diff(times)
    uniform = times.shape[0] > 2 and np.allclose(diffs, diffs[0], rtol=0, atol=1e-12)
    out_vecs = []
    if uniform:
        prop = scipy.linalg.expm(vec.matrix * diffs[0])
        v = scipy.linalg.expm(vec.matrix * times[0]) @ v0 if times[0] > 0 else v0.copy()
        out_vecs.append(v)
        for _ in range(times.shape[0] - 1):
            v = prop @ v
            out_vecs.append(v)
    else:
        for t in times:
            out_vecs.append(scipy.linalg.expm(vec.matrix * t) @ v0)

    etas = np.stack(out_vecs).reshape(-1, n, n).transpose(0, 2, 1)  # un-vec each
    drift = np.abs(np.einsum("tii->t", etas) - 1.0)
    if np.any(drift > 1e-9):
        raise NumericalError(
            f"master propagation lost trace by {drift[np.argmax(drift > 1e-9)]:.3e}"
        )
    return [QuantumState(eta) for eta in _nearest_states(etas)]


def equilibrium(m: MeasurementModel, gap_threshold: float = 1e-8) -> QuantumState:
    """Unique stationary state of the master equation, from the kernel of L.

    Raises NonUniqueEquilibrium when the kernel is more than one-dimensional
    (singular values are compared against ``gap_threshold`` relative to the
    largest) and NoStationaryState when the kernel holds no unit-trace
    direction.  The result satisfies ||L[eta]||_2 <= 1e-9.
    """
    vec = vectorized_liouvillian(m)
    u, s, vt = np.linalg.svd(vec.matrix)
    scale = max(1.0, float(s[0])) if s.shape[0] else 1.0
    kernel_dim = int(np.count_nonzero(s <= gap_threshold * scale))
    if kernel_dim == 0:
        raise NoStationaryState("generator has numerically trivial kernel")
    if kernel_dim > 1:
        raise NonUniqueEquilibrium(
            f"stationary state is not unique: kernel dimension {kernel_dim}"
        )
    candidate = _unvec(vt[-1].conj(), m.dim)
    candidate = hermitize(candidate)
    tr = float(np.trace(candidate).real)
    if abs(tr) < 1e-10:
        raise NoStationaryState("kernel direction is traceless; no state in the kernel")
    eta = project_to_state(candidate / tr)
    residual = hs_norm(apply_liouvillian(m, eta.matrix))
    if residual > 1e-9:
        raise NumericalError(
            f"stationary candidate has residual ||L[eta]||_2 = {residual:.3e}"
        )
    return eta
