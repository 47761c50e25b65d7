"""Deterministic reference dynamics: master equation, equilibrium states and
the pure-state flow of one diffusion field.

The master equation and its equilibrium work on coherence-vector coordinates
x_a = tr(basis_a rho) over the Hermitian basis {I/sqrt(n), tau_a} of
``linalg.coherence_basis``; the generator, derived from
``model.apply_liouvillian`` as in the trajectory engine, is one real N x N
matrix (N = n^2).  It preserves the trace, so its row 0, stored as exact
zeros, keeps x_0 = tr rho / sqrt(n) bit for bit, and its semigroup is
completely positive (Lindblad, CMP 48, 119, 1976): propagated states need no
repair.  Its dense exponentials are an exact reference at the small
dimensions this package targets.  The pure-state flow steps a state vector
with one matrix exponential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    MultipleDiffusiveOps,
    NoDiffusiveChannels,
    NonUniqueEquilibrium,
    NumericalError,
    ValidationError,
)
from .linalg import (
    PureStateVector,
    QuantumState,
    _count,
    _expm,
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
    """The real generator matrix on coordinates over the coherence basis, and the basis.

    Its trace row 0 would hold only rounding; as exact zeros it keeps row 0 of
    every propagator exp(L t) exactly e_0."""
    basis = coherence_basis(m.dim)
    gen = superoperator_matrix(lambda r: apply_liouvillian(m, r), basis).real
    gen[0] = 0.0
    return gen, basis


def evolve_master(
    m: MeasurementModel, rho0: QuantumState, times) -> list[QuantumState]:
    """Solve d eta/dt = L[eta] at the requested times.

    Times must be finite, nonnegative and ascending.  The coordinates are advanced
    from each time to the next by exp(L gap), recomputed only when the gap
    differs by more than 1e-12 from the one the propagator was built for,
    so a uniform grid costs two exponentials.  The propagators keep the trace
    exactly and the states positive, so the outputs are the coordinates'
    matrices, unrepaired and checked in one batch.
    """
    if rho0.dim != m.dim:
        raise DimensionMismatch("initial state dimension does not match the model")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.shape[0] == 0:
        raise ValidationError("times must be a nonempty 1-D sequence")
    if not np.isfinite(times).all():
        raise ValidationError("times must be finite")
    if np.any(times < 0) or np.any(np.diff(times) < 0):
        raise ValidationError("times must be nonnegative and ascending")
    gen, basis = _generator(m)
    x = np.einsum("aij,ji->a", basis, rho0.matrix).real
    rows = np.empty((times.shape[0], x.shape[0]))
    built = np.inf
    for i, gap in enumerate(np.diff(times, prepend=0.0).tolist()):
        if abs(gap - built) > 1e-12:
            prop, built = _expm(gen * gap), gap
        x = prop @ x
        rows[i] = x
    return QuantumState.from_stack(np.einsum("ta,aij->tij", rows, basis))


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


@dataclass
class FlowResult:
    times: np.ndarray
    states: list[QuantumState]
    limit_point: QuantumState | None


def deterministic_flow(
    m: MeasurementModel,
    psi0: PureStateVector,
    t_final: float,
    sign: int = 1,
    n_points: int = 400,
    op_index: int | None = None,
) -> FlowResult:
    """Flow of the single-operator diffusion field on pure states.

    Solves rho_t = |psi_t><psi_t| / ||psi_t||^2 with psi_t = exp(s L1 t)
    psi_0 (s = +-1), stepping with one matrix exponential per grid spacing
    and renormalizing to avoid overflow.  Reports the limit point when the
    final two samples differ by less than 1e-9 in Hilbert-Schmidt norm.
    """
    if sign not in (1, -1):
        raise ValidationError("sign must be +1 or -1")
    if m.n_diffusive == 0:
        raise NoDiffusiveChannels("deterministic flow needs a diffusive operator")
    if op_index is None:
        if m.n_diffusive != 1:
            raise MultipleDiffusiveOps(
                "model has several diffusive operators; designate one via op_index"
            )
        op_index = 0
    if not 0 <= op_index < m.n_diffusive:
        raise ValidationError(f"op_index {op_index} out of range")
    if psi0.dim != m.dim:
        raise DimensionMismatch("initial vector dimension does not match the model")
    if not (t_final > 0 and np.isfinite(t_final)):
        raise ValidationError("t_final must be positive and finite")
    n_points = _count(n_points, "n_points")

    delta = t_final / n_points
    prop = _expm(sign * delta * m.diffusive_ops[op_index])
    times = np.arange(n_points + 1) * delta
    vecs = np.empty((n_points + 1, m.dim), dtype=np.complex128)
    vecs[0] = psi0.amplitudes / np.linalg.norm(psi0.amplitudes)
    for k in range(n_points):
        psi = prop @ vecs[k]
        nrm = np.linalg.norm(psi)
        if nrm == 0.0:
            raise ValidationError("flow annihilated the state vector")
        vecs[k + 1] = psi / nrm
    states = QuantumState.from_stack(vecs[:, :, None] * vecs.conj()[:, None, :])
    gap = hs_norm(states[-1].matrix - states[-2].matrix)
    limit = states[-1] if gap < 1e-9 else None
    return FlowResult(times=times, states=states, limit_point=limit)
