"""Post-processing: entropies, ergodic averages, invariant-measure surrogates.

The ergodic diagnostics compare single-trajectory time averages against the
equilibrium state of the master equation, decompose quantum variances into
their within-state and between-state parts, and histogram dim-2 trajectories
over the Bloch sphere as an empirical stand-in for the invariant measure.
The Lie-rank check evaluates the hypoellipticity condition for uniqueness
of that measure at user-supplied points, from exact Lie brackets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .engine import PosteriorTrajectory, _ModelArrays, _strat_a_b
from .errors import (
    DimensionMismatch,
    DimensionNotTwo,
    EmptyAverageWindow,
    NoDiffusiveChannels,
    ValidationError,
)
from .linalg import (  # traceless_hermitian_basis is re-exported
    PureStateVector,
    QuantumState,
    as_complex_matrix,
    project_to_state,
    traceless_hermitian_basis,
)
from .model import MeasurementModel

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


def linear_entropy(rho: QuantumState) -> float:
    """tr rho(1 - rho); zero exactly on pure states, always in [0, 1)."""
    mat = rho.matrix
    val = 1.0 - float(np.einsum("ij,ji->", mat, mat).real)
    return max(val, 0.0)


def von_neumann_entropy(rho: QuantumState) -> float:
    """-tr rho ln rho with the 0 ln 0 = 0 convention below 1e-14."""
    evals = np.linalg.eigvalsh(rho.matrix)
    evals = evals[evals > 1e-14]
    return max(float(-(evals * np.log(evals)).sum()), 0.0)


def _window(traj: PosteriorTrajectory, burn_in: float):
    times = traj.grid.times
    if burn_in >= traj.grid.t_final:
        raise EmptyAverageWindow("burn_in must be smaller than t_final")
    mask = times >= burn_in
    if mask.sum() < 2:
        raise EmptyAverageWindow("averaging window holds fewer than two samples")
    return times[mask], traj.state_path[mask]


def time_average_state(traj: PosteriorTrajectory, burn_in: float = 0.0) -> QuantumState:
    """Trapezoidal time average of the state path after burn_in."""
    times, states = _window(traj, burn_in)
    avg = np.trapezoid(states, times, axis=0) / (times[-1] - times[0])
    return project_to_state(avg)


def quantum_variance(a: np.ndarray, rho: QuantumState) -> float:
    """D^2(a; rho) = <a* a, rho> - |<a, rho>|^2, clipped at zero."""
    a = as_complex_matrix(a, dim=rho.dim)
    mat = rho.matrix
    second = float(np.trace(a.conj().T @ a @ mat).real)
    first = complex(np.trace(a.conj().T @ mat))
    return max(second - abs(first) ** 2, 0.0)


@dataclass(frozen=True)
class VarianceDecomposition:
    """lhs = D^2(a; eta_eq); term1, term2 are trajectory time averages."""

    lhs: float
    term1: float
    term2: float

    @property
    def residual(self) -> float:
        return self.lhs - self.term1 - self.term2


def variance_decomposition(
    a: np.ndarray,
    traj: PosteriorTrajectory,
    eta_eq: QuantumState,
    burn_in: float = 0.0,
) -> VarianceDecomposition:
    """Ergodic split of the equilibrium variance of an observable.

    term1 is the time average of the within-state variance D^2(a; rho_t),
    term2 the time average of |<a, rho_t - eta_eq>|^2; for an ergodic model
    their sum converges to D^2(a; eta_eq) as the horizon grows.
    """
    a = as_complex_matrix(a, dim=eta_eq.dim)
    times, states = _window(traj, burn_in)
    span = times[-1] - times[0]
    adag = a.conj().T
    second = np.einsum("ij,tji->t", adag @ a, states).real
    first = np.einsum("ij,tji->t", adag, states)
    var_t = np.clip(second - np.abs(first) ** 2, 0.0, None)
    eq_first = complex(np.trace(adag @ eta_eq.matrix))
    dev_t = np.abs(first - eq_first) ** 2
    return VarianceDecomposition(
        lhs=quantum_variance(a, eta_eq),
        term1=float(np.trapezoid(var_t, times) / span),
        term2=float(np.trapezoid(dev_t, times) / span),
    )


@dataclass(frozen=True)
class ErgodicReport:
    time_avg_state: QuantumState
    eta_eq: QuantumState
    distance: float
    variance_decomposition: dict[str, VarianceDecomposition]


def build_ergodic_report(
    traj: PosteriorTrajectory,
    eta_eq: QuantumState,
    observables: dict[str, np.ndarray],
    burn_in: float = 0.0,
) -> ErgodicReport:
    avg = time_average_state(traj, burn_in)
    dist = float(np.linalg.norm(avg.matrix - eta_eq.matrix))
    decomp = {
        name: variance_decomposition(a, traj, eta_eq, burn_in)
        for name, a in observables.items()
    }
    return ErgodicReport(
        time_avg_state=avg, eta_eq=eta_eq, distance=dist, variance_decomposition=decomp
    )


# -- Bloch histogram ----------------------------------------------------------

@dataclass
class BlochHistogram:
    """Dwell-time histogram over equal-angle (theta, phi) bins."""

    grid: tuple[int, int]
    counts: np.ndarray        # (n_polar, n_azimuth) int
    total: int
    dwell_time: np.ndarray    # (n_polar, n_azimuth) float
    mixed_samples: int = 0
    polar_axis: np.ndarray | None = None

    def occupancy(self) -> float:
        """Fraction of bins with nonzero dwell time."""
        return float((self.counts > 0).mean())


def bloch_vector(rho: np.ndarray) -> np.ndarray:
    """Bloch components (x, y, z) of a 2x2 density matrix."""
    return np.array(
        [
            float(np.trace(PAULI_X @ rho).real),
            float(np.trace(PAULI_Y @ rho).real),
            float(np.trace(PAULI_Z @ rho).real),
        ]
    )


def _axis_triad(polar_axis: np.ndarray):
    axis = np.asarray(polar_axis, dtype=float)
    nrm = np.linalg.norm(axis)
    if nrm == 0:
        raise ValidationError("polar_axis must be a nonzero 3-vector")
    axis = axis / nrm
    helper = np.array([1.0, 0.0, 0.0])
    if abs(axis @ helper) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    e1 = np.cross(helper, axis)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    return e1, e2, axis


def empirical_invariant_measure(
    traj: PosteriorTrajectory,
    grid: tuple[int, int] = (12, 24),
    burn_in: float = 0.0,
    polar_axis=(0.0, 0.0, 1.0),
    purity_gate: float = 0.05,
) -> BlochHistogram:
    """Dwell-time histogram of a dim-2 trajectory over the Bloch sphere.

    Samples with linear entropy above ``purity_gate`` are binned by their
    dominant eigenvector and counted in ``mixed_samples``.  ``polar_axis``
    picks the axis the polar angle is measured from, so that structures
    like great circles can be aligned with one angular band.
    """
    if traj.state_path.shape[1] != 2:
        raise DimensionNotTwo("Bloch binning is defined for dim 2 only")
    n_polar, n_azimuth = int(grid[0]), int(grid[1])
    if n_polar < 1 or n_azimuth < 1:
        raise ValidationError("histogram grid must be at least 1x1")
    times, states = _window(traj, burn_in)
    dt = traj.grid.dt

    tr2 = np.einsum("tij,tji->t", states, states).real
    entropy = 1.0 - tr2
    mixed = entropy > purity_gate
    vecs = np.empty((states.shape[0], 3))
    vecs[:, 0] = np.einsum("ij,tji->t", PAULI_X, states).real
    vecs[:, 1] = np.einsum("ij,tji->t", PAULI_Y, states).real
    vecs[:, 2] = np.einsum("ij,tji->t", PAULI_Z, states).real
    if mixed.any():
        # direction of the dominant eigenvector = direction of the Bloch vector
        idx = np.flatnonzero(mixed)
        norms = np.linalg.norm(vecs[idx], axis=1)
        norms[norms == 0] = 1.0
        vecs[idx] /= norms[:, None]
    nrm = np.linalg.norm(vecs, axis=1)
    nrm[nrm == 0] = 1.0
    unit = vecs / nrm[:, None]

    e1, e2, axis = _axis_triad(np.asarray(polar_axis, dtype=float))
    z = np.clip(unit @ axis, -1.0, 1.0)
    theta = np.arccos(z)
    phi = np.mod(np.arctan2(unit @ e2, unit @ e1), 2.0 * np.pi)
    ti = np.minimum((theta / np.pi * n_polar).astype(int), n_polar - 1)
    pi_ = np.minimum((phi / (2.0 * np.pi) * n_azimuth).astype(int), n_azimuth - 1)
    counts = np.zeros((n_polar, n_azimuth), dtype=np.int64)
    np.add.at(counts, (ti, pi_), 1)
    return BlochHistogram(
        grid=(n_polar, n_azimuth),
        counts=counts,
        total=int(counts.sum()),
        dwell_time=counts * dt,
        mixed_samples=int(mixed.sum()),
        polar_axis=axis,
    )


# -- Lie rank (hypoellipticity) check ------------------------------------------

@dataclass(frozen=True)
class LieRankReport:
    rank: int
    full: bool
    tangent_dim: int
    n_fields: int


_RANK_TOL = 1e-6  # singular values above this count towards the Lie rank
_SPACING = 1.0    # stencil spacing; every spacing is exact on the polynomial fields


def _derivatives(fields, degree: int, xs: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Exact directional derivatives D f(x)[v] (F, V, B, N) of the F fields
    ``fields`` (rows (P, N) -> (F, P, N)) of degree <= d at rows xs (B, N)
    along V directions vs (V, B, N).  f(x + t v/|v|) is a polynomial of degree
    <= d in t, so the central stencil with m = ceil(d/2) points per side and
    weights (-1)^(k+1) (m!)^2 / (k (m-k)! (m+k)!) gives its slope at t = 0
    exactly (Fornberg, Math. Comp. 51, 699, 1988)."""
    m, f = -(-degree // 2), math.factorial
    c = np.array([(-1) ** (k + 1) * f(m) ** 2 / (k * f(m - k) * f(m + k)) for k in range(1, m + 1)])
    nrm = np.linalg.norm(vs, axis=-1)[..., None]
    steps = _SPACING * np.concatenate([np.arange(1, m + 1), -np.arange(1, m + 1)])
    pts = xs + steps[:, None, None, None] * (vs / np.where(nrm > 0.0, nrm, 1.0))
    vals = fields(pts.reshape(-1, xs.shape[1])).reshape(-1, 2, m, *vs.shape)
    return nrm * np.einsum("k,fkvbn->fvbn", c / _SPACING, vals[:, 0] - vals[:, 1])


def _brackets(arr: _ModelArrays, xs: np.ndarray, depth: int) -> np.ndarray:
    """All right-nested brackets [g_1, [g_2, ... g_depth]] of the drift (g = 0)
    and diffusion fields (g = j) at rows xs (B, N), (G**depth, B, N) with g_1
    slowest.  [g, w](x) = Dw(x)[g(x)] - Dg(x)[w(x)]: the drift is cubic and the
    diffusion fields are quadratic in x, and deg [f, g] = deg f + deg g - 1, so
    a depth-k bracket has degree <= 2k + 1 and its derivatives are exact."""
    if depth == 1:
        a, b, _ = _strat_a_b(arr, xs)
        return np.concatenate([a[:, None], b], axis=1).transpose(1, 0, 2)
    gens, inner = _brackets(arr, xs, 1), _brackets(arr, xs, depth - 1)
    d_inner = _derivatives(lambda ys: _brackets(arr, ys, depth - 1), 2 * depth - 1, xs, gens)
    d_gens = _derivatives(lambda ys: _brackets(arr, ys, 1), 3, xs, inner)
    return (d_inner.transpose(1, 0, 2, 3) - d_gens).reshape(-1, *xs.shape)


def lie_rank_check(m: MeasurementModel, psi: PureStateVector, max_depth: int = 3) -> LieRankReport:
    """Rank of the Lie algebra of drift and diffusion fields at a pure state.

    The fields are the engine's Stratonovich drift and diffusion fields on
    real coordinates over the Hermitian basis {I/sqrt(n), tau_a}; iterated
    Lie brackets are formed from exact derivatives of these polynomial
    fields, and the span is projected onto the tangent space of the
    pure-state manifold before the rank decision (singular values > 1e-6).
    """
    if m.n_diffusive == 0:
        raise NoDiffusiveChannels("the Lie-rank check needs diffusive fields")
    if psi.dim != m.dim:
        raise DimensionMismatch("state vector dimension does not match the model")
    n = m.dim
    if n > 4:
        raise ValidationError("Lie-rank check supports dim <= 4")
    if max_depth < 1:
        raise ValidationError("max_depth must be >= 1")

    arr = _ModelArrays(m)
    x0 = arr.coords(psi.projector()[None])

    # tangent space of the pure-state manifold at psi, in coordinates
    amp = psi.amplitudes
    comp = scipy.linalg.null_space(amp.conj()[None, :])
    tangent = []
    for v in comp.T:
        outer = np.outer(amp, v.conj())
        tangent += [outer + outer.conj().T, 1.0j * (outer - outer.conj().T)]
    tangent = arr.coords(np.stack(tangent))
    tangent /= np.linalg.norm(tangent, axis=1)[:, None]
    tangent_dim = tangent.shape[0]

    fields, depth, rank = np.zeros((0, tangent.shape[1])), 0, -1
    while depth < max_depth and rank < tangent_dim:
        depth += 1
        fields = np.concatenate([fields, _brackets(arr, x0, depth)[:, 0]])
        svals = np.linalg.svd(fields @ tangent.T, compute_uv=False)
        rank = int(np.count_nonzero(svals > _RANK_TOL))

    return LieRankReport(
        rank=min(rank, tangent_dim),
        full=rank >= tangent_dim,
        tangent_dim=tangent_dim,
        n_fields=fields.shape[0],
    )
