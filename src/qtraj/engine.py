"""Stochastic integration of the continual-measurement dynamics.

Three schemes are provided:

* ``linear``       -- Euler-Maruyama for the unnormalized equation under the
  reference law: drift K[sigma], diffusion L_j sigma + sigma L_j*, jumps
  fired per channel with state-independent probability nu_k dt.
* ``posterior``    -- Euler-Maruyama for the normalized nonlinear equation
  under the physical law: drift L[rho], diffusion
  L_j rho + rho L_j* - m_j rho, jump replacement rho -> J_k[rho]/lambda_k
  fired with probability min(lambda_k nu_k dt, 1) and the matching
  compensator drift, restricted to lambda_k > 1e-12.  When
  max_k nu_k lambda_max(E_k) dt, a bound on the jump intensity per step
  over all states, exceeds 0.1, every step of every trajectory is split
  into the same s = ceil(bound / 0.05) substeps; s depends only on the
  model and dt, never on the states in the batch.
* ``stratonovich`` -- Heun (stochastic midpoint) integration of the
  equivalent Stratonovich system on the pure-state manifold, with a
  projection onto the dominant eigenvector after every step.

The steps work on coherence-vector coordinates (Alicki & Lendi, LNP 286):
over the orthonormal Hermitian basis {I/sqrt(n), tau_a} every
Hermiticity-preserving map is a real n^2 x n^2 matrix.  The generator,
the drift K, the linear parts of the diffusion fields, the jump maps and
the pieces of the Stratonovich fields are derived once per model from
``model.apply_*``, so a step is a few real matrix products on (B, n^2)
arrays.  Step kernels take and return complex (B, n, n) matrices and
convert at their boundary.  At n = 2 the positivity repairs are
closed-form clips of the Bloch radius; larger n use an eigendecomposition.

Well-posedness of the continuous equations beyond special cases is an open
question; at fixed step size and seed the schemes below compute one
unambiguous numerical solution, which is what all outputs refer to.

Trajectory-level randomness comes from a counter-based Philox generator
keyed by ``seed + trajectory_index``, so ensembles are reproducible and
embarrassingly parallel; ``QTRAJ_THREADS`` caps worker processes.  Results
do not depend on the worker count: trajectories are reduced in index order
over fixed-size blocks.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatch,
    EnsembleFailure,
    JumpChannelsPresent,
    MultipleDiffusiveOps,
    NoDiffusiveChannels,
    NotPurePreserving,
    StepTooLarge,
    ValidationError,
)
from .linalg import (
    PureStateVector,
    QuantumState,
    hs_norm,
    project_to_simplex,
    superoperator_matrix,
    traceless_hermitian_basis,
)
from .model import MeasurementModel, apply_jump, apply_k, apply_l0, apply_liouvillian

RNG_ALGORITHM = "philox4x64"

_BLOCK = 512          # trajectories integrated together per batch
_CHUNK = 4096         # steps of noise drawn per generator call
_LAMBDA_FLOOR = 1e-12
_WEIGHT_FLOOR = 1e-14
_INTENSITY_CAP = 0.1  # max allowed lambda_k nu_k dt per step

MODES = ("linear", "posterior", "stratonovich")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, t_final] with step dt; n_steps = ceil(t_final/dt)."""

    t_final: float
    dt: float

    def __post_init__(self) -> None:
        if not (self.dt > 0.0 and np.isfinite(self.dt)):
            raise ValidationError("dt must be positive and finite")
        if not (self.t_final > 0.0 and np.isfinite(self.t_final)):
            raise ValidationError("t_final must be positive and finite")
        if self.dt > self.t_final:
            raise ValidationError("dt must not exceed t_final")

    @property
    def n_steps(self) -> int:
        return int(math.ceil(self.t_final / self.dt - 1e-9))

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt

    def index_of_time(self, t: float) -> int:
        """Grid index closest to t."""
        i = int(round(t / self.dt))
        if not 0 <= i <= self.n_steps:
            raise ValidationError(f"time {t} outside the grid")
        return i


@dataclass
class OutputRecord:
    """Measurement record of one trajectory.

    ``wiener`` holds per-step increments of the driving Wiener processes
    (under the reference law for the linear scheme; reconstructed output
    increments dW = dW~ + m dt under the physical law otherwise).
    ``compensated_wiener`` holds the standard increments dW~ drawn when
    simulating under the physical law, else None.
    """

    wiener: np.ndarray
    jump_events: list[tuple[int, int]]
    compensated_wiener: np.ndarray | None = None


@dataclass
class LinearTrajectory:
    grid: TimeGrid
    sigma_path: np.ndarray     # (n_steps+1, n, n), unnormalized
    weight_path: np.ndarray    # (n_steps+1,), tr sigma
    output: OutputRecord
    weight_underflow: bool = False


@dataclass
class PosteriorTrajectory:
    grid: TimeGrid
    state_path: np.ndarray     # (n_steps+1, n, n), valid states
    output: OutputRecord
    entropy_path: np.ndarray   # (n_steps+1,), tr rho(1-rho)
    purity_defect_max: float = 0.0


@dataclass
class EnsembleStats:
    """Streaming per-step aggregates over an ensemble of trajectories."""

    mode: str
    times: np.ndarray
    n_traj: int
    n_failed: int
    n_underflow: int
    mean_state: np.ndarray         # (n_rec, n, n) complex
    se_state_re: np.ndarray        # (n_rec, n, n)
    se_state_im: np.ndarray
    mean_weight: np.ndarray        # (n_rec,)
    se_weight: np.ndarray
    mean_entropy: np.ndarray
    se_entropy: np.ndarray
    max_entropy_per_traj: np.ndarray   # (n_traj,), NaN for failed
    max_purity_defect_per_traj: np.ndarray  # (n_traj,), stratonovich only
    jump_count_mean: np.ndarray        # (n_channels,)
    jump_count_se: np.ndarray
    wiener_increment_mean: np.ndarray  # (n_diffusive,), pooled over steps
    wiener_increment_var: np.ndarray
    obs_mean: np.ndarray | None = None     # (n_rec,) complex
    obs_se_re: np.ndarray | None = None
    obs_se_im: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def index_of_time(self, t: float) -> int:
        dt = float(self.times[1] - self.times[0])
        i = int(round(t / dt))
        if not 0 <= i < self.times.shape[0]:
            raise ValidationError(f"time {t} outside the recorded grid")
        return i


@dataclass
class FlowResult:
    times: np.ndarray
    states: list[QuantumState]
    limit_point: QuantumState | None


# -- model in real coordinates ------------------------------------------------

def _rows(x: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """x @ mat, rounded the same way for every batch size.

    numpy sends a single row to BLAS gemv and several rows to gemm, whose
    roundings differ; einsum runs one loop for both, so a trajectory's
    path does not depend on the batch it is integrated in.
    """
    return np.einsum("bi,ij->bj", x, mat)


class _ModelArrays:
    """The model's maps as real matrices on coherence-vector coordinates.

    Every matrix is derived by ``superoperator_matrix`` from
    ``model.apply_*`` or from a Stratonovich field piece, over the
    orthonormal Hermitian basis {I/sqrt(n), tau_a}, and stored transposed
    so that it acts on batches of coordinate rows (B, n^2).  The
    coordinates are sqrt(2) times the expansion coefficients, which leaves
    every matrix unchanged and makes them (tr rho, tr sigma_a rho) at
    n = 2, where converting to and from matrices is then exact up to one
    rounding per entry.
    """

    def __init__(self, m: MeasurementModel):
        n = m.dim
        nn = n * n
        self.n = n
        self.n_diff = m.n_diffusive
        self.K = m.n_jump
        basis = np.concatenate(
            [np.eye(n, dtype=np.complex128)[None] / math.sqrt(n), traceless_hermitian_basis(n)]
        )
        # x = coords(rho) has x_a = tr(dual_a rho) and rho = sum_a x_a dual_a / 2;
        # dual / 2 is exact, so at n = 2 every conversion entry is 0, +-1 or +-1/2
        dual = basis * math.sqrt(2.0)
        flat = dual.reshape(nn, nn).view(np.float64)  # (re, im) pairs per entry
        self._to = flat.T.copy()
        self._from = 0.5 * flat
        trace = 0.5 * np.trace(dual, axis1=1, axis2=2).real  # tr rho = trace . x

        def mat(f):
            return superoperator_matrix(f, basis).real

        def stack(mats):  # (N, c*N): column block c is mats[c].T
            return np.concatenate([mt.T for mt in mats], axis=1) if mats else np.zeros((nn, 0))

        def traces(mats):  # (N, c): column c is the functional x -> tr mats[c] x
            return np.array([mt.T @ trace for mt in mats]).reshape(-1, nn).T

        self.Lt = mat(lambda r: apply_liouvillian(m, r)).T
        self.Kt = mat(lambda r: apply_k(m, r)).T
        # linear parts G_j of the diffusion fields; m_j = tr G_j[rho]
        gs = [mat(lambda r, op=op: op @ r + r @ op.conj().T) for op in m.diffusive_ops]
        self.Gt = stack(gs)
        self.mvec = traces(gs)
        # jump maps J_k; lambda_k = tr J_k[rho]
        js = [mat(lambda r, k=k: apply_jump(m, r, k)) for k in range(self.K)]
        self.Jt = stack(js)
        self.lamvec = traces(js)
        self.nu = np.array([ch.weight for ch in m.jump_channels])
        self.peak_intensity = max(
            (ch.weight * float(np.linalg.eigvalsh(ch.effect())[-1]) for ch in m.jump_channels),
            default=0.0,
        )
        # Stratonovich drift: At x + sum_j m_j b_j + (cvec . x) x, with
        # C = sum_j C_j, C_j[rho] = X_j L_j rho + rho L_j* X_j, X_j = L_j + L_j*
        def c_j(r, op):
            x = op + op.conj().T
            return x @ op @ r + r @ op.conj().T @ x

        c = sum((mat(lambda r, op=op: c_j(r, op)) for op in m.diffusive_ops), np.zeros((nn, nn)))
        self.At = (mat(lambda r: apply_l0(m, r)) - 0.5 * c).T
        self.cvec = 0.5 * traces([c])

    def coords(self, mats: np.ndarray) -> np.ndarray:
        """(B, n, n) complex -> (B, n^2) coordinates of the Hermitian part."""
        flat = np.ascontiguousarray(mats, dtype=np.complex128).reshape(mats.shape[0], -1)
        return _rows(flat.view(np.float64), self._to)

    def matrices(self, x: np.ndarray) -> np.ndarray:
        """(B, n^2) coordinates -> (B, n, n) complex matrices."""
        return _rows(x, self._from).view(np.complex128).reshape(-1, self.n, self.n)

    def substeps(self, dt: float) -> int:
        """Fixed substep count: 1, or enough that the bound
        max_k nu_k lambda_max(E_k) dt / s on any state's jump intensity per
        substep is at most half the cap."""
        worst = self.peak_intensity * dt
        if worst <= _INTENSITY_CAP:
            return 1
        return int(math.ceil(worst / (0.5 * _INTENSITY_CAP)))


def _apply_liouvillian_b(arr: _ModelArrays, rho: np.ndarray) -> np.ndarray:
    return _rows(rho, arr.Lt)


def _apply_k_b(arr: _ModelArrays, sig: np.ndarray) -> np.ndarray:
    return _rows(sig, arr.Kt)


def _per_channel(x: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """(B, N) coordinates through a stacked (N, c*N) matrix -> (B, c, N)."""
    return _rows(x, mat).reshape(x.shape[0], -1, x.shape[1])


def _strat_b_b(arr: _ModelArrays, rho: np.ndarray) -> np.ndarray:
    """Diffusion fields b_j = G_j rho - m_j rho, (B, N) -> (B, n_diff, N)."""
    m = _rows(rho, arr.mvec)
    return _per_channel(rho, arr.Gt) - m[:, :, None] * rho[:, None]


def _strat_a_b(arr: _ModelArrays, rho: np.ndarray) -> np.ndarray:
    """Stratonovich drift of the pure-state system, (B, N) -> (B, N)."""
    m = _rows(rho, arr.mvec)
    out = _rows(rho, arr.At) + _rows(rho, arr.cvec) * rho
    return out + np.einsum("bj,bja->ba", m, _strat_b_b(arr, rho))


# -- positivity repairs on coordinates ----------------------------------------
#
# At n = 2 a coordinate row is (t, r) with eigenvalues (t -+ |r|)/2, so each
# repair is a closed-form clip of the Bloch radius |r|; rows that need no
# repair are returned unchanged.

def _radial(x: np.ndarray):
    """(trace, Bloch radius) of n = 2 coordinate rows."""
    return x[:, 0], np.sqrt((x[:, 1:] ** 2).sum(axis=1))


def _set_radial(x: np.ndarray, r: np.ndarray, t_new, r_new) -> np.ndarray:
    """Rows with trace t_new and Bloch radius r_new in the direction of x.

    A row whose radius does not change is multiplied by exactly 1.
    """
    out = x * (r_new / np.where(r > 0.0, r, 1.0))[:, None]
    out[:, 0] = t_new
    return out


def _eigh_b(arr: _ModelArrays, x: np.ndarray):
    return np.linalg.eigh(arr.matrices(x))


def _compose_b(arr: _ModelArrays, evals: np.ndarray, evecs: np.ndarray) -> np.ndarray:
    return arr.coords((evecs * evals[:, None, :]) @ evecs.conj().transpose(0, 2, 1))


def _repair_positive_b(arr: _ModelArrays, sig: np.ndarray):
    """Project eigenvalues to nonnegative at fixed trace; also return traces.

    The pre-repair trace is the statistical weight of the trajectory and
    must keep its meaning, so negative eigenvalue mass is redistributed
    (Euclidean projection onto the scaled simplex) rather than discarded.
    Matrices whose trace is not positive are clipped instead and reported
    through the underflow path.
    """
    if arr.n == 2:
        t, r = _radial(sig)
        under = t <= 0.0  # keep only the clipped top eigenvalue
        wp = np.clip(0.5 * (t + r), 0.0, None)
        t_new = np.where(under, wp, t)
        return _set_radial(sig, r, t_new, np.where(under, wp, np.minimum(r, t))), t_new
    evals, evecs = _eigh_b(arr, sig)
    s = evals.sum(axis=1)
    fixable = (evals.min(axis=1) < 0.0) & (s > 0.0)
    evals_new = np.clip(evals, 0.0, None)
    if fixable.any():
        idx = np.flatnonzero(fixable)
        evals_new[idx] = project_to_simplex(evals[idx] / s[idx, None]) * s[idx, None]
    return _compose_b(arr, evals_new, evecs), evals_new.sum(axis=1)


def _project_state_b(arr: _ModelArrays, rho: np.ndarray) -> np.ndarray:
    """Project the spectrum onto the probability simplex."""
    if arr.n == 2:
        _, r = _radial(rho)
        return _set_radial(rho, r, 1.0, np.minimum(r, 1.0))
    evals, evecs = _eigh_b(arr, rho)
    return _compose_b(arr, project_to_simplex(evals), evecs)


def _project_pure_b(arr: _ModelArrays, rho: np.ndarray):
    """Project onto the dominant eigenvector; also return the purity defect.

    The defect is the linear entropy of the trace-normalized positive part
    before projection, a per-step measure of how far the scheme drifted
    off the pure-state manifold.
    """
    if arr.n == 2:
        t, r = _radial(rho)
        wmc = np.clip(0.5 * (t - r), 0.0, None)
        wpc = np.clip(0.5 * (t + r), 1e-300, None)
        s = wmc + wpc
        defect = 1.0 - (wmc**2 + wpc**2) / s**2
        out = _set_radial(rho, r, 1.0, 1.0)
        out[r == 0.0] = arr.coords(np.diag([1.0, 0.0])[None])  # no direction: |0><0|
        return out, defect
    evals, evecs = _eigh_b(arr, rho)
    evals = np.clip(evals, 0.0, None)
    s = np.clip(evals.sum(axis=1), 1e-300, None)
    defect = 1.0 - ((evals / s[:, None]) ** 2).sum(axis=1)
    top = evecs[:, :, -1]
    return arr.coords(top[:, :, None] * top.conj()[:, None, :]), defect


def _entropy_b(state: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    tr2 = np.einsum("bij,bji->b", state, state).real
    if weights is None:
        return 1.0 - tr2
    w = np.clip(weights, _WEIGHT_FLOOR, None)
    return 1.0 - tr2 / w**2


# -- single steps -------------------------------------------------------------
#
# Each step takes and returns complex (B, n, n) matrices and works on
# coordinates in between.

def _step_linear(arr: _ModelArrays, sig, dt, dW, u):
    x = arr.coords(sig)
    incr = dt * _apply_k_b(arr, x)
    if arr.n_diff:
        incr += np.einsum("bj,bja->ba", dW, _per_channel(x, arr.Gt))
    fired = np.zeros((x.shape[0], arr.K), dtype=np.int64)
    if arr.K:
        fired[:] = u < arr.nu * dt
        idx = np.flatnonzero(fired.any(axis=1))
        if idx.size:
            jx = _per_channel(x[idx], arr.Jt)
            incr[idx] += np.einsum("bk,bka->ba", fired[idx], jx - x[idx, None])
    x, weights = _repair_positive_b(arr, x + incr)
    return arr.matrices(x), weights, fired


def _posterior_substep(arr: _ModelArrays, rho, dt, dW, u):
    """One Euler step on coordinates; returns (coordinates, fired, m)."""
    m_drift = _rows(rho, arr.mvec)
    incr = dt * _apply_liouvillian_b(arr, rho)
    if arr.n_diff:
        incr += np.einsum("bj,bja->ba", dW, _strat_b_b(arr, rho))
    fired = np.zeros((rho.shape[0], arr.K), dtype=np.int64)
    if arr.K:
        lam = np.clip(_rows(rho, arr.lamvec), 0.0, None)
        active = lam > _LAMBDA_FLOOR
        jx = _per_channel(rho, arr.Jt)
        comp = jx - lam[:, :, None] * rho[:, None]
        incr -= np.einsum("bk,bka->ba", active * (arr.nu * dt), comp)
        fired[:] = (u < np.minimum(lam * arr.nu * dt, 1.0)) & active
        idx = np.flatnonzero(fired.any(axis=1))
        if idx.size:
            lam_safe = np.where(active[idx], lam[idx], 1.0)
            jumped = jx[idx] / lam_safe[:, :, None] - rho[idx, None]
            incr[idx] += np.einsum("bk,bka->ba", fired[idx], jumped)
    return _project_state_b(arr, rho + incr), fired, m_drift


def _step_posterior(arr: _ModelArrays, rho, dt, dW, u, adaptive, extra_gens):
    s = arr.substeps(dt)
    if s > 1 and not adaptive:
        raise StepTooLarge(
            f"jump intensity per step can reach {arr.peak_intensity * dt:.3g}, "
            f"above {_INTENSITY_CAP}"
        )
    x = arr.coords(rho)
    if s > 1:
        x, fired, m_drift = _posterior_substeps(arr, x, dt, dW, s, extra_gens)
    else:
        x, fired, m_drift = _posterior_substep(arr, x, dt, dW, u)
    return arr.matrices(x), fired, m_drift


def _posterior_substeps(arr: _ModelArrays, rho, dt, dW, s: int, extra_gens):
    """Split one step into s substeps, conditioning the noise on its total.

    The substep Wiener increments are a Brownian bridge refinement of the
    already drawn per-step increment; jump uniforms are drawn fresh from
    the per-trajectory auxiliary streams.
    """
    b = rho.shape[0]
    dts = dt / s
    if arr.n_diff:
        eta = np.stack(
            [g.standard_normal((s, arr.n_diff)) for g in extra_gens]
        ) * math.sqrt(dts)  # (B, s, m)
        deltas = dW[:, None, :] / s + eta - eta.mean(axis=1, keepdims=True)
    else:
        deltas = np.zeros((b, s, 0))
    us = np.stack([g.random((s, arr.K)) for g in extra_gens])  # (B, s, K)
    fired_total = np.zeros((b, arr.K), dtype=np.int64)
    m_first = None
    for l in range(s):
        rho, fired, m_drift = _posterior_substep(arr, rho, dts, deltas[:, l], us[:, l])
        fired_total += fired
        if m_first is None:
            m_first = m_drift
    return rho, fired_total, m_first


def _step_stratonovich(arr: _ModelArrays, rho, dt, dW):
    x = arr.coords(rho)
    m_drift = _rows(x, arr.mvec)
    a0 = _strat_a_b(arr, x)
    b0 = _strat_b_b(arr, x)
    pred = x + dt * a0 + np.einsum("bj,bja->ba", dW, b0)
    a1 = _strat_a_b(arr, pred)
    b1 = _strat_b_b(arr, pred)
    x_new = x + 0.5 * dt * (a0 + a1) + 0.5 * np.einsum("bj,bja->ba", dW, b0 + b1)
    x_proj, defect = _project_pure_b(arr, x_new)
    return arr.matrices(x_proj), defect, m_drift


# -- collectors ---------------------------------------------------------------

class _PathCollector:
    """Records one trajectory's full path (batch size must be 1)."""

    def __init__(self, mode: str, grid: TimeGrid, n: int, n_diff: int):
        n_rec = grid.n_steps + 1
        self.mode = mode
        self.dt = grid.dt
        self.states = np.zeros((n_rec, n, n), dtype=np.complex128)
        self.weights = np.ones(n_rec)
        self.entropy = np.zeros(n_rec)
        self.wiener = np.zeros((grid.n_steps, n_diff))
        self.compensated = (
            np.zeros((grid.n_steps, n_diff)) if mode != "linear" else None
        )
        self.jump_events: list[tuple[int, int]] = []
        self.purity_defect_max = 0.0

    def collect(self, i, state, weights, entropy, fired, dW, m_drift, defect, alive):
        self.states[i] = state[0]
        self.weights[i] = weights[0]
        self.entropy[i] = entropy[0]
        if i > 0:
            if dW is not None and dW.shape[1]:
                if self.mode == "linear":
                    self.wiener[i - 1] = dW[0]
                else:
                    self.compensated[i - 1] = dW[0]
                    self.wiener[i - 1] = dW[0] + m_drift[0] * self.dt
            if fired is not None:
                for k in np.flatnonzero(fired[0]):
                    for _ in range(int(fired[0, k])):
                        self.jump_events.append((i - 1, int(k)))
            if defect is not None:
                self.purity_defect_max = max(self.purity_defect_max, float(defect[0]))


class _StatsCollector:
    """Streaming per-step mean/M2 aggregates over one batch of trajectories."""

    def __init__(self, mode, grid, n, n_diff, n_jump, observable):
        n_rec = grid.n_steps + 1
        self.mode = mode
        self.count = np.zeros(n_rec, dtype=np.int64)
        self.mean_state = np.zeros((n_rec, n, n), dtype=np.complex128)
        self.m2_re = np.zeros((n_rec, n, n))
        self.m2_im = np.zeros((n_rec, n, n))
        self.mean_weight = np.zeros(n_rec)
        self.m2_weight = np.zeros(n_rec)
        self.mean_entropy = np.zeros(n_rec)
        self.m2_entropy = np.zeros(n_rec)
        self.observable = observable
        self.obs_dag = observable.conj().T if observable is not None else None
        if observable is not None:
            self.obs_mean = np.zeros(n_rec, dtype=np.complex128)
            self.obs_m2_re = np.zeros(n_rec)
            self.obs_m2_im = np.zeros(n_rec)
        self.jump_totals = None  # (B, K), set lazily
        self.n_jump = n_jump
        self.wiener_s1 = np.zeros(n_diff)
        self.wiener_s2 = np.zeros(n_diff)
        self.wiener_n = 0
        self.entropy_max = None  # (B,)
        self.defect_max = None   # (B,), stratonovich pre-projection defect
        self.alive = None
        self.underflow = None

    def collect(self, i, state, weights, entropy, fired, dW, m_drift, defect, alive):
        b = state.shape[0]
        if self.jump_totals is None:
            self.jump_totals = np.zeros((b, self.n_jump), dtype=np.int64)
            self.entropy_max = np.zeros(b)
            self.defect_max = np.zeros(b)
        np.maximum(self.entropy_max, entropy, out=self.entropy_max)
        if defect is not None:
            np.maximum(self.defect_max, defect, out=self.defect_max)
        vals_state = state[alive]
        cnt = int(alive.sum())
        if cnt:
            self.count[i] = cnt
            self.mean_state[i] = vals_state.mean(axis=0)
            dev = vals_state - self.mean_state[i]
            self.m2_re[i] = (dev.real**2).sum(axis=0)
            self.m2_im[i] = (dev.imag**2).sum(axis=0)
            w = weights[alive]
            self.mean_weight[i] = w.mean()
            self.m2_weight[i] = ((w - self.mean_weight[i]) ** 2).sum()
            e = entropy[alive]
            self.mean_entropy[i] = e.mean()
            self.m2_entropy[i] = ((e - self.mean_entropy[i]) ** 2).sum()
            if self.observable is not None:
                obs = np.einsum("ij,bji->b", self.obs_dag, vals_state)
                self.obs_mean[i] = obs.mean()
                od = obs - self.obs_mean[i]
                self.obs_m2_re[i] = (od.real**2).sum()
                self.obs_m2_im[i] = (od.imag**2).sum()
        if i > 0:
            if fired is not None and fired.size:
                self.jump_totals[alive] += fired[alive]
            if dW is not None and dW.shape[1] and alive.any():
                self.wiener_s1 += dW[alive].sum(axis=0)
                self.wiener_s2 += (dW[alive] ** 2).sum(axis=0)
                self.wiener_n += int(alive.sum())


# -- core driver --------------------------------------------------------------

def _simulate_batch(
    arr: _ModelArrays,
    mode: str,
    rho0_mat: np.ndarray,
    grid: TimeGrid,
    seeds,
    collector,
    adaptive: bool = True,
):
    """Integrate a batch of trajectories with per-trajectory Philox streams.

    Noise is drawn per trajectory in chunks of _CHUNK steps (normals first,
    then jump uniforms), so a trajectory's randomness depends only on its
    seed.  Returns (alive, underflow) masks.
    """
    b = len(seeds)
    n = arr.n
    gens = [np.random.Generator(np.random.Philox(key=int(s))) for s in seeds]
    extra_gens = None
    if mode == "posterior" and arr.K:
        extra_gens = [
            np.random.Generator(np.random.Philox(key=int(s)).jumped(1)) for s in seeds
        ]

    state = np.repeat(rho0_mat[None].astype(np.complex128), b, axis=0)
    weights = np.trace(state, axis1=1, axis2=2).real.copy()
    alive = np.ones(b, dtype=bool)
    underflow = np.zeros(b, dtype=bool)
    eye = np.eye(n, dtype=np.complex128)

    if mode == "linear":
        entropy = _entropy_b(state, weights)
    else:
        entropy = _entropy_b(state)
    collector.collect(0, state, weights, entropy, None, None, None, None, alive)

    dt = grid.dt
    sqdt = math.sqrt(dt)
    n_steps = grid.n_steps
    for start in range(0, n_steps, _CHUNK):
        clen = min(_CHUNK, n_steps - start)
        normals = (
            np.stack([g.standard_normal((clen, arr.n_diff)) for g in gens]) * sqdt
        )
        uniforms = (
            np.stack([g.random((clen, arr.K)) for g in gens]) if arr.K else None
        )
        for l in range(clen):
            dW = normals[:, l]
            u = uniforms[:, l] if uniforms is not None else None
            defect = None
            if mode == "linear":
                state, weights, fired = _step_linear(arr, state, dt, dW, u)
                low = weights < _WEIGHT_FLOOR
                if low.any():
                    underflow |= low
                    zero = weights <= 0.0
                    if zero.any():
                        idx = np.flatnonzero(zero)
                        state[idx] = (_WEIGHT_FLOOR / n) * eye
                        weights[idx] = _WEIGHT_FLOOR
                m_drift = None
                entropy = _entropy_b(state, weights)
            elif mode == "posterior":
                state, fired, m_drift = _step_posterior(
                    arr, state, dt, dW, u, adaptive, extra_gens
                )
                entropy = _entropy_b(state)
            else:
                state, defect, m_drift = _step_stratonovich(arr, state, dt, dW)
                fired = None
                entropy = _entropy_b(state)

            bad = ~np.isfinite(state.reshape(b, -1)).all(axis=1)
            bad |= ~np.isfinite(weights)
            if bad.any():
                newly = bad & alive
                alive &= ~bad
                idx = np.flatnonzero(newly)
                state[idx] = eye / n
                weights[idx] = 1.0
                entropy[idx] = 0.0
            collector.collect(
                start + l + 1, state, weights, entropy, fired, dW, m_drift, defect, alive
            )
    return alive, underflow


def _prepare_rho0(m: MeasurementModel, rho0: QuantumState) -> np.ndarray:
    if rho0.dim != m.dim:
        raise DimensionMismatch("initial state dimension does not match the model")
    return np.array(rho0.matrix)


def _check_stratonovich_model(m: MeasurementModel) -> None:
    """The Stratonovich scheme needs a diffusive, pure-state-preserving model."""
    if m.n_jump:
        raise JumpChannelsPresent("stratonovich scheme requires a diffusive model")
    if any(hs_norm(op) > 1e-14 for op in m.dissipative_ops):
        raise NotPurePreserving("dissipative operators break pure-state preservation")
    if m.n_diffusive == 0:
        raise NoDiffusiveChannels("stratonovich scheme needs diffusive operators")


def _simulate_path(m, mode, rho0_mat, grid, seed, adaptive=True):
    """One trajectory recorded in full; returns (collector, underflow)."""
    arr = _ModelArrays(m)
    coll = _PathCollector(mode, grid, m.dim, arr.n_diff)
    _, under = _simulate_batch(arr, mode, rho0_mat, grid, [seed], coll, adaptive=adaptive)
    return coll, bool(under[0])


def simulate_linear(
    m: MeasurementModel, rho0: QuantumState, grid: TimeGrid, seed: int
) -> LinearTrajectory:
    """One trajectory of the unnormalized equation under the reference law.

    Deterministic given the seed.  The trace is kept as the trajectory
    weight: negative eigenvalues are repaired each step, but the trace is
    never renormalized.
    """
    coll, under = _simulate_path(m, "linear", _prepare_rho0(m, rho0), grid, seed)
    return LinearTrajectory(
        grid=grid,
        sigma_path=coll.states,
        weight_path=coll.weights,
        output=OutputRecord(coll.wiener, coll.jump_events, None),
        weight_underflow=under,
    )


def simulate_posterior(
    m: MeasurementModel,
    rho0: QuantumState,
    grid: TimeGrid,
    seed: int,
    adaptive: bool = True,
) -> PosteriorTrajectory:
    """One trajectory of the nonlinear equation under the physical law.

    Each step is re-projected onto the state space.  Substepping depends
    only on the model and dt: when max_k nu_k lambda_max(E_k) dt, the
    largest jump intensity per step any state can reach, exceeds 0.1,
    every step is split into the same number of substeps
    (``adaptive=True``, the default), or StepTooLarge is raised at the
    first step (``adaptive=False``).
    """
    coll, _ = _simulate_path(
        m, "posterior", _prepare_rho0(m, rho0), grid, seed, adaptive=adaptive
    )
    return PosteriorTrajectory(
        grid=grid,
        state_path=coll.states,
        output=OutputRecord(coll.wiener, coll.jump_events, coll.compensated),
        entropy_path=coll.entropy,
    )


def simulate_stratonovich_pure(
    m: MeasurementModel, psi0: PureStateVector, grid: TimeGrid, seed: int
) -> PosteriorTrajectory:
    """Heun integration of the Stratonovich pure-state system.

    Only defined for diffusive, pure-state-preserving models; every step is
    re-projected onto the dominant eigenvector, and the largest observed
    pre-projection purity defect is reported on the trajectory.
    """
    _check_stratonovich_model(m)
    if psi0.dim != m.dim:
        raise DimensionMismatch("initial vector dimension does not match the model")
    coll, _ = _simulate_path(m, "stratonovich", psi0.projector(), grid, seed)
    return PosteriorTrajectory(
        grid=grid,
        state_path=coll.states,
        output=OutputRecord(coll.wiener, coll.jump_events, coll.compensated),
        entropy_path=coll.entropy,
        purity_defect_max=coll.purity_defect_max,
    )


# -- ensembles ----------------------------------------------------------------

def _expand(vec, like):
    extra = like.ndim - vec.ndim
    return vec.reshape(vec.shape + (1,) * extra)


def _merge_collectors(a: _StatsCollector, b: _StatsCollector) -> _StatsCollector:
    """Chan-merge two block collectors into the first (in trajectory order)."""
    ca, cb = a.count, b.count
    tot = ca + cb
    safe = np.where(tot > 0, tot, 1)
    frac = np.where(tot > 0, cb / safe, 0.0)
    wpair = ca * cb / safe

    delta = b.mean_state - a.mean_state
    a.m2_re += b.m2_re + delta.real**2 * _expand(wpair, a.m2_re)
    a.m2_im += b.m2_im + delta.imag**2 * _expand(wpair, a.m2_im)
    a.mean_state += delta * _expand(frac, a.mean_state)

    dw = b.mean_weight - a.mean_weight
    a.m2_weight += b.m2_weight + dw**2 * wpair
    a.mean_weight += dw * frac
    de = b.mean_entropy - a.mean_entropy
    a.m2_entropy += b.m2_entropy + de**2 * wpair
    a.mean_entropy += de * frac

    if a.observable is not None:
        od = b.obs_mean - a.obs_mean
        a.obs_m2_re += b.obs_m2_re + od.real**2 * wpair
        a.obs_m2_im += b.obs_m2_im + od.imag**2 * wpair
        a.obs_mean += od * frac

    a.count = tot
    a.jump_totals = np.concatenate([a.jump_totals, b.jump_totals], axis=0)
    a.entropy_max = np.concatenate([a.entropy_max, b.entropy_max])
    a.defect_max = np.concatenate([a.defect_max, b.defect_max])
    a.alive = np.concatenate([a.alive, b.alive])
    a.underflow = np.concatenate([a.underflow, b.underflow])
    a.wiener_s1 += b.wiener_s1
    a.wiener_s2 += b.wiener_s2
    a.wiener_n += b.wiener_n
    return a


def _run_block(args):
    (m, mode, rho0_mat, grid, seeds, observable, adaptive) = args
    arr = _ModelArrays(m)
    coll = _StatsCollector(mode, grid, m.dim, arr.n_diff, arr.K, observable)
    alive, under = _simulate_batch(
        arr, mode, rho0_mat, grid, seeds, coll, adaptive=adaptive
    )
    coll.alive = alive
    coll.underflow = under
    coll.entropy_max = np.where(alive, coll.entropy_max, np.nan)
    coll.defect_max = np.where(alive, coll.defect_max, np.nan)
    return coll


def run_ensemble(
    m: MeasurementModel,
    rho0: QuantumState,
    grid: TimeGrid,
    n_traj: int,
    seed: int,
    mode: str,
    observable: np.ndarray | None = None,
    adaptive: bool = True,
) -> EnsembleStats:
    """Streaming Monte-Carlo aggregates over ``n_traj`` trajectories.

    Trajectory i uses the Philox stream keyed ``seed + i``.  In linear mode
    the mean state is the plain average of the unnormalized matrices, which
    estimates the a-priori state by reweighting; in posterior and
    stratonovich modes it is the average of the normalized states.  Blocks
    of trajectories are reduced in index order, so results are independent
    of the worker count (``QTRAJ_THREADS``).
    """
    if n_traj < 1:
        raise ValidationError("n_traj must be >= 1")
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}")
    if mode == "stratonovich":
        _check_stratonovich_model(m)
        evals, evecs = np.linalg.eigh(rho0.matrix)
        if 1.0 - float(evals[-1]) > 1e-9:
            raise ValidationError("stratonovich mode needs a pure initial state")
        top = evecs[:, -1]
        rho0_mat = np.outer(top, top.conj())
    else:
        rho0_mat = _prepare_rho0(m, rho0)
    if observable is not None:
        observable = np.asarray(observable, dtype=np.complex128)
        if observable.shape != (m.dim, m.dim):
            raise DimensionMismatch("observable dimension does not match the model")

    blocks = []
    for start in range(0, n_traj, _BLOCK):
        seeds = [seed + i for i in range(start, min(start + _BLOCK, n_traj))]
        blocks.append((m, mode, rho0_mat, grid, seeds, observable, adaptive))

    threads = int(os.environ.get("QTRAJ_THREADS", "1") or "1")
    if threads > 1 and len(blocks) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_run_block, blocks))
    else:
        results = [_run_block(b) for b in blocks]

    merged = results[0]
    for coll in results[1:]:
        merged = _merge_collectors(merged, coll)
    alive = merged.alive
    under = merged.underflow
    n_failed = int((~alive).sum())
    if n_failed > 0.01 * n_traj:
        raise EnsembleFailure(
            f"{n_failed} of {n_traj} trajectories failed (limit is 1%)"
        )

    cnt = merged.count
    denom = np.where(cnt > 1, cnt * np.maximum(cnt - 1, 1), 1)

    def _se(m2):
        return np.sqrt(m2 / _expand(denom.astype(float), m2)) * _expand(
            (cnt > 1).astype(float), m2
        )

    totals = merged.jump_totals[alive] if alive.any() else merged.jump_totals[:0]
    if totals.shape[0] > 1:
        jmean = totals.mean(axis=0)
        jse = totals.std(axis=0, ddof=1) / math.sqrt(totals.shape[0])
    elif totals.shape[0] == 1:
        jmean = totals[0].astype(float)
        jse = np.zeros(m.n_jump)
    else:
        jmean = np.zeros(m.n_jump)
        jse = np.zeros(m.n_jump)

    if merged.wiener_n > 0:
        wmean = merged.wiener_s1 / merged.wiener_n
        wvar = merged.wiener_s2 / merged.wiener_n - wmean**2
    else:
        wmean = np.zeros(m.n_diffusive)
        wvar = np.zeros(m.n_diffusive)

    stats = EnsembleStats(
        mode=mode,
        times=grid.times,
        n_traj=n_traj,
        n_failed=n_failed,
        n_underflow=int(under.sum()),
        mean_state=merged.mean_state,
        se_state_re=_se(merged.m2_re),
        se_state_im=_se(merged.m2_im),
        mean_weight=merged.mean_weight,
        se_weight=_se(merged.m2_weight),
        mean_entropy=merged.mean_entropy,
        se_entropy=_se(merged.m2_entropy),
        max_entropy_per_traj=merged.entropy_max,
        max_purity_defect_per_traj=merged.defect_max,
        jump_count_mean=jmean,
        jump_count_se=jse,
        wiener_increment_mean=wmean,
        wiener_increment_var=wvar,
        obs_mean=merged.obs_mean if observable is not None else None,
        obs_se_re=_se(merged.obs_m2_re) if observable is not None else None,
        obs_se_im=_se(merged.obs_m2_im) if observable is not None else None,
        metadata={
            "mode": mode,
            "seed": seed,
            "dt": grid.dt,
            "t_final": grid.t_final,
            "n_traj": n_traj,
            "rng": RNG_ALGORITHM,
        },
    )
    return stats


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

    delta = t_final / n_points
    prop = scipy.linalg.expm(sign * delta * m.diffusive_ops[op_index])
    psi = np.array(psi0.amplitudes)
    states = []
    times = np.arange(n_points + 1) * delta

    def _to_state(vec):
        nrm = np.linalg.norm(vec)
        v = vec / nrm
        return QuantumState(np.outer(v, v.conj()))

    states.append(_to_state(psi))
    for _ in range(n_points):
        psi = prop @ psi
        nrm = np.linalg.norm(psi)
        if nrm == 0.0:
            raise ValidationError("flow annihilated the state vector")
        psi = psi / nrm
        states.append(_to_state(psi))
    gap = hs_norm(states[-1].matrix - states[-2].matrix)
    limit = states[-1] if gap < 1e-9 else None
    return FlowResult(times=times, states=states, limit_point=limit)
