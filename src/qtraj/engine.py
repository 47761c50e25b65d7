"""Stochastic integration of the continual-measurement dynamics.

Three schemes are provided:

* ``linear``       -- the unnormalized equation under the reference law,
  jumps fired per channel with state-independent probability nu_k dt.
* ``posterior``    -- the normalized nonlinear equation under the physical
  law, jump replacement rho -> J_k[rho]/lambda_k fired with probability
  min(lambda_k nu_k dt, 1), restricted to lambda_k > 1e-12.  When
  max_k nu_k lambda_max(E_k) dt, a bound on the jump intensity per step
  over all states, exceeds 0.1, every step of every trajectory is split
  into the same s = ceil(bound / 0.05) substeps; s depends only on the
  model and dt, never on the states in the batch.
* ``stratonovich`` -- Heun (stochastic midpoint) integration of the
  equivalent Stratonovich system on the pure-state manifold, with a
  projection onto the dominant eigenvector after every step.

The linear and posterior schemes take one completely positive Kraus step
(Rouchon & Ralph, PRA 91, 012118, 2015; Guevara & Wiseman, PRA 102,
052217, 2020): sigma -> M sigma M* + dt sum_h S_h sigma S_h*, with
M = I + dt G + sum_j xi_j L_j and G = -i H - (D1 + D2 + D3)/2, or
sigma -> sum_k J_k[sigma] over the channels that fire.  States therefore
stay positive by construction, with no repair.  The linear scheme uses
xi = dW and rescales the image to the Euler-Maruyama trace
w = tr sigma + dt tr K[sigma] + sum_j m_j dW_j (+ lambda_k - tr sigma per
fired channel), so the weight is an exact discrete martingale; a row whose
image or w is not positive gets weight 0 and the underflow reset.  The
posterior scheme uses the output increment xi = dW + m dt (m at the start
of the step) and divides by the trace; -D2/2 in G and the normalization
produce the jump compensator drift.

The state is carried as coherence-vector coordinates (Alicki & Lendi,
LNP 286): over the orthonormal Hermitian basis {I/sqrt(n), tau_a} a state
is a real n^2-vector and every Hermiticity-preserving map is a real
n^2 x n^2 matrix.  The Kraus pieces, the jump maps and the pieces of the
Stratonovich fields are derived once per model from ``model.apply_*``
and stacked side by side, so each evaluation of a step is one real
matrix product on (B, n^2) rows.  Rows are the loop state from the
initial state to the last step; they are converted to complex matrices
only when a public result is built.

Well-posedness of the continuous equations beyond special cases is an open
question; at fixed step size and seed the schemes below compute one
unambiguous numerical solution, which is what all outputs refer to.

Trajectory-level randomness comes from one counter-based Philox stream
keyed by ``seed + trajectory_index``, which also supplies the noise of
posterior substeps, so ensembles are reproducible and
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
    coherence_basis,
    hs_norm,
    superoperator_matrix,
)
from .model import MeasurementModel, apply_jump, apply_k, apply_l0

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
    entropy_path: np.ndarray   # (n_steps+1,), 1 - tr sigma^2 / w^2
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
    trajectory: LinearTrajectory | PosteriorTrajectory | None = None  # trajectory 0's path
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


def _cuts(*widths) -> list:
    """Column slices of consecutive blocks with the given widths."""
    ends = np.cumsum(widths).tolist()
    return [slice(a, b) for a, b in zip([0] + ends, ends)]


class _ModelArrays:
    """The model's maps as real matrices on coherence-vector coordinates.

    Every matrix is derived by ``superoperator_matrix`` from
    ``model.apply_*``, from the Kraus pieces or from a Stratonovich field
    piece, over the orthonormal Hermitian basis {I/sqrt(n), tau_a}, and
    stored transposed so that it acts on batches of coordinate rows (B, N),
    N = n^2.  The coordinates are sqrt(2) times the expansion coefficients,
    which leaves every matrix unchanged and makes them (tr rho, tr sigma_a rho)
    at n = 2, where converting to and from matrices is then exact up to one
    rounding per entry.

    Each scheme evaluates all of its maps at a point with one product
    against a fused stack, whose column blocks are, left to right:

    * ``kraus(dt)``, for the linear and posterior schemes, built once per
      step size: the Kraus channels E0, C_1..C_d and P_jl (j <= l), the
      functionals m_j = tr G_j[x] and tr x + dt tr K[x], the jump maps
      J_1..J_K and lambda_k = tr J_k[x];
    * ``strat``: the Stratonovich drift piece A, G_1..G_d, m_j and
      c = tr C[rho] / 2.

    ``kraus_cuts`` and ``strat_cuts`` slice out the blocks.
    """

    def __init__(self, m: MeasurementModel):
        n = m.dim
        nn = n * n
        d = m.n_diffusive
        self.n = n
        self.n_diff = d
        self.K = m.n_jump
        basis = coherence_basis(n)
        # x = coords(rho) has x_a = tr(dual_a rho) and rho = sum_a x_a dual_a / 2;
        # dual / 2 is exact, so at n = 2 every conversion entry is 0, +-1 or +-1/2
        dual = basis * math.sqrt(2.0)
        flat = dual.reshape(nn, nn).view(np.float64)  # (re, im) pairs per entry
        self._to = flat.T.copy()
        self._from = 0.5 * flat
        trace = 0.5 * np.trace(dual, axis1=1, axis2=2).real  # tr rho = trace . x
        self.tr0 = float(trace[0])  # tr rho = tr0 * x_0; exactly 1 at n = 2

        def mat(f):
            return superoperator_matrix(f, basis).real

        def stack(mats):  # (N, c*N): column block c is mats[c].T
            return np.concatenate([mt.T for mt in mats], axis=1) if mats else np.zeros((nn, 0))

        def traces(mats):  # (N, c): column c is the functional x -> tr mats[c] x
            return np.array([mt.T @ trace for mt in mats]).reshape(-1, nn).T

        def conj_by(a, b=None):  # r -> a r a*, or r -> a r b* + b r a*
            if b is None:
                return lambda r: a @ r @ a.conj().T
            return lambda r: a @ r @ b.conj().T + b @ r @ a.conj().T

        ops = m.diffusive_ops
        # linear parts G_j of the diffusion fields; m_j = tr G_j[rho]
        gs = [mat(lambda r, op=op: op @ r + r @ op.conj().T) for op in ops]
        # jump maps J_k; lambda_k = tr J_k[rho]
        js = [mat(lambda r, k=k: apply_jump(m, r, k)) for k in range(self.K)]
        # Kraus step M rho M* + dt sum_h S_h rho S_h*, M = I + dt G + sum_j xi_j L_j,
        # expanded in dt and xi: E0 = I + dt A + dt^2 Q with A = G . + . G* +
        # sum_h S_h . S_h* and Q = G . G*; C_j = G_j + dt X_j with
        # X_j = G . L_j* + L_j . G*; P_jj = L_j . L_j*, P_jl = L_j . L_l* + L_l . L_j*
        g = -1j * m.hamiltonian - 0.5 * (m.d1 + m.d2 + m.d3)
        a = mat(lambda r: g @ r + r @ g.conj().T + sum(conj_by(s)(r) for s in m.dissipative_ops))
        q = mat(conj_by(g))
        xs = [mat(conj_by(g, op)) for op in ops]
        self.pairs = np.triu_indices(d)
        ps = [mat(conj_by(ops[j], None if j == l else ops[l])) for j, l in zip(*self.pairs)]
        k_trace = mat(lambda r: apply_k(m, r)).T @ trace  # x -> tr K[x]
        # the dt-free pieces of kraus(dt)
        self._kraus_parts = (
            a.T, q.T, stack(gs), stack(xs), stack(ps), traces(gs), trace, k_trace,
            stack(js), traces(js),
        )
        self._kraus = {}
        n_chan = 1 + d + len(ps)
        self.kraus_cuts = _cuts(n_chan * nn, d, 1, self.K * nn, self.K)
        # Stratonovich drift: A x + sum_j m_j b_j + c x, with A = L0 - C / 2,
        # C = sum_j C_j, C_j[rho] = X_j L_j rho + rho L_j* X_j, X_j = L_j + L_j*
        def c_j(r, op):
            x = op + op.conj().T
            return x @ op @ r + r @ op.conj().T @ x

        c = sum((mat(lambda r, op=op: c_j(r, op)) for op in ops), np.zeros((nn, nn)))
        at = (mat(lambda r: apply_l0(m, r)) - 0.5 * c).T
        self.strat = np.hstack([at, stack(gs), traces(gs), 0.5 * traces([c])])
        self.strat_cuts = _cuts(nn, d * nn, d, 1)
        self.mixed = self.coords(np.eye(n)[None] / n)[0]  # coordinates of I/n
        self.nu = np.array([ch.weight for ch in m.jump_channels])
        self.peak_intensity = max(
            (ch.weight * float(np.linalg.eigvalsh(ch.effect())[-1]) for ch in m.jump_channels),
            default=0.0,
        )

    def kraus(self, dt: float) -> np.ndarray:
        """The Kraus stack at step dt, built on first use and kept per dt
        (posterior substeps run at dt / s)."""
        st = self._kraus.get(dt)
        if st is None:
            a, q, gs, xs, ps, ms, trace, k_trace, js, lams = self._kraus_parts
            e0 = np.eye(a.shape[0]) + dt * a + (dt * dt) * q
            st = self._kraus[dt] = np.hstack(
                [e0, gs + dt * xs, ps, ms, (trace + dt * k_trace)[:, None], js, lams]
            )
        return st

    def coords(self, mats: np.ndarray) -> np.ndarray:
        """(B, n, n) complex -> (B, n^2) coordinates of the Hermitian part."""
        flat = np.ascontiguousarray(mats, dtype=np.complex128).reshape(mats.shape[0], -1)
        return _rows(flat.view(np.float64), self._to)

    def matrices(self, x: np.ndarray) -> np.ndarray:
        """(B, n^2) coordinates -> (B, n, n) complex matrices."""
        return _rows(x, self._from).view(np.complex128).reshape(-1, self.n, self.n)

    def rows(self, state: np.ndarray) -> np.ndarray:
        """Coordinate rows of a batch: (B, n^2) rows pass, (B, n, n) matrices convert.

        ``_simulate_batch`` always passes rows; accepting complex matrices
        lets ``perfbench/kernels.py`` time the step kernels on matrix states.
        """
        return state if state.ndim == 2 else self.coords(state)

    def substeps(self, dt: float) -> int:
        """Fixed substep count: 1, or enough that the bound
        max_k nu_k lambda_max(E_k) dt / s on any state's jump intensity per
        substep is at most half the cap.  The ceil forgives relative rounding
        of 1e-12, so a bound of 6.000000000000001 halves still gives 6."""
        worst = self.peak_intensity * dt
        if worst <= _INTENSITY_CAP:
            return 1
        return int(math.ceil(worst / (0.5 * _INTENSITY_CAP) * (1.0 - 1e-12)))


def _channels(y: np.ndarray, nn: int) -> np.ndarray:
    """(B, c*N) column blocks of a fused product -> (B, c, N)."""
    return y.reshape(y.shape[0], -1, nn)


def _apply_k_b(arr: _ModelArrays, x: np.ndarray, dt: float):
    """Kraus step pieces at rows x, one product against ``arr.kraus(dt)``:
    the channel images (E0 x, (C_j x)_j, (P_jl x)_jl) as (B, c, N), m (B, d),
    the drift trace tr x + dt tr K x (B,), (J_k x)_k (B, K, N) and lambda (B, K)."""
    nn = x.shape[1]
    y = _rows(x, arr.kraus(dt))
    kx, m, w, jx, lam = [y[:, s] for s in arr.kraus_cuts]
    return _channels(kx, nn), m, w[:, 0], _channels(jx, nn), lam


def _kraus_image(arr: _ModelArrays, kx: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """The no-jump image E0 x + sum_j xi_j C_j x + sum_{j<=l} xi_j xi_l P_jl x,
    which is M x M* + dt sum_h S_h x S_h* for M = I + dt G + sum_j xi_j L_j."""
    img = kx[:, 0]
    if arr.n_diff:
        j, l = arr.pairs
        coef = np.concatenate([xi, xi[:, j] * xi[:, l]], axis=1)
        img = img + np.einsum("bc,bca->ba", coef, kx[:, 1:])
    return img


def _strat_a_b(arr: _ModelArrays, x: np.ndarray):
    """Stratonovich fields at rows x, one product: drift a (B, N),
    diffusion fields b_j = G_j x - m_j x (B, n_diff, N), and m (B, n_diff)."""
    y = _rows(x, arr.strat)
    ax, gx, m, c = [y[:, s] for s in arr.strat_cuts]
    b = _channels(gx, x.shape[1]) - m[:, :, None] * x[:, None]
    return ax + c * x + np.einsum("bj,bja->ba", m, b), b, m


# -- projection onto pure states ----------------------------------------------
#
# At n = 2 a coordinate row is (t, r) with eigenvalues (t -+ |r|)/2, so the
# projection is a closed-form rescaling of the Bloch radius |r|.  Larger n
# convert to matrices for eigh.

_GROUND2 = np.array([1.0, 0.0, 0.0, 1.0])  # coordinates of |0><0| at n = 2


def _radial(x: np.ndarray):
    """(trace, Bloch radius) of n = 2 coordinate rows."""
    r = x[:, 1:]
    return x[:, 0], np.sqrt(np.einsum("bi,bi->b", r, r))


def _set_radial(x: np.ndarray, r: np.ndarray, t_new, r_new) -> np.ndarray:
    """Rows with trace t_new and Bloch radius r_new in the direction of x.

    A row whose radius does not change is multiplied by exactly 1.
    """
    out = x * (r_new / np.where(r > 0.0, r, 1.0))[:, None]
    out[:, 0] = t_new
    return out


def _project_pure_b(arr: _ModelArrays, rho: np.ndarray):
    """Project onto the dominant eigenvector; also return the purity defect.

    The defect is the linear entropy of the trace-normalized positive part
    before projection, a per-step measure of how far the scheme drifted
    off the pure-state manifold.
    """
    if arr.n == 2:
        t, r = _radial(rho)
        wmc = np.maximum(0.5 * (t - r), 0.0)
        wpc = np.maximum(0.5 * (t + r), 1e-300)
        s = wmc + wpc
        defect = 1.0 - (wmc**2 + wpc**2) / s**2
        out = _set_radial(rho, r, 1.0, 1.0)
        out[r == 0.0] = _GROUND2  # no direction: |0><0|
        return out, defect
    evals, evecs = np.linalg.eigh(arr.matrices(rho))
    evals = np.clip(evals, 0.0, None)
    s = np.clip(evals.sum(axis=1), 1e-300, None)
    defect = 1.0 - ((evals / s[:, None]) ** 2).sum(axis=1)
    top = evecs[:, :, -1]
    return arr.coords(top[:, :, None] * top.conj()[:, None, :]), defect


# -- single steps -------------------------------------------------------------
#
# Each step takes and returns coordinate rows (B, n^2); ``arr.rows`` also
# accepts complex (B, n, n) matrices.

def _step_linear(arr: _ModelArrays, sig, dt, dW, u):
    """Kraus image with xi = dW (or the fired jump images), rescaled to the
    Euler-Maruyama trace w; rows whose image or w is not positive get w = 0."""
    x = arr.rows(sig)
    kx, m, w, jx, lam = _apply_k_b(arr, x, dt)
    img = _kraus_image(arr, kx, dW)
    if arr.n_diff:
        w = w + np.einsum("bj,bj->b", dW, m)
    fired = np.zeros((x.shape[0], arr.K), dtype=np.int64)
    if arr.K:
        fired[:] = u < arr.nu * dt
        idx = np.flatnonzero(fired.any(axis=1))
        if idx.size:
            f = fired[idx]
            img[idx] = np.einsum("bk,bka->ba", f, jx[idx])
            w[idx] += np.einsum("bk,bk->b", f, lam[idx] - arr.tr0 * x[idx, :1])
    tr_img = arr.tr0 * img[:, 0]
    dead = (tr_img <= 0.0) | (w <= 0.0)
    w = np.where(dead, 0.0, w)
    return img * (w / np.where(dead, 1.0, tr_img))[:, None], w, fired


def _posterior_substep(arr: _ModelArrays, rho, dt, dW, u):
    """One normalized Kraus step with xi = dW + m dt, the output increment;
    returns (coordinates, fired, m)."""
    kx, m_drift, _, jx, lam = _apply_k_b(arr, rho, dt)
    img = _kraus_image(arr, kx, dW + m_drift * dt)
    fired = np.zeros((rho.shape[0], arr.K), dtype=np.int64)
    if arr.K:
        fired[:] = (u < np.minimum(lam * arr.nu * dt, 1.0)) & (lam > _LAMBDA_FLOOR)
        idx = np.flatnonzero(fired.any(axis=1))
        if idx.size:
            img[idx] = np.einsum("bk,bka->ba", fired[idx], jx[idx])
    return img / (arr.tr0 * img[:, :1]), fired, m_drift


def _step_posterior(arr: _ModelArrays, rho, dt, dW, u, adaptive, substep_noise):
    """One step; at s > 1 substeps ``substep_noise`` holds their (dW, u)."""
    s = arr.substeps(dt)
    if s > 1 and not adaptive:
        raise StepTooLarge(
            f"jump intensity per step can reach {arr.peak_intensity * dt:.3g}, "
            f"above {_INTENSITY_CAP}"
        )
    x = arr.rows(rho)
    if s > 1:
        sub_dW, sub_u = substep_noise
        return _posterior_substeps(arr, x, dt, sub_dW, s, sub_u)
    return _posterior_substep(arr, x, dt, dW, u)


def _posterior_substeps(arr: _ModelArrays, rho, dt, dW, s: int, u):
    """Split one step into s substeps of dt / s, driven by the substep
    increments dW (B, s, n_diff) and uniforms u (B, s, K); m is recorded at
    the start of the step."""
    fired_total = np.zeros((rho.shape[0], arr.K), dtype=np.int64)
    m_first = None
    for l in range(s):
        rho, fired, m_drift = _posterior_substep(arr, rho, dt / s, dW[:, l], u[:, l])
        fired_total += fired
        if m_first is None:
            m_first = m_drift
    return rho, fired_total, m_first


def _step_stratonovich(arr: _ModelArrays, rho, dt, dW):
    x = arr.rows(rho)
    a0, b0, m_drift = _strat_a_b(arr, x)
    pred = x + dt * a0 + np.einsum("bj,bja->ba", dW, b0)
    a1, b1, _ = _strat_a_b(arr, pred)
    x_new = x + 0.5 * dt * (a0 + a1) + 0.5 * np.einsum("bj,bja->ba", dW, b0 + b1)
    x_proj, defect = _project_pure_b(arr, x_new)
    return x_proj, defect, m_drift


def _entropy_rows(x: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Linear entropy 1 - tr rho^2 = 1 - |x|^2 / 2; with weights w > 0
    (linear mode), that of the normalized state, 1 - |x / w|^2 / 2."""
    if weights is not None:
        x = x / weights[:, None]
    return 1.0 - 0.5 * np.einsum("bi,bi->b", x, x)


# -- collectors ---------------------------------------------------------------

class _PathCollector:
    """Records the full path of row 0 of every batch it is given.

    Per-step records are stored as arrays and turned into the public
    trajectory once, by ``result``.
    """

    def __init__(self, arr: _ModelArrays, mode: str, grid: TimeGrid):
        n_rec = grid.n_steps + 1
        self.arr = arr
        self.mode = mode
        self.grid = grid
        self.rows = np.zeros((n_rec, arr.n * arr.n))
        self.weights = np.ones(n_rec)
        self.entropy = np.zeros(n_rec)
        self.dW = np.zeros((grid.n_steps, arr.n_diff))
        self.m_drift = np.zeros((grid.n_steps, arr.n_diff))
        self.fired = np.zeros((grid.n_steps, arr.K), dtype=np.int64)
        self.defect = np.zeros(grid.n_steps)

    def collect(self, i, state, weights, entropy, fired, dW, m_drift, defect, alive):
        self.rows[i] = state[0]
        self.weights[i] = weights[0]
        self.entropy[i] = entropy[0]
        if i > 0:
            self.dW[i - 1] = dW[0]
            if m_drift is not None:
                self.m_drift[i - 1] = m_drift[0]
            if fired is not None:
                self.fired[i - 1] = fired[0]
            if defect is not None:
                self.defect[i - 1] = defect[0]

    # _StatsCollector.collect records through this alias, so that perfbench,
    # which times ``collect`` calls, still counts one call per step.
    record = collect

    def result(self, underflow: bool):
        """The public trajectory, with the path converted to matrices once."""
        states = self.arr.matrices(self.rows)
        steps, ks = np.nonzero(self.fired)
        counts = self.fired[steps, ks]
        jumps = list(zip(np.repeat(steps, counts).tolist(), np.repeat(ks, counts).tolist()))
        if self.mode == "linear":
            output = OutputRecord(self.dW, jumps, None)
            return LinearTrajectory(
                self.grid, states, self.weights, output, self.entropy, underflow
            )
        # output increments dW = dW~ + m dt under the physical law
        output = OutputRecord(self.dW + self.m_drift * self.grid.dt, jumps, self.dW)
        defect = float(np.fmax.reduce(self.defect, initial=0.0))
        return PosteriorTrajectory(self.grid, states, output, self.entropy, defect)


class _StatsCollector:
    """Streaming per-step mean/M2 aggregates over one batch of trajectories.

    Each collect converts the live rows, in one product, to the columns
    [re, im of the state's entries | re, im of tr(O* rho) | weight | entropy]
    and keeps their mean and M2 per step.  With ``keep_path`` it also
    records row 0's full path.
    """

    def __init__(self, arr: _ModelArrays, mode, grid, observable, keep_path):
        n_rec = grid.n_steps + 1
        to_cols = arr._from
        if observable is not None:
            unit = arr.matrices(np.eye(arr.n * arr.n))  # the matrix of each unit row
            obs = np.einsum("ij,aji->a", observable.conj().T, unit)
            to_cols = np.hstack([to_cols, np.stack([obs.real, obs.imag], axis=1)])
        self.to_cols = to_cols
        self.count = np.zeros(n_rec, dtype=np.int64)
        self.mean = np.zeros((n_rec, to_cols.shape[1] + 2))
        self.m2 = np.zeros_like(self.mean)
        self.path = _PathCollector(arr, mode, grid) if keep_path else None
        self.jump_totals = None  # (B, K), set lazily
        self.n_jump = arr.K
        self.wiener_s1 = np.zeros(arr.n_diff)
        self.wiener_s2 = np.zeros(arr.n_diff)
        self.wiener_n = 0
        self.entropy_max = None  # (B,)
        self.defect_max = None   # (B,), stratonovich pre-projection defect
        self.alive = None
        self.underflow = None

    def collect(self, i, state, weights, entropy, fired, dW, m_drift, defect, alive):
        if self.path is not None:
            self.path.record(i, state, weights, entropy, fired, dW, m_drift, defect, alive)
        b = state.shape[0]
        if self.jump_totals is None:
            self.jump_totals = np.zeros((b, self.n_jump), dtype=np.int64)
            self.entropy_max = np.zeros(b)
            self.defect_max = np.zeros(b)
        np.maximum(self.entropy_max, entropy, out=self.entropy_max)
        if defect is not None:
            np.maximum(self.defect_max, defect, out=self.defect_max)
        cnt = int(alive.sum())
        if cnt:
            vals = np.column_stack(
                (_rows(state[alive], self.to_cols), weights[alive], entropy[alive])
            )
            self.count[i] = cnt
            self.mean[i] = vals.mean(axis=0)
            self.m2[i] = ((vals - self.mean[i]) ** 2).sum(axis=0)
        if i > 0:
            if fired is not None and fired.size:
                self.jump_totals[alive] += fired[alive]
            if dW is not None and dW.shape[1] and cnt:
                self.wiener_s1 += dW[alive].sum(axis=0)
                self.wiener_s2 += (dW[alive] ** 2).sum(axis=0)
                self.wiener_n += cnt


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

    Noise is drawn per trajectory in chunks of steps (normals first, then
    jump uniforms), so a trajectory's randomness depends only on its seed.
    Posterior steps split into s > 1 substeps draw the noise of every
    substep, in chunks of min(_CHUNK, n_steps) // s steps so that a chunk
    holds no more values than at s = 1; a step's dW is the sum of its
    substep increments.  The state is a (B, n^2) array of coordinate rows
    throughout.  Returns (alive, underflow) masks.
    """
    b = len(seeds)
    gens = [np.random.Generator(np.random.Philox(key=int(s))) for s in seeds]

    x = np.repeat(arr.coords(rho0_mat[None]), b, axis=0)
    weights = np.full(b, np.trace(rho0_mat).real)
    alive = np.ones(b, dtype=bool)
    underflow = np.zeros(b, dtype=bool)
    linear = mode == "linear"

    entropy = _entropy_rows(x, weights if linear else None)
    collector.collect(0, x, weights, entropy, None, None, None, None, alive)

    dt = grid.dt
    n_steps = grid.n_steps
    s = arr.substeps(dt) if mode == "posterior" else 1
    chunk = max(1, min(_CHUNK, n_steps) // s)
    shape = (b, chunk) if s == 1 else (b, chunk, s)
    normals = np.empty(shape + (arr.n_diff,))
    uniforms = np.empty(shape + (arr.K,))
    sqdt = math.sqrt(dt / s)
    for start in range(0, n_steps, chunk):
        clen = min(chunk, n_steps - start)
        for g, nrm, uni in zip(gens, normals, uniforms):
            g.standard_normal(out=nrm[:clen])
            if arr.K:
                g.random(out=uni[:clen])
        normals[:, :clen] *= sqdt
        step_dW = normals if s == 1 else normals[:, :clen].sum(axis=2)
        for l in range(clen):
            dW = step_dW[:, l]
            u = uniforms[:, l] if s == 1 else None
            defect = None
            if linear:
                x, weights, fired = _step_linear(arr, x, dt, dW, u)
                low = weights < _WEIGHT_FLOOR
                if low.any():
                    underflow |= low
                    zero = weights <= 0.0
                    if zero.any():
                        idx = np.flatnonzero(zero)
                        x[idx] = _WEIGHT_FLOOR * arr.mixed
                        weights[idx] = _WEIGHT_FLOOR
                m_drift = None
                entropy = _entropy_rows(x, weights)
            elif mode == "posterior":
                sub = None if s == 1 else (normals[:, l], uniforms[:, l])
                x, fired, m_drift = _step_posterior(arr, x, dt, dW, u, adaptive, sub)
                entropy = _entropy_rows(x)
            else:
                x, defect, m_drift = _step_stratonovich(arr, x, dt, dW)
                fired = None
                entropy = _entropy_rows(x)

            # the entropy is finite exactly when the row is (|x|^2 carries
            # every inf and nan); in linear mode the weight is checked too
            bad = ~np.isfinite(entropy)
            if linear:
                bad |= ~np.isfinite(weights)
            if bad.any():
                newly = bad & alive
                alive &= ~bad
                idx = np.flatnonzero(newly)
                x[idx] = arr.mixed
                weights[idx] = 1.0
                entropy[idx] = 0.0
            collector.collect(
                start + l + 1, x, weights, entropy, fired, dW, m_drift, defect, alive
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
    """One trajectory recorded in full, as its public trajectory result."""
    arr = _ModelArrays(m)
    coll = _PathCollector(arr, mode, grid)
    _, under = _simulate_batch(arr, mode, rho0_mat, grid, [seed], coll, adaptive=adaptive)
    return coll.result(bool(under[0]))


def simulate_linear(
    m: MeasurementModel, rho0: QuantumState, grid: TimeGrid, seed: int
) -> LinearTrajectory:
    """One trajectory of the unnormalized equation under the reference law.

    Deterministic given the seed.  The trace is kept as the trajectory
    weight and is never renormalized; every state on the path is positive.
    """
    return _simulate_path(m, "linear", _prepare_rho0(m, rho0), grid, seed)


def simulate_posterior(
    m: MeasurementModel,
    rho0: QuantumState,
    grid: TimeGrid,
    seed: int,
    adaptive: bool = True,
) -> PosteriorTrajectory:
    """One trajectory of the nonlinear equation under the physical law.

    Every state on the path is a valid state.  Substepping depends
    only on the model and dt: when max_k nu_k lambda_max(E_k) dt, the
    largest jump intensity per step any state can reach, exceeds 0.1,
    every step is split into the same number of substeps
    (``adaptive=True``, the default), or StepTooLarge is raised at the
    first step (``adaptive=False``).
    """
    return _simulate_path(m, "posterior", _prepare_rho0(m, rho0), grid, seed, adaptive)


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
    return _simulate_path(m, "stratonovich", psi0.projector(), grid, seed)


# -- ensembles ----------------------------------------------------------------

def _merge_collectors(a: _StatsCollector, b: _StatsCollector) -> _StatsCollector:
    """Chan-merge two block collectors into the first (in trajectory order)."""
    ca, cb = a.count, b.count
    tot = ca + cb
    safe = np.where(tot > 0, tot, 1)
    frac = np.where(tot > 0, cb / safe, 0.0)[:, None]
    wpair = (ca * cb / safe)[:, None]

    delta = b.mean - a.mean
    a.m2 += b.m2 + delta**2 * wpair
    a.mean += delta * frac

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
    (m, mode, rho0_mat, grid, seeds, observable, adaptive, keep_path) = args
    arr = _ModelArrays(m)
    coll = _StatsCollector(arr, mode, grid, observable, keep_path)
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
    of the worker count (``QTRAJ_THREADS``).  The full path of trajectory 0,
    recorded in the same pass, is returned as ``trajectory``.
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
        blocks.append((m, mode, rho0_mat, grid, seeds, observable, adaptive, start == 0))

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
    denom = np.where(cnt > 1, cnt * np.maximum(cnt - 1, 1), 1).astype(float)
    se = np.sqrt(merged.m2 / denom[:, None]) * (cnt > 1)[:, None]
    mean = merged.mean
    n = m.dim
    ent = 2 * n * n  # columns of the state entries; then tr(O* rho), weight, entropy
    se_state = se[:, :ent].reshape(-1, n, n, 2)

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

    has_obs = observable is not None
    stats = EnsembleStats(
        mode=mode,
        times=grid.times,
        n_traj=n_traj,
        n_failed=n_failed,
        n_underflow=int(under.sum()),
        mean_state=mean[:, :ent].copy().view(np.complex128).reshape(-1, n, n),
        se_state_re=se_state[..., 0].copy(),
        se_state_im=se_state[..., 1].copy(),
        mean_weight=mean[:, -2].copy(),
        se_weight=se[:, -2].copy(),
        mean_entropy=mean[:, -1].copy(),
        se_entropy=se[:, -1].copy(),
        max_entropy_per_traj=merged.entropy_max,
        max_purity_defect_per_traj=merged.defect_max,
        jump_count_mean=jmean,
        jump_count_se=jse,
        wiener_increment_mean=wmean,
        wiener_increment_var=wvar,
        obs_mean=mean[:, ent] + 1j * mean[:, ent + 1] if has_obs else None,
        obs_se_re=se[:, ent].copy() if has_obs else None,
        obs_se_im=se[:, ent + 1].copy() if has_obs else None,
        trajectory=merged.path.result(bool(under[0])),
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
