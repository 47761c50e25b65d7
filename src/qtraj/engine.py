"""Stochastic integration of the continual-measurement dynamics.

The schemes and their step kernels live in ``steps``; this module drives
them over batches of trajectories and reduces the results.  The state is
one C-contiguous (N, B) array of coherence-vector coordinate columns,
N = n^2, from the initial state to the last step, and the kernels are
passed its transpose, (B, N) rows, as a view; the noise of a flush and the
flush buffers have the batch B as their contiguous axis too.  The
kernels' products pad the batch to a multiple of 8 columns, so a
trajectory's path does not depend on its batch for n <= 8, on
scipy-openblas 0.3.31 (see ``steps``).  States are converted to complex
matrices only when a public result is built.

The step loop does per step only the step and, in linear mode, the
weight-underflow reset.  A row's trace is its trajectory's weight (always 1
outside linear mode), and the output drift of a step is a functional of the
row it starts from, so neither is carried beside the rows.  Each step's
output rows are buffered; once per flush, a block of up to ``_FLUSH``
row-steps ending at the latest with its noise chunk, one sum checks them
for nan and inf, and what is recorded (the entropy, the collector's
statistics and paths) is computed.  So a long trajectory pays per step
little more than its own products.  A row fails at its first record that is
not finite: rho_t = sigma_t / tr sigma_t is defined only while the trace is
finite and positive, so the row has no state from there on, only NaN.

Well-posedness of the continuous equations beyond special cases is an open
question; at fixed step size and seed the schemes compute one
unambiguous numerical solution, which is what all outputs refer to.

Trajectory-level randomness comes from one counter-based Philox stream
keyed by ``seed + trajectory_index``, which also supplies the noise of
posterior substeps, so ensembles are reproducible and
embarrassingly parallel; ``QTRAJ_THREADS`` counts processes, the caller
included.  Results do not depend on that count: trajectories are reduced in
index order over fixed-size blocks.  A batch builds one Philox bit
generator and keys it per trajectory by setting its state (key
``seed + trajectory_index``, counter 0), which draws what a generator
built for that key would, at a fraction of the cost.  The sums of a flush
over a batch's trajectories are BLAS products with a ones vector.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    EnsembleFailure,
    JumpChannelsPresent,
    NoDiffusiveChannels,
    NotPurePreserving,
    NumericalError,
    ValidationError,
)
from .linalg import PureStateVector, QuantumState, _count, _philox, _philox_key, _philox_state
from .model import MeasurementModel

# The driver calls the kernels through this module's names, so patching
# ``engine._step_*`` reaches it; the helpers below the kernels are imported
# too, so that code timing or testing them finds them here as well.
from .steps import (  # noqa: F401
    _apply_k_b,
    _cols,
    _dot,
    _ModelArrays,
    _posterior_substep,
    _posterior_substeps,
    _project_pure_b,
    _step_linear,
    _step_posterior,
    _step_stratonovich,
    _strat_a_b,
)

RNG_ALGORITHM = "philox4x64"

_BLOCK = 512          # trajectories integrated together per batch
_CHUNK = 4096         # steps of noise drawn per generator call
_FLUSH = 4096         # row-steps buffered per collector call
_WEIGHT_FLOOR = 1e-14

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


@dataclass
class OutputRecord:
    """Measurement record of one trajectory.

    Both output processes are stored as per-step increments in one layout,
    row i for the step from t_i to t_{i+1}: ``wiener`` (n_steps, d) holds dW
    (under the reference law for the linear scheme; the output increments
    dW = dW~ + m dt under the physical law otherwise) and ``jump_counts``
    (n_steps, K) int64 the counts dN_k.  ``compensated_wiener`` holds the
    standard increments dW~ drawn under the physical law, else None.
    """

    wiener: np.ndarray
    jump_counts: np.ndarray
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
        i = int(round(t / dt)) if math.isfinite(t) else -1
        if not 0 <= i < self.times.shape[0]:
            raise ValidationError(f"time {t} outside the recorded grid")
        return i


def _entropy(x: np.ndarray, tr0: float) -> np.ndarray:
    """Linear entropy of the normalized states of coordinate columns x
    (N, ...), 1 - |x|^2 / (2 w^2), where w = tr0 x_0 > 0 is the trace."""
    return 1.0 - 0.5 * _dot(x, x) / np.square(tr0 * x[0])


# -- collectors ---------------------------------------------------------------
#
# ``_simulate_batch`` hands its records over once per flush, as
# collect(i, state, entropy, fired, dW, defect, alive) with records
# i .. i + F - 1 in its buffers, valid only during the call, whose last axis
# is the batch B: coordinate columns (N, F, B), whose trace tr0 x_0 is the
# weight, entropy and alive (F, B), False (and state and entropy NaN) from
# the record at which a trajectory failed on.  fired (K, F, B), dW (F, d, B)
# and defect (F, B) come from the steps that end at those records; they are
# None at record 0, and defect is None outside the Stratonovich scheme too.
# K and d may be 0.

class _PathCollector:
    """Records the full path of trajectory 0 of every batch it is given.

    Each flush is copied into per-record arrays by slice assignment, and
    ``result`` turns them into the public trajectory once.
    """

    def __init__(self, arr: _ModelArrays, mode: str, grid: TimeGrid):
        n_rec = grid.n_steps + 1
        self.arr = arr
        self.mode = mode
        self.grid = grid
        self.rows = np.zeros((n_rec, arr.n * arr.n))
        self.entropy = np.zeros(n_rec)
        self.dW = np.zeros((grid.n_steps, arr.n_diff))
        self.fired = np.zeros((grid.n_steps, arr.K), dtype=np.int64)
        self.defect = np.zeros(grid.n_steps)

    def collect(self, i, state, entropy, fired, dW, defect, alive):
        f = state.shape[1]
        self.rows[i:i + f] = state[:, :, 0].T
        self.entropy[i:i + f] = entropy[:, 0]
        if dW is None:
            return
        steps = slice(i - 1, i - 1 + f)
        self.dW[steps] = dW[:, :, 0]
        self.fired[steps] = fired[:, :, 0].T
        if defect is not None:
            self.defect[steps] = defect[:, 0]

    def result(self, underflow: bool):
        """The public trajectory, with the path converted to matrices once."""
        states = self.arr.matrices(self.rows)
        if self.mode == "linear":
            output = OutputRecord(self.dW, self.fired)
            weights = self.arr.tr0 * self.rows[:, 0]
            return LinearTrajectory(self.grid, states, weights, output, self.entropy, underflow)
        # output increments dW = dW~ + m dt, m at the row each step starts from
        m_drift = _cols(self.rows[:-1].T, self.arr.drift).T
        output = OutputRecord(self.dW + m_drift * self.grid.dt, self.fired, self.dW)
        defect = float(np.fmax.reduce(self.defect, initial=0.0))
        return PosteriorTrajectory(self.grid, states, output, self.entropy, defect)


class _StatsCollector:
    """Streaming per-record mean/M2 aggregates over one batch of b trajectories.

    Each flush converts its states, in one product, to the rows
    [re, im of the state's entries | re, im of tr(O* rho) | weight | entropy]
    (the entropy goes into a zero row of the product, so nothing is
    copied) and stores their mean and M2 per record over the trajectories
    alive there (dead ones, NaN, are set to 0 unless every trajectory is
    alive).  The sums over the batch, the last axis, are products with a
    ones vector, one BLAS gemv each.  It also adds the
    alive trajectories' jump counts and Wiener sums.  With ``keep_path`` it
    also records trajectory 0's full path.
    """

    def __init__(self, arr: _ModelArrays, mode, grid, observable, keep_path, b):
        n_rec = grid.n_steps + 1
        to_cols = arr._from
        if observable is not None:
            unit = arr.matrices(np.eye(arr.n * arr.n))  # the matrix of each unit row
            obs = np.einsum("ij,aji->a", observable.conj().T, unit)
            to_cols = np.hstack([to_cols, np.stack([obs.real, obs.imag], axis=1)])
        e0 = np.eye(arr.n * arr.n)[:, :1]  # the weight tr0 x_0, then the entropy's slot
        to_cols = np.hstack([to_cols, arr.tr0 * e0, 0.0 * e0])
        self.to_cols = to_cols
        self.count = np.zeros(n_rec, dtype=np.int64)
        self.mean = np.zeros((n_rec, self.to_cols.shape[1]))
        self.m2 = np.zeros_like(self.mean)
        self.path = _PathCollector(arr, mode, grid) if keep_path else None
        self.ones = np.ones(b)
        self.jump_totals = np.zeros((arr.K, b), dtype=np.int64)
        self.wiener_s1 = np.zeros(arr.n_diff)
        self.wiener_s2 = np.zeros(arr.n_diff)
        self.wiener_n = 0
        self.entropy_max = np.zeros(b)
        self.defect_max = np.zeros(b)  # stratonovich pre-projection defect
        self.alive = None
        self.underflow = None

    def collect(self, i, state, entropy, fired, dW, defect, alive):
        if self.path is not None:
            self.path.collect(i, state, entropy, fired, dW, defect, alive)
        n, f, b = state.shape
        np.maximum(self.entropy_max, entropy.max(axis=0), out=self.entropy_max)
        if defect is not None:
            np.maximum(self.defect_max, defect.max(axis=0), out=self.defect_max)
        vals = (self.to_cols.T @ state.reshape(n, f * b)).reshape(-1, f, b)
        vals[-1] = entropy
        live = None if alive.all() else alive
        if live is not None:
            vals[:, ~live] = 0.0  # by assignment: NaN * 0 is NaN
        cnt = np.full(f, b) if live is None else alive.sum(axis=1)
        mean = (vals.reshape(-1, b) @ self.ones).reshape(-1, f)
        mean /= np.maximum(cnt, 1)
        vals -= mean[:, :, None]
        if live is not None:
            vals *= live
        recs = slice(i, i + f)
        self.count[recs] = cnt
        self.mean[recs] = mean.T
        np.square(vals, out=vals)
        self.m2[recs] = (vals.reshape(-1, b) @ self.ones).reshape(-1, f).T
        if dW is None:
            return
        if live is not None:
            fired = fired * live
            dW = dW * live[:, None]
        self.jump_totals += fired.sum(axis=1)
        self.wiener_s1 += dW.sum(axis=(0, 2))
        self.wiener_s2 += np.square(dW).sum(axis=(0, 2))
        self.wiener_n += int(cnt.sum()) if dW.shape[1] else 0


# -- core driver --------------------------------------------------------------

def _batch_last(a: np.ndarray) -> np.ndarray:
    """(B, F, k) noise as its (F, k, B) copy."""
    return a.transpose(1, 2, 0).copy()


def _simulate_batch(
    arr: _ModelArrays,
    mode: str,
    rho0_mat: np.ndarray,
    grid: TimeGrid,
    seeds,
    collector,
):
    """Integrate a batch of trajectories with per-trajectory Philox streams.

    Noise is drawn per trajectory in chunks of steps (normals first, then
    jump uniforms), so a trajectory's randomness depends only on its seed.
    The batch builds one Philox bit generator; each trajectory's draws
    start by setting its state to key = seed, counter 0, and its state is
    saved after them only when another chunk follows.
    The driver decides the posterior substep count s = ``arr.substeps(dt)``
    once and passes it to the kernel.  At s > 1 it draws the noise of every
    substep, in chunks of min(_CHUNK, n_steps) // s steps so that a chunk
    holds no more values than at s = 1; a step's dW is the sum of its
    substep increments.  The state is held as (N, B) coordinate columns
    throughout, as the kernels return them, and the loop handles it as
    their transpose, the (B, N) rows it passes to the kernels.

    Each step runs the kernel and, in linear mode, the weight-underflow reset
    of finite rows.  It writes its outputs into buffers of
    F = max(1, min(_FLUSH // B, chunk)) steps, with the batch as their
    contiguous axis.  A flush, after F steps or at the end of a noise chunk,
    checks finiteness with one ``np.add.reduce`` over the buffer; a row
    fails at its first non-finite record, its ``failed_at``, and its records
    are NaN from there on.  It is carried to the end of the run as the
    kernels leave it, with numpy's warnings off (``np.errstate``), so
    failures show only as counts.  The flush then computes the entropy of
    the whole (N, F, B) block and hands it to ``collector.collect``.
    Returns (alive, underflow) masks.
    """
    b = len(seeds)
    keyed = [_philox_state(s) for s in seeds]  # checks every key before any work
    gen = _philox(0)  # the batch's one bit generator, rekeyed per trajectory
    bits = gen.bit_generator
    dt = grid.dt
    n_steps = grid.n_steps
    linear = mode == "linear"
    strat = mode == "stratonovich"
    s = arr.substeps(dt) if mode == "posterior" else 1
    chunk = max(1, min(_CHUNK, n_steps) // s)
    flush = max(1, min(_FLUSH // b, chunk))

    x = np.repeat(arr.cols(rho0_mat[None]), b, axis=1).T  # rows, a view of the columns
    underflow = np.zeros(b, dtype=bool)
    failed_at = np.full(b, n_steps + 1)  # the record at which each row failed
    # buffers of one flush
    xs = np.empty((x.shape[1], flush, b))
    fs = np.empty((arr.K, flush, b), dtype=np.int64)
    ds = np.empty((flush, b)) if strat else None

    def flush_records(i, count, dW):
        """Hand records i .. i + count - 1 from the buffers to the collector;
        dW is None for record 0, which ends no step."""
        cols = xs[:, :count]
        recs = failed_at - np.arange(i, i + count)[:, None]
        if failed_at.min() < i + count:
            cols[:, recs <= 0] = np.nan  # no state from the failure record on
        entropy = _entropy(cols, arr.tr0)
        fired = None if dW is None else fs[:, :count]
        defect = None if dW is None or ds is None else ds[:count]
        collector.collect(i, cols, entropy, fired, dW, defect, recs > 0)

    xs[:, 0] = x.T
    flush_records(0, 1, None)

    shape = (b, chunk) if s == 1 else (b, chunk, s)
    normals = np.empty(shape + (arr.n_diff,))
    uniforms = np.empty(shape + (arr.K,))
    sqdt = math.sqrt(dt / s)
    for start in range(0, n_steps, chunk):
        clen = min(chunk, n_steps - start)
        more = start + clen < n_steps
        for t, (nrm, uni) in enumerate(zip(normals, uniforms)):
            bits.state = keyed[t]
            gen.standard_normal(out=nrm[:clen])
            if arr.K:
                gen.random(out=uni[:clen])
            if more:
                keyed[t] = bits.state
        normals[:, :clen] *= sqdt
        step_dW = normals if s == 1 else normals[:, :clen].sum(axis=2)
        for f0 in range(0, clen, flush):
            count = min(flush, clen - f0)
            dWs = _batch_last(step_dW[:, f0:f0 + count])
            us = _batch_last(uniforms[:, f0:f0 + count]) if s == 1 else None
            with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
                for j in range(count):
                    dW, u = dWs[j].T, None if us is None else us[j].T
                    if linear:
                        x, fired = _step_linear(arr, x, dt, dW, u)
                        w = arr.tr0 * x[:, 0]
                        low = w < _WEIGHT_FLOOR
                        if low.any():
                            low &= w > -math.inf  # a row of weight -inf has failed
                            underflow |= low
                            x[low & (w <= 0.0)] = _WEIGHT_FLOOR * arr.mixed
                    elif strat:
                        x, ds[j] = _step_stratonovich(arr, x, dt, dW)
                    else:
                        noise = None if s == 1 else (normals[:, f0 + j], uniforms[:, f0 + j])
                        x, fired = _step_posterior(arr, x, dt, dW, u, s, noise)
                    xs[:, j] = x.T
                    if arr.K:  # without jump channels fs is empty
                        fs[:, j] = fired.T
                # A row fails at its first record with an entry (and so its weight)
                # not finite; a finite row is a state of trace w > 0, with a finite
                # entropy.  One sum finds any nan or inf, then rows are checked.
                if not math.isfinite(np.add.reduce(xs[:, :count], axis=None)):
                    bad = ~np.isfinite(xs[:, :count]).all(axis=0)  # (F, B)
                    first = start + f0 + 1 + bad.argmax(axis=0)
                    np.minimum(failed_at, np.where(bad.any(axis=0), first, n_steps + 1),
                               out=failed_at)
            flush_records(start + f0 + 1, count, dWs)
    return failed_at > n_steps, underflow


def _initial(m: MeasurementModel, mode: str, state) -> np.ndarray:
    """The initial matrix of a run, by the rule ``run_ensemble`` states."""
    if state.dim != m.dim:
        kind = "vector" if isinstance(state, PureStateVector) else "state"
        raise DimensionMismatch(f"initial {kind} dimension does not match the model")
    if mode == "stratonovich":
        if m.n_jump:
            raise JumpChannelsPresent("stratonovich scheme requires a diffusive model")
        if m.dissipative_nonzero:
            raise NotPurePreserving("dissipative operators break pure-state preservation")
        if m.n_diffusive == 0:
            raise NoDiffusiveChannels("stratonovich scheme needs diffusive operators")
    if isinstance(state, PureStateVector):
        return state.projector()
    if mode != "stratonovich":
        return np.array(state.matrix)
    evals, evecs = np.linalg.eigh(state.matrix)
    if 1.0 - float(evals[-1]) > 1e-9:
        raise ValidationError("stratonovich mode needs a pure initial state")
    return np.outer(evecs[:, -1], evecs[:, -1].conj())


def _simulate_path(m, mode, state, grid, seed):
    """One trajectory recorded in full, as its public result; a failed one is
    a ``NumericalError``."""
    rho0_mat = _initial(m, mode, state)
    arr = _ModelArrays(m)
    coll = _PathCollector(arr, mode, grid)
    alive, under = _simulate_batch(arr, mode, rho0_mat, grid, [seed], coll)
    if not alive[0]:
        t = grid.times[np.isnan(coll.rows[:, 0]).argmax()]
        raise NumericalError(f"the {mode} trajectory of seed {seed} is not finite at t = {t:g}")
    return coll.result(bool(under[0]))


def simulate_linear(
    m: MeasurementModel, rho0: QuantumState, grid: TimeGrid, seed: int
) -> LinearTrajectory:
    """One trajectory of the unnormalized equation under the reference law.

    Deterministic given the seed.  The trace is kept as the trajectory
    weight and is never renormalized; every state on the path is positive.
    Raises ``NumericalError`` if the path does not stay finite.
    """
    return _simulate_path(m, "linear", rho0, grid, seed)


def simulate_posterior(
    m: MeasurementModel, rho0: QuantumState, grid: TimeGrid, seed: int
) -> PosteriorTrajectory:
    """One trajectory of the nonlinear equation under the physical law.

    Every state on the path is a valid state.  A model with jump channels
    takes the exact waiting-time step, after the Kraus step of its
    diffusive part if it has diffusive operators (see ``steps``).  When the
    largest number of jumps any state can expect in a step,
    lambda_max(sum_k nu_k E_k) dt, exceeds 4, every step is split into the
    fewest equal substeps that bring it within 4.  Raises
    ``NumericalError`` if the path does not stay finite.
    """
    return _simulate_path(m, "posterior", rho0, grid, seed)


def simulate_stratonovich_pure(
    m: MeasurementModel, psi0: PureStateVector, grid: TimeGrid, seed: int
) -> PosteriorTrajectory:
    """Heun integration of the Stratonovich pure-state system.

    Starts from the projector of ``psi0`` under the rule of ``run_ensemble``'s
    stratonovich mode.  Every step is re-projected onto the dominant
    eigenvector, and the largest observed pre-projection purity defect is
    reported on the trajectory.  Raises ``NumericalError`` if the path does
    not stay finite.
    """
    return _simulate_path(m, "stratonovich", psi0, grid, seed)


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
    a.jump_totals = np.concatenate([a.jump_totals, b.jump_totals], axis=1)
    a.entropy_max = np.concatenate([a.entropy_max, b.entropy_max])
    a.defect_max = np.concatenate([a.defect_max, b.defect_max])
    a.alive = np.concatenate([a.alive, b.alive])
    a.underflow = np.concatenate([a.underflow, b.underflow])
    a.wiener_s1 += b.wiener_s1
    a.wiener_s2 += b.wiener_s2
    a.wiener_n += b.wiener_n
    return a


def _run_block(args):
    (m, mode, rho0_mat, grid, seeds, observable, keep_path) = args
    arr = _ModelArrays(m)
    coll = _StatsCollector(arr, mode, grid, observable, keep_path, len(seeds))
    alive, under = _simulate_batch(arr, mode, rho0_mat, grid, seeds, coll)
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
) -> EnsembleStats:
    """Streaming Monte-Carlo aggregates over ``n_traj`` trajectories.

    Trajectory i uses the Philox stream keyed ``seed + i``.  In linear mode
    the mean state is the plain average of the unnormalized matrices, which
    estimates the a-priori state by reweighting; in posterior and
    stratonovich modes it is the average of the normalized states.
    ``rho0`` must have the model's dimension.  Stratonovich mode needs a
    diffusive, pure-state-preserving model and a pure ``rho0`` (top
    eigenvalue within 1e-9 of 1), and starts from its top eigenvector.

    Trajectories run in blocks of ``_BLOCK``.  With P = min(``QTRAJ_THREADS``,
    blocks), the calling process runs blocks 0, P, 2P, ... while a pool of
    P - 1 worker processes runs the others, so no process idles beside the
    pool.  Blocks are reduced in index order, so results are independent of
    ``QTRAJ_THREADS``.  The full path of trajectory 0, recorded in the same
    pass, is returned as ``trajectory``.  A trajectory fails at its first
    record that is not finite; ``n_failed`` counts it, it leaves the
    per-record statistics from there on and the jump counts altogether, and
    its per-trajectory maxima are NaN.  Trajectory 0's path is NaN from its
    failure record on, and ``n_underflow`` counts only underflows before a
    row failed.  More than 1 % failed raises ``EnsembleFailure``.  Posterior
    steps are substepped as in ``simulate_posterior``.  Every key is checked
    before the first block runs.
    """
    n_traj = _count(n_traj, "n_traj")
    _philox_key(seed)
    _philox_key(seed + n_traj - 1)
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}")
    rho0_mat = _initial(m, mode, rho0)
    if observable is not None:
        observable = np.asarray(observable, dtype=np.complex128)
        if observable.shape != (m.dim, m.dim):
            raise DimensionMismatch("observable dimension does not match the model")
        if not np.isfinite(observable).all():
            raise ValidationError("observable must be finite")

    blocks = []
    for start in range(0, n_traj, _BLOCK):
        seeds = [seed + i for i in range(start, min(start + _BLOCK, n_traj))]
        blocks.append((m, mode, rho0_mat, grid, seeds, observable, start == 0))

    text = os.environ.get("QTRAJ_THREADS", "1") or "1"
    try:
        threads = int(text)
    except ValueError:
        raise ValidationError(f"QTRAJ_THREADS must be an integer, not {text!r}") from None
    if threads < 1:
        raise ValidationError(f"QTRAJ_THREADS must be at least 1, not {threads}")
    p = min(threads, len(blocks))
    if p == 1:
        results = [_run_block(b) for b in blocks]
    else:
        results = [None] * len(blocks)
        rest = [i for i in range(len(blocks)) if i % p]
        # the fork start method launches every worker up front, busy or not
        with ProcessPoolExecutor(max_workers=p - 1) as pool:
            # map submits the pool's blocks before the caller starts its own
            theirs = pool.map(_run_block, [blocks[i] for i in rest])
            results[::p] = [_run_block(b) for b in blocks[::p]]
            for i, coll in zip(rest, theirs):
                results[i] = coll

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

    totals = merged.jump_totals[:, alive].astype(float)
    k = totals.shape[1]
    jmean = totals.sum(axis=1) / max(k, 1)
    jse = totals.std(axis=1, ddof=1) / math.sqrt(k) if k > 1 else np.zeros(m.n_jump)
    wn = max(merged.wiener_n, 1)  # the sums are 0 when nothing was added
    wmean = merged.wiener_s1 / wn
    wvar = merged.wiener_s2 / wn - wmean**2

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
