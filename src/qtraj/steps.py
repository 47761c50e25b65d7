"""The step kernels, on the model's maps in coherence-vector coordinates.

Three schemes are provided:

* ``linear``       -- the unnormalized equation under the reference law,
  jumps fired per channel with state-independent probability nu_k dt.
* ``posterior``    -- the normalized nonlinear equation under the physical
  law.  A model without jump channels takes one normalized Kraus step.  A
  model with jump channels takes the exact waiting-time step described
  below, after the normalized Kraus step of its diffusive part alone if it
  has diffusive operators.  A step is split into a number of substeps that
  depends only on the model and dt (``_ModelArrays.substeps``).
* ``stratonovich`` -- Heun (stochastic midpoint) integration of the
  equivalent Stratonovich system on the pure-state manifold, with a
  projection onto the dominant eigenvector after every step.

The linear scheme and the posterior scheme of a model without jump
channels take one completely positive Kraus step (Rouchon & Ralph, PRA 91,
012118, 2015; Guevara & Wiseman, PRA 102, 052217, 2020):
sigma -> M sigma M* + dt sum_h S_h sigma S_h*, with
M = I + dt G + sum_j xi_j L_j and G = -i H - (D1 + D2 + D3)/2; the linear
scheme takes sigma -> sum_k J_k[sigma] over the channels that fire
instead.  States therefore stay positive by construction, with no repair,
and so they do under the waiting-time step.  The linear scheme uses
xi = dW and rescales the image to the Euler-Maruyama trace
w = tr sigma + dt tr K[sigma] + sum_j m_j dW_j (+ lambda_k - tr sigma per
fired channel), so the weight is an exact discrete martingale; a row whose
image or w is not positive gets weight 0 and the underflow reset.  The
posterior scheme uses the output increment xi = dW + m dt (m at the start
of the step) and divides by the trace.  Each Kraus step is one product, the
images of E0, C_j and P_jl (j <= l), and one contraction of them with the
coefficients ext_i ext_l, i <= l, of ext = (1, xi).

The state is carried as coherence-vector coordinates (Alicki & Lendi,
LNP 286): over the orthonormal Hermitian basis {I/sqrt(n), tau_a} a state
is a real n^2-vector and every Hermiticity-preserving map is a real
n^2 x n^2 matrix.  The Kraus pieces, the jump maps and the pieces of the
Stratonovich fields are derived once per model from ``model.apply_*``
and stacked side by side, so each evaluation of a step is one real
matrix product, ``_cols``: stack.T @ x on a batch of B coordinate
columns x (N, B), N = n^2, as one BLAS gemm on a C-contiguous copy of x
padded with zero columns to a multiple of 8 (no copy if x is one already).
Everything after the product runs on (., B) arrays, so per-trajectory
scalars broadcast along the contiguous axis; the kernels still take and
return (B, N) rows, the transpose of such columns.  gemm then rounds each
column on its own, and a trajectory's path depends neither on its batch
nor on the memory order of its input: ``TestRowProducts``,
``TestMemoryOrder`` and ``TestBatchIndependence`` in ``tests/test_engine.py``
pin this for every stack the engine uses on diffusive, mixed and
counting-only models up to n = 8, on scipy-openblas 0.3.31 only; another
BLAS may pick other kernels for small products.  Without the padding the
n = 6-8 stacks round per batch, the drift stack among them.

The waiting-time step (Dalibard, Castin & Molmer, PRL 68, 580, 1992;
Plenio & Knight, RMP 70, 101, 1998, sec. III) samples the counting process
with no cap.  Between counts the unnormalized state follows
P(t) = exp(t K0), K0 = K - L1 - sum_k nu_k id, so the probability of no
count in [0, t] is the survival tr P(t) rho.  A row jumps in a step iff its
uniform u is >= the step survival q, which has probability exactly 1 - q.
The jump takes place at the nearer end, in expectation, of the interval of
a fixed grid of ``_GRID`` points per step in which the survival falls to u,
so jump times are rounded to that grid without bias to first order; the
channel is drawn there with probability proportional to nu_k lambda_k.
Further jumps reuse the uniforms left over by earlier draws, whose bits
last for about 8 jumps, and each jump moves a row at least one grid point
past the one before, a dead time that undercounts by 1.4 % at 40 jumps per
step even with a fresh uniform per jump.  For both reasons a step whose
bound lambda_max(sum_k nu_k E_k) dt on the expected number of jumps exceeds
``_JUMP_BOUND`` is split into the fewest substeps that keep it within.

A model with both diffusive operators and jump channels takes one
Lie-Trotter split step: first the normalized Kraus step of its diffusive
part L1 alone, with M = I - dt D1/2 + sum_j xi_j L_j and xi = dW + m dt (m
at the start of the step), then the waiting-time step, in which H, the S_h
and the no-count damping of K0 are exact.  The split is first order in dt:
L1 does not commute with the rest of the generator, and each step is off
by O(dt^2).  Without diffusive operators L1 = 0, and the step is exact up
to the jump-time grid.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import _expm, coherence_basis, superoperator_matrix
from .model import MeasurementModel, apply_jump, apply_k, apply_l0, apply_l1

_GRID = 256  # jump-time grid points per waiting-time step
_JUMP_BOUND = 4.0  # max expected jumps per waiting-time step


# -- model in real coordinates ------------------------------------------------

def _cols(x: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """mat.T @ x for coordinate columns x (N, B): one gemm on a C-contiguous
    copy of x padded with zero columns to a multiple of 8, unless x is one
    already (see the module docstring).  Below 8 columns np.dot costs less
    than @ and rounds alike, and a contiguous copy of its result speeds up
    the small-array operations after it."""
    b = x.shape[1]
    if b % 8 == 0:
        return mat.T @ np.ascontiguousarray(x)
    pad = np.zeros((x.shape[0], b + -b % 8))
    pad[:, :b] = x
    if b < 8:
        return np.dot(mat.T, pad)[:, :b].copy()
    return (mat.T @ pad)[:, :b]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sums of a * b over axis 0 (of length >= 2), of the even and the odd
    terms apart and then added: the order in which numpy's einsum sums a
    short contiguous row, so that at n = 2 the entropy and the Bloch radius
    round as einsum("bi,bi->b") rounds them on rows.  The fixed order also
    keeps entropies independent of the flush and batch shapes: numpy's own
    reductions, such as np.square(x).sum(axis=0), change their order with
    the shape and move an n = 3 entropy path between flush sizes."""
    p = a * b
    lanes = [p[0], p[1]]
    for i in range(2, len(p)):
        lanes[i % 2] = lanes[i % 2] + p[i]
    return lanes[0] + lanes[1]


def _csum(coef: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """sum_c coef[c] blocks[c]: (c, B) and (c, N, B) -> (N, B); one term
    takes a plain product, which costs less than einsum."""
    if len(coef) == 1:
        return coef[0] * blocks[0]
    return np.einsum("cb,cab->ab", coef, blocks)


def _cuts(*widths) -> list:
    """Slices of consecutive blocks with the given widths."""
    ends = np.cumsum(widths).tolist()
    return [slice(a, b) for a, b in zip([0] + ends, ends)]


class _ModelArrays:
    """The model's maps as real matrices on coherence-vector coordinates.

    Every matrix is derived by ``superoperator_matrix`` from
    ``model.apply_*``, from the Kraus pieces or from a Stratonovich field
    piece, over the orthonormal Hermitian basis {I/sqrt(n), tau_a}, and
    stored transposed, (N, C), so that ``_cols`` applies it to coordinate
    columns (N, B), N = n^2.  The coordinates are sqrt(2) times the
    expansion coefficients, which leaves every matrix unchanged and makes
    them (tr rho, tr sigma_a rho) at n = 2, where converting to and from
    matrices is then exact up to one rounding per entry.

    Each scheme evaluates all of its maps at a point with one product
    against a fused stack, whose column blocks are, left to right:

    * ``kraus(dt)``, for the linear and posterior schemes, built once per
      step size: the Kraus channels E0, C_1..C_d and P_jl (j <= l), the
      functionals m_j = tr G_j[x] and tr x + dt tr K[x], the jump maps
      J_1..J_K and lambda_k = tr J_k[x];
    * ``strat``: the Stratonovich drift piece A, G_1..G_d, m_j and
      c = tr C[rho] / 2.

    ``kraus_cuts`` and ``strat_cuts`` slice the blocks out of the rows of a
    product; ``drift`` is the m_j block alone.
    Models with jump channels also have the waiting-time tables
    ``waiting(dt)``, and those with diffusive operators as well the arrays
    ``diffusive`` of their diffusive part.
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
        # linear parts G_j of the diffusion fields; the output drift m_j = tr G_j[rho]
        gs = [mat(lambda r, op=op: op @ r + r @ op.conj().T) for op in ops]
        drift = traces(gs)
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
        self.pairs = np.triu_indices(d + 1)  # (0, 0), (0, j), (j, l): E0, C_j, P_jl
        ps = [mat(conj_by(ops[j], None if j == l else ops[l]))
              for j, l in zip(*np.triu_indices(d))]
        k_rows = mat(lambda r: apply_k(m, r)).T
        k_trace = k_rows @ trace  # x -> tr K[x]
        # the generator between counts, K0 = K - L1 - sum_k nu_k id
        self._k0 = k_rows - mat(lambda r: apply_l1(m, r)).T - m.total_jump_mass * np.eye(nn)
        self._waiting = {}
        self.diffusive = (
            _ModelArrays(MeasurementModel(n, diffusive_ops=ops)) if d and self.K else None
        )
        # the dt-free pieces of kraus(dt)
        self._kraus_parts = (
            a.T, q.T, stack(gs), stack(xs), stack(ps), drift, trace, k_trace,
            stack(js), traces(js),
        )
        self._kraus = {}
        n_chan = 1 + d + len(ps)
        kx, m_cols, w, jx, lam = _cuts(n_chan * nn, d, 1, self.K * nn, self.K)
        self.kraus_cuts = (kx, m_cols, w.start, jx, lam)  # w is one column
        # Stratonovich drift: A x + sum_j m_j b_j + c x, with A = L0 - C / 2,
        # C = sum_j C_j, C_j[rho] = X_j L_j rho + rho L_j* X_j, X_j = L_j + L_j*
        def c_j(r, op):
            x = op + op.conj().T
            return x @ op @ r + r @ op.conj().T @ x

        c = sum((mat(lambda r, op=op: c_j(r, op)) for op in ops), np.zeros((nn, nn)))
        at = (mat(lambda r: apply_l0(m, r)) - 0.5 * c).T
        self.strat = np.hstack([at, stack(gs), drift, 0.5 * traces([c])])
        self.drift = drift
        self.strat_cuts = _cuts(nn, d * nn, d, 1)
        self.mixed = self.coords(np.eye(n)[None] / n)[0]  # coordinates of I/n
        self.nu = np.array([ch.weight for ch in m.jump_channels])
        # lambda_max(D2), D2 = sum_k nu_k E_k: the largest total jump intensity of any state
        self.peak_total = float(np.linalg.eigvalsh(m.d2)[-1]) if self.K else 0.0

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

    def waiting(self, dt: float):
        """The waiting-time tables at step dt, built on first use and kept per dt.

        With M = ``_GRID``, t_i = i dt / M and P(t) = exp(t K0) acting on rows,
        they are (step, surv, grid, jumps):

        * ``grid`` (M + 1, N, N): P(t_i) for i = 0..M, one ``_expm`` and
          repeated products, and ``step`` = P(dt), its last entry;
        * ``surv`` (N, M): column i - 1 is the survival x -> tr P(t_i) x;
        * ``jumps``: J_1..J_K and lambda_k = tr J_k[x], as in ``kraus``.
        """
        tab = self._waiting.get(dt)
        if tab is None:
            grid = [np.eye(self._k0.shape[0])]
            p = _expm((dt / _GRID) * self._k0)
            for _ in range(_GRID):
                grid.append(grid[-1] @ p)
            grid = np.stack(grid)
            surv = np.ascontiguousarray(self.tr0 * grid[1:, :, 0].T)
            jumps = np.hstack(self._kraus_parts[-2:])
            tab = self._waiting[dt] = (grid[-1], surv, grid, jumps)
        return tab

    def coords(self, mats: np.ndarray) -> np.ndarray:
        """(B, n, n) complex -> (B, n^2) coordinate rows of the Hermitian part."""
        return self.cols(mats).T

    def matrices(self, x: np.ndarray) -> np.ndarray:
        """(B, n^2) coordinate rows -> (B, n, n) complex matrices."""
        flat = np.ascontiguousarray(_cols(x.T, self._from).T)
        return flat.view(np.complex128).reshape(-1, self.n, self.n)

    def cols(self, state: np.ndarray) -> np.ndarray:
        """The (N, B) coordinate columns of a batch: the transpose of (B, n^2)
        rows, a view, or those of (B, n, n) complex matrices, so that the
        step kernels can also be timed on matrix states."""
        if state.ndim == 2:
            return state.T
        flat = np.ascontiguousarray(state, dtype=np.complex128).reshape(state.shape[0], -1)
        return _cols(flat.view(np.float64).T, self._to)

    def substeps(self, dt: float) -> int:
        """Fixed substep count: the fewest substeps in which the bound
        peak_total dt / s on any state's expected number of jumps is at most
        ``_JUMP_BOUND``, so 1 without jump channels.  The ceil forgives
        relative rounding of 1e-12, so a bound of 6.000000000000001 times
        ``_JUMP_BOUND`` still gives 6."""
        return math.ceil(self.peak_total * dt / _JUMP_BOUND * (1.0 - 1e-12)) or 1


def _apply_k_b(arr: _ModelArrays, x: np.ndarray, dt: float):
    """Kraus step pieces at columns x (N, B), one product against
    ``arr.kraus(dt)``: the channel images (E0 x, (C_j x)_j, (P_jl x)_jl) as
    (c, N, B), m (d, B), the drift trace tr x + dt tr K x (B,), (J_k x)_k
    (K, N, B) and lambda (K, B)."""
    nn, b = x.shape
    y = _cols(x, arr.kraus(dt))
    kx, m, w, jx, lam = arr.kraus_cuts
    return y[kx].reshape(-1, nn, b), y[m], y[w], y[jx].reshape(-1, nn, b), y[lam]


def _kraus_image(arr: _ModelArrays, kx: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """The no-jump image E0 x + sum_j xi_j C_j x + sum_{j<=l} xi_j xi_l P_jl x
    (N, B), which is M x M* + dt sum_h S_h x S_h* for M = I + dt G + sum_j xi_j L_j:
    one contraction of kx with ext_i ext_l, (i, l) in ``arr.pairs``, ext = (1, xi)."""
    ext = np.empty((len(xi) + 1, xi.shape[1]))
    ext[0] = 1.0
    ext[1:] = xi
    i, l = arr.pairs
    return np.einsum("cb,cab->ab", ext.take(i, 0) * ext.take(l, 0), kx)


def _strat_a_b(arr: _ModelArrays, x: np.ndarray):
    """Stratonovich fields at rows x (B, N), or (B, n, n) matrices, computed
    on columns in one product: drift a (B, N), diffusion fields
    b_j = G_j x - m_j x (B, n_diff, N), and m (B, n_diff)."""
    x = arr.cols(x)
    nn, b = x.shape
    y = _cols(x, arr.strat)
    ax, gx, m, c = [y[s] for s in arr.strat_cuts]
    bj = gx.reshape(-1, nn, b) - m[:, None] * x
    return (ax + c * x + _csum(m, bj)).T, bj.transpose(2, 0, 1), m.T


# -- projection onto pure states ----------------------------------------------
#
# At n = 2 a coordinate column is (t, r) with eigenvalues (t -+ |r|)/2, so the
# projection is a closed-form rescaling of the Bloch radius |r|.  Larger n
# convert to matrices for eigh.

_GROUND2 = np.array([1.0, 0.0, 0.0, 1.0])  # coordinates of |0><0| at n = 2


def _project_pure_b(arr: _ModelArrays, x: np.ndarray):
    """Project columns (N, B) onto the dominant eigenvector; also return the
    purity defect.

    The defect is the linear entropy of the trace-normalized positive part
    before projection, a per-step measure of how far the scheme drifted
    off the pure-state manifold.
    """
    if arr.n == 2:
        t, r = x[0], np.sqrt(_dot(x[1:], x[1:]))  # trace and Bloch radius
        wmc = np.maximum(0.5 * (t - r), 0.0)
        wpc = np.maximum(0.5 * (t + r), 1e-300)
        s = wmc + wpc
        defect = 1.0 - (wmc**2 + wpc**2) / s**2
        out = x * (1.0 / np.where(r > 0.0, r, 1.0))  # trace 1, radius 1
        out[0] = 1.0
        flat = r == 0.0
        if flat.any():
            out[:, flat] = _GROUND2[:, None]  # no direction: |0><0|
        return out, defect
    mats = arr.matrices(x.T)
    try:
        evals, evecs = np.linalg.eigh(mats)
    except np.linalg.LinAlgError:  # a failed row, which stays non-finite
        fine = np.isfinite(x).all(axis=0)
        evals, evecs = np.full(mats.shape[:2], np.nan), np.full_like(mats, np.nan)
        evals[fine], evecs[fine] = np.linalg.eigh(mats[fine])
    evals = np.clip(evals, 0.0, None)
    s = np.clip(evals.sum(axis=1), 1e-300, None)
    defect = 1.0 - ((evals / s[:, None]) ** 2).sum(axis=1)
    top = evecs[:, :, -1]
    return arr.coords(top[:, :, None] * top.conj()[:, None, :]).T, defect


# -- single steps -------------------------------------------------------------
#
# Each step takes coordinate rows (B, n^2), or complex (B, n, n) matrices,
# with (B, d) noise and (B, K) uniforms, and returns the new rows with only
# what they cannot tell: the jumps fired (B, K), or the Stratonovich purity
# defect.  It computes on the columns ``arr.cols``, a view of the rows, and
# returns the transpose of fresh columns.  A row's weight is its trace, and
# a step's output drift is ``drift`` of the row it starts from.

def _step_linear(arr: _ModelArrays, sig, dt, dW, u):
    """Kraus image with xi = dW (or the fired jump images), rescaled to the
    Euler-Maruyama trace w, its weight; rows whose image or w is not
    positive get w = 0."""
    x = arr.cols(sig)
    xi = dW.T
    kx, m, w, jx, lam = _apply_k_b(arr, x, dt)
    img = _kraus_image(arr, kx, xi)
    if arr.n_diff:
        w = w + (xi * m).sum(axis=0)
    fired = np.zeros((arr.K, x.shape[1]), dtype=np.int64)
    if arr.K:
        fired[:] = u.T < (arr.nu * dt)[:, None]
        idx = np.flatnonzero(fired.any(axis=0))
        if idx.size:
            f = fired[:, idx]
            img[:, idx] = _csum(f, jx[:, :, idx])
            w[idx] += np.einsum("kb,kb->b", f, lam[:, idx] - arr.tr0 * x[0, idx])
    tr_img = arr.tr0 * img[0]
    dead = (tr_img <= 0.0) | (w <= 0.0)
    if dead.any():
        w = np.where(dead, 0.0, w)
        tr_img = np.where(dead, 1.0, tr_img)
    return (img * (w / tr_img)).T, fired.T


def _posterior_substep(arr: _ModelArrays, rho, dt, dW, u):
    """One posterior step: the normalized Kraus step with xi = dW + m dt, the
    output increment, of the model without jump channels, else of its
    diffusive part if it has one, followed by the waiting-time step."""
    x = arr.cols(rho)
    kraus = arr.diffusive if arr.K else arr
    if kraus is not None:
        kx, m_drift = _apply_k_b(kraus, x, dt)[:2]
        img = _kraus_image(kraus, kx, dW.T + m_drift * dt)
        x = img / (arr.tr0 * img[0])
    if arr.K:
        x, fired = _step_counting(arr, x, dt, u)
        return x.T, fired.T
    return x.T, np.zeros((x.shape[1], 0), dtype=np.int64)


def _step_posterior(arr: _ModelArrays, rho, dt, dW, u, s, substep_noise):
    """One posterior step (``_posterior_substep``); or, at s > 1, the s
    substeps whose (dW, u) ``substep_noise`` holds.  The driver decides s
    once per batch (``_ModelArrays.substeps``)."""
    if s > 1:
        sub_dW, sub_u = substep_noise
        return _posterior_substeps(arr, rho, dt, sub_dW, s, sub_u)
    return _posterior_substep(arr, rho, dt, dW, u)


def _posterior_substeps(arr: _ModelArrays, rho, dt, dW, s: int, u):
    """Split one step into s substeps of dt / s, driven by the substep
    increments dW (B, s, n_diff) and uniforms u (B, s, K)."""
    fired_total = np.zeros((dW.shape[0], arr.K), dtype=np.int64)
    for l in range(s):
        rho, fired = _posterior_substep(arr, rho, dt / s, dW[:, l], u[:, l])
        fired_total += fired
    return rho, fired_total


def _row_products(x: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Each row of x times its own matrix: (B, N) and (B, N, C) -> (B, C)."""
    return np.einsum("ba,bac->bc", x, mats)


def _crossing(s: np.ndarray, q: np.ndarray, w: np.ndarray, end):
    """The grid point of a jump, and the uniform left over.

    Column b of s (M, B) holds row b's survival s_1..s_M at t_1..t_M after
    its last jump (s_0 = 1); s_end (dt) is set to q, the number that decided
    the jump, so a row with w >= q crosses there at the latest.  The jump
    time lies in (t_{j-1}, t_j] for the first j with s_j <= w, and given j,
    v = (w - s_j) / (s_{j-1} - s_j) is U(0, 1).  The jump goes to t_{j-1}
    if v >= 1/2 and j > 1, else to t_j: rounding every jump up to t_j would
    shorten the time after it by dt / 2M on average, which undercounts by
    nu dt / 2M relative at rate nu.  Returns the grid point, which is after
    t_0, and 2v - [v >= 1/2], which is again U(0, 1) and independent of it."""
    at = np.arange(w.size)
    s[end - 1, at] = q
    j = (s <= w).argmax(axis=0)
    lo = s[j, at]
    inner = j > 0
    v = (w - lo) / (np.where(inner, s[j - 1, at], 1.0) - lo)
    half = v >= 0.5
    return j + 1 - (half & inner), 2.0 * v - half


def _channel(rate: np.ndarray, v: np.ndarray):
    """The channel k drawn with probability rate_k / sum(rate) from the
    uniforms v, and the uniforms left over, (v sum(rate) - below_k) / rate_k,
    where below_k is the sum of the rates before k; rate is (B, K)."""
    below = np.zeros_like(rate)
    np.cumsum(rate[:, :-1], axis=1, out=below[:, 1:])
    target = v * (below[:, -1] + rate[:, -1])
    hit = (below <= target[:, None]) & (rate > 0.0)
    k = rate.shape[1] - 1 - hit[:, ::-1].argmax(axis=1)
    at = np.arange(k.size)
    return k, (target - below[at, k]) / rate[at, k]


def _step_counting(arr: _ModelArrays, x, dt, u):
    """The waiting-time step of the model's jump part, from normalized
    columns x (N, B) and uniform rows u (B, K), to columns and the jumps
    fired (K, B).

    One product gives every row's state at dt and its survival q; a row
    jumps iff u[:, 0] >= q.  Each jump searches the survival table of the
    state after the previous jump (or at the step start) for its grid point
    g, applies the chosen channel to the state propagated there and
    propagates the result to dt, which also gives the survival deciding a
    further jump.  Channel choices and further jump tests take the next
    columns of u in order and, after the last, the uniform left over by the
    previous draw.  Each jump uses about log2(M / (rate dt)) + 1 of a
    uniform's 53 bits, so the law holds while a step has up to about 8
    jumps; and each jump lands at least one grid point, dt / M, after the
    previous one, a dead time that undercounts by 1.4 % at 40 jumps per
    step.  ``substeps`` keeps the expected number within ``_JUMP_BOUND``,
    where both effects are within noise.
    """
    step, surv, grid, jumps = arr.waiting(dt)
    kk, m, tr0 = arr.K, _GRID, arr.tr0
    nn = x.shape[0]
    kn = kk * nn
    y = _cols(x, step)
    q = tr0 * y[0]
    out = y / q
    fired = np.zeros((kk, x.shape[1]), dtype=np.int64)
    rows = np.flatnonzero(u[:, 0] >= q)
    if rows.size == 0:
        return out, fired
    post, uu, q = x.T[rows], u[rows], q[rows]  # the jumping rows (R, N)
    w, g, used = uu[:, 0], np.zeros(rows.size, dtype=np.int64), 1
    while True:
        j, v = _crossing(_cols(post.T, surv), q, w, m - g)
        # J_k x and lambda_k at the jump, (K N + K, R)
        c = _cols(_row_products(post, grid[j]).T, jumps)
        g = g + j
        k = np.zeros(rows.size, dtype=np.int64)
        if kk > 1:
            k, v = _channel(c[kn:].T * arr.nu, uu[:, used] if used < kk else v)
            used += 1
        img = c[:kn].reshape(kk, nn, -1)[k, :, np.arange(rows.size)]
        post = img / (tr0 * img[:, :1])
        e = _row_products(post, grid[m - g])  # the state at dt
        q = tr0 * e[:, 0]
        fired[k, rows] += 1
        out[:, rows] = (e / q[:, None]).T
        w = uu[:, used] if used < kk else v
        used += 1
        again = (w >= q) & (g < m)
        if not again.any():
            return out, fired
        rows, post, g, q, w, uu = (a[again] for a in (rows, post, g, q, w, uu))


def _step_stratonovich(arr: _ModelArrays, rho, dt, dW):
    """One Heun step, projected onto the pure states (see ``_project_pure_b``)."""
    x = arr.cols(rho)
    xi = dW.T
    a0, b0, _ = _strat_a_b(arr, x.T)
    a0, b0 = a0.T, b0.transpose(1, 2, 0)
    pred = x + dt * a0 + _csum(xi, b0)
    a1, b1, _ = _strat_a_b(arr, pred.T)
    a1, b1 = a1.T, b1.transpose(1, 2, 0)
    x_new = x + 0.5 * dt * (a0 + a1) + 0.5 * _csum(xi, b0 + b1)
    x_proj, defect = _project_pure_b(arr, x_new)
    return x_proj.T, defect
