"""Measurement model: generator pieces, output statistics, structural checks.

A model bundles a Hamiltonian H, diffusive operators L_j, a finite family
of jump channels (each a discrete outcome point with weight nu_k and Kraus
operators J_n), and purely dissipative operators S_h.  The generator splits
as

    L[rho] = L0 + L1 + L2 + L3,
    L0[rho] = -i [H, rho],
    L1[rho] = sum_j L_j rho L_j* - (rho D1 + D1 rho)/2,      D1 = sum L_j* L_j,
    L2[rho] = sum_k nu_k J_k[rho] - (rho D2 + D2 rho)/2,     D2 = sum nu_k E_k,
    L3[rho] = sum_h S_h rho S_h* - (rho D3 + D3 rho)/2,      D3 = sum S_h* S_h,

with J_k[rho] = sum_n J_n(y_k) rho J_n(y_k)* and E_k = sum_n J_n* J_n.
The drift used by the unnormalized (linear) equation is

    K[rho] = L0 + L1 - (D2 rho + rho D2)/2 + nu_tot rho + L3.

Models are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    BadChannelIndex,
    DimensionMismatch,
    DimensionNotTwo,
    EmptyModel,
    EmptyModelWarning,
    NoDiffusiveChannels,
    NonHermitianH,
    ValidationError,
)
from .linalg import (
    PureStateVector,
    QuantumState,
    as_complex_matrix,
    haar_random_state_vector,
    hermitize,
    hs_norm,
)

_ELLIPTIC_TOL = 1e-9  # singular values above this count towards the diffusion rank


def _parse_matrix(obj, dim: int | None) -> np.ndarray:
    """Accept an ndarray or nested rows of [re, im] pairs."""
    if isinstance(obj, np.ndarray):
        return as_complex_matrix(obj, dim=dim)
    rows = []
    for row in obj:
        parsed = []
        for entry in row:
            if isinstance(entry, (int, float, complex)):
                parsed.append(complex(entry))
            else:
                re, im = entry
                parsed.append(complex(re) + 1j * complex(im))
        rows.append(parsed)
    return as_complex_matrix(np.array(rows, dtype=np.complex128), dim=dim)


def _frozen(mat: np.ndarray) -> np.ndarray:
    out = np.array(mat, dtype=np.complex128)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class JumpChannel:
    """One discrete outcome point: label, measure weight nu_k, Kraus family."""

    outcome_label: str
    weight: float
    kraus_ops: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not 0.0 < self.weight < np.inf:
            raise ValidationError(
                f"jump channel weight must be positive and finite, got {self.weight}"
            )
        if len(self.kraus_ops) == 0:
            raise ValidationError("jump channel needs at least one Kraus operator")
        dim = None
        ops = []
        for op in self.kraus_ops:
            mat = as_complex_matrix(op, dim=dim)
            dim = mat.shape[0]
            ops.append(_frozen(mat))
        object.__setattr__(self, "kraus_ops", tuple(ops))

    @property
    def dim(self) -> int:
        return self.kraus_ops[0].shape[0]

    def effect(self) -> np.ndarray:
        """E = sum_n J_n* J_n, the channel effect operator."""
        return sum(j.conj().T @ j for j in self.kraus_ops)


@dataclass(frozen=True, eq=False)
class MeasurementModel:
    """Immutable bundle (H, {L_j}, jump channels, {S_h}) plus derived sums."""

    dim: int
    hamiltonian: np.ndarray
    diffusive_ops: tuple[np.ndarray, ...]
    jump_channels: tuple[JumpChannel, ...]
    dissipative_ops: tuple[np.ndarray, ...]
    d1: np.ndarray
    d2: np.ndarray
    d3: np.ndarray
    total_jump_mass: float

    @property
    def n_diffusive(self) -> int:
        return len(self.diffusive_ops)

    @property
    def n_jump(self) -> int:
        return len(self.jump_channels)

    def jump_effects(self) -> tuple[np.ndarray, ...]:
        """Per-channel effect operators E_k = sum_n J_n* J_n."""
        return tuple(ch.effect() for ch in self.jump_channels)


def build_model(config) -> MeasurementModel:
    """Validate a model description and compute the derived operators.

    ``config`` maps keys dimension, hamiltonian, diffusive_ops,
    jump_channels, dissipative_ops; matrices may be ndarrays or nested
    [re, im] rows, jump channels are {label, weight, kraus} mappings or
    JumpChannel instances.
    """
    if "dimension" not in config:
        raise ValidationError("config must supply 'dimension'")
    dim = int(config["dimension"])
    if dim < 1:
        raise ValidationError(f"dimension must be >= 1, got {dim}")

    has_any = any(
        key in config and config[key] is not None and len(config[key]) > 0
        for key in ("hamiltonian", "diffusive_ops", "jump_channels", "dissipative_ops")
    )
    if not has_any:
        raise EmptyModel("config supplies neither a Hamiltonian nor any channel")

    if config.get("hamiltonian") is not None:
        ham = _parse_matrix(config["hamiltonian"], dim)
    else:
        ham = np.zeros((dim, dim), dtype=np.complex128)
    if hs_norm(ham - ham.conj().T) > 1e-12 * dim:
        raise NonHermitianH("hamiltonian is not Hermitian within 1e-12 * dim")
    ham = _frozen(hermitize(ham))

    diffusive = tuple(
        _frozen(_parse_matrix(op, dim)) for op in config.get("diffusive_ops") or []
    )
    dissipative = tuple(
        _frozen(_parse_matrix(op, dim)) for op in config.get("dissipative_ops") or []
    )

    channels = []
    for entry in config.get("jump_channels") or []:
        if isinstance(entry, JumpChannel):
            ch = entry
        else:
            ch = JumpChannel(
                outcome_label=str(entry["label"]),
                weight=float(entry["weight"]),
                kraus_ops=tuple(_parse_matrix(j, dim) for j in entry["kraus"]),
            )
        if ch.dim != dim:
            raise DimensionMismatch(
                f"jump channel '{ch.outcome_label}' has dimension {ch.dim}, expected {dim}"
            )
        channels.append(ch)
    channels = tuple(channels)

    eye = np.zeros((dim, dim), dtype=np.complex128)
    d1 = sum((op.conj().T @ op for op in diffusive), eye.copy())
    d3 = sum((op.conj().T @ op for op in dissipative), eye.copy())
    d2 = sum((ch.weight * ch.effect() for ch in channels), eye.copy())
    total_mass = float(sum(ch.weight for ch in channels))

    if not channels and not diffusive and not dissipative and hs_norm(ham) == 0.0:
        warnings.warn(
            "model has H = 0 and no channels: all dynamics are trivial",
            EmptyModelWarning,
            stacklevel=2,
        )

    return MeasurementModel(
        dim=dim,
        hamiltonian=ham,
        diffusive_ops=diffusive,
        jump_channels=channels,
        dissipative_ops=dissipative,
        d1=_frozen(hermitize(d1)),
        d2=_frozen(hermitize(d2)),
        d3=_frozen(hermitize(d3)),
        total_jump_mass=total_mass,
    )


def _check_dim(m: MeasurementModel, rho: np.ndarray) -> np.ndarray:
    return as_complex_matrix(rho, dim=m.dim)


def apply_l0(m: MeasurementModel, rho: np.ndarray) -> np.ndarray:
    """Hamiltonian part -i [H, rho]."""
    rho = _check_dim(m, rho)
    h = m.hamiltonian
    return -1j * (h @ rho - rho @ h)


def apply_l1(m: MeasurementModel, rho: np.ndarray) -> np.ndarray:
    """Diffusive dissipator sum_j L_j rho L_j* - (rho D1 + D1 rho)/2."""
    rho = _check_dim(m, rho)
    out = -0.5 * (rho @ m.d1 + m.d1 @ rho)
    for op in m.diffusive_ops:
        out += op @ rho @ op.conj().T
    return out


def apply_l2(m: MeasurementModel, rho: np.ndarray) -> np.ndarray:
    """Jump dissipator sum_k nu_k J_k[rho] - (rho D2 + D2 rho)/2."""
    rho = _check_dim(m, rho)
    out = -0.5 * (rho @ m.d2 + m.d2 @ rho)
    for k, ch in enumerate(m.jump_channels):
        out += ch.weight * apply_jump(m, rho, k)
    return out


def apply_l3(m: MeasurementModel, rho: np.ndarray) -> np.ndarray:
    """Purely dissipative part sum_h S_h rho S_h* - (rho D3 + D3 rho)/2."""
    rho = _check_dim(m, rho)
    out = -0.5 * (rho @ m.d3 + m.d3 @ rho)
    for op in m.dissipative_ops:
        out += op @ rho @ op.conj().T
    return out


def apply_liouvillian(m: MeasurementModel, rho: np.ndarray) -> np.ndarray:
    """Full generator L[rho] = L0 + L1 + L2 + L3."""
    return apply_l0(m, rho) + apply_l1(m, rho) + apply_l2(m, rho) + apply_l3(m, rho)


def apply_k(m: MeasurementModel, rho: np.ndarray) -> np.ndarray:
    """Linear-equation drift K[rho].

    Written out from its own definition (not from apply_liouvillian) so the
    compensator identity L = K + sum_k nu_k (J_k - id) is a genuine
    cross-check between two code paths.
    """
    rho = _check_dim(m, rho)
    h = m.hamiltonian
    out = -1j * (h @ rho - rho @ h)
    out -= 0.5 * (rho @ m.d1 + m.d1 @ rho)
    for op in m.diffusive_ops:
        out += op @ rho @ op.conj().T
    out -= 0.5 * (m.d2 @ rho + rho @ m.d2)
    out += m.total_jump_mass * rho
    out -= 0.5 * (rho @ m.d3 + m.d3 @ rho)
    for op in m.dissipative_ops:
        out += op @ rho @ op.conj().T
    return out


def apply_jump(m: MeasurementModel, rho: np.ndarray, k: int) -> np.ndarray:
    """Channel map J_k[rho] = sum_n J_n rho J_n* (completely positive)."""
    rho = _check_dim(m, rho)
    if not 0 <= k < len(m.jump_channels):
        raise BadChannelIndex(f"jump channel index {k} out of range")
    ch = m.jump_channels[k]
    out = np.zeros_like(rho)
    for j in ch.kraus_ops:
        out += j @ rho @ j.conj().T
    return out


def jump_rate(m: MeasurementModel, rho: QuantumState, k: int) -> float:
    """Jump intensity lambda_k = tr J_k[rho] >= 0."""
    out = apply_jump(m, rho.matrix, k)
    val = complex(np.trace(out))
    return max(float(val.real), 0.0)


def output_drift(m: MeasurementModel, rho: QuantumState, j: int) -> float:
    """Diffusive output drift m_j = tr{(L_j + L_j*) rho}."""
    if not 0 <= j < len(m.diffusive_ops):
        raise BadChannelIndex(f"diffusive operator index {j} out of range")
    op = m.diffusive_ops[j]
    val = complex(np.trace((op + op.conj().T) @ rho.matrix))
    return float(val.real)


# -- structural checks -------------------------------------------------------

@dataclass(frozen=True)
class PurePreservingReport:
    verdict: bool
    dissipative_nonzero: bool
    witnesses: tuple[tuple[np.ndarray, int], ...]
    n_samples: int


def check_pure_preserving(
    m: MeasurementModel, n_samples: int, rng_seed: int
) -> PurePreservingReport:
    """Test whether the a-posteriori dynamics can preserve pure states.

    Requires every S_h = 0, and that each channel maps sampled Haar-random
    pure states to (numerically) rank-one outputs: the second-largest
    eigenvalue of J_k[|psi><psi|] must not exceed 1e-8 times its trace
    whenever the trace exceeds 1e-12.
    """
    if n_samples < 1:
        raise ValidationError("n_samples must be >= 1")
    dissipative_nonzero = any(hs_norm(op) > 1e-14 for op in m.dissipative_ops)
    witnesses: list[tuple[np.ndarray, int]] = []
    rng = np.random.Generator(np.random.Philox(key=rng_seed))
    for _ in range(n_samples):
        psi = haar_random_state_vector(m.dim, rng)
        proj = np.outer(psi, psi.conj())
        for k in range(len(m.jump_channels)):
            out = apply_jump(m, proj, k)
            tr = float(np.trace(out).real)
            if tr <= 1e-12 or m.dim < 2:
                continue
            evals = np.linalg.eigvalsh(hermitize(out))
            if evals[-2] > 1e-8 * tr:
                witnesses.append((psi, k))
    verdict = not dissipative_nonzero and not witnesses
    return PurePreservingReport(
        verdict=verdict,
        dissipative_nonzero=dissipative_nonzero,
        witnesses=tuple(witnesses),
        n_samples=n_samples,
    )


def _proportional_to_identity(x: np.ndarray, tol: float = 1e-10) -> bool:
    n = x.shape[0]
    scale = np.trace(x) / n
    return hs_norm(x - scale * np.eye(n)) <= tol * max(1.0, hs_norm(x))


@dataclass(frozen=True)
class ObstructionReport:
    obstruction_exists: bool
    diffusive_proportional: tuple[bool, ...]
    jump_proportional: tuple[bool, ...]
    restricted_line_checked: bool
    note: str


def check_purification_obstruction_dim2(m: MeasurementModel) -> ObstructionReport:
    """Check the two-dimensional obstruction to asymptotic purification.

    At dim 2 the only bidimensional projection is the identity, so the
    obstruction reduces to: every L_j + L_j* proportional to the identity
    and every channel effect E_k proportional to the identity.  When no
    obstruction exists (and the model preserves pure states) the linear
    entropy of the a-posteriori states vanishes for long times.
    """
    if m.dim != 2:
        raise DimensionNotTwo(f"obstruction check is defined at dim 2, got {m.dim}")
    diff_prop = tuple(
        _proportional_to_identity(op + op.conj().T) for op in m.diffusive_ops
    )
    jump_prop = tuple(_proportional_to_identity(e) for e in m.jump_effects())
    exists = all(diff_prop) and all(jump_prop)
    return ObstructionReport(
        obstruction_exists=exists,
        diffusive_proportional=diff_prop,
        jump_proportional=jump_prop,
        restricted_line_checked=False,
        note=(
            "the condition restricted to the degenerate outcome set is not "
            "constructively available and is reported as an assumption"
        ),
    )


@dataclass(frozen=True)
class EllipticityReport:
    elliptic: bool
    failing_direction: np.ndarray | None
    min_singular_value: float
    rank: int
    required_rank: int


def check_ellipticity(m: MeasurementModel, psi: PureStateVector) -> EllipticityReport:
    """Diffusion ellipticity at the pure state |psi><psi|.

    The diffusion spans the tangent space at psi iff for every nonzero
    phi orthogonal to psi some j has Re <phi | L_j psi> != 0.  The check
    builds the real linear map phi -> (Re <phi | L_j psi>)_j on the real
    2(n-1)-dimensional orthogonal complement (phi and i phi counted as
    distinct directions) and tests full column rank (singular values above
    1e-9 count).
    """
    if m.n_diffusive == 0:
        raise NoDiffusiveChannels("ellipticity check needs diffusive operators")
    if psi.dim != m.dim:
        raise DimensionMismatch("state vector dimension does not match model")
    n = m.dim
    if n == 1:
        return EllipticityReport(True, None, np.inf, 0, 0)
    comp = scipy.linalg.null_space(psi.amplitudes.conj()[None, :])  # (n, n-1)
    cols = []
    for j, op in enumerate(m.diffusive_ops):
        c = comp.conj().T @ (op @ psi.amplitudes)  # (n-1,) entries <v_i | L_j psi>
        cols.append(np.concatenate([c.real, c.imag]))
    mat = np.array(cols)  # (n_diff, 2(n-1))
    required = 2 * (n - 1)
    u, s, vt = np.linalg.svd(mat)
    svals = np.zeros(required)
    svals[: s.shape[0]] = s
    rank = int(np.count_nonzero(svals > _ELLIPTIC_TOL))
    min_sv = float(svals[required - 1]) if mat.shape[0] >= 1 else 0.0
    if rank == required:
        return EllipticityReport(True, None, min_sv, rank, required)
    null_coords = vt[rank]
    phi = comp @ (null_coords[: n - 1] + 1j * null_coords[n - 1 :])
    nrm = np.linalg.norm(phi)
    if nrm > 0:
        phi = phi / nrm
    return EllipticityReport(False, phi, min_sv, rank, required)
