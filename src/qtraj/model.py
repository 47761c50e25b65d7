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

A ``MeasurementModel`` checks itself on construction, as the other value
types do, and derives D1, D2, D3 and nu_tot; ``build_model`` only reads a
description into it.  Models are immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

import operator
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadChannelIndex,
    ConfigError,
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
    _complement,
    _count,
    _philox,
    as_complex_matrix,
    haar_random_state_vector,
    hermitize,
    hs_norm,
)

_ELLIPTIC_TOL = 1e-9  # singular values above this count towards the diffusion rank


def _parse_entry(entry) -> complex:
    if isinstance(entry, (int, float, complex)):
        return complex(entry)
    re, im = entry
    return complex(re) + 1j * complex(im)


def _parse_matrix(obj) -> np.ndarray:
    """An ndarray as it is, or nested rows of numbers and [re, im] pairs as one."""
    if isinstance(obj, np.ndarray):
        return obj
    return np.array([[_parse_entry(e) for e in row] for row in obj], dtype=np.complex128)


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
    """Immutable bundle (H, {L_j}, jump channels, {S_h}) plus derived sums.

    Construction checks an integer dim >= 1 (stored as a Python int), square
    finite matrices and channels of dimension dim, H Hermitian within
    1e-12 * dim (None is 0); it warns when H = 0 and there are no channels,
    freezes the operators and derives d1, d2, d3 and total_jump_mass.
    """

    dim: int
    hamiltonian: np.ndarray | None = None
    diffusive_ops: tuple[np.ndarray, ...] = ()
    jump_channels: tuple[JumpChannel, ...] = ()
    dissipative_ops: tuple[np.ndarray, ...] = ()
    d1: np.ndarray = field(init=False)
    d2: np.ndarray = field(init=False)
    d3: np.ndarray = field(init=False)
    total_jump_mass: float = field(init=False)

    def __post_init__(self) -> None:
        dim = _count(self.dim, "dimension", f"dimension must be >= 1, got {self.dim}")
        ham = self.hamiltonian
        ham = as_complex_matrix(np.zeros((dim, dim)) if ham is None else ham, dim=dim)
        if hs_norm(ham - ham.conj().T) > 1e-12 * dim:
            raise NonHermitianH("hamiltonian is not Hermitian within 1e-12 * dim")
        diffusive = tuple(_frozen(as_complex_matrix(op, dim=dim)) for op in self.diffusive_ops)
        dissipative = tuple(_frozen(as_complex_matrix(op, dim=dim)) for op in self.dissipative_ops)
        channels = tuple(self.jump_channels)
        for ch in channels:
            if ch.dim != dim:
                raise DimensionMismatch(
                    f"jump channel '{ch.outcome_label}' has dimension {ch.dim}, expected {dim}"
                )
        if not channels and not diffusive and not dissipative and hs_norm(ham) == 0.0:
            level = 1  # warn at the first caller outside this module
            while sys._getframe(level).f_globals.get("__name__") == __name__:
                level += 1
            warnings.warn("model has H = 0 and no channels: all dynamics are trivial",
                          EmptyModelWarning, stacklevel=level + 1)
        zero = np.zeros((dim, dim), dtype=np.complex128)
        for name, value in (
            ("dim", dim),
            ("hamiltonian", _frozen(hermitize(ham))),
            ("diffusive_ops", diffusive),
            ("jump_channels", channels),
            ("dissipative_ops", dissipative),
            ("d1", _frozen(hermitize(sum((op.conj().T @ op for op in diffusive), zero)))),
            ("d2", _frozen(hermitize(sum((ch.weight * ch.effect() for ch in channels), zero)))),
            ("d3", _frozen(hermitize(sum((op.conj().T @ op for op in dissipative), zero)))),
            ("total_jump_mass", float(sum(ch.weight for ch in channels))),
        ):
            object.__setattr__(self, name, value)

    @property
    def n_diffusive(self) -> int:
        return len(self.diffusive_ops)

    @property
    def n_jump(self) -> int:
        return len(self.jump_channels)

    @property
    def dissipative_nonzero(self) -> bool:
        """Some S_h has norm above 1e-14: pure states cannot be preserved."""
        return any(hs_norm(op) > 1e-14 for op in self.dissipative_ops)


def build_model(config) -> MeasurementModel:
    """Read a model description into a ``MeasurementModel``, which checks it.

    ``config`` maps keys dimension, hamiltonian, diffusive_ops,
    jump_channels, dissipative_ops; matrices may be ndarrays or nested
    [re, im] rows, and jump channels are {label, weight, kraus} mappings.
    A description that cannot be read (a missing key, or a value of the
    wrong type or form) raises ``ConfigError``; the model's own checks
    raise their ``ValidationError`` unchanged.
    """
    try:
        if "dimension" not in config:
            raise ValidationError("config must supply 'dimension'")
        dim = config["dimension"]
        if isinstance(dim, bool):
            raise TypeError(f"dimension must be an integer, not {dim!r}")
        dim = int(dim) if isinstance(dim, float) and dim.is_integer() else operator.index(dim)
        keys = ("hamiltonian", "diffusive_ops", "jump_channels", "dissipative_ops")
        if not any(config.get(key) is not None and len(config[key]) > 0 for key in keys):
            raise EmptyModel("config supplies neither a Hamiltonian nor any channel")
        ham = config.get("hamiltonian")
        ham = None if ham is None else _parse_matrix(ham)
        ops = {key: tuple(map(_parse_matrix, config.get(key) or []))
               for key in ("diffusive_ops", "dissipative_ops")}
        channels = tuple(
            JumpChannel(str(ch["label"]), float(ch["weight"]),
                        tuple(map(_parse_matrix, ch["kraus"])))
            for ch in config.get("jump_channels") or []
        )
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed model description: {type(exc).__name__}: {exc}") from exc
    return MeasurementModel(dim, ham, jump_channels=channels, **ops)


def _dissipator(ops, d: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_A A rho A* - (rho D + D rho)/2 over the operators A of ``ops``."""
    out = -0.5 * (rho @ d + d @ rho)
    for op in ops:
        out += op @ rho @ op.conj().T
    return out


def apply_l0(m: MeasurementModel, rho: np.ndarray) -> np.ndarray:
    """Hamiltonian part -i [H, rho]."""
    rho = as_complex_matrix(rho, dim=m.dim)
    h = m.hamiltonian
    return -1j * (h @ rho - rho @ h)


def apply_l1(m: MeasurementModel, rho: np.ndarray) -> np.ndarray:
    """Diffusive dissipator sum_j L_j rho L_j* - (rho D1 + D1 rho)/2."""
    return _dissipator(m.diffusive_ops, m.d1, as_complex_matrix(rho, dim=m.dim))


def apply_l2(m: MeasurementModel, rho: np.ndarray) -> np.ndarray:
    """Jump dissipator sum_k nu_k J_k[rho] - (rho D2 + D2 rho)/2."""
    rho = as_complex_matrix(rho, dim=m.dim)
    out = -0.5 * (rho @ m.d2 + m.d2 @ rho)
    for k, ch in enumerate(m.jump_channels):
        out += ch.weight * apply_jump(m, rho, k)
    return out


def apply_l3(m: MeasurementModel, rho: np.ndarray) -> np.ndarray:
    """Purely dissipative part sum_h S_h rho S_h* - (rho D3 + D3 rho)/2."""
    return _dissipator(m.dissipative_ops, m.d3, as_complex_matrix(rho, dim=m.dim))


def apply_liouvillian(m: MeasurementModel, rho: np.ndarray) -> np.ndarray:
    """Full generator L[rho] = L0 + L1 + L2 + L3."""
    return apply_l0(m, rho) + apply_l1(m, rho) + apply_l2(m, rho) + apply_l3(m, rho)


def apply_k(m: MeasurementModel, rho: np.ndarray) -> np.ndarray:
    """Linear-equation drift K[rho].

    Written out from its own definition (not from apply_liouvillian) so the
    compensator identity L = K + sum_k nu_k (J_k - id) is a genuine
    cross-check between two code paths.
    """
    rho = as_complex_matrix(rho, dim=m.dim)
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
    rho = as_complex_matrix(rho, dim=m.dim)
    if not 0 <= k < len(m.jump_channels):
        raise BadChannelIndex(f"jump channel index {k} out of range")
    ch = m.jump_channels[k]
    out = np.zeros_like(rho)
    for j in ch.kraus_ops:
        out += j @ rho @ j.conj().T
    return out


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
    n_samples = _count(n_samples, "n_samples")
    witnesses: list[tuple[np.ndarray, int]] = []
    rng = _philox(rng_seed)
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
    return PurePreservingReport(
        verdict=not m.dissipative_nonzero and not witnesses,
        dissipative_nonzero=m.dissipative_nonzero,
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
    jump_prop = tuple(_proportional_to_identity(ch.effect()) for ch in m.jump_channels)
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
    comp = _complement(psi.amplitudes)  # (n, n-1)
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
