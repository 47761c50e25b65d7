"""Two-level atom models for homodyne, heterodyne and direct detection.

A laser-driven two-level atom watched through its fluorescence light.  With
the local oscillator in resonance with the driving laser the a-posteriori
dynamics is diffusive with

    L_j = <e_j | alpha> sigma_-,
    H   = -(delta_omega / 2) sigma_z + i <lambda|alpha> sigma_-
          - i <alpha|lambda> sigma_+,

where ||alpha||^2 is the natural line width and Omega = 2 |<alpha|lambda>|
the Rabi frequency, both required strictly positive.  Homodyne detection is
the single-channel case L_1 = e^{-i phi} ||alpha|| sigma_- (the phase is
the argument of the one alpha component); direct detection replaces the
diffusive channels by one counting channel with Kraus operator
||alpha|| sigma_-.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, ZeroLinewidth, ZeroRabi
from .model import JumpChannel, MeasurementModel

SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)

DETECTIONS = ("homodyne", "heterodyne", "direct")


@dataclass(frozen=True)
class TwoLevelAtomSpec:
    """Physical parameters of the monitored two-level atom.

    ``alpha`` holds the components <e_j|alpha> in the detection basis and
    ``lambda_inner`` is <alpha|lambda>.  Homodyne detection requires a
    single alpha component, whose argument carries the detector phase.
    """

    delta_omega: float
    alpha: tuple[complex, ...]
    lambda_inner: complex
    detection: str

    def __post_init__(self) -> None:
        alpha = tuple(complex(a) for a in self.alpha)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "lambda_inner", complex(self.lambda_inner))
        if self.detection not in DETECTIONS:
            raise ValidationError(f"detection must be one of {DETECTIONS}")
        if self.linewidth <= 0.0:
            raise ZeroLinewidth("the line width ||alpha||^2 must be strictly positive")
        if self.rabi <= 0.0:
            raise ZeroRabi("the Rabi frequency 2|<alpha|lambda>| must be strictly positive")
        if self.detection == "homodyne" and len(alpha) != 1:
            raise ValidationError(
                "homodyne detection uses a single channel: alpha must have one component"
            )

    @property
    def linewidth(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.alpha))

    @property
    def rabi(self) -> float:
        return 2.0 * abs(self.lambda_inner)


def generate_atom_model(spec: TwoLevelAtomSpec) -> MeasurementModel:
    """Build the measurement model for the requested detection scheme."""
    li = spec.lambda_inner
    ham = (
        -0.5 * spec.delta_omega * SIGMA_Z
        + 1j * np.conj(li) * SIGMA_MINUS
        - 1j * li * SIGMA_PLUS
    )
    if spec.detection == "direct":
        count = JumpChannel("count", 1.0, (np.sqrt(spec.linewidth) * SIGMA_MINUS,))
        return MeasurementModel(2, ham, jump_channels=(count,))
    return MeasurementModel(2, ham, diffusive_ops=tuple(a * SIGMA_MINUS for a in spec.alpha))


def standard_heterodyne(
    linewidth: float, rabi: float, delta_omega: float = 0.0
) -> TwoLevelAtomSpec:
    """Heterodyne spec with alpha along (1, i)/sqrt(2), which is elliptic
    everywhere on the sphere except at the ground state."""
    c = np.sqrt(linewidth / 2.0)
    return TwoLevelAtomSpec(
        delta_omega=delta_omega,
        alpha=(c, 1j * c),
        lambda_inner=0.5j * rabi,
        detection="heterodyne",
    )


def standard_homodyne(
    linewidth: float, rabi: float, phase: float = 0.0, delta_omega: float = 0.0
) -> TwoLevelAtomSpec:
    """Homodyne spec: one channel e^{-i phase} ||alpha|| sigma_-."""
    amp = np.sqrt(linewidth) * np.exp(-1j * phase)
    return TwoLevelAtomSpec(
        delta_omega=delta_omega,
        alpha=(amp,),
        lambda_inner=0.5j * rabi,
        detection="homodyne",
    )


def standard_direct(
    linewidth: float, rabi: float, delta_omega: float = 0.0
) -> TwoLevelAtomSpec:
    """Direct-detection (counting) spec with the same Hamiltonian."""
    return TwoLevelAtomSpec(
        delta_omega=delta_omega,
        alpha=(np.sqrt(linewidth),),
        lambda_inner=0.5j * rabi,
        detection="direct",
    )
