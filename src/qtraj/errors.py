"""Exception hierarchy.

Validation errors map to CLI exit code 1, numerical failures to exit
code 2.
"""

from __future__ import annotations


class QtrajError(Exception):
    """Base class for all package errors."""


class ValidationError(QtrajError, ValueError):
    """Bad input: wrong shapes, broken invariants, unusable configuration."""


class NumericalError(QtrajError, RuntimeError):
    """A computation could not deliver its contract."""


# -- validation -------------------------------------------------------------

class DimensionMismatch(ValidationError):
    pass


class NotHermitian(ValidationError):
    pass


class NonHermitianH(ValidationError):
    pass


class EmptyModel(ValidationError):
    pass


class BadChannelIndex(ValidationError):
    pass


class DimensionNotTwo(ValidationError):
    pass


class NoDiffusiveChannels(ValidationError):
    pass


class JumpChannelsPresent(ValidationError):
    pass


class NotPurePreserving(ValidationError):
    pass


class MultipleDiffusiveOps(ValidationError):
    pass


class ZeroLinewidth(ValidationError):
    pass


class ZeroRabi(ValidationError):
    pass


class EmptyAverageWindow(ValidationError):
    pass


class ConfigError(ValidationError):
    pass


# -- numerical --------------------------------------------------------------

class ZeroTrace(NumericalError):
    pass


class NonUniqueEquilibrium(NumericalError):
    pass


class EnsembleFailure(NumericalError):
    pass


class EmptyModelWarning(UserWarning):
    """Model has a zero Hamiltonian and no channels: dynamics are trivial."""
