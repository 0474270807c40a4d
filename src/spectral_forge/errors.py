"""Domain exceptions shared across the package."""

from __future__ import annotations


class SpectralForgeError(Exception):
    """Base class for all domain errors."""


class NotInTargetSet(SpectralForgeError):
    """The requested point is not in the prescribed peripheral set."""


class BlockTooDeep(SpectralForgeError):
    """A certificate block whose weight q_n is within the rounding slop of 0:
    a residual check against q_n could no longer fail there."""


class ExponentialUnresolved(SpectralForgeError):
    """A matrix exponential needs so many squarings that its a-priori
    rounding bound exceeds the result itself: no digit would be certified."""


class NoSamples(SpectralForgeError):
    """A randomised check was left with no sample to check, so it could
    not fail."""


class RootCountMismatch(SpectralForgeError):
    """Eigenvalue bookkeeping of a finite section does not add up."""
