"""Domain exceptions shared across the package."""

from __future__ import annotations


class SpectralForgeError(Exception):
    """Base class for all domain errors."""


class SingularBlock(SpectralForgeError):
    """A cyclic-block resolvent was requested at (numerically) an eigenvalue."""


class TailInvalid(SpectralForgeError):
    """The tail bound of a certified sum is not valid at this spectral point.

    Raised when the guard inequality |lam - 1 + q_n| > q_n * (1 + 1e-9)
    fails for some weight, which happens exactly when lam sits on or next to
    the accumulation direction of the block spectra.
    """


class SingularUpdate(SpectralForgeError):
    """Rank-one update denominator 1 - gamma vanishes (certified disk hits 1).

    Attributes
    ----------
    gamma : CertifiedComplex
        The certified pairing value.
    radius_dominated : bool
        True when the disk contains 1 only because of its radius (the centre
        itself is not 1 up to rounding); suggests retrying at larger depth.
    """

    def __init__(self, gamma, radius_dominated: bool):
        self.gamma = gamma
        self.radius_dominated = radius_dominated
        kind = "radius-dominated" if radius_dominated else "value at 1"
        super().__init__(f"rank-one update is singular ({kind}): {gamma}")


class NotInTargetSet(SpectralForgeError):
    """The requested point is not in the prescribed peripheral set."""


class BlockTooDeep(SpectralForgeError):
    """A certificate block whose weight q_n is within the rounding slop of 0:
    a residual check against q_n could no longer fail there."""


class NoSamples(SpectralForgeError):
    """A randomised check was left with no sample to check, so it could
    not fail."""


class PoleHit(SpectralForgeError):
    """A scalar evaluation landed on (or too close to) a pole."""


class RootCountMismatch(SpectralForgeError):
    """Eigenvalue bookkeeping of a finite section does not add up."""
