"""Exception types shared across the package."""


class GeoResNetError(Exception):
    """Base class for all errors raised by this package."""


class OffManifold(GeoResNetError):
    """A state that should lie on the manifold has too large a defect."""


class InvalidConfig(GeoResNetError):
    """A configuration object violates its own invariants."""


class DivergenceDetected(GeoResNetError):
    """Training produced a non-finite loss.

    The metrics recorded up to the failing epoch are preserved on the
    ``metrics`` attribute so callers can inspect or persist them.
    """

    def __init__(self, message, metrics=None):
        super().__init__(message)
        self.metrics = metrics
