"""Exception types shared across the package.

Validation problems (bad arguments, malformed configs) raise plain
``ValueError`` / ``TypeError`` so they compose with stdlib expectations.
The classes here mark *numerical* failures: a caller that catches
``NumericalError`` knows the inputs were legal but the computation could
not be completed to tolerance.
"""

from __future__ import annotations

__all__ = ["NumericalError", "NotPsdError"]


class NumericalError(Exception):
    """Base class for numerical (as opposed to validation) failures."""


class NotPsdError(NumericalError):
    """Covariance factorization failed even after the jitter ladder.

    Attributes
    ----------
    jitter_max : float
        Largest jitter that was tried.
    """

    def __init__(self, message: str, jitter_max: float = float("nan")):
        super().__init__(message)
        self.jitter_max = jitter_max
