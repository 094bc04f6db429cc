"""Exception types shared across the package.

Validation problems (bad arguments, malformed configs) raise plain
``ValueError`` / ``TypeError`` so they compose with stdlib expectations.
The classes here mark *numerical* failures: a caller that catches
``NumericalError`` knows the inputs were legal but the computation could
not be completed to tolerance.  The quadrature oracle raises its own
subclass, :class:`fracfield.oracle.QuadratureError`.
"""

from __future__ import annotations

__all__ = ["NumericalError", "NotPsdError", "MaxIterExceededError"]


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


class MaxIterExceededError(NumericalError):
    """Fixed-point solver hit its iteration cap before reaching tolerance.

    Attributes
    ----------
    last_increment : float
        Sup-norm of the final iteration's update.
    iterations : int
        Number of iterations performed.
    replicate_index : int
        Position in the forcing stack of the lowest-index replicate still
        iterating; 0 for a solve of one forcing.
    """

    def __init__(self, message: str, last_increment: float = float("nan"),
                 iterations: int = 0, replicate_index: int = 0):
        super().__init__(message)
        self.last_increment = last_increment
        self.iterations = iterations
        self.replicate_index = replicate_index
