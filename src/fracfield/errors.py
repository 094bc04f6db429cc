"""Exception types shared across the package.

Validation problems (bad arguments, malformed configs) raise plain
``ValueError`` / ``TypeError`` so they compose with stdlib expectations.
The classes here mark *numerical* failures: a caller that catches
``NumericalError`` knows the inputs were legal but the computation could
not be completed to tolerance.
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
    """A fixed point was still shrinking at its iteration cap.

    In the heat march a node's increment shrinks by ``q = dt L / 2`` per
    evaluation, so the cap ``16 + ceil(64 ln 2 / ln(1/q))`` is reached
    only where the drift is steeper than its declared L yet still
    contracts, slower than q; a node whose increment stops shrinking far
    above rounding raises a plain :class:`NumericalError` instead.

    ``replicate_index`` is the position in the forcing stack of the
    lowest replicate with a node that did not settle (0 for one forcing),
    ``node`` that replicate's first such ``(time index, position
    index)``, rows first, ``iterations`` the cap and ``last_increment``
    the node's last increment.
    """

    def __init__(self, message: str, last_increment: float = float("nan"),
                 iterations: int = 0, replicate_index: int = 0,
                 node: tuple = ()):
        super().__init__(message)
        self.last_increment = last_increment
        self.iterations = iterations
        self.replicate_index = replicate_index
        self.node = node
