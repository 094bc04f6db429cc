"""The exception type shared across the package.

Validation problems (bad arguments, malformed configs) raise plain
``ValueError`` / ``TypeError`` so they compose with stdlib expectations.
``NumericalError`` marks *numerical* failures: a caller that catches it
knows the inputs were legal but the computation could not be completed
to tolerance, and its message says why.
"""

from __future__ import annotations

__all__ = ["NumericalError"]


class NumericalError(Exception):
    """A numerical (as opposed to validation) failure."""
