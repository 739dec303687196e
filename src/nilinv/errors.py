"""Shared exception types."""


class NilinvError(Exception):
    """Base class for errors raised by this package."""


class OutsideU0Error(NilinvError):
    """A point has a vanishing base minor, so it lies outside the open set U0."""

    def __init__(self, xi):
        self.xi = xi
        super().__init__(f"point outside U0: base minor at {tuple(xi)} vanishes")


class UnsupportedTypeError(NilinvError):
    """The operation only supports non-increasing block sizes or at most three blocks."""


class ReductionError(NilinvError):
    """The canonical-form elimination failed an internal consistency check."""
