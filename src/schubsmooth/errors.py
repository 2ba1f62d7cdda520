"""Shared exception types."""


class BudgetExceeded(RuntimeError):
    """A computation would exceed its size cap or its length cap."""


class MalformedDiagram(ValueError):
    """A staircase diagram's relation is not a partial order, or blocks are malformed."""


class NotSmooth(ValueError):
    """Raised when an operation requires a smooth element and the input is not."""
