"""Exception types shared across the package."""


def _describe_int(value: int) -> str:
    """str(value), or its size in bits past the integer-to-string limit."""
    try:
        return str(value)
    except ValueError:
        return f"<{value.bit_length()}-bit integer>"


class TreeWienerError(Exception):
    """Base class for all errors raised by this package."""


class NotDivisibleError(TreeWienerError):
    """Exact division was requested but the divisor does not divide the dividend.

    Raised instead of truncating: every division in the closed forms is an
    exact one by construction, so a nonzero remainder means a transcription
    bug, never a rounding situation.
    """

    def __init__(self, dividend: int, divisor: int, remainder: int):
        self.dividend = dividend
        self.divisor = divisor
        self.remainder = remainder
        super().__init__(
            f"{_describe_int(dividend)} is not divisible by {_describe_int(divisor)}"
            f" (remainder {_describe_int(remainder)})"
        )


class InvalidOrderError(TreeWienerError):
    """Order k is outside the valid range for the requested tree family."""


class ResourceLimitError(TreeWienerError):
    """Materializing a tree would exceed the configured node budget."""

    def __init__(self, required: int, budget: int):
        self.required = required
        self.budget = budget
        super().__init__(
            f"tree requires {_describe_int(required)} nodes, exceeding the budget"
            f" of {_describe_int(budget)}"
        )


class EmptyTreeError(TreeWienerError):
    """A distance computation was asked for on a tree with no nodes."""


class UnknownNodeError(TreeWienerError):
    """A node id does not exist in the given tree."""


class ParseError(TreeWienerError):
    """Malformed edge-list input; carries the 1-based line number."""

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")
