"""Exception types shared across the package."""


class ScdmiError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSpec(ScdmiError, ValueError):
    """A core or invariant specification violates its structural rules."""


class ParseError(ScdmiError, ValueError):
    """Malformed polynomial text. Carries the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class EmptyDomain(ScdmiError, ValueError):
    """No masked pixels to integrate over."""


class TooSmall(ScdmiError, ValueError):
    """Image too small for the derivative stencil."""


class TooLarge(ScdmiError, ValueError):
    """Brute-force point enumeration would exceed the safety guard."""


class Singular(ScdmiError, ValueError):
    """Transform matrix is singular or nearly so."""
