"""Exception types shared across the package."""


class ScdmiError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSpec(ScdmiError, ValueError):
    """A core or invariant specification violates its structural rules."""


class InvalidImage(ScdmiError, ValueError):
    """The channel array and mask do not form one (3, H, W) image, or the
    centred values are not five 1-D arrays of one length."""


class EmptyDomain(ScdmiError, ValueError):
    """No masked pixels to integrate over."""


class TooLarge(ScdmiError, ValueError):
    """Brute-force point enumeration would exceed the safety guard."""


class InvalidTransform(ScdmiError, ValueError):
    """Transform matrix or offset has the wrong shape or a non-finite entry."""


class Singular(ScdmiError, ValueError):
    """Transform matrix is singular or nearly so."""
