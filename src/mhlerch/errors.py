"""Exception types shared by the exact and floating-point layers."""


class DomainError(ValueError):
    """Argument lies outside the region where the series representation is valid."""


class InvalidShiftError(ValueError):
    """Shift parameter is (numerically indistinguishable from) a forbidden
    nonpositive-integer translate, where the series denominators vanish."""


class PrecisionError(ValueError):
    """Requested tolerance is tighter than binary64 evaluation can certify."""

