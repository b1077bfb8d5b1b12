"""Exception types shared across the package."""


class DomainError(ValueError):
    """Argument outside the mathematically supported region."""


class DegeneracyError(ValueError):
    """Evaluation at a degenerate configuration (division blow-up, Airy zero)."""


class BranchError(ValueError):
    """A fractional power or square root landed on its branch cut."""


class ContourError(RuntimeError):
    """Rotated-contour integration detected growth along the ray."""

