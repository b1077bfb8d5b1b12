"""Exception types shared across the package."""


class DomainError(ValueError):
    """Argument outside the mathematically supported region.

    The library refuses every argument value with it; only the CLI's own
    parsing raises a plain ``ValueError``.  Also raised at degenerate
    points inside the region: a zero of Ai, the root at x = 0, y = z, the
    stationary phase at y = z, and a radicand on its branch cut.
    """


class ContourError(RuntimeError):
    """Rotated-contour integration detected growth along the ray."""
