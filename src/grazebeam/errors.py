"""The exception type shared across the package."""


class DomainError(ValueError):
    """Argument outside the mathematically supported region.

    The library refuses every argument value with it; only the CLI's own
    parsing raises a plain ``ValueError``.  Also raised at degenerate
    points inside the region: a zero of Ai, the root at x = 0, y = z, the
    stationary phase at y = z, a radicand on its branch cut, and a
    rotated contour along which the integrand grows.
    """
