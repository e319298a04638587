"""Exception types shared across the package."""


class HurwitzLabError(Exception):
    """Base class for all errors raised by this package."""


class NonpositiveMean(HurwitzLabError):
    """The mean term of a support function must be positive for a body."""


class NotStrictlyConvex(HurwitzLabError):
    """Curvature radius dips to (or below) the convexity tolerance."""

    def __init__(self, rho_min: float, phi_at: float):
        super().__init__(
            f"not strictly convex: min curvature radius {rho_min:.6g} at phi={phi_at:.6g}"
        )
        self.rho_min = rho_min
        self.phi_at = phi_at


class AmplitudeTooLarge(HurwitzLabError):
    """Requested harmonic amplitude violates the strict convexity bound."""


class EmptyGrid(HurwitzLabError):
    """A quadrature rule received fewer than two samples."""


class NotValidated(HurwitzLabError):
    """Operation requires a body blessed by validate_convex."""


class InteriorPoint(HurwitzLabError):
    """Point lies inside the body; it has no pair of support lines."""


class BoundaryCollar(HurwitzLabError):
    """Point is exterior but too close to the boundary to resolve tangents."""


class RootCountAnomaly(HurwitzLabError):
    """The polished support-line roots do not span a positive arc shorter than pi."""


class DegenerateGap(HurwitzLabError):
    """Normal-angle gap outside (0, pi); the two support lines do not meet."""


class NonIntegrableKernel(HurwitzLabError):
    """Kernel grows too slowly at omega -> 0 for a finite exterior integral."""


class BadOrder(HurwitzLabError):
    """Moment order out of range."""


class BadSpec(HurwitzLabError):
    """Malformed body or curve specification."""


class EmptyScene(HurwitzLabError):
    """Nothing to draw."""
