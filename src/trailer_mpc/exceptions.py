"""Exception types shared across the library."""


class TrailerMpcError(Exception):
    """Base class for all library errors."""


class SingularConfiguration(TrailerMpcError):
    """The speed-coupling factor C1 is non-positive; the model is singular."""


class InvalidState(TrailerMpcError):
    """A vehicle state violates a hard model precondition (e.g. |beta3| >= pi/2)."""


class InfeasiblePath(TrailerMpcError):
    """A generated nominal path would violate actuator limits."""


class ProjectionLost(TrailerMpcError):
    """No usable local projection of the vehicle onto the nominal path."""


class OutOfDomain(TrailerMpcError):
    """A station query lies outside the path's arc-length domain."""


class ValidityViolated(TrailerMpcError):
    """The Frenet-frame transformation validity conditions are broken."""


class NominalOutsidePolytope(TrailerMpcError):
    """Nominal joint angles fall outside the joint-angle polytope."""


class RiccatiDiverged(TrailerMpcError):
    """The Riccati equation has no stabilizing solution."""


class PathExhausted(TrailerMpcError):
    """The prediction horizon would run past the end of the path data."""


class EmptyRegion(TrailerMpcError):
    """Region fitting produced an empty constraint set."""
