"""Exception types shared across the package.

Numerical failures (pole proximity, contour degeneracy, diverging
refinement) are distinct from caller mistakes (bad plans, missing
equilibria), but both derive from :class:`SurfaceFlowsError` so a caller
can catch every package failure in one place.
"""


class SurfaceFlowsError(Exception):
    """Base class for all package-specific errors."""


class PoleHit(SurfaceFlowsError):
    """A Moebius map was evaluated on (or too close to) its pole."""


class BallTooLarge(SurfaceFlowsError):
    """Group-ball enumeration exceeded the configured element cap."""


class NearPole(SurfaceFlowsError):
    """Series evaluation requested too close to a singularity of some term."""


class DenominatorVanishes(SurfaceFlowsError):
    """The denominator series is numerically zero: the point is near a pole
    of the field itself."""


class ZeroOnContour(SurfaceFlowsError):
    """Field magnitude dropped below tolerance on a winding contour."""


class NonIntegerWinding(SurfaceFlowsError):
    """Accumulated argument change did not settle near an integer."""


class NewtonDiverged(SurfaceFlowsError):
    """Newton refinement of a zero candidate failed to converge."""


class EquilibriumInBox(SurfaceFlowsError):
    """Flow-box rectification was requested at or next to an equilibrium."""


class PlanMismatch(SurfaceFlowsError):
    """A surgery plan's removed equilibria do not fit the requested mode."""


class MissingEquilibrium(SurfaceFlowsError):
    """A surgery plan refers to an equilibrium absent from its inventory."""


class DiscContainsZero(SurfaceFlowsError):
    """A connected-sum disc contains an equilibrium of its field."""


class BlendDegenerate(SurfaceFlowsError):
    """The blended tube field vanishes on the tube boundary, invalidating
    the winding bookkeeping."""


class NotInverse(SurfaceFlowsError):
    """Removed three-dimensional equilibria do not have cancelling indices."""


class TooManyEquilibria(SurfaceFlowsError):
    """Index set too large for exhaustive feasibility enumeration."""


# the exceptions that mean "the field cannot be evaluated here": flowlab
# reads them as NaN, and equivariance_report skips such a sample point
_NOT_EVALUABLE = (NearPole, PoleHit, DenominatorVanishes, ZeroDivisionError)
