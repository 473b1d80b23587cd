"""Shared exception types.

Every error raised on purpose by this package derives from GeometryError,
so callers (and the CLI) can distinguish numerical/geometric failures from
programming errors.
"""


class GeometryError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(GeometryError):
    """Operands have incompatible dimensions."""


class HyperquadricError(GeometryError):
    """A vector fails a required quadric membership test (beyond tolerance),
    or its Poincare ball point rounds onto the unit sphere."""


class ChartDomainError(GeometryError):
    """A chart point is outside its chart's domain, a finite-difference
    stencil around it escapes that domain or is lost in rounding, the field
    or its gradient is not finite there, the metric ghat underflows to 0
    there, or a band chart's edge is not in (0, pi/2]."""


class ImmersionError(GeometryError):
    """The map is degenerate at the requested point or scale."""


class SingularParameterError(GeometryError):
    """A formula is evaluated at an excluded parameter value (a pole)."""


class RootBracketError(GeometryError):
    """A root bracket does not straddle a sign change, or the root fails
    its validation conditions."""


class SamplingError(GeometryError):
    """A count out of minkowski.sample_count's range, or an empty or unusable sample set."""
