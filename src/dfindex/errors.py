"""Exception types shared across the toolkit."""


class DfIndexError(Exception):
    """Base class for all toolkit errors."""


class ConfigInvalid(DfIndexError):
    pass


class EvaluationDomain(DfIndexError):
    """Point lies outside the domain's bounding box."""


class NonFinite(DfIndexError):
    """Evaluator returned NaN or infinity."""


class OrderTooLow(DfIndexError):
    """Operation requires a higher-order jet than the one supplied."""


class NoConvergence(DfIndexError):
    """Iteration budget exhausted before reaching tolerance."""


class AmbiguousFoot(DfIndexError):
    """Two projection restarts disagree; point is likely on the cut locus."""


class StencilLeak(DfIndexError):
    """A point where a delta-jet is not defined: outside the collar, at or
    past a focal point, or with no converged projection (also raised for
    chart parameters outside the box)."""


class DegenerateGradient(DfIndexError):
    pass


class NotPseudoconvex(DfIndexError):
    """Strictly negative Levi eigenvalue detected on the boundary."""


class NotDegenerate(DfIndexError):
    """Operation only applies at Levi-degenerate boundary points."""


class ChartMismatch(DfIndexError):
    """Chart kind (real/complex) does not match the operation."""


class HypothesisFail(DfIndexError):
    """A pointwise hypothesis required by the check is violated."""


class ChartGap(DfIndexError):
    """Path leaves the chart atlas."""


class ObstructedClass(DfIndexError):
    """Potential reconstruction requested for a non-exact form."""


class PathDisagreement(DfIndexError):
    """Homotopic paths integrate to different values beyond tolerance."""


class CollarTooWide(DfIndexError):
    """Requested collar contains points with ambiguous foot points."""


class PsiDomain(DfIndexError):
    """psi evaluator not defined at a required stencil point."""


class MeshOutside(DfIndexError):
    """Interior-oracle mesh point is not strictly inside the domain."""


class NotACurve(DfIndexError):
    pass


class TangencyUnresolved(DfIndexError):
    """Transversality of the rotated tangent could not be classified."""


class BetaTooSmall(DfIndexError):
    pass


class IoFailure(DfIndexError):
    pass
