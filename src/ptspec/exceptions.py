"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input lies outside the mathematical domain of the operation."""


class NonConvergence(RuntimeError):
    """An iterative computation failed to converge within its cap."""


class UnsupportedModel(ValueError):
    """The requested parameter regime has no analytic solution implemented."""


class SingularPoint(ValueError):
    """A contour point coincides with a singularity of the potential."""


class InsufficientLevels(ValueError):
    """Fewer levels were supplied than the comparison requires."""
