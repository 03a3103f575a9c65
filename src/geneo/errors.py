"""Exception hierarchy shared by all modules."""


class GeneoError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(GeneoError):
    """Operands have incompatible shapes."""


class NotSymmetric(GeneoError):
    """A matrix required to be symmetric is asymmetric beyond tolerance."""


class IndefiniteMatrix(GeneoError):
    """A pivot fell below the negative tolerance during factorization."""


class PencilNotDefinite(GeneoError):
    """The right-hand matrix of a generalized eigenproblem is not spd."""


class BreakdownNonpositivePivot(GeneoError):
    """IC(0) hit a nonpositive pivot; the factorization does not exist."""


class UnassignedElement(GeneoError):
    """A mesh element is not covered by the partition."""


class SingularAfterBC(GeneoError):
    """No Dirichlet condition present, assembled operator is singular."""


class ZeroDiagonal(GeneoError):
    """A scaling denominator vanished."""


class CoarseIsWholeSpace(GeneoError):
    """The coarse space has the dimension of the global space."""


class CoarseSingular(GeneoError):
    """The coarse operator could not be factorized."""


class LocalSolverSingular(GeneoError):
    """An operation requiring invertible local solvers met a singular one."""


class KernelNotInCoarseSpace(GeneoError):
    """A local solver kernel is not contained in the coarse space."""


class NonFiniteValue(GeneoError):
    """A factor or a solver quantity contains NaN or infinity."""


class ProblemTooLarge(GeneoError):
    """Dense verification was requested above the size cap."""


class ConfigError(GeneoError, ValueError):
    """A configuration value, or a combination of values, is not allowed."""


class UnsupportedVariant(ConfigError):
    """The requested preconditioner combination is not defined."""


class TooManySubdomains(ConfigError):
    """Requested more subdomains than the partitioner can produce."""
