"""Exception types shared across the package."""

import copyreg


class CovercountError(Exception):
    """Base class for all library errors."""

    def __reduce__(self):
        # rebuild from the message, not through a subclass's own __init__, so
        # that an error raised in a worker process keeps its type and message
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ValidationError(CovercountError):
    """A group definition violates the ping-pong / homology contract."""


class DisksOverlap(ValidationError):
    def __init__(self, pairs):
        self.pairs = list(pairs)
        super().__init__(f"closed disks overlap: {self.pairs}")


class PairingBroken(ValidationError):
    def __init__(self, index, detail=""):
        self.index = index
        super().__init__(f"generator {index} does not pair its disks {detail}")


class RankDeficientHomology(ValidationError):
    def __init__(self, rank, d):
        self.rank, self.d = rank, d
        super().__init__(f"homology matrix has rank {rank} < d = {d}")


class NotLoxodromic(CovercountError):
    """Length/holonomy requested for a non-loxodromic element."""


class PoleAtPoint(CovercountError):
    """Boundary derivative evaluated at the pole of the map."""


class BudgetExceeded(CovercountError):
    def __init__(self, limit):
        self.limit = limit
        super().__init__(f"enumeration exceeded budget cap {limit}")


class NotConverged(CovercountError):
    """An iteration stopped short of its tolerance: the eigensolver unless
    what names another one."""

    def __init__(self, detail, what="eigensolver did not converge:"):
        self.detail = detail
        super().__init__(f"{what} {detail}")


class DiscretizationUnstable(CovercountError):
    """The eigenfunction's interpolant misses the eigenvalue equation off the
    collocation nodes (off-node residual above OFF_NODE_TOL); refine the
    discretization."""


class BracketFailed(CovercountError):
    """Root bracketing for the pressure equation failed."""


class HessianNotPD(CovercountError):
    """Pressure Hessian at 0 is not positive definite."""


class NotAtCriticalExponent(CovercountError):
    """Parry chain requested from spectral data with leading eigenvalue != 1."""


class HolonomyUnavailable(CovercountError):
    """Holonomy character requested on a shift without holonomy data."""


class InsufficientData(CovercountError):
    """Too few samples/checkpoints for the requested statistic."""


class SingularReference(CovercountError):
    """Reference covariance is singular."""
