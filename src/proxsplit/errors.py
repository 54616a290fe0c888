"""Exception hierarchy shared across the package."""


class ProxsplitError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(ProxsplitError, ValueError):
    """Vector or matrix shapes are inconsistent with the operation."""


class NonSymmetricError(ProxsplitError, ValueError):
    """A matrix required to be symmetric is not (beyond tolerance)."""


class RankDeficiencyError(ProxsplitError, ValueError):
    """A constraint operator lacks full row rank, or H is singular."""


class SingularKktError(ProxsplitError, ValueError):
    """KKT block system is singular or not finite; carries the observed rank
    defect when one was measured."""

    def __init__(self, message: str, *, size: int | None = None,
                 rank: int | None = None):
        super().__init__(message)
        self.size, self.rank = size, rank


class InfeasibleConstraintError(ProxsplitError, ValueError):
    """An affine constraint set is empty (no x with Lx = b)."""


class EigenConvergenceError(ProxsplitError, RuntimeError):
    """The symmetric eigensolver did not converge."""


class CapabilityError(ProxsplitError, ValueError):
    """A solver subproblem has no supported closed-form update."""


class UnboundedIterationError(ProxsplitError, ValueError):
    """No finite iteration count guarantees the target accuracy (rate >= 1)."""
