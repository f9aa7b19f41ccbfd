"""Exception types shared across the package."""

from __future__ import annotations


class ProjPairError(Exception):
    """Base class for all package-specific errors."""


class DomainError(ProjPairError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class SingularPointError(DomainError):
    """A point coincides with a fan vertex, where the inverse map blows up."""


class ParallelRaysError(DomainError):
    """Two rays are (numerically) parallel and have no intersection point."""


class ConfigurationError(ProjPairError, ValueError):
    """Inconsistent or inadmissible configuration of geometry/grids/options."""


class AccuracyError(ProjPairError, RuntimeError):
    """Adaptive quadrature hit its refinement cap before reaching tolerance.

    Carries the best estimate so callers can decide whether to accept it.
    """

    def __init__(self, message: str, best_estimate, achieved_tol: float):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.achieved_tol = achieved_tol


class EvaluationError(ProjPairError, RuntimeError):
    """A kernel or integrand produced a non-finite value at a sample."""


class DegenerateKernelError(ProjPairError, ValueError):
    """A kernel vanishes identically on the sampled range."""


class DivergenceError(ProjPairError, RuntimeError):
    """An iterative solve produced non-finite values."""

    def __init__(self, message: str, iteration: int):
        super().__init__(message)
        self.iteration = iteration
