"""Shared exception and warning types for the toolkit."""

from typing import Optional


class ConfigError(ValueError):
    """A scenario configuration file failed validation.

    The message always names the offending field path, e.g.
    ``dimensions.N_E: expected a list of length K_eves``.
    """


class ModelError(ValueError):
    """Model inputs violate a structural precondition (non-PSD matrix,
    degenerate correlation, dimension mismatch)."""


class ConvergenceError(RuntimeError):
    """An iterative solver exhausted its iteration budget.

    Carries the last residual so callers can decide whether the partial
    answer is usable, and ``n_iter``, the iterations run before giving up
    (None where the failure is not an iteration cap).
    """

    def __init__(self, message: str, residual: float, n_iter: Optional[int] = None):
        if n_iter is not None:
            message = f"{message} after {n_iter} iterations"
        super().__init__(f"{message} (last residual {residual:.3e})")
        self.residual = residual
        self.n_iter = n_iter


class InvalidCovarianceError(ValueError):
    """A covariance entry was requested in a regime where the asymptotic
    formula is invalid (a determinant-like factor is not in (0, 1])."""


class DegenerateRegimeError(RuntimeError):
    """A derivative solve hit a numerically singular system."""


class CovarianceValidityWarning(UserWarning):
    """Emitted when a determinant-like factor leaves (0, 1]; results carry
    a validity flag so parameter sweeps can skip the regime."""
