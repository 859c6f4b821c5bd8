"""Shared exception and warning types for the toolkit."""

from typing import Optional


class ConfigError(ValueError):
    """A configuration input (the scenario file, a command-line flag or
    ``IRS_SECRECY_THREADS``) failed validation.

    The message always names the offending field, flag or variable, e.g.
    ``dimensions.N_E: expected a non-empty list of length K_eves`` or
    ``power.split_V: unknown key``.
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
    """Emitted when a determinant-like factor of a covariance entry leaves
    (0, 1], the asymptotic formula's validity region. The message names the
    pair of terms and every factor of its entry with its value; a factor
    <= 0 then raises InvalidCovarianceError."""
