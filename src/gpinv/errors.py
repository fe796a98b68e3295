"""Exception types shared across the package."""


class GpinvError(Exception):
    """Base class for all package-specific failures."""


class IllConditionedKernelError(GpinvError):
    """Covariance matrix could not be factorized even after jitter escalation.

    Carries ``cond_estimate``, a cheap estimate of the condition number of the
    offending matrix (may be ``inf`` for exactly singular systems), and ``failed``,
    the mask of the rows that failed in a stacked factorization.
    """

    def __init__(self, message, cond_estimate, failed):
        super().__init__(message)
        self.cond_estimate = cond_estimate
        self.failed = failed


class SolverError(GpinvError):
    """A linear solve inside a forward model failed; message carries diagnostics."""


class InvalidParameterError(GpinvError):
    """Forward-model parameters violate a physical validity requirement."""


class InitializationError(GpinvError):
    """Sampler could not be started (e.g. no walker has finite log-probability)."""


class CapabilityError(GpinvError):
    """Requested operation exceeds a supported limit (e.g. sequence dimension)."""
