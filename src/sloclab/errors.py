"""Semantic exceptions raised by the laboratory."""


class SloclabError(Exception):
    """Base class for all laboratory errors."""


class InputValidationError(SloclabError, ValueError):
    """A caller violated a documented precondition."""


class UnknownMeasureError(InputValidationError):
    """Measure id or factor tag not in the catalog."""


class SingularCovariance(InputValidationError):
    """Covariance not positive definite; carries the offending eigenvalue."""

    def __init__(self, eigenvalue: float):
        self.eigenvalue = float(eigenvalue)
        super().__init__(f"covariance is singular (smallest eigenvalue {eigenvalue:.3e})")


class DivergentTilt(SloclabError):
    """Tilted partition function is infinite for the requested (t, theta)."""


class RejectionStall(SloclabError):
    """Rejection sampler acceptance rate collapsed below the stall threshold."""

    def __init__(self, acceptance: float, proposals: int, t: float, theta_norm: float):
        self.acceptance = acceptance
        self.proposals = proposals
        super().__init__(
            "rejection sampler stalled: acceptance %.3e over %d proposals "
            "(t=%.3e, |theta|=%.3e)" % (acceptance, proposals, t, theta_norm)
        )


class ConfigError(SloclabError):
    """Experiment configuration is invalid; CLI maps this to exit code 1."""
