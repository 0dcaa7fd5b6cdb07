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


class ConfigError(SloclabError):
    """Experiment configuration is invalid; CLI maps this to exit code 1."""
