"""Semantic exceptions raised by the laboratory."""


class SloclabError(Exception):
    """Base class for all laboratory errors."""


class InputValidationError(SloclabError, ValueError):
    """A caller violated a documented precondition."""


class UnknownMeasureError(InputValidationError):
    """Measure id or factor tag not in the catalog."""


class DivergentTilt(SloclabError):
    """A tilt at t > 0, whose mass is always finite, is not finite in floating point."""


class ConfigError(SloclabError):
    """Experiment configuration is invalid; CLI maps this to exit code 1."""
