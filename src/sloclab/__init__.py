"""Numerical laboratory for stochastic localization of log-concave measures.

The package simulates the localization process theta_t = t X + W_t together
with its tilted moments, transports ensembles to the r-clock frame, and turns
identities about those objects (variance decomposition, Fisher energy bounds,
the entropy-power deficit chain, isotropic-constant pins) into seeded,
tolerance-gated verdicts.
"""

from .errors import (
    ConfigError,
    DivergentTilt,
    InputValidationError,
    SloclabError,
    UnknownMeasureError,
)
from .measures import (
    DEFAULT_CATALOG,
    MeasureSpec,
    make_ball,
    make_cube,
    make_gaussian,
    make_product,
    parse_measure_id,
)
from .reports import EstimatorResult, LemmaReport, gate, info

__all__ = [
    "ConfigError",
    "DEFAULT_CATALOG",
    "DivergentTilt",
    "EstimatorResult",
    "InputValidationError",
    "LemmaReport",
    "MeasureSpec",
    "SloclabError",
    "UnknownMeasureError",
    "gate",
    "info",
    "make_ball",
    "make_cube",
    "make_gaussian",
    "make_product",
    "parse_measure_id",
]

__version__ = "0.1.0"
