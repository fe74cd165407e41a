"""Exception types raised by the library.

Each maps to a distinct CLI exit code so that batch callers can tell a bad
model from an exhausted truncation budget without parsing stderr.
"""

from __future__ import annotations

__all__ = [
    "PredictorLabError",
    "ConfigError",
    "ModelValidationError",
    "DegeneracyError",
    "TruncationError",
    "OracleDisagreementError",
    "RegimeError",
]


class PredictorLabError(Exception):
    """Base class for all library errors."""


class ConfigError(PredictorLabError):
    """Malformed configuration: unknown keys, unparseable values, bad flag combinations."""


class RegimeError(ConfigError):
    """Operation requires a memory regime the model does not have.

    E.g. a long-memory scaling experiment on a short-memory model.
    """


class ModelValidationError(PredictorLabError):
    """Model parameters violate the admissibility constraints."""


class DegeneracyError(PredictorLabError):
    """Autocovariances not numerically positive definite: the Levinson innovation
    variance collapsed at ``order``, or a normal-equations residual is too large."""

    def __init__(self, message: str, order: int | None = None):
        super().__init__(message)
        self.order = order


class TruncationError(PredictorLabError):
    """Requested accuracy not reachable within the truncation budget.

    Carries the bound actually achieved so the caller can decide whether
    to enlarge the budget or accept the result.
    """

    def __init__(self, message: str, achieved: float | None = None,
                 required: float | None = None):
        super().__init__(message)
        self.achieved = achieved
        self.required = required


class OracleDisagreementError(PredictorLabError):
    """Two independent computation routes disagree beyond tolerance."""

    def __init__(self, message: str, max_diff: float | None = None,
                 tol: float | None = None):
        super().__init__(message)
        self.max_diff = max_diff
        self.tol = tol
