"""Exception types shared across the package.

Every error carries a machine-readable payload so the CLI can emit structured
error JSON. ``exit_code`` maps the class onto the CLI's documented exit codes.
"""

from __future__ import annotations


class PromptShapError(Exception):
    exit_code = 1

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = details

    def payload(self) -> dict:
        return {"error": type(self).__name__, "message": str(self), **self.details}


class PreconditionError(PromptShapError):
    """An operation was called outside its stated domain."""


class CapacityError(PromptShapError):
    """Problem size exceeds a configured cap (e.g. exact enumeration limit)."""


class ConsistencyError(PromptShapError):
    """Inputs disagree with each other (ids, shapes, mixed cell types)."""


class UtilityOracleError(PromptShapError):
    """A utility oracle failed; details carry the coalition context."""


class ShapeError(PromptShapError):
    """Dimension mismatch between model and data."""


class UndefinedCorrelationError(PromptShapError):
    """Pearson correlation requested on a zero-variance input."""


class ConditioningError(PromptShapError):
    """A numerical method did not converge: a kernel factorization after the
    maximum jitter, the incomplete-beta continued fraction, or the Beta
    quadrature."""


class TransportError(PromptShapError):
    """HTTP request failed after exhausting retries."""


class ProtocolError(PromptShapError):
    """The remote endpoint returned a malformed or unexpected body."""


class CredentialError(PromptShapError):
    exit_code = 4


class ConfigError(PromptShapError):
    exit_code = 3
