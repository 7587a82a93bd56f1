"""Exception hierarchy shared by the toolkit."""


class LvrError(Exception):
    """Base class for all toolkit errors."""


class TokenizationError(LvrError):
    """Malformed vocabulary, unknown token id, or unencodable text."""


class ModelError(LvrError):
    """Invalid prefix, post-terminator query, or bad training input."""


class ReductionError(LvrError):
    """Reduction session failure: zero mass or a vocabulary mismatch."""


class EnsembleError(LvrError):
    """Ensemble construction or lock-step generation failure."""


class ZeroProductError(EnsembleError):
    """Product-of-experts combination collapsed to an all-zero vector.

    Carries per-member support sizes so the failure is diagnosable.
    """

    def __init__(self, message: str, supports: list[int] | None = None):
        super().__init__(message)
        self.supports = supports or []


class BudgetExceededError(LvrError):
    """An exhaustive enumeration exceeded its configured budget."""


class FileFormatError(LvrError):
    """A vocabulary, merges, or model file failed to parse."""
