"""Exception types shared across the toolkit."""


class DynamicInferenceError(Exception):
    """Base class for every domain error raised by this package."""


class InvalidModelError(DynamicInferenceError):
    """A model document or table is structurally malformed."""


class DimensionMismatch(DynamicInferenceError):
    """A kernel, distribution or table is shaped for the wrong alphabet."""


class NotStochastic(DynamicInferenceError):
    """A probability row has a negative entry or does not sum to one."""


class HorizonMismatch(DynamicInferenceError):
    """The number of per-round kernels does not match the horizon."""


class UnknownLabel(DynamicInferenceError):
    """A label is not a member of the alphabet it was looked up in."""


class ShapeMismatch(DynamicInferenceError):
    """A strategy is shaped for a different problem."""


class SearchSpaceTooLarge(DynamicInferenceError):
    """An exhaustive search would exceed the configured limit."""


class InvalidParams(DynamicInferenceError):
    """Parameters for a model builder or simulation are out of range."""
