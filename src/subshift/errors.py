"""Semantic exceptions shared across the package."""


class SubshiftError(Exception):
    """Base class for all package errors."""


class NonNormalizable(SubshiftError):
    """Probability vector cannot be repaired into a distribution."""


class OutOfRange(SubshiftError):
    """Scalar argument outside its documented domain."""


class SupportMismatch(SubshiftError):
    """KL divergence undefined: p puts mass where q has none."""


class EmptyGroup(SubshiftError):
    """A group with positive requested weight has zero mass."""


class InvalidScheme(SubshiftError):
    """Unknown or malformed grouping scheme."""


class TooManyGroups(SubshiftError):
    """Grid search requested over a simplex too large to enumerate."""


class DimensionMismatch(SubshiftError):
    """Array shapes disagree with the model configuration."""


class SingleClass(SubshiftError):
    """AUC undefined: labels contain only one class."""


class MissingCell(SubshiftError):
    """Evaluation split lacks one of the required (A, S) cells."""


class DegenerateInput(SubshiftError):
    """Correlation or AUC undefined: too few points, zero variance, or non-finite scores."""


class YBasedGrouping(SubshiftError):
    """Grouping uses label information, rejected for model-based methods."""


class InsufficientSchemes(SubshiftError):
    """Correlation analysis needs at least three schemes per method."""


class InvalidConfig(SubshiftError):
    """Experiment spec or command-line value the sweep cannot run."""
