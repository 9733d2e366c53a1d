"""Semantic exceptions shared across the package, and the one check of config fields."""

import sys
from dataclasses import fields

__all__ = [
    "SubshiftError",
    "NonNormalizable",
    "OutOfRange",
    "SupportMismatch",
    "EmptyGroup",
    "InvalidScheme",
    "TooManyGroups",
    "DimensionMismatch",
    "SingleClass",
    "MissingCell",
    "DegenerateInput",
    "YBasedGrouping",
    "InsufficientSchemes",
    "InvalidConfig",
    "check_fields",
]


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
    """Correlation or AUC undefined (too few points, zero variance, non-finite scores), or training diverged."""


class YBasedGrouping(SubshiftError):
    """Grouping uses label information, rejected for model-based methods."""


class InsufficientSchemes(SubshiftError):
    """Correlation analysis needs at least three schemes per method."""


class InvalidConfig(SubshiftError):
    """Experiment spec or command-line value the sweep cannot run."""


def _fits(value, default) -> bool:
    """Whether a value can stand in for a config field with this default.

    A tuple fits a tuple field item by item; an int fits a float field, but
    a float never fits an int one. True and False fit none, since True would
    run as 1 but hash differently, and numpy integers fit none, since
    manifest.json cannot hold them.
    """
    if isinstance(default, tuple):
        return isinstance(value, tuple) and all(_fits(v, default[0]) for v in value)
    if isinstance(value, bool):
        return False
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


def check_fields(config) -> None:
    """Refuse a config dataclass field of the wrong type, non-finite, or out of its declared bound.

    A field declares its bound in metadata: {"min": m} requires value >= m,
    {"above": m} requires value > m. The comparisons are written so that NaN
    fails them, and an int too large for a float fails the finiteness test.
    """
    for f in fields(config):
        value = getattr(config, f.name)
        if not _fits(value, f.default):
            raise InvalidConfig(f"{type(config).__name__} field {f.name!r} has the wrong type: {value!r}")
        if isinstance(f.default, float) and not abs(value) <= sys.float_info.max:
            raise OutOfRange(f"{f.name} must be finite, got {value}")
        if "min" in f.metadata and not value >= f.metadata["min"]:
            raise OutOfRange(f"{f.name} must be >= {f.metadata['min']}, got {value}")
        if "above" in f.metadata and not value > f.metadata["above"]:
            raise OutOfRange(f"{f.name} must be > {f.metadata['above']}, got {value}")
