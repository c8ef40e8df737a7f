"""Exception types and argument checks shared across dmeter modules.

Argument errors (bad shapes, out-of-range parameters, empty inputs) raise
plain ValueError.  The classes here cover the remaining failure modes that
callers may want to handle separately from bad arguments.
"""

import math


def check_choice(what: str, value, choices: tuple) -> None:
    """ValueError unless value is one of choices; what names the option."""
    if value not in choices:
        raise ValueError(f"unknown {what} {value!r}; choose from {choices}")


def check_int(what: str, value) -> None:
    """ValueError unless value is an int (a bool or a float is not one);
    what names the argument."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")


def check_smoothing(smoothing: float) -> None:
    """ValueError unless the additive smoothing is a finite number >= 0 (a
    bool is not one)."""
    if isinstance(smoothing, bool) or not 0 <= smoothing < math.inf:
        raise ValueError(f"smoothing must be a finite number >= 0, got {smoothing}")


class MeasurementError(Exception):
    """Base class for dmeter-specific failures."""


class UndefinedValueError(MeasurementError):
    """The requested measurement has no defined value for this input.

    Raised e.g. for cosine similarity of a zero-norm vector, perplexity of
    an empty corpus, or a readability score over a corpus with no scoreable
    records.  The caller decides policy (skip, flag, abort).
    """


class KernelInvalidError(MeasurementError):
    """A similarity kernel violates positive semidefiniteness beyond tolerance."""
