"""Exception types shared across the toolkit."""

import re
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import numpy as np


class GroupLabError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(GroupLabError):
    """An input violates a structural requirement (bad table, non-hom, ...)."""


class CapExceeded(GroupLabError):
    """A configured size cap was exceeded.

    Raised instead of silently sampling; callers that can fall back to a
    cheaper strategy should catch this.
    """

    def __init__(self, cap_name: str, limit: int, actual: int, detail: str = ""):
        self.cap_name = cap_name
        self.limit = limit
        self.actual = actual
        message = f"cap '{cap_name}' exceeded: {actual} > {limit}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)


class NilpotentElementError(GroupLabError):
    """A ring expected to be nilpotent-free contains a nilpotent element."""

    def __init__(self, witness: int, detail: str = ""):
        self.witness = witness
        message = f"nonzero nilpotent element found: id {witness}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)


@contextmanager
def parsing(path: str | Path) -> Iterator[None]:
    """Report a malformed field of the file at `path` as a ValidationError naming the file.

    Wrap the code that turns the file's JSON into objects: a wrong type,
    value or shape there raises one of the built-in errors caught here,
    which would otherwise end the run in a traceback or an unnamed key.
    """
    try:
        yield
    except (ValidationError, ValueError, TypeError, KeyError, AttributeError) as exc:
        raise ValidationError(f"{Path(path).name}: {exc}") from exc


def integers(value, error: str, ndim: int | None = None) -> np.ndarray:
    """`value` as a numpy array of integers of rank `ndim` (any rank if None),
    else a ValidationError with the message `error`.

    int() would truncate 1.9 to 1 and read True or "1" as 1; the kind of the
    array numpy makes of the value tells them apart.  An empty value has no
    entry that is not an integer.
    """
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged nesting
        raise ValidationError(error) from None
    if (arr.size and arr.dtype.kind not in "iu") or (ndim is not None and arr.ndim != ndim):
        raise ValidationError(error)
    return arr


def integer_key(key: str, error: str) -> int:
    """The JSON object key `key` as an int when it is a canonical decimal, else a
    ValidationError with the message `error`.

    int() would read "0_1" or " 1" as 1, so two keys could name one entry.
    """
    if not re.fullmatch(r"0|-?[1-9][0-9]*", key):
        raise ValidationError(error)
    return int(key)
