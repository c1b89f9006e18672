"""Exception types shared across the toolkit."""

import json
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

    Wrap the code that turns the file's JSON into objects: a wrong value
    there raises one of the built-in errors caught here, which would
    otherwise end the run in a traceback or an unnamed key.
    """
    try:
        yield
    except (ValidationError, ValueError, TypeError, KeyError, AttributeError, RecursionError) as exc:
        raise ValidationError(f"{Path(path).name}: {exc}") from exc


def read_json(path: str | Path, shape):
    """The JSON file at `path`, checked against its declared `shape`; a fault is a
    ValidationError naming the file and the key path.

    A shape is `str` (a nonempty string), an int k (an integer array of rank k,
    read as parsed; rank 0 is one integer, read as an int), `[shape]` (a list of
    that shape), `{int: shape}` (an object with decimal-integer keys, read as
    ints) or `{"key": shape, "optional?": shape}` (an object with no other key).
    A tuple of objects lists the forms of a file, told apart by their first key.
    """
    with parsing(path):
        return _checked(json.loads(Path(path).read_text(encoding="utf-8")), shape, "")


def _checked(value, shape, at: str):
    where = f"{at}: " if at else ""
    if shape is str:
        if not isinstance(value, str) or not value:
            raise ValidationError(f"{where}expected a nonempty string")
        return value
    if isinstance(shape, int):
        arr = integers(value, f"{where}expected " + (f"an integer array of rank {shape}" if shape
                                                      else "an integer"), shape)
        return value if shape else int(arr)
    if isinstance(shape, list):
        if not isinstance(value, list):
            raise ValidationError(f"{where}expected a list")
        return [_checked(item, shape[0], f"{at}[{i}]") for i, item in enumerate(value)]
    if not isinstance(value, dict):
        raise ValidationError(f"{where}expected an object")
    if int in shape:
        for key in value:  # int() would read "0_1" or " 1" as 1, so two keys could name one entry
            if not re.fullmatch(r"0|-?[1-9][0-9]*", key):
                raise ValidationError(f"{where}key {key!r} is not a decimal integer")
        return {int(k): _checked(v, shape[int], f"{at}[{k}]") for k, v in value.items()}
    forms = shape if isinstance(shape, tuple) else (shape,)
    form = next((f for f in forms if next(iter(f)) in value), None)
    if form is None:
        raise ValidationError(f"{where}missing key " + " or ".join(repr(next(iter(f))) for f in forms))
    names = {key.rstrip("?"): key for key in form}
    for key in value:
        if key not in names:
            raise ValidationError(f"{where}unknown key {key!r}")
    for name, key in names.items():
        if name == key and name not in value:
            raise ValidationError(f"{where}missing key {name!r}")
    return {name: _checked(v, form[names[name]], f"{at}.{name}" if at else name) for name, v in value.items()}


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
