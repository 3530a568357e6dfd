"""Base exception for everything raised by this package, the one type
rule for JSON input, and the one reader of JSON config files.

Concrete errors live next to the code that raises them; catching
MixeditError at a boundary (e.g. the CLI, or per-record synthesis)
is the supported way to separate domain failures from bugs.
"""

import json
import math
import numbers
import types
import typing
from pathlib import Path


class MixeditError(Exception):
    pass


def _fits(value, hint) -> bool:
    """Whether ``value`` fits the annotation ``hint``, as
    ``check_types`` says."""
    if isinstance(hint, types.UnionType):
        return any(_fits(value, h) for h in typing.get_args(hint))
    hint = typing.get_origin(hint) or hint
    if hint is type(None):
        return value is None
    if isinstance(value, bool):  # an int to Python, but no number in JSON
        return hint is bool
    if hint is int:
        return isinstance(value, numbers.Integral)
    if hint is float:
        try:
            return isinstance(value, numbers.Real) and math.isfinite(value)
        except OverflowError:  # an int beyond the float range
            return False
    return isinstance(value, hint)


def check_types(values: dict, hints: dict, error: type[MixeditError],
                where: str = "") -> None:
    """Raise ``error``, its message prefixed by ``where``, for the first
    key of ``values`` that ``hints`` lacks or whose value does not fit its
    annotation there: an int is an integer and a float a finite number,
    neither a bool; None fits only ``X | None``; any other class, such as
    str, list or dict, is checked as that container only."""
    for key, value in values.items():
        if key not in hints:
            raise error(f"{where}unknown key {key!r}")
        if not _fits(value, hints[key]):
            raise error(f"{where}{key} has the wrong type: {value!r}")


def read_json_config(path, hints: dict, error: type[MixeditError]) -> dict:
    """The JSON object in ``path``, whose keys and values ``check_types``
    takes against ``hints``. Anything else, or an unreadable file, raises
    ``error``. A leading UTF-8 byte-order mark is skipped.
    """
    try:
        doc = json.loads(Path(path).read_text("utf-8-sig"))
    except (OSError, ValueError, RecursionError) as err:
        # ValueError covers bad UTF-8 and bad JSON.
        raise error(f"{path}: {err}") from err
    if not isinstance(doc, dict):
        raise error(f"{path}: expected a JSON object")
    check_types(doc, hints, error, f"{path}: ")
    return doc
