"""Base exception for everything raised by this package, and the one
reader of JSON config files.

Concrete errors live next to the code that raises them; catching
MixeditError at a boundary (e.g. the CLI, or per-record synthesis)
is the supported way to separate domain failures from bugs.
"""

import json
from pathlib import Path


class MixeditError(Exception):
    pass


def _has_type_of(value, example) -> bool:
    """JSON type check: a bool only for a bool, any number for a float,
    and otherwise the example's own type."""
    if isinstance(example, bool) or isinstance(value, bool):
        return type(value) is type(example)
    if isinstance(example, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(example))


def read_json_config(path, defaults: dict, error: type[MixeditError],
                     nullable: dict | None = None) -> dict:
    """The JSON object in ``path``, whose keys must all be in ``defaults``
    and whose values must have their default's JSON type. A key whose
    default is null takes null or the type of its example in
    ``nullable``. Anything else, or an unreadable file, raises ``error``.
    """
    try:
        doc = json.loads(Path(path).read_text("utf-8"))
    except (OSError, ValueError, RecursionError) as err:
        # ValueError covers bad UTF-8 and bad JSON.
        raise error(f"{path}: {err}") from err
    if not isinstance(doc, dict):
        raise error(f"{path}: expected a JSON object")
    for key, value in doc.items():
        if key not in defaults:
            raise error(f"{path}: unknown key {key!r}")
        example = defaults[key]
        if example is None:
            if value is None:
                continue
            example = nullable[key]
        if not _has_type_of(value, example):
            raise error(f"{path}: {key} has the wrong type: {value!r}")
    return doc
