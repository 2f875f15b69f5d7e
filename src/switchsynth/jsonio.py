"""Deterministic JSON emission for report and program documents.

The stdlib encoder prints floats with shortest round-trip repr; documents
here pin floats to 17 significant digits instead, which also round-trips
IEEE doubles exactly and keeps byte-for-byte output stable across runs.
Output is parseable by ``json.loads``.

A dict, and a list that holds a dict, is written one entry per line, each
entry indented two spaces deeper than its container; any other list is
written on one line. A list inside a one-line list is laid out as at level
0, so one that holds a dict opens a block indented from the left margin.
Tuples are written as lists, and a ``RawJSON`` value as is.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _quote  # json.dumps(str)


class RawJSON(str):
    """Text already in document form, which ``dumps`` writes as is.

    As simplejson's ``RawJSON``: the writer trusts the text, so only code
    that rendered it with this module's rules should make one.
    """


def format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite float {value}")
    if value == 0.0:
        return "0"  # canonicalize -0.0 so round trips are byte-stable
    return "%.17g" % value


def _scalar(obj) -> str:
    """Text of a value that is not a dict, list or tuple."""
    # no class inherits two of str, float and int; bool is an int
    if isinstance(obj, str):
        return obj if type(obj) is RawJSON else _quote(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__} into a document")


def _emit(obj, level: int, pieces: list[str]) -> None:
    pad = "  " * (level + 1)
    close_pad = "  " * level
    if isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"document keys must be strings, got {key!r}")
            pieces.append(f"{pad}{_quote(key)}: ")
            if isinstance(value, (dict, list, tuple)):
                _emit(value, level + 1, pieces)
            else:
                pieces.append(_scalar(value))
            pieces.append(",\n")
        pieces[-1] = "\n"  # no comma after the last entry
        pieces.append(close_pad + "}")
    elif not isinstance(obj, (list, tuple)):
        pieces.append(_scalar(obj))
    elif not obj:
        pieces.append("[]")
    elif any(isinstance(el, dict) for el in obj):
        pieces.append("[\n")
        for el in obj:
            pieces.append(pad)
            _emit(el, level + 1, pieces)
            pieces.append(",\n")
        pieces[-1] = "\n"
        pieces.append(close_pad + "]")
    else:  # joined here, so a nested list leaves one string in its parent's parts
        parts = ["["]
        for el in obj:
            if isinstance(el, (list, tuple)):
                _emit(el, 0, parts)  # a nested list starts over at level 0
            else:
                parts.append(_scalar(el))
            parts.append(", ")
        parts[-1] = "]"
        pieces.append("".join(parts))


def dumps(obj) -> str:
    """Serialize a document; trailing newline included."""
    pieces: list[str] = []
    _emit(obj, 0, pieces)
    return "".join(pieces) + "\n"
