"""Deterministic JSON emission and strict loading for document I/O.

Floats are printed with "%.17g", 17 significant digits, so every float
round-trips exactly (-0.0 prints as 0); keys are sorted and separators
fixed, making output byte-identical for identical inputs. Arrays are turned
into lists in one call each (complex_pair, ndarray.tolist) before encoding.

Rows of floats take a bulk path: a list whose items are all exact floats,
or a list of equal-length lists whose items are all exact floats, is
printed by one "%" operation on a template of its shape, after one
finiteness pass and one "+ 0.0" pass over its values. That covers every
complex_pair result, the sync log, residuals and matrix entries, where a
per-float walk would cost more than the formatting itself. Any other list
(a tuple, an np.float64, an int or bool item, ragged rows, deeper nesting,
a non-finite value) falls through to the recursion, which prints the same
bytes or raises the same first DocumentError.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from typing import Any

import numpy as np

from .errors import DocumentError


def canonical_json(obj: Any) -> str:
    """Serialize obj to a canonical JSON string (no trailing newline)."""
    return _encode(obj)


def _encode(obj: Any) -> str:
    # no container is also a scalar, so only bool before int needs an order
    if type(obj) is float:
        return _float(obj)
    if type(obj) is list and obj:  # most lists of a report are rows of floats
        text = _float_rows(obj)
        if text is not None:
            return text
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join([_encode(item) for item in obj]) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join([_member(key, obj[key]) for key in sorted(obj)]) + "}"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _float(obj)
    if isinstance(obj, complex):
        raise DocumentError("complex values must be encoded as [re, im] pairs")
    raise DocumentError(f"cannot serialize value of type {type(obj).__name__}")


def _float(x: float) -> str:
    if not math.isfinite(x):
        raise DocumentError(f"non-finite number {x!r} cannot be serialized")
    return "%.17g" % (x + 0.0)  # + 0.0 turns -0.0 into 0.0


def _float_rows(items: list) -> str | None:
    """items printed by one % operation when it is a list of exact floats or
    of equal-length lists of exact floats, all finite; None otherwise, for
    the recursion to print or refuse."""
    if type(items[0]) is list:
        width = len(items[0])
        if set(map(type, items)) != {list} or set(map(len, items)) != {width}:
            return None
        values = list(chain.from_iterable(items))
        row = "[" + ", ".join(["%.17g"] * width) + "]"
    else:
        values = items
        row = "%.17g"
    if set(map(type, values)) != {float} or not all(map(math.isfinite, values)):
        return None
    template = "[" + ", ".join([row] * len(items)) + "]"
    return template % tuple([x + 0.0 for x in values])  # + 0.0 turns -0.0 into 0.0


def _member(key: Any, value: Any) -> str:
    if not isinstance(key, str):
        raise DocumentError(f"object key {key!r} is not a string")
    return json.dumps(key) + ": " + _encode(value)


def complex_pair(z) -> list:
    """[re, im] of a complex scalar; for an array, the same pair for every
    entry, nested as the array is."""
    z = np.asarray(z, dtype=np.complex128)
    return np.stack((z.real, z.imag), axis=-1).tolist()


def describe_value(z: complex) -> str:
    """Human-readable complex value for diagnostics: real part alone when
    the imaginary part vanishes, %.6g precision."""
    z = complex(z)
    if z.imag == 0:
        return f"{z.real:.6g}"
    return f"{z.real:.6g}{z.imag:+.6g}i"


def parse_json(text: str, what: str = "document") -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{what} is not valid JSON: {exc}") from None


def require_object(doc: Any, what: str) -> dict:
    if not isinstance(doc, dict):
        raise DocumentError(f"{what} must be a JSON object, got {type(doc).__name__}")
    return doc


def require_key(doc: dict, key: str, what: str) -> Any:
    if key not in doc:
        raise DocumentError(f"{what} is missing required key {key!r}")
    return doc[key]
