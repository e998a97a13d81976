"""Deterministic JSON emission and strict loading for document I/O.

Floats are printed with "%.17g", 17 significant digits, so every float
round-trips exactly (-0.0 prints as 0); keys are sorted and separators
fixed, making output byte-identical for identical inputs. Arrays are turned
into lists in one call each (complex_pair, ndarray.tolist) before encoding.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .errors import DocumentError


def canonical_json(obj: Any) -> str:
    """Serialize obj to a canonical JSON string (no trailing newline)."""
    return _encode(obj)


def _encode(obj: Any) -> str:
    # no container is also a scalar, so only bool before int needs an order
    if type(obj) is float:  # most nodes of a report
        return _float(obj)
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
