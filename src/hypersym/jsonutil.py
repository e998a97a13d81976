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

A _Rows node prints many documents of one shape, such as a block's lifted
eigenpairs: its row is one such document with _HOLE at each float, and its
values a 2-d float array with one line per document and one column per
hole, in document order (keys sorted). The row is printed once through the
recursion into a template with a "%s" hole at each float, after which one
finiteness pass checks the array. A float that is always zero, such as the
imaginary part of a real vector, is a literal 0.0 in the row and prints as
0. A list of one entry repeated, such as a vector's [re, im] slots, is
_ENTRIES in the row: its entry is printed once and repeated count times. A
node stands for its documents inside the list that holds it, spliced in
among the other items (a node with no lines adds nothing); anywhere else it
is refused. A row that cannot be printed is refused before any of its
values.

A lifted vector repeats its block vector up to a sign or a root of unity,
so the nodes of a report hold far fewer distinct magnitudes than floats. A
list holding nodes is therefore printed by one "%" operation on one
template, filled from one np.unique pass over the |x| of all its nodes:
each distinct magnitude is printed once with "%.17g", and a negative value
takes that text behind a "-", which is what "%.17g" prints for it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain
from typing import Any

import numpy as np

from .errors import DocumentError


@dataclass(frozen=True)
class _Rows:
    """Documents of one shape: row with _HOLE at each float slot and
    _ENTRIES for the list of count copies of entry, filled in turn from the
    lines of the 2-d float array values."""

    row: Any
    values: np.ndarray
    entry: Any = None
    count: int = 0


# a float slot and a repeated list of a _Rows row; they print as a NUL and
# a SOH, which json.dumps never leaves in a string or key, so the template
# can find them
_HOLE = object()
_ENTRIES = object()


def canonical_json(obj: Any) -> str:
    """Serialize obj to a canonical JSON string (no trailing newline)."""
    return _encode(obj)


def _encode(obj: Any) -> str:
    # no container is also a scalar, so only bool before int needs an order
    if type(obj) is float:
        return _float(obj)
    if isinstance(obj, (list, tuple)):
        if type(obj) is list and obj:  # most lists of a report are rows of floats
            text = _float_rows(obj)
            if text is not None:
                return text
        nodes = [item for item in obj if type(item) is _Rows]
        if nodes:
            return _spliced(obj, nodes)
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
    if obj is _HOLE:
        return "\0"
    if obj is _ENTRIES:
        return "\1"
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


def _spliced(items: list | tuple, nodes: list[_Rows]) -> str:
    """items, among them the row nodes nodes, with each node's documents in
    its place: one template with a %s hole per float of the nodes, filled by
    one % operation with the text of each distinct magnitude, printed once."""
    template = ", ".join(filter(None, [  # only a node with no lines prints ""
        _template(item) if type(item) is _Rows else _encode(item).replace("%", "%%") for item in items
    ]))
    flat = np.concatenate([node.values.ravel() for node in nodes])
    magnitudes, index = np.unique(np.abs(flat), return_inverse=True)
    # one % operation for all magnitudes; no "%.17g" text holds a space
    texts = (" ".join(["%.17g"] * len(magnitudes)) % tuple(magnitudes.tolist())).split(" ")
    # "%.17g" % -x is "-" + "%.17g" % x for x > 0, and -0.0, not < 0, prints as 0
    texts = np.array(texts + ["-" + text for text in texts], dtype=object)
    return "[" + template % tuple(texts[index + len(magnitudes) * (flat < 0)].tolist()) + "]"


def _template(node: _Rows) -> str:
    """The documents of a node, joined by ", " without brackets, with a %s
    hole at each float; "" for a node with no lines. Refuses the row, then
    the first non-finite value in document order."""
    values = node.values
    if not len(values):
        return ""
    entries = "[" + ", ".join([_encode(node.entry)] * node.count) + "]"
    template = _encode(node.row).replace("\1", entries).replace("%", "%%").replace("\0", "%s")
    finite = np.isfinite(values)
    if not finite.all():
        _float(float(values[~finite][0]))  # the first in document order: raises
    return ", ".join([template] * len(values))


def _member(key: Any, value: Any) -> str:
    if not isinstance(key, str):
        raise DocumentError(f"object key {key!r} is not a string")
    return json.dumps(key) + ": " + _encode(value)


def complex_pair(z) -> list:
    """[re, im] of a complex scalar; for an array, the same pair for every
    entry, nested as the array is. A real input is not copied to complex:
    its pairs are [x, 0.0]."""
    z = np.asarray(z)
    parts = (z.real, z.imag) if np.iscomplexobj(z) else (z, np.zeros(z.shape))
    return np.stack(parts, axis=-1).astype(np.float64, copy=False).tolist()


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
    except (ValueError, RecursionError) as exc:  # an integer too long to convert, nesting too deep
        raise DocumentError(f"{what} cannot be read: {exc}") from None


def require_object(doc: Any, what: str) -> dict:
    if not isinstance(doc, dict):
        raise DocumentError(f"{what} must be a JSON object, got {type(doc).__name__}")
    return doc


def require_key(doc: dict, key: str, what: str) -> Any:
    if key not in doc:
        raise DocumentError(f"{what} is missing required key {key!r}")
    return doc[key]
