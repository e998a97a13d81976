"""Deterministic JSON emission and strict loading for document I/O.

Floats are printed with "%.17g", 17 significant digits, so every float
round-trips exactly (-0.0 prints as 0); keys are sorted and separators
fixed, making output byte-identical for identical inputs. Arrays are turned
into lists in one call each (complex_pair, ndarray.tolist) before encoding.
The recursion appends the pieces of the text to one list, which
canonical_json joins once: no bracket, key or separator copies the text of
what it encloses, so a report-sized string is built once, not once per
level of nesting.

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
recursion and split at its floats into segments, after which one
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
list holding nodes therefore takes the texts of its floats from one
np.unique pass over the |x| of all its nodes: each distinct magnitude is
printed once with "%.17g", by one "%" operation, and a negative value
takes that text behind a "-", which is what "%.17g" prints for it; the "-"
ends the row segment before it, so no signed copy of a text is made. A
node's documents are then appended to the list of pieces as its segments
and texts interleaved, through one object array of references, and no
text of the node is built apart from the final join.
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
# a SOH, which json.dumps never leaves in a string or key, so a row's text
# can be split at them
_HOLE = object()
_ENTRIES = object()


def canonical_json(obj: Any) -> str:
    """Serialize obj to a canonical JSON string (no trailing newline)."""
    return _text(obj)


def _text(obj: Any) -> str:
    """obj's text, from the pieces _encode appends."""
    out: list[str] = []
    _encode(obj, out)
    return "".join(out)


def _encode(obj: Any, out: list[str]) -> None:
    """Append the pieces of obj's text to out."""
    # no container is also a scalar, so only bool before int needs an order
    if type(obj) is float:
        out.append(_float(obj))
    elif isinstance(obj, (list, tuple)):
        # most lists of a report are rows of floats
        text = _float_rows(obj) if type(obj) is list and obj else None
        if text is not None:
            out.append(text)
        elif any(type(item) is _Rows for item in obj):
            out.append("[")
            _spliced(obj, out)
            out.append("]")
        else:
            out.append("[")
            for i, item in enumerate(obj):
                if i:
                    out.append(", ")
                _encode(item, out)
            out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise DocumentError(f"object key {key!r} is not a string")
            out.append((", " if i else "") + json.dumps(key) + ": ")
            _encode(obj[key], out)
        out.append("}")
    else:
        out.append(_scalar(obj))


def _scalar(obj: Any) -> str:
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


def _spliced(items: list | tuple, out: list[str]) -> None:
    """Append the pieces of items, among them row nodes, to out, without the
    brackets: each node's documents in its place (a node with no lines adds
    nothing), each float the text of its magnitude behind the row's text
    before it, which takes a "-" for a negative value."""
    items = [item for item in items if type(item) is not _Rows or len(item.values)]
    # the rows' segments and the other items' texts first, so that what
    # cannot be printed is refused in document order
    parts = [_segments(item) if type(item) is _Rows else _text(item) for item in items]
    texts = iter(_texts([item.values for item in items if type(item) is _Rows]))
    for i, (item, part) in enumerate(zip(items, parts)):
        if i:
            out.append(", ")
        if type(item) is _Rows:
            out += _filled(part, item.values < 0, next(texts))
        else:
            out.append(part)


def _segments(node: _Rows) -> list[str]:
    """The text of a node's row split at its floats; refuses the row, then
    the first non-finite value in document order."""
    entries = "[" + ", ".join([_text(node.entry)] * node.count) + "]"
    segments = _text(node.row).replace("\1", entries).split("\0")
    finite = np.isfinite(node.values)
    if not finite.all():
        _float(float(node.values[~finite][0]))  # the first in document order: raises
    return segments


def _texts(arrays: list[np.ndarray]) -> list[np.ndarray]:
    """The text of every |x| of each array, as an object array of its shape,
    from one np.unique pass over them all: each distinct magnitude printed
    once with "%.17g", by one % operation."""
    if not arrays:
        return []
    flat = np.concatenate([values.ravel() for values in arrays])
    magnitudes, codes = np.unique(np.abs(flat), return_inverse=True)
    del flat
    # no "%.17g" text holds a space
    texts = (" ".join(["%.17g"] * len(magnitudes)) % tuple(magnitudes.tolist())).split(" ")
    texts = np.array(texts, dtype=object)[codes]
    ends = np.cumsum([values.size for values in arrays])
    return [part.reshape(values.shape) for part, values in zip(np.split(texts, ends[:-1]), arrays)]


def _filled(segments: list[str], negative: np.ndarray, texts: np.ndarray) -> list[str]:
    """The pieces of a node's documents, ", " between them: the row's
    segments with the texts of one line of magnitudes between them. A
    negative value's segment before it ends in "-", as "%.17g" % -x is "-"
    + "%.17g" % x for x > 0 (-0.0, not < 0, prints as 0)."""
    lines, holes = texts.shape
    signed = np.array([segments[:-1], [segment + "-" for segment in segments[:-1]]], dtype=object)
    pieces = np.empty((lines, 2 * holes + 1), dtype=object)
    pieces[:, 0:-1:2] = signed[negative.view(np.int8), np.arange(holes)]  # 0/1 rows, not a mask
    pieces[:, 1::2] = texts
    pieces[:, -1] = segments[-1] + ", "
    pieces[-1, -1] = segments[-1]
    return pieces.ravel().tolist()


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
