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
printed once, by one vectorised kernel (_g17) that gives exactly the texts
of "%.17g". It decides the 17 digits of most magnitudes in long double
arithmetic, writes all the texts into one byte array, one slice per layout
class, and splits its decoded text once; a magnitude it cannot decide
exactly (zero, a subnormal, a near-tie) is printed by "%.17g" itself. A
negative value takes its magnitude's text behind a "-", which is what
"%.17g" prints for it; the "-" ends the row segment before it, so no
signed copy of a text is made. A node's documents are then appended to
the list of pieces as its segments and texts interleaved, through one
object array of references, and no text of the node is built apart from
the final join.
"""

from __future__ import annotations

import functools
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
    once, by _g17."""
    if not arrays:
        return []
    flat = np.concatenate([values.ravel() for values in arrays])
    magnitudes, codes = np.unique(np.abs(flat), return_inverse=True)
    del flat
    texts = _g17(magnitudes)[codes]
    ends = np.cumsum([values.size for values in arrays])
    return [part.reshape(values.shape) for part, values in zip(np.split(texts, ends[:-1]), arrays)]


# -- "%.17g" of many magnitudes at once ---------------------------------------
#
# A positive normal double x has a decimal exponent e = floor(log10 x) in
# [_E_MIN, _E_MAX]. Its "%.17g" text shows N, x * 10^(16 - e) rounded half to
# even to an integer of 17 digits: positional for -4 <= e < 17, and as
# d.ddde-XX or d.ddde+XX otherwise (two exponent digits at least), with
# trailing zeros and a bare "." dropped. The tables below are built on first
# use, so that a process that prints no row node does not hold them.

_E_MIN, _E_MAX = -308, 308
_WIDTH = 24  # bytes per text: the longest, "1.2345678901234567e-308", has 23


@functools.cache
def _powers_of_ten(dtype) -> tuple[np.ndarray, float]:
    """10^(16 - e) in dtype for e from _E_MAX down to _E_MIN (0 where dtype
    overflows), and the margin by which x * 10^(16 - e) computed in dtype
    must miss a tie for its rounding to be that of the exact product.

    The computed y is off the exact product by at most y * 1.5 eps: eps for
    the table entry (np.power's error, checked by the tests) and eps / 2 for
    the rounding of the product; y - trunc(y) is then exact, and rounding it
    to float64 moves it by less than 1e-16. So while y < 10^17 the error is
    below 1.5e17 * eps, and the margin is twice that: 0.033 for an 80-bit
    long double. Where long double is float64 the margin exceeds 1/2, and no
    value is decided."""
    with np.errstate(over="ignore"):
        table = np.power(dtype(10), np.arange(16 - _E_MAX, 17 - _E_MIN).astype(dtype))
    table[np.isinf(table)] = 0  # x * 0 is not of 17 digits: undecided
    table.flags.writeable = False
    return table, 3e17 * float(np.finfo(dtype).eps)


@functools.cache
def _text_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The texts of the 4-digit chunks c as uint32s, "%04d" % c at c and the
    same with its trailing zeros as spaces at 10000 + c; how many digits
    each keeps, 4 and 4 less the trailing zeros (0 for "0000"); and the
    exponent texts of _exponent_table."""
    d = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    digits = np.empty((10, 10, 10, 10, 4), np.uint8)  # at the four digits of c
    for place in range(4):
        digits[..., place] = d.reshape((10,) + (1,) * (3 - place))
    digits = digits.reshape(10000, 4)
    kept = np.full(10000, 4, np.uint8)
    trailing = np.ones(10000, bool)
    for place in (3, 2, 1, 0):
        trailing &= digits[:, place] == ord("0")
        kept -= trailing
    stripped = np.where(np.arange(4) < kept[:, None], digits, np.uint8(ord(" ")))
    chunks = np.concatenate([digits, stripped]).view(np.uint32).ravel()
    tables = chunks, np.concatenate([np.full(10000, 4, np.uint8), kept]), _exponent_table(chunks)
    for table in tables:
        table.flags.writeable = False
    return tables


def _exponent_table(chunks: np.ndarray) -> np.ndarray:
    """The exponent of a scientific text for each e from _E_MIN, with at least
    two digits, as 5 bytes padded with a space: "e-308", "e-05 ", "e+17 "."""
    e = np.arange(_E_MIN, _E_MAX + 1)
    digits = chunks[np.abs(e)].view(np.uint8).reshape(-1, 4)
    table = np.full((e.size, 5), ord(" "), np.uint8)
    table[:, 0] = ord("e")
    table[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    wide = np.abs(e) >= 100
    table[wide, 2:] = digits[wide, 1:]
    table[~wide, 2:4] = digits[~wide, 2:]
    return table


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N, e, decided) for a 1-d float64 array of finite x >= 0: N the 17
    digits and e the exponent of each "%.17g" text, decided where x is
    normal, x * 10^(16 - e) in long double misses a tie by more than the
    margin of _powers_of_ten and its rounding N has 17 digits (so a wrong
    estimate of e is undecided); elsewhere N = 10^16 and e = 0."""
    pow10, margin = _powers_of_ten(np.longdouble)
    normal = x >= np.finfo(np.float64).smallest_normal
    e = np.floor(np.log10(x, out=np.zeros(x.size), where=normal)).astype(np.intp)
    y = x.astype(pow10.dtype)
    y *= pow10[_E_MAX - e]
    whole = y.astype(np.int64)  # trunc; 0 <= y < 10^18 for any estimate of e
    y -= whole
    frac = y.astype(np.float64)
    del y
    digits = whole + (frac > 0.5)
    decided = normal & (np.abs(frac - 0.5) > margin) & (whole >= 10**16) & (digits < 10**17)
    digits[~decided] = 10**16
    e[~decided] = 0
    return digits, e, decided


def _g17(magnitudes: np.ndarray) -> np.ndarray:
    """["%.17g" % x for x in magnitudes] as an object array, for a 1-d float64
    array of finite x >= 0. The digits come from _decimal. The rows of
    _rows are taken in order of the texts' layout class, a positional
    exponent -4..16 or scientific, so that each class is one slice; they are
    decoded at once and split at their spaces. Each value _decimal leaves
    undecided (zero, a subnormal, a near-tie, an exponent estimate off by
    one) is printed by "%.17g" itself."""
    digits, exponents, decided = _decimal(magnitudes)
    classes = exponents + 4
    classes[(classes < 0) | (classes > 20)] = 21
    classes = classes.astype(np.uint8)
    order = np.argsort(classes, kind="stable")
    ends = np.cumsum(np.bincount(classes, minlength=22)).tolist()
    digits, exponents = digits[order], exponents[order]
    text = str(_rows(digits, exponents, ends), "ascii")
    del digits, exponents  # so that the split, which makes every text, is the peak
    texts = np.empty(magnitudes.size, dtype=object)
    texts[order] = text.split()
    del text
    undecided = np.flatnonzero(~decided)
    if undecided.size:
        # no "%.17g" text holds a space
        texts[undecided] = (" ".join(["%.17g"] * undecided.size) % tuple(magnitudes[undecided].tolist())).split(" ")
    return texts


def _rows(digits: np.ndarray, exponents: np.ndarray, ends: list[int]) -> np.ndarray:
    """The texts of digits (17-digit integers) at exponents, each left-aligned
    in a row of _WIDTH bytes padded with spaces; ends[k] is the end of the
    rows of class k: k - 4 the positional exponent for k < 21, scientific
    for k = 21."""
    chunk_texts, chunk_digits, exponent_texts = _text_tables()
    n = digits.size
    # the leading digit and four chunks of four; from the last nonzero chunk
    # on, a chunk's text has its trailing zeros as spaces
    chunks = np.empty((n, 5), np.uint16)
    length = np.ones(n, np.uint8)  # of the digits before the trailing zeros
    after = np.ones(n, bool)  # no nonzero chunk comes after this one
    rest = digits
    for j in (4, 3, 2, 1):
        quotient = rest // 10000
        chunk = rest - quotient * 10000
        chunk += 10000 * after
        chunks[:, j] = chunk
        length += chunk_digits[chunk]
        after &= chunk == 10000
        rest = quotient
    chunks[:, 0] = rest
    text = chunk_texts[chunks].view(np.uint8)[:, 3:]
    rows = np.full((n, _WIDTH), ord(" "), np.uint8)
    for k, (start, end) in enumerate(zip([0, *ends], ends)):
        if start == end:
            continue
        r = slice(start, end)
        if k == 21:  # d.ddd, then the exponent
            rows[r, 0] = text[r, 0]
            rows[r, 1] = np.where(length[r] > 1, ord("."), ord(" "))
            rows[r, 2:18] = text[r, 1:]
            at = np.where(length[r] > 1, length[r] + 1, 1) + np.arange(start * _WIDTH, end * _WIDTH, _WIDTH)
            rows.ravel()[at[:, None] + np.arange(5)] = exponent_texts[exponents[r] - _E_MIN]
        elif k >= 4:  # e + 1 digits, trailing zeros kept, then "." and the rest
            e = k - 4
            rows[r, : e + 1] = chunk_texts[chunks[r] % 10000].view(np.uint8)[:, 3 : e + 4]
            rows[r, e + 1] = np.where(length[r] > e + 1, ord("."), ord(" "))
            rows[r, e + 2 : 18] = text[r, e + 1 :]
        else:  # "0.", 3 - k zeros, the digits
            rows[r, : 5 - k] = np.frombuffer(b"0.000", np.uint8)[: 5 - k]
            rows[r, 5 - k : 22 - k] = text[r]
    return rows


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
