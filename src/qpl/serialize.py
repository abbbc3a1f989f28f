"""Deterministic JSON/CSV renderers for the command-line experiments.

A command's output is one ordered list of `Block`s.  Both formats derive
from it: a JSON object with sorted keys and complex numbers as {"im": ...,
"re": ...} objects, and RFC 4180 CSV (CRLF line endings, quoting only when
needed).  Identical inputs give identical bytes: every float goes through
one format (12 significant digits, negative zero collapsed).  A numeric
array is checked whole with one `isfinite` and rendered with one `%`
operation on a template cached per shape and kind (per CSV quantity, index
count and axis for CSV rows), so no Python code runs per entry.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from typing import NamedTuple

import numpy as np

FLOAT_DIGITS = 12
_FLOAT = f"%.{FLOAT_DIGITS}g"  # one float, as a `%` template field
_SPECIAL = frozenset(',"\r\n')  # characters that make a CSV cell need quotes


def format_float(x: float) -> str:
    """Canonical decimal text for a finite float."""
    x = float(x) + 0.0  # adding +0.0 collapses -0.0
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return _FLOAT % x


class Block(NamedTuple):
    """One named quantity of a command's output.

    `value` is a scalar, a string, None (JSON null, no CSV rows), a 1-D or
    2-D array, a record (a dict of scalars) or a table (a list of records,
    one CSV row each).  A dot in `key` nests JSON objects.  `name` is the
    CSV quantity: the key when empty, JSON only when None.  A record, or a
    value given `parts`, prints one row per component, `<name>_<part>`: its
    entries (named by key by default), a complex number's re and im, or a
    sequence's items.  `axis` is the index column a vector counts along.
    """

    key: str
    value: object
    name: str | None = ""
    parts: tuple[str, ...] | None = None
    axis: int = 0


# The template field of one array entry, by dtype kind.  A complex entry takes
# two values: (im, re) in JSON, (re, im) in CSV.
_JSON_ENTRY = {"i": "%d", "u": "%d", "f": _FLOAT, "c": f'{{"im":{_FLOAT},"re":{_FLOAT}}}'}
_CSV_ENTRY = {"i": "%d", "u": "%d", "f": _FLOAT, "c": f"{_FLOAT},{_FLOAT}"}


def _values(a: np.ndarray, im_first: bool) -> tuple:
    """The template arguments of a numeric array, row-major; a complex entry gives two."""
    if a.dtype.kind in "iu":
        return tuple(a.ravel().tolist())
    if not np.isfinite(a).all():
        parts = np.concatenate((a.real.ravel(), a.imag.ravel()))
        format_float(parts[~np.isfinite(parts)][0])  # raises, naming the first non-finite entry
    a = a + 0.0  # collapses -0.0, in both parts of a complex entry
    if a.dtype.kind == "c":
        a = np.stack((a.imag, a.real) if im_first else (a.real, a.imag), axis=-1)
    return tuple(a.ravel().tolist())


@functools.lru_cache(maxsize=256)
def _json_template(entry: str, shape: tuple[int, ...]) -> str:
    """Nested JSON lists of `shape` with one `entry` field per array entry."""
    for size in reversed(shape):  # close the innermost lists first
        entry = "[" + ",".join([entry] * size) + "]"
    return entry


def _array_json(a: np.ndarray) -> str:
    if a.dtype.kind not in "fiuc":
        return _render(a.tolist())
    return _json_template(_JSON_ENTRY[a.dtype.kind], a.shape) % _values(a, im_first=True)


def _render(obj) -> str:
    if isinstance(obj, (float, np.floating)):  # the common case, tested first
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return _render({"im": obj.imag, "re": obj.real})
    if isinstance(obj, np.ndarray):
        return _array_json(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_render(item) for item in obj) + "]"
    if isinstance(obj, dict):
        parts = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            parts.append(f"{json.dumps(key)}:{_render(obj[key])}")
        return "{" + ",".join(parts) + "}"
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def canonical_json(blocks) -> str:
    """The blocks as one canonical JSON object (trailing newline)."""
    payload: dict = {}
    for block in blocks:
        node, key = payload, block.key
        while "." in key:
            outer, key = key.split(".", 1)
            node = node.setdefault(outer, {})
        node[key] = block.value
    return _render(payload) + "\n"


def _quote(text: str) -> str:
    if _SPECIAL.isdisjoint(text):
        return text
    return '"' + text.replace('"', '""') + '"'


def _cells(value) -> tuple[str, ...]:
    """CSV cells of one scalar: its JSON text, or re and im for a complex number."""
    if isinstance(value, (float, np.floating)):  # the common case, tested first
        return (format_float(value),)
    if isinstance(value, str):
        return (_quote(value),)
    if isinstance(value, (complex, np.complexfloating)):
        return format_float(value.real), format_float(value.imag)
    if isinstance(value, (bool, int, np.bool_, np.integer)):
        return (_render(value),)
    raise TypeError(f"CSV cells must be scalars, got {type(value).__name__}")


def _value_cells(value, complex_slot: bool) -> tuple[str, ...]:
    """Value columns hold a number: a flag is 1 or 0, None is empty, a real value has im 0."""
    if isinstance(value, (bool, np.bool_)):
        value = int(value)
    cells = ("",) if value is None else _cells(value)
    return cells + ("0",) if complex_slot and len(cells) == 1 else cells


def _components(block: Block) -> list[tuple[str, object]]:
    """(CSV quantity, scalar) for each row of a block that is neither an array nor a table."""
    value, name = block.value, block.name or block.key
    if not (block.parts or isinstance(value, dict)):
        return [(name, value)]
    if isinstance(value, dict):
        value = value.values()
    elif isinstance(value, (complex, np.complexfloating)):
        value = (value.real, value.imag)
    return [(f"{name}_{part}", v) for part, v in zip(block.parts or block.value, value)]


@functools.lru_cache(maxsize=256)
def _csv_template(name: str, entry: str, shape: tuple[int, ...], indices: int, axis: int) -> str:
    """`name,<index cells>,<entry>` for every entry of an array of `shape`, CRLF-joined."""
    name, blanks = name.replace("%", "%%"), ("",) * indices
    cells = itertools.product(*(tuple(map(str, range(size))) for size in shape))
    return "\r\n".join(
        ",".join((name, *blanks[:axis], *i, *blanks[axis + len(i) :], entry)) for i in cells
    )


def _array_rows(block: Block, indices: int, complex_slot: bool) -> str:
    a, name = block.value, _quote(block.name or block.key)
    if not 1 <= a.ndim <= indices - block.axis or (a.dtype.kind == "c" and not complex_slot):
        raise TypeError(f"{name}: a {a.ndim}-D {a.dtype} array does not fit the CSV columns")
    if a.dtype.kind not in "iufc":  # a flag or object array prints as floats
        a = a.astype(float)
    entry = _CSV_ENTRY[a.dtype.kind] + (",0" if complex_slot and a.dtype.kind != "c" else "")
    return _csv_template(name, entry, a.shape, indices, block.axis) % _values(a, im_first=False)


def csv_text(header, blocks) -> str:
    """RFC 4180 CSV: the header, then the rows of every block, in order.

    After the `quantity` column come the index columns, then the value
    columns: `re,im` for a complex slot, else one value column.
    """
    complex_slot = tuple(header[-2:]) == ("re", "im")
    blanks = ("",) * (len(header) - (3 if complex_slot else 2))  # the index cells
    lines = [",".join(map(_quote, header))]
    for block in blocks:
        if block.name is None or block.value is None:
            continue
        if isinstance(block.value, np.ndarray):
            chunk = _array_rows(block, len(blanks), complex_slot)
            if chunk:  # an empty array has no rows
                lines.append(chunk)
            continue
        if isinstance(block.value, list) and not block.parts:  # a table: one row per record
            rows = [tuple(c for v in record.values() for c in _cells(v)) for record in block.value]
        else:
            rows = [(_quote(q), *blanks, *_value_cells(v, complex_slot)) for q, v in _components(block)]
        for row in rows:
            if len(row) != len(header):
                raise TypeError(f"CSV row {row!r} has {len(row)} cells for {len(header)} columns")
            lines.append(",".join(row))
    return "\r\n".join(lines) + "\r\n"
