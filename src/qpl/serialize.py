"""Deterministic JSON/CSV renderers for the command-line experiments.

A command's output is one ordered list of `Block`s.  Both formats derive
from it: a JSON object with sorted keys and complex numbers as {"im": ...,
"re": ...} objects, and RFC 4180 CSV (CRLF line endings, quoting only when
needed).  Identical inputs give identical bytes: every float goes through
one format (12 significant digits, negative zero collapsed), and an array
is checked and formatted whole, one `isfinite` and one call per entry.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from typing import NamedTuple

import numpy as np

FLOAT_DIGITS = 12
_FORMAT = f"{{:.{FLOAT_DIGITS}g}}".format
_SPECIAL = frozenset(',"\r\n')  # characters that make a CSV cell need quotes


def format_float(x: float) -> str:
    """Canonical decimal text for a finite float."""
    x = float(x) + 0.0  # adding +0.0 collapses -0.0
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return _FORMAT(x)


def format_floats(a) -> list[str]:
    """`format_float` of every entry of a real array, in row-major order."""
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        format_float(a[~np.isfinite(a)][0])  # raises, naming the first non-finite entry
    return list(map(_FORMAT, (a + 0.0).ravel().tolist()))


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


def _entries(a: np.ndarray, pair: str) -> list[str]:
    """Canonical text of every entry of an array, row-major; `pair` formats re and im."""
    if a.dtype.kind in "iu":
        return list(map(str, a.ravel().tolist()))
    if a.dtype.kind == "c":
        return list(map(pair.format, format_floats(a.real), format_floats(a.imag)))
    return format_floats(a)


def _array_json(a: np.ndarray) -> str:
    if a.dtype.kind not in "fiuc":
        return _render(a.tolist())
    texts = _entries(a, '{{"im":{1},"re":{0}}}')
    for axis in range(a.ndim - 1, -1, -1):  # close the innermost lists first
        size, count = a.shape[axis], math.prod(a.shape[:axis])
        texts = ["[" + ",".join(texts[i * size : (i + 1) * size]) + "]" for i in range(count)]
    return texts[0]


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


@functools.lru_cache(maxsize=128)
def _row_prefixes(name: str, shape: tuple[int, ...], indices: int, axis: int) -> tuple[str, ...]:
    """`name,<index cells>,` for every entry of an array of `shape`, row-major."""
    blanks = ("",) * indices
    cells = itertools.product(*(tuple(map(str, range(size))) for size in shape))
    return tuple(",".join((name, *blanks[:axis], *i, *blanks[axis + len(i) :], "")) for i in cells)


def _array_rows(block: Block, indices: int, complex_slot: bool) -> list[str]:
    a, name = block.value, _quote(block.name or block.key)
    if not 1 <= a.ndim <= indices - block.axis or (a.dtype.kind == "c" and not complex_slot):
        raise TypeError(f"{name}: a {a.ndim}-D {a.dtype} array does not fit the CSV columns")
    values = _entries(a, "{},{}")
    if complex_slot and a.dtype.kind != "c":
        values = [v + ",0" for v in values]
    return [p + v for p, v in zip(_row_prefixes(name, a.shape, indices, block.axis), values)]


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
            lines += _array_rows(block, len(blanks), complex_slot)
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
