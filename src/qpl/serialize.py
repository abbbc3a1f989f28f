"""Deterministic JSON/CSV renderers for the command-line experiments.

Every run of a command with the same inputs must produce byte-identical
output, so floats are printed through a single canonical formatter
(12 significant digits, negative zero collapsed), dictionary keys are
emitted sorted, and complex numbers become {"im": ..., "re": ...}
objects.  CSV output follows RFC 4180 (CRLF line endings, quoting only
when needed).
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

FLOAT_DIGITS = 12


def format_float(x: float) -> str:
    """Canonical decimal text for a finite float."""
    x = float(x)
    if not np.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    if x == 0.0:
        x = 0.0  # collapse -0.0
    return format(x, f".{FLOAT_DIGITS}g")


def _render(obj) -> str:
    if isinstance(obj, (float, np.floating)):  # the common case, tested first
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        return _render({"im": z.imag, "re": z.real})
    if isinstance(obj, np.ndarray):
        return _render(obj.tolist())
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


def canonical_json(obj) -> str:
    """Render a nested structure as canonical JSON text (trailing newline)."""
    return _render(obj) + "\n"


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, int, float, np.bool_, np.integer, np.floating)):
        return _render(value)
    raise TypeError(f"CSV cells must be scalars, got {type(value).__name__}")


def csv_text(header, rows) -> str:
    """Render a header and iterable of rows as RFC 4180 CSV text."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow([_cell(h) for h in header])
    for row in rows:
        writer.writerow([_cell(c) for c in row])
    return buf.getvalue()
