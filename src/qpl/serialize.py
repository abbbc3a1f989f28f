"""Deterministic JSON/CSV renderers for the command-line experiments.

A command's output is one ordered list of `Block`s.  Both formats derive
from it: a JSON object with sorted keys and complex numbers as {"im": ...,
"re": ...} objects, and RFC 4180 CSV (CRLF line endings, quoting only when
needed).  Identical inputs give identical bytes: every float prints as
`%.12g` does (12 significant digits, negative zero collapsed).

Arrays are integer, float or complex (no command builds another kind).
Each is checked whole with one `isfinite`, and its layout is
cached per shape and kind (per CSV quantity, index count and axis for CSV
rows), so no Python code runs per entry.  An integer array, or one that
prints fewer than `KERNEL_CUTOFF` floats, fills a `%` template.  A larger
float or complex array goes through `_fields`, a numpy kernel that prints
the same bytes as `%.12g`: it scales each |x| by exact powers of ten to a
12-digit mantissa m (off by less than 2.3e-4), rounds it, and lays out the
digits from lookup tables into fixed-width rows that it pads with NUL bytes,
beside the text pieces of the cached layout; one `bytes.translate` deletes
the padding.  Entries whose m lies within 1e-3 of a rounding tie, or
outside [1e11, 1e12), take `format_float`: that window holds every entry
whose rounding the two roundings of m could change.
"""

from __future__ import annotations

import functools
import itertools
import math
from json.encoder import encode_basestring_ascii as _string  # what json.dumps prints for a str
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


def _floats(a: np.ndarray, im_first: bool) -> np.ndarray:
    """A float or complex array as one checked float64 row; a complex entry gives two values."""
    if not np.isfinite(a).all():
        parts = np.concatenate((a.real.ravel(), a.imag.ravel()))
        format_float(parts[~np.isfinite(parts)][0])  # raises, naming the first non-finite entry
    a = a + 0.0  # collapses -0.0, in both parts of a complex entry
    if a.dtype.kind == "c":
        a = np.stack((a.imag, a.real) if im_first else (a.real, a.imag), axis=-1)
    return a.ravel()


def _values(a: np.ndarray, im_first: bool) -> tuple:
    """The template arguments of a numeric array, row-major; a complex entry gives two."""
    if a.dtype.kind in "iu":
        return tuple(a.ravel().tolist())
    return tuple(_floats(a, im_first).tolist())


# An array that prints at least this many floats renders through `_fields`
# instead of `%`.  Measured on whole `wigner --n N` requests with only the N×N
# grid on the kernel (2-vCPU x86-64 VM, 1 BLAS thread): the two paths draw
# level at ~780 floats (N = 28), and at 1024 (N = 32) the kernel's request is
# 7% faster.  Below that its ~50 µs fixed cost per block loses: with a
# 256-entry grid a request takes 0.26 ms against 0.22 ms with `%`.
KERNEL_CUTOFF = 1024


def _kernel_renders(entry: str, shape: tuple[int, ...]) -> bool:
    return entry.count(_FLOAT) * math.prod(shape) >= KERNEL_CUTOFF


def _pieces(text: str) -> np.ndarray:
    """The text around the NUL field markers of `text`, one row each, NUL-padded to whole words."""
    parts = [part.encode() for part in text.split("\0")]
    width = -(-max(map(len, parts)) // 8) * 8
    pieces = np.array(parts, f"S{width}").view(np.uint8).reshape(len(parts), width)
    pieces.flags.writeable = False  # cached, shared by every caller
    return pieces


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """The lookup tables of `_fields`, built on first use (120 KB).

    `digits[g]`: the 4 digits of g < 10^4, each followed by a 0xFF slot byte.
    `ends[s, g]`: how many digits a 12-digit mantissa with group g at place s
    (0 leading) has up to the last nonzero digit of g; 0 when g is 0.
    Indexed by j = 55 - e for the decimal exponents e = 55 ... -33: `scale`,
    four exact powers of ten (multiply, divide, multiply, divide) that take
    |x| to 12 integer digits; `point`, the digit the decimal point follows
    (0 when `lead` holds it); `lead`, the sign byte and the "0.000" of
    -4 <= e < 0, positive j then negative j; `suffix`, the exponent text.
    `mask[:, 13 * point + kept]`: 0xFF on the kept digits, "." on the slot
    that holds the point, 0 elsewhere.
    """
    g = np.arange(10000)
    digits = np.full((10000, 8), 255, np.uint8)
    for col, unit in enumerate((1000, 100, 10, 1)):
        digits[:, 2 * col] = ord("0") + g // unit % 10
    zeros = sum((g % unit == 0).astype(np.uint8) for unit in (10, 100, 1000, 10000))
    ends = np.where(g > 0, 4 * np.arange(1, 4)[:, None] - zeros, 0).astype(np.uint8)
    e = 55 - np.arange(89)
    up, down = np.maximum(11 - e, 0), np.maximum(e - 11, 0)
    pow10 = np.array([float(10**k) for k in range(23)])  # each exact
    scale = pow10[np.stack((np.minimum(up, 22), np.minimum(down, 22), up - np.minimum(up, 22),
                            down - np.minimum(down, 22)))]
    fixed = (-4 <= e) & (e < FLOAT_DIGITS)  # where %g prints no exponent
    point = np.where(fixed, np.maximum(e + 1, 0), 1).astype(np.uint8)
    lead = [
        sign + b"0." + b"0" * (-x - 1) if f and x < 0 else sign
        for sign in (b"\0", b"-")
        for f, x in zip(fixed, e)
    ]
    suffix = [b"" if f else b"e%+03d" % x for f, x in zip(fixed, e)]
    mask = np.zeros((13, 13, 24), np.uint8)  # [point, kept digits, byte]
    for kept in range(13):
        mask[:, kept, : 2 * kept : 2] = 255
        mask[range(1, kept), kept, range(1, 2 * kept - 2, 2)] = ord(".")
    mask = mask.view(np.uint64).reshape(169, 3).T.copy()
    words = lambda texts: np.array(texts, "S8").view(np.uint64)
    tables = digits.view(np.uint64).ravel(), ends, scale, point, words(lead), words(suffix), mask
    for table in tables:
        table.flags.writeable = False
    return tables


def _fields(x: np.ndarray, out: np.ndarray) -> None:
    """Write `%.12g` of each float of `x` into its row of `out`, NUL-padded.

    A row is 5 words: sign and "0.000" lead, 12 digits each followed by a
    slot byte for the point, then the exponent.

    With e = floor(log10|x|), m = |x|·10^(11-e) comes from at most two exact
    powers 10^0 ... 10^22, so from at most two roundings: m < 1e12 is off by
    less than 2·2^-53·1e12 < 2.3e-4, and rint(m) is the correctly rounded
    12-digit mantissa unless m lies within 1e-3 of a tie.  Entries in that
    window, and those whose m falls outside [1e11, 1e12) (a carry to 13
    digits, a misjudged e, or an e outside -33 ... 55, whose scale the tables
    clip: subnormals among them), take `format_float`.
    """
    digits, ends, scale, point, lead, suffix, mask = _tables()
    m = np.abs(x)
    nonzero = m > 0
    e = np.log10(m, out=np.zeros_like(m), where=nonzero)  # 0 for 0
    j = (55 - np.floor(e, out=e)).astype(np.intp)
    for step, power in enumerate(scale):
        (np.divide if step % 2 else np.multiply)(m, power.take(j, mode="clip"), out=m)
    n = np.rint(m, out=e)
    fallback = np.flatnonzero((np.abs(m - n) > 0.499) | (n >= 1e12) | ((m < 1e11) & nonzero))
    n[fallback] = 0
    g = np.empty((3, len(x)), np.int16)  # n as three 4-digit groups
    for place, unit in enumerate((1e8, 1e4, 1.0)):
        g[place] = np.floor(n / unit, out=m)
        n -= g[place] * unit
    p = point.take(j, mode="clip")
    kept = p.copy()  # the integer digits of fixed notation stay
    for place in range(3):
        np.maximum(kept, ends[place].take(g[place]), out=kept)
    layout = p * np.uint8(13) + kept
    for place in range(3):
        np.bitwise_and(digits.take(g[place]), mask[place].take(layout), out=out[:, place + 1])
    out[:, 0] = lead.take(j + 89 * (x < 0), mode="clip")
    out[:, 4] = suffix.take(j, mode="clip")
    if fallback.size:
        texts = [format_float(v).encode() for v in x[fallback].tolist()]
        out[fallback] = np.array(texts, "S40").view(np.uint64).reshape(-1, 5)


def _fill(layout: str | np.ndarray, a: np.ndarray, im_first: bool) -> str:
    """A numeric array through its cached layout: a `%` template, or the kernel's pieces."""
    if isinstance(layout, str):
        return layout % _values(a, im_first)
    words = layout.shape[1] // 8
    rows = np.empty((len(layout), words + 5), np.uint64)  # the last row: the tail piece, no field
    rows.view(np.uint8)[:, : 8 * words] = layout
    rows[-1, words:] = 0
    _fields(_floats(a, im_first), rows[:-1, words:])
    text = rows.tobytes()
    del rows  # freed before the translated copy is made
    return text.translate(None, b"\0").decode()  # a NUL is never part of a UTF-8 character


@functools.lru_cache(maxsize=256)
def _json_template(entry: str, shape: tuple[int, ...]) -> str | np.ndarray:
    """Nested JSON lists of `shape`, one `entry` field per array entry; `_pieces` for the kernel."""
    kernel = _kernel_renders(entry, shape)
    text = entry.replace(_FLOAT, "\0") if kernel else entry
    for size in reversed(shape):  # close the innermost lists first
        text = "[" + ",".join([text] * size) + "]"
    return _pieces(text) if kernel else text


def _array_json(a: np.ndarray) -> str:
    return _fill(_json_template(_JSON_ENTRY[a.dtype.kind], a.shape), a, im_first=True)


def _key(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"JSON object keys must be strings, got {key!r}")
    return _string(key)


def _render(obj) -> str:
    if isinstance(obj, (float, np.floating)):  # the common cases, tested first
        return format_float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return f'{{"im":{format_float(obj.imag)},"re":{format_float(obj.real)}}}'
    if isinstance(obj, str):
        return _string(obj)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, np.ndarray):
        return _array_json(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(map(_render, obj)) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{_key(key)}:{_render(obj[key])}" for key in sorted(obj)) + "}"
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
def _csv_template(
    name: str, entry: str, shape: tuple[int, ...], indices: int, axis: int
) -> str | np.ndarray:
    """`name,<index cells>,<entry>` for every entry of an array of `shape`, CRLF-joined.

    As `_pieces` when the kernel renders the array (a name holding a NUL
    keeps `%`, since the kernel deletes every NUL).
    """
    kernel = _kernel_renders(entry, shape) and "\0" not in name
    if kernel:
        entry = entry.replace(_FLOAT, "\0")
    else:
        name = name.replace("%", "%%")
    blanks = ("",) * indices
    cells = itertools.product(*(tuple(map(str, range(size))) for size in shape))
    text = "\r\n".join(
        ",".join((name, *blanks[:axis], *i, *blanks[axis + len(i) :], entry)) for i in cells
    )
    return _pieces(text) if kernel else text


def _array_rows(block: Block, indices: int, complex_slot: bool) -> str:
    a, name = block.value, _quote(block.name or block.key)
    if not 1 <= a.ndim <= indices - block.axis or (a.dtype.kind == "c" and not complex_slot):
        raise TypeError(f"{name}: a {a.ndim}-D {a.dtype} array does not fit the CSV columns")
    entry = _CSV_ENTRY[a.dtype.kind] + (",0" if complex_slot and a.dtype.kind != "c" else "")
    return _fill(_csv_template(name, entry, a.shape, indices, block.axis), a, im_first=False)


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
