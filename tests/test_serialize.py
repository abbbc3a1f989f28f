"""Canonical renderers: CSV cells share the JSON scalar forms, arrays render whole."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import render_json
from qpl import serialize
from qpl.serialize import KERNEL_CUTOFF, Block, canonical_json, csv_text, format_float

SCALARS = (True, np.bool_(False), 7, np.int64(-3), 0.1, np.float64(1e-20), -0.0, 2.5e17)
EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
         1e16, 1e16 + 2, 9999999999999998.0, 1 / 3)


def json_text(value) -> str:
    """The JSON text `canonical_json` prints for one value."""
    return canonical_json([Block("v", value)])[len('{"v":') : -len("}\n")]


# Oracle: an entry-by-entry array renderer, one `str.format` call per float.


def format_floats(a) -> list[str]:
    """Every entry of a real array through `str.format`, row-major; raises on a non-finite one."""
    texts = []
    for x in np.asarray(a, dtype=float).ravel().tolist():
        format_float(x)  # raises, naming the entry, when it is not finite
        texts.append("{:.12g}".format(x + 0.0))
    return texts


def entries(a: np.ndarray, pair: str) -> list[str]:
    """Text of every entry of a numeric array, row-major; `pair` formats re and im."""
    if a.dtype.kind in "iu":
        return list(map(str, a.ravel().tolist()))
    if a.dtype.kind == "c":
        return list(map(pair.format, format_floats(a.real), format_floats(a.imag)))
    return format_floats(a)


def oracle_json(a: np.ndarray) -> str:
    texts = entries(a, '{{"im":{1},"re":{0}}}')
    for axis in range(a.ndim - 1, -1, -1):  # close the innermost lists first
        size, count = a.shape[axis], math.prod(a.shape[:axis])
        texts = ["[" + ",".join(texts[i * size : (i + 1) * size]) + "]" for i in range(count)]
    return texts[0]


def oracle_csv(header: list[str], name: str, a: np.ndarray, axis: int) -> str:
    complex_slot = header[-2:] == ["re", "im"]
    values = entries(a, "{},{}")
    if complex_slot and a.dtype.kind != "c":
        values = [v + ",0" for v in values]
    blanks = ("",) * (len(header) - (3 if complex_slot else 2))
    quoted = '"' + name.replace('"', '""') + '"' if set(name) & set(',"\r\n') else name
    cells = itertools.product(*(map(str, range(size)) for size in a.shape))
    rows = [
        ",".join((quoted, *blanks[:axis], *i, *blanks[axis + len(i) :], v))
        for i, v in zip(cells, values)
    ]
    return "\r\n".join([",".join(header), *rows]) + "\r\n"


def test_csv_cells_render_scalars_as_json_does():
    out = csv_text(["x"], [Block("rows", [{"x": value} for value in SCALARS])])
    expected = ["x"] + [json_text(value) for value in SCALARS]
    assert out == "\r\n".join(expected) + "\r\n"
    assert csv_text(["s"], [Block("rows", [{"s": "a,b"}])]) == 's\r\n"a,b"\r\n'


@pytest.mark.parametrize(
    "value,text",
    (
        (0.0, "0"),
        (-0.0, "0"),
        (np.float64(-0.0), "0"),
        (5e-324, "4.94065645841e-324"),
        (-2.2250738585072014e-308, "-2.22507385851e-308"),
        (1e308, "1e+308"),
        (-1e308, "-1e+308"),
        (1 / 3, "0.333333333333"),
    ),
)
def test_format_float_edge_values(value, text):
    assert format_float(value) == text
    assert format_floats(np.array([value, value])) == [text, text]
    assert json_text(np.array([value, value])) == f"[{text},{text}]"
    assert csv_text(["quantity", "i", "value"], [Block("v", np.array([value]))]) == (
        f"quantity,i,value\r\nv,0,{text}\r\n"
    )


@pytest.mark.parametrize("value", (float("inf"), -float("inf"), float("nan"), np.float64("nan")))
def test_format_float_rejects_non_finite(value):
    with pytest.raises(ValueError, match="non-finite"):
        format_float(value)


@pytest.mark.parametrize("cell", (None, [1.0], (1, 2), {"a": 1}, 1j, np.complex128(1)))
def test_csv_cells_reject_non_scalars(cell):
    # a complex number takes two cells, re and im: it overfills the one column
    with pytest.raises(TypeError):
        csv_text(["x"], [Block("rows", [{"x": cell}])])


SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6)
FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGES))
finite_arrays = hnp.arrays(np.float64, SHAPES, elements=FLOATS)
numeric_arrays = st.one_of(
    finite_arrays,
    hnp.arrays(np.complex128, SHAPES, elements=st.builds(complex, FLOATS, FLOATS)),
    hnp.arrays(st.sampled_from((np.int64, np.int8, np.uint64)), SHAPES),
)
# CSV quantity names: `%` must print literally; `,` and `"` make the cell quoted
names = st.text(alphabet='ab%,"_ ', min_size=1, max_size=6)


@given(finite_arrays)
@example(np.array(EDGES))
@example(np.array([[-0.0, 5e-324], [-1e308, 1e16 - 2]]))
def test_block_formatter_is_format_float_entry_by_entry(a):
    assert json_text(a) == oracle_json(a)
    # the whole-array JSON path agrees with rendering one Python float at a time
    assert json_text(a) == json_text(a.tolist())
    z = a - 1j * a
    assert json_text(z) == json_text(z.tolist())


@given(numeric_arrays)
@example(np.array(-0.0))
@example(np.array(5e-324 - 0.0j))
@example(np.array([complex(-0.0, -0.0), complex(5e-324, -1e308)]))
@example(np.zeros((2, 0, 3), complex))
@example(np.array([], np.int64))
def test_json_array_template_matches_the_entry_by_entry_render(a):
    assert json_text(a) == oracle_json(a)


@given(numeric_arrays, names, st.booleans(), st.integers(0, 1))
@example(np.array([-0.0, 5e-324]), "100%", False, 0)
@example(np.array([-0.0, 5e-324]), "%d%%s", True, 1)
@example(np.array([[1 - 0.0j, -0.0 + 5e-324j]]), 'a,"b"%', True, 0)
@example(np.arange(6).reshape(1, 2, 3), "%", False, 0)
@example(np.zeros((0, 2)), "e", True, 0)
def test_csv_array_template_matches_the_entry_by_entry_render(a, name, complex_slot, axis):
    header = ["quantity", *(f"i{k}" for k in range(a.ndim + axis))]
    header += ["re", "im"] if complex_slot else ["value"]
    if a.ndim == 0 or (a.dtype.kind == "c" and not complex_slot):
        with pytest.raises(TypeError):
            csv_text(header, [Block("v", a, name, axis=axis)])
        return
    assert csv_text(header, [Block("v", a, name, axis=axis)]) == oracle_csv(header, name, a, axis)


@pytest.mark.parametrize("bad", (np.inf, -np.inf, np.nan))
@pytest.mark.parametrize("shape", ((1,), (3,), (2, 3)))
def test_arrays_with_a_non_finite_entry_are_rejected(bad, shape):
    a = np.arange(float(np.prod(shape))).reshape(shape)
    a.flat[-1] = bad
    z = np.zeros(shape, complex)
    z.imag = a
    message = f"cannot serialize non-finite value {float(bad)!r}"
    for render in (
        lambda: format_floats(a),
        lambda: canonical_json([Block("v", a)]),
        lambda: canonical_json([Block("v", z)]),
        lambda: csv_text(["quantity", "m", "n", "value"], [Block("v", a)]),
        lambda: csv_text(["quantity", "index", "re", "im"], [Block("v", z.ravel())]),
    ):
        with pytest.raises(ValueError, match=message):
            render()


def test_block_kinds_render_their_rows():
    grid = np.array([[0.5, -0.0], [0.25, 1e-20]])
    blocks = [
        Block("values", grid, "value"),
        Block("rows", grid.sum(axis=1)),
        Block("cols", grid.sum(axis=0), axis=1),
        Block("pair", [3, 4], parts=("m", "n")),
        Block("z", 1 - 2j, parts=("re", "im")),
        Block("total", 1.0),
        Block("dim", 2, None),
    ]
    assert csv_text(["quantity", "m", "n", "value"], blocks).split("\r\n") == [
        "quantity,m,n,value",
        "value,0,0,0.5", "value,0,1,0", "value,1,0,0.25", "value,1,1,1e-20",
        "rows,0,,0.5", "rows,1,,0.25",
        "cols,,0,0.75", "cols,,1,1e-20",
        "pair_m,,,3", "pair_n,,,4", "z_re,,,1", "z_im,,,-2", "total,,,1", "",
    ]
    assert canonical_json(blocks) == (
        '{"cols":[0.75,1e-20],"dim":2,"pair":[3,4],"rows":[0.5,0.25],"total":1,'
        '"values":[[0.5,0],[0.25,1e-20]],"z":{"im":-2,"re":1}}\n'
    )
    triple = {"measured": 1j, "predicted": 0.5, "residual": 1.25}
    blocks = [
        Block("amps", np.array([1j, 2.0]), "amp"),
        Block("flag", True),
        Block("shifts.q", triple, "q"),
        Block("halving.q", {"half_residual": 0.5, "ratio": None}, "q", ("half_residual", "ratio")),
        Block("absent", None, "a"),
    ]
    assert csv_text(["quantity", "index", "re", "im"], blocks).split("\r\n") == [
        "quantity,index,re,im",
        "amp,0,0,1", "amp,1,2,0", "flag,,1,0",
        "q_measured,,0,1", "q_predicted,,0.5,0", "q_residual,,1.25,0",
        "q_half_residual,,0.5,0", "q_ratio,,,0", "",
    ]
    assert canonical_json(blocks) == (
        '{"absent":null,"amps":[{"im":1,"re":0},{"im":0,"re":2}],"flag":true,'
        '"halving":{"q":{"half_residual":0.5,"ratio":null}},'
        '"shifts":{"q":{"measured":{"im":1,"re":0},"predicted":0.5,"residual":1.25}}}\n'
    )


@pytest.mark.parametrize(
    "header,block",
    (
        (["quantity", "value"], Block("v", np.ones(2))),  # a vector needs an index column
        (["quantity", "m", "value"], Block("v", np.ones((2, 2)))),
        (["quantity", "m", "n", "value"], Block("v", np.ones(2) * 1j)),  # no im column
        (["quantity", "value"], Block("v", 1j)),
    ),
)
def test_values_that_do_not_fit_the_columns_are_rejected(header, block):
    with pytest.raises(TypeError):
        csv_text(header, [block])


# Arrays that print at least KERNEL_CUTOFF floats take the vectorized kernel.
# Each draws a few values and repeats them to fill a shape past the cutoff.
TIES = (100000000000.5, 100000000001.5)  # the 13th digit is an exact tie
# 13-digit decimals ending in 5 that two roundings of the scaled mantissa
# carry across the tie, so only the tie window keeps them exact
NEAR_TIES = (9.321659908905e-13, 2.724447923435e-14, 1.200408564255e-16, 5.277021618625e-30)
SWITCHES = tuple(  # where %g changes notation, each ±1 ulp
    float(np.nextafter(x, to)) for x in (1e-4, 1e-5, 1e12, 999999999999.5) for to in (0, x, np.inf)
)
POWERS = tuple(
    float(np.nextafter(10.0**k, to)) for k in range(-40, 41) for to in (0, 10.0**k, np.inf)
)
EXTREMES = (5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e308, -1e308, -0.0)
KERNEL_SHAPES = st.sampled_from(((KERNEL_CUTOFF,), (KERNEL_CUTOFF + 3,), (32, 33), (2, 3, 171)))
KERNEL_FLOATS = st.one_of(
    FLOATS, st.builds(lambda m, k: m * 10.0**k, st.floats(-10, 10), st.integers(-40, 60))
)
kernel_values = st.lists(KERNEL_FLOATS, min_size=1, max_size=40)


def kernel_array(values, shape, cplx: bool) -> np.ndarray:
    """`values` repeated to fill `shape`; a complex entry pairs them with the reversed run."""
    re = np.resize(np.array(values, float), math.prod(shape)).reshape(shape)
    if not cplx:
        return re
    z = np.empty(shape, complex)  # re + 1j * im would turn -0.0 parts into 0.0
    z.real, z.imag = re, re[..., ::-1]
    return z


@given(kernel_values, KERNEL_SHAPES, st.booleans())
@example(TIES, (KERNEL_CUTOFF,), False)
@example(NEAR_TIES, (KERNEL_CUTOFF,), False)
@example(SWITCHES, (32, 33), True)
@example(POWERS, (KERNEL_CUTOFF + 3,), False)
@example(POWERS, (2, 3, 171), True)
@example(EXTREMES, (KERNEL_CUTOFF,), True)
def test_json_kernel_matches_the_entry_by_entry_render(values, shape, cplx):
    a = kernel_array(values, shape, cplx)
    assert json_text(a) == oracle_json(a)


@given(kernel_values, KERNEL_SHAPES, st.booleans(), names, st.booleans(), st.integers(0, 1))
@example(TIES, (KERNEL_CUTOFF,), False, "100%", False, 0)
@example(SWITCHES, (32, 33), True, 'λ,"b"%', True, 0)
@example(POWERS, (KERNEL_CUTOFF + 3,), False, "%d%%s", True, 1)
@example(EXTREMES, (KERNEL_CUTOFF,), True, "a\0b", True, 1)  # a NUL in the name keeps `%`
def test_csv_kernel_matches_the_entry_by_entry_render(
    values, shape, cplx, name, complex_slot, axis
):
    a = kernel_array(values, shape, cplx)
    complex_slot = complex_slot or cplx
    header = ["quantity", *(f"i{k}" for k in range(a.ndim + axis))]
    header += ["re", "im"] if complex_slot else ["value"]
    assert csv_text(header, [Block("v", a, name, axis=axis)]) == oracle_csv(header, name, a, axis)


def test_kernel_hands_ties_and_subnormals_to_format_float(monkeypatch):
    seen = []  # the values the kernel hands to `format_float`, in call order
    monkeypatch.setattr(serialize, "format_float", lambda x: seen.append(x) or format_float(x))
    a = np.arange(KERNEL_CUTOFF) * 0.25 - 100  # exact decimals, far from a tie
    slow = (*TIES, *NEAR_TIES, 1e-40, 5e-324)
    a[-len(slow) :] = slow
    assert json_text(a) == oracle_json(a)
    assert seen == list(slow)
    seen.clear()
    assert json_text(a[:-1]) == oracle_json(a[:-1])  # one float short of the cutoff: `%`
    assert seen == []


@pytest.mark.parametrize(
    "a,kernel",
    (
        (np.ones(KERNEL_CUTOFF - 1), False),
        (np.ones(KERNEL_CUTOFF), True),
        (np.ones((KERNEL_CUTOFF // 2, 2)), True),
        (np.ones(KERNEL_CUTOFF // 2) * 1j, True),  # two floats per entry
        (np.ones(KERNEL_CUTOFF // 2 - 1) * 1j, False),
        (np.ones(2 * KERNEL_CUTOFF, np.int64), False),
    ),
)
def test_the_cutoff_counts_printed_floats(monkeypatch, a, kernel):
    calls = []
    kernel_fields = serialize._fields
    spy = lambda x, out: calls.append(len(x)) or kernel_fields(x, out)
    monkeypatch.setattr(serialize, "_fields", spy)
    header = ["quantity", "m", "n", "re", "im"]
    assert json_text(a) == oracle_json(a)
    assert csv_text(header, [Block("v", a)]) == oracle_csv(header, "v", a, 0)
    assert calls == ([a.size * (2 if a.dtype.kind == "c" else 1)] * 2 if kernel else [])


# Payload leaves: every scalar kind `canonical_json` prints, ints past int64 among
# them, and text with quotes, backslashes, control characters and non-ASCII.
TEXT = st.text(st.sampled_from('a"\\/\x00\x1f\x7f\n\tλé€\u2028\U0001f600')) | st.text(max_size=8)
LEAVES = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.complex_numbers(),
    st.complex_numbers().map(np.complex128),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.none(),
    st.integers(),
    st.integers(-(10**30), 10**30),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    TEXT,
)
PAYLOADS = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=24,
)


def outcome(render, payload):
    """What `render(payload)` returns, or the type and message of what it raises."""
    try:
        return render(payload)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def printed_payload(payload):
    return canonical_json([Block("payload", payload)])


def oracle_payload(payload):
    return render_json({"payload": payload}) + "\n"


@given(PAYLOADS)
@example({'q"\\': ["\x00\x1f", "λ", 1j, -0.0, 10**20, -(10**20), np.float32(0.1)]})
@example([complex(1.5, float("nan")), float("inf")])  # the imaginary part is checked first
@example({"b": np.complex64(0.1 - 2j), "a": np.bool_(True), "\u2028": None})
def test_canonical_json_matches_the_recursive_render(payload):
    assert outcome(printed_payload, payload) == outcome(oracle_payload, payload)


@pytest.mark.parametrize(
    "payload",
    ({1: 0.5}, {"a": [{None: 1}]}, {"a": 1.0, "b": {(1, 2): "x"}}, {1: 2, "b": 3}, {2.5: 1, 0.5: 2}, {1, 2}),
)
def test_unprintable_payloads_raise_as_the_recursive_render_does(payload):
    with pytest.raises(TypeError) as raised:
        printed_payload(payload)
    assert outcome(oracle_payload, payload) == (TypeError, str(raised.value))
