"""Canonical renderers: CSV cells share the JSON scalar forms."""

import numpy as np
import pytest

from qpl.serialize import canonical_json, csv_text, format_float

SCALARS = (True, np.bool_(False), 7, np.int64(-3), 0.1, np.float64(1e-20), -0.0, 2.5e17)


def test_csv_cells_render_scalars_as_json_does():
    out = csv_text(["x"], [(value,) for value in SCALARS])
    expected = ["x"] + [canonical_json(value).rstrip("\n") for value in SCALARS]
    assert out == "\r\n".join(expected) + "\r\n"
    assert csv_text(["s"], [("a,b",)]) == 's\r\n"a,b"\r\n'


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


@pytest.mark.parametrize("value", (float("inf"), -float("inf"), float("nan"), np.float64("nan")))
def test_format_float_rejects_non_finite(value):
    with pytest.raises(ValueError, match="non-finite"):
        format_float(value)


@pytest.mark.parametrize("cell", (None, [1.0], (1, 2), {"a": 1}, 1j, np.complex128(1)))
def test_csv_cells_reject_non_scalars(cell):
    with pytest.raises(TypeError):
        csv_text(["x"], [(cell,)])
