"""Canonical renderers: CSV cells share the JSON scalar forms."""

import numpy as np
import pytest

from qpl.serialize import canonical_json, csv_text

SCALARS = (True, np.bool_(False), 7, np.int64(-3), 0.1, np.float64(1e-20), -0.0, 2.5e17)


def test_csv_cells_render_scalars_as_json_does():
    out = csv_text(["x"], [(value,) for value in SCALARS])
    expected = ["x"] + [canonical_json(value).rstrip("\n") for value in SCALARS]
    assert out == "\r\n".join(expected) + "\r\n"
    assert csv_text(["s"], [("a,b",)]) == 's\r\n"a,b"\r\n'


@pytest.mark.parametrize("cell", (None, [1.0], (1, 2), {"a": 1}, 1j, np.complex128(1)))
def test_csv_cells_reject_non_scalars(cell):
    with pytest.raises(TypeError):
        csv_text(["x"], [(cell,)])
