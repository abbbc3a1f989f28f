"""Tests for the cyclic shift/clock pair and the discrete Fourier transform."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpl import (
    CoherentFamily,
    az_state,
    coherent_overlap,
    coherent_overlap_closed,
    coherent_state,
    crt_map,
    delta_product,
    displacement,
    dft,
    gauss_trace,
    gauss_trace_closed_form,
    is_unitary,
    modular_cell_coords,
    phase_point,
    structure_constants,
    symplectic_phase,
    weyl_relation_defect,
)
from qpl.schwinger import _residues, roots, weyl_word

DIMS = (1, 2, 3, 4, 5, 7, 8, 12)


def test_shift_and_clock_definitions():
    v = weyl_word(4, 0, 1)
    # V|u_k⟩ = |u_{k-1}⟩, cyclically
    for k in range(4):
        e = np.zeros(4)
        e[k] = 1
        out = v @ e
        assert out[(k - 1) % 4] == 1.0
    u = weyl_word(4, 1, 0)
    np.testing.assert_allclose(np.diag(u), np.exp(2j * np.pi * np.arange(4) / 4))


def test_shift_and_clock_match_explicit_matrices():
    """weyl_word(n, 0, 1) and weyl_word(n, 1, 0) equal the explicit shift and clock, bit for bit."""
    for n in range(1, 70):
        v = np.zeros((n, n), dtype=complex)
        v[(np.arange(n) - 1) % n, np.arange(n)] = 1.0
        u = np.diag(roots(n))
        assert np.array_equal(weyl_word(n, 0, 1), v)
        assert np.array_equal(weyl_word(n, 1, 0), u)


def test_roots_match_high_precision_reference():
    """roots(m)[x] = exp(2πi·x/m) against a 40-digit table, m up to 128."""
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(40):
        for m in range(1, 129):
            exact = np.array([complex(mpmath.expjpi(mpmath.mpf(2 * x) / m)) for x in range(m)])
            worst = max(worst, np.max(np.abs(roots(m) - exact)))
    assert worst <= 1e-15


@pytest.mark.parametrize("m", range(1, 129))
def test_roots_symmetries_are_exact(m):
    """v^{m-x} = conj(v^x), and the quarter turns are 1, i, -1, -i, bit for bit."""
    table = roots(m)
    assert np.array_equal(table[(-np.arange(m)) % m], table.conj())
    turns = {0: 1, m / 4: 1j, m / 2: -1, 3 * m / 4: -1j}
    for x, value in turns.items():
        if x == int(x):
            assert np.array_equal(table[int(x)], value)


def test_roots_table_is_read_only():
    """The cached table is shared by every caller, so it refuses writes."""
    table = roots(8)
    before = table.copy()
    with pytest.raises(ValueError):
        table[1] = 0
    assert np.array_equal(roots(8), before)


def test_dft_matches_high_precision_reference():
    """Every entry of dft(N), N up to 64, against 40-digit v^{jk}/√N; and F⁴ = I."""
    mpmath = pytest.importorskip("mpmath")
    worst = worst_f4 = 0.0
    with mpmath.workdps(40):
        for n in range(1, 65):
            exact = [complex(mpmath.expjpi(mpmath.mpf(2 * x) / n) / mpmath.sqrt(n)) for x in range(n)]
            k = np.arange(n)
            f = dft(n)
            worst = max(worst, np.max(np.abs(f - np.array(exact)[np.outer(k, k) % n])))
            worst_f4 = max(worst_f4, np.max(np.abs(np.linalg.matrix_power(f, 4) - np.eye(n))))
    assert worst <= 1e-15
    assert worst_f4 <= 1e-14


@pytest.mark.parametrize("n", DIMS)
def test_order_n_and_unitarity(n):
    v, u = weyl_word(n, 0, 1), weyl_word(n, 1, 0)
    eye = np.eye(n)
    np.testing.assert_allclose(np.linalg.matrix_power(v, n), eye, atol=1e-12)
    np.testing.assert_allclose(np.linalg.matrix_power(u, n), eye, atol=1e-12)
    assert is_unitary(v)
    assert is_unitary(u)


@pytest.mark.parametrize("n", DIMS)
def test_weyl_relation_all_powers(n):
    for j in range(n):
        for k in range(n):
            assert weyl_relation_defect(n, j, k) <= 1e-12


@given(
    n=st.integers(min_value=1, max_value=64),
    j=st.integers(min_value=-(10**12), max_value=10**12),
    k=st.integers(min_value=-(10**12), max_value=10**12),
)
@example(n=63, j=10**9, k=10**9 + 1)
@example(n=64, j=2**40 + 3, k=2**20 + 5)
def test_weyl_relation_any_labels_property(n, j, k):
    """v^{jk} is taken at j·k mod N, so large labels report no false defect."""
    assert weyl_relation_defect(n, j, k) <= 1e-12


@pytest.mark.parametrize("n", DIMS)
def test_weyl_word_matches_matrix_powers(n):
    """Index-arithmetic U^k V^j against repeated matrix products, any labels."""
    v, u = weyl_word(n, 0, 1), weyl_word(n, 1, 0)
    labels = np.arange(-n, 2 * n)
    words = weyl_word(n, labels[:, None], labels[None, :])
    assert words.shape == (3 * n, 3 * n, n, n)
    for a, k in enumerate(labels):
        uk = np.linalg.matrix_power(u, int(k) % n)
        for b, j in enumerate(labels):
            vj = np.linalg.matrix_power(v, int(j) % n)
            np.testing.assert_allclose(words[a, b], uk @ vj, atol=1e-12)


@pytest.mark.parametrize("n", DIMS)
def test_fourier_properties(n):
    f = dft(n)
    assert is_unitary(f)
    np.testing.assert_allclose(np.linalg.matrix_power(f, 4), np.eye(n), atol=1e-10)
    # F diagonalizes the shift: the columns of F are momentum states
    v = weyl_word(n, 0, 1)
    for j in range(n):
        np.testing.assert_allclose(
            v @ f[:, j], np.exp(2j * np.pi * j / n) * f[:, j], atol=1e-12
        )


def test_fourier_exchanges_shift_and_clock():
    for n in (2, 3, 5, 8):
        f = dft(n)
        # V acts diagonally in the momentum basis: F† V F = U
        np.testing.assert_allclose(f.conj().T @ weyl_word(n, 0, 1) @ f, weyl_word(n, 1, 0), atol=1e-12)


def test_weyl_word_rejects_fractional_labels():
    """A fractional power is a ValueError naming the argument, not numpy's IndexError."""
    with pytest.raises(ValueError, match=r"k label 1\.5 must be an integer"):
        weyl_word(5, 1.5, 0)
    with pytest.raises(ValueError, match=r"j label array\(\[0\. , 0\.5\]\) must be an integer"):
        weyl_word(5, 1, np.array([0, 0.5]))
    assert np.array_equal(weyl_word(5, np.int64(7), 10**20 + 1), weyl_word(5, 2, 1))


def test_kinematics_states():
    with pytest.raises(ValueError):
        weyl_word(0, 0, 1)
    with pytest.raises(ValueError):
        dft(-3)
    # the same dimension check guards every construction on Z_N
    for bad in (0, 2.5):
        with pytest.raises(ValueError, match="positive integer"):
            CoherentFamily(bad)
        with pytest.raises(ValueError, match="positive integer"):
            structure_constants(bad, (1, 1), (1, 1), (1, 1))
        for build in (displacement, phase_point, weyl_relation_defect):
            with pytest.raises(ValueError, match="positive integer"):
                build(bad, 1, 1)


def test_residues_check_n_then_each_label_in_order():
    with pytest.raises(ValueError, match="dimension must be a positive integer, got 0"):
        _residues(0, k=0.5)
    with pytest.raises(ValueError, match="k label 0.5"):
        _residues(5, j=1, k=0.5, m=0.25)
    with pytest.raises(ValueError, match=r"a label \(1, 2, 3\) must be a pair of integers"):
        _residues(5, pairs=True, a=(1, 2, 3))
    k, j = _residues(np.int64(5), k=-(10**20) - 1, j=[10**20, -1, np.uint8(7)])
    assert type(k) is int and k == 4
    assert j.dtype == np.intp and j.tolist() == [0, 4, 2]
    assert _residues(5, pairs=True, a=(np.uint64(6), 2**70)) == ((1, 4),)
    # numpy alone reads this list as float64 and would lose the last digit
    assert _residues(5, k=[0, 2**63 + 6])[0].tolist() == [0, (2**63 + 6) % 5]


def _bits(value) -> list:
    """Dtype, shape and bytes of every array or number in `value` (an AzState by its fields)."""
    fields = vars(value).values() if hasattr(value, "__dataclass_fields__") else [value]
    return [(np.asarray(x).dtype, np.shape(x), np.asarray(x).tobytes(), type(x)) for x in fields]


# function -> (coordinates per label, whether labels may be arrays, odd N only)
ON_ZN = {
    weyl_word: ((1, 1), True, False),
    weyl_relation_defect: ((1, 1), False, False),
    displacement: ((1, 1), True, False),
    coherent_state: ((1, 1), True, False),
    coherent_overlap: ((1, 1, 1, 1), False, False),
    symplectic_phase: ((1, 1, 1, 1), True, False),
    coherent_overlap_closed: ((1, 1, 1, 1), True, False),
    phase_point: ((1, 1), True, False),
    delta_product: ((2, 2), True, True),
    structure_constants: ((2, 2, 2), True, True),
}


@settings(max_examples=150)
@given(st.sampled_from(list(ON_ZN)), st.data())
def test_shifting_a_label_by_multiples_of_n_changes_no_bit(fn, data):
    """f(N, ..., x + k·N, ...) is f(N, ..., x, ...) bit for bit, for |k| up to 10²⁰, in every coordinate."""
    coords, arrays, odd = ON_ZN[fn]
    n = data.draw(st.integers(1, 9).map(lambda m: 2 * m + 1) if odd else st.integers(1, 12))
    coord = st.integers(-3 * n, 3 * n)
    size = data.draw(st.integers(0, 3)) if arrays else 0
    if size:  # lists of one length, which broadcast against each other and against scalars
        coord = coord | st.lists(coord, min_size=size, max_size=size)
    labels = [[data.draw(coord) for _ in range(count)] for count in coords]
    big_k = st.integers(-(10**20), 10**20)

    def shift(x):
        return [shift(y) for y in x] if isinstance(x, list) else x + data.draw(big_k) * n

    shifted = [[shift(x) for x in label] for label in labels]
    args, shifted_args = ([x[0] if len(x) == 1 else tuple(x) for x in ls] for ls in (labels, shifted))
    assert _bits(fn(n, *shifted_args)) == _bits(fn(n, *args))


@settings(max_examples=60)
@given(
    st.sampled_from([(1, 1), (2, 3), (3, 2), (4, 5), (1, 7), (8, 3)]),
    st.integers(-20, 20),
    st.integers(-20, 20),
    st.integers(-(10**20), 10**20),
    st.integers(-(10**20), 10**20),
)
def test_shifting_a_lattice_label_by_its_factor_changes_no_bit(dims, j, sigma, kj, ks):
    """j mod na and σ mod nb: az_state, modular_cell_coords and the CRT map, also past int64."""
    na, nb = dims
    for fn in (az_state, modular_cell_coords):
        assert _bits(fn(na, nb, j + kj * na, sigma + ks * nb)) == _bits(fn(na, nb, j, sigma))
    cm = crt_map(na, nb)
    assert cm.fwd(j + kj * na, sigma + ks * nb) == cm.fwd(j, sigma)
    assert cm.inv(j + kj * na * nb) == cm.inv(j)


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31])
def test_gauss_trace_odd_closed_form(n):
    assert abs(gauss_trace(n) - gauss_trace_closed_form(n)) <= 1e-10


def test_gauss_trace_even_values():
    """Even dimensions split by residue mod 4; the odd-N formula never applies."""
    for n in range(2, 33, 2):
        t = gauss_trace(n)
        expected = 0.0 if n % 4 == 2 else 1 + 1j
        assert abs(t - expected) <= 1e-10
        assert abs(t - gauss_trace_closed_form(n)) > 0.9  # honestly different


def test_gauss_trace_small_values():
    assert gauss_trace(1) == pytest.approx(1.0)
    assert gauss_trace(3) == pytest.approx(1j, abs=1e-12)
    assert gauss_trace(5) == pytest.approx(1.0, abs=1e-12)
    assert gauss_trace(4) == pytest.approx(1 + 1j, abs=1e-12)
