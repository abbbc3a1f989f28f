"""Tests for the cyclic shift/clock pair and the discrete Fourier transform."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qpl import (
    CoherentFamily,
    Kinematics,
    StructureConstants,
    WeylWignerBasis,
    displacement,
    dft,
    gauss_trace,
    gauss_trace_closed_form,
    is_unitary,
    weyl_relation_defect,
)
from qpl.schwinger import roots, weyl_word

DIMS = (1, 2, 3, 4, 5, 7, 8, 12)


def test_shift_and_clock_definitions():
    v = Kinematics(4).V
    # V|u_k⟩ = |u_{k-1}⟩, cyclically
    for k in range(4):
        e = np.zeros(4)
        e[k] = 1
        out = v @ e
        assert out[(k - 1) % 4] == 1.0
    u = Kinematics(4).U
    np.testing.assert_allclose(np.diag(u), np.exp(2j * np.pi * np.arange(4) / 4))


def test_shift_and_clock_match_explicit_matrices():
    """Kinematics V and U equal the explicit shift and clock, bit for bit."""
    for n in range(1, 70):
        v = np.zeros((n, n), dtype=complex)
        v[(np.arange(n) - 1) % n, np.arange(n)] = 1.0
        u = np.diag(roots(n))
        kin = Kinematics(n)
        assert np.array_equal(kin.V, v)
        assert np.array_equal(kin.U, u)


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
    kin = Kinematics(n)
    v, u = kin.V, kin.U
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
    kin = Kinematics(n)
    labels = np.arange(-n, 2 * n)
    words = weyl_word(n, labels[:, None], labels[None, :])
    assert words.shape == (3 * n, 3 * n, n, n)
    for a, k in enumerate(labels):
        uk = np.linalg.matrix_power(kin.U, int(k) % n)
        for b, j in enumerate(labels):
            vj = np.linalg.matrix_power(kin.V, int(j) % n)
            np.testing.assert_allclose(words[a, b], uk @ vj, atol=1e-12)


@pytest.mark.parametrize("n", DIMS)
def test_fourier_properties(n):
    f = dft(n)
    assert is_unitary(f)
    np.testing.assert_allclose(np.linalg.matrix_power(f, 4), np.eye(n), atol=1e-10)
    # F diagonalizes the shift: the columns of F are momentum states
    v = Kinematics(n).V
    for j in range(n):
        np.testing.assert_allclose(
            v @ f[:, j], np.exp(2j * np.pi * j / n) * f[:, j], atol=1e-12
        )


def test_fourier_exchanges_shift_and_clock():
    for n in (2, 3, 5, 8):
        kin = Kinematics(n)
        # V acts diagonally in the momentum basis: F† V F = U
        np.testing.assert_allclose(kin.F.conj().T @ kin.V @ kin.F, kin.U, atol=1e-12)


def test_kinematics_states():
    with pytest.raises(ValueError):
        Kinematics(0)
    with pytest.raises(ValueError):
        Kinematics(-3)
    # the same dimension check guards every construction on Z_N
    for bad in (0, 2.5):
        for build in (CoherentFamily, WeylWignerBasis, StructureConstants):
            with pytest.raises(ValueError, match="positive integer"):
                build(bad)
        for build in (displacement, weyl_relation_defect):
            with pytest.raises(ValueError, match="positive integer"):
                build(bad, 1, 1)


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
