"""Tests for the cyclic shift/clock pair and the discrete Fourier transform."""

import numpy as np
import pytest

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
    momentum_shift,
    position_shift,
    weyl_relation_defect,
)
from qpl.schwinger import weyl_word

DIMS = (1, 2, 3, 4, 5, 7, 8, 12)


def test_shift_and_clock_definitions():
    v = position_shift(4)
    # V|u_k⟩ = |u_{k-1}⟩, cyclically
    for k in range(4):
        e = np.zeros(4)
        e[k] = 1
        out = v @ e
        assert out[(k - 1) % 4] == 1.0
    u = momentum_shift(4)
    np.testing.assert_allclose(np.diag(u), np.exp(2j * np.pi * np.arange(4) / 4))


@pytest.mark.parametrize("n", DIMS)
def test_order_n_and_unitarity(n):
    v = position_shift(n)
    u = momentum_shift(n)
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
    v = position_shift(n)
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
    kin = Kinematics(5)
    for k in range(5):
        e = kin.position_state(k)
        assert e[k] == 1.0
        np.testing.assert_allclose(kin.momentum_state(k), kin.F[:, k])
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
