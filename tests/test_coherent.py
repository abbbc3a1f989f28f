"""Tests for the displaced Fourier-invariant coherent family."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpl import (
    CoherentFamily,
    Kinematics,
    basis_ket,
    coherent_overlap,
    coherent_overlap_closed,
    coherent_state,
    displacement,
    is_unitary,
    reference_state,
    symplectic_phase,
)
from qpl.weylwigner import half_phase_exponents

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("n", range(1, 33))
def test_reference_state_is_fourier_invariant(n):
    kin = Kinematics(n)
    ref = reference_state(n)
    np.testing.assert_allclose(kin.F @ ref, ref, atol=1e-10)
    assert np.linalg.norm(ref) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", (2, 3, 4, 5, 9, 16))
def test_reference_prenormalization_norm(n):
    raw = basis_ket(n, 0) + Kinematics(n).F[:, 0]
    assert np.linalg.norm(raw) ** 2 == pytest.approx(2 + 2 / np.sqrt(n), abs=1e-12)


def test_displacement_unitary_and_trivial_label():
    for n in (2, 3, 4, 5):
        np.testing.assert_allclose(displacement(n, 0, 0), np.eye(n), atol=1e-14)
        for m, nn in ((1, 0), (0, 1), (1, 1), (n - 1, 2 % n)):
            assert is_unitary(displacement(n, m, nn))


@pytest.mark.parametrize("n", (3, 4, 5))
def test_overlap_closed_form_every_pair(n):
    """⟨p,q|r,s⟩ agrees with phase × signed magnitude to machine precision."""
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for s in range(n):
                    direct = coherent_overlap(n, p, q, r, s)
                    closed = coherent_overlap_closed(n, p, q, r, s)
                    assert abs(direct - closed) <= 1e-12


LABEL = st.integers(min_value=-(10**12), max_value=10**12)


@given(n=st.integers(min_value=1, max_value=16), p=LABEL, q=LABEL, r=LABEL, s=LABEL)
def test_overlap_closed_form_any_labels_property(n, p, q, r, s):
    """Closed form against the direct overlap for negative and out-of-range labels."""
    direct = coherent_overlap(n, p, q, r, s)
    assert abs(direct - coherent_overlap_closed(n, p, q, r, s)) <= 1e-12


@pytest.mark.parametrize("n", (3, 4, 5))
def test_symplectic_phase_factor(n):
    """Dividing out v^{(rq-ps)/2} leaves a real number on every pair."""
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for s in range(n):
                    direct = coherent_overlap(n, p, q, r, s)
                    residue = direct * np.conj(symplectic_phase(n, p, q, r, s))
                    assert abs(residue.imag) <= 1e-12


def test_half_phases_match_high_precision_reference():
    """Every displacement entry and symplectic phase at N = 64 is e^{iπk/N} for
    an integer k; compare against a 40-digit table of those values."""
    mpmath = pytest.importorskip("mpmath")
    n = 64
    with mpmath.workdps(40):
        table = np.array([complex(mpmath.expjpi(mpmath.mpf(k) / n)) for k in range(2 * n)])
    k = np.arange(n)
    a, c, nn = k[:, None, None], k[None, :, None], k[None, None, :]
    worst = 0.0
    for m in range(n):
        # D_mn[a, c] = e^{-iπ·m·n/N}·v^{m·a} where a ≡ c + n, else 0
        d = displacement(n, m, k)  # [n, a, c]
        expected = np.where(a == (c + nn) % n, table[(2 * m * a - m * nn) % (2 * n)], 0)
        worst = max(worst, np.max(np.abs(d.transpose(1, 2, 0) - expected)))
        # symplectic phase e^{iπ(rq - ps)/N} with p = m
        q, r, s = k[:, None, None], k[None, :, None], k[None, None, :]
        phase = symplectic_phase(n, m, q, r, s)
        worst = max(worst, np.max(np.abs(phase - table[(r * q - m * s) % (2 * n)])))
    assert worst <= 2e-15


@pytest.mark.parametrize("n", (16, 32, 64))
def test_half_phase_exponents_match_high_precision_reference(n):
    """Even N: h(r,s) = ±e^{iπ·rs/N}, the sign flipped where r+s is odd and
    exceeds N; compare against a 40-digit table of e^{iπk/N}."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        table = np.array([complex(mpmath.expjpi(mpmath.mpf(k) / n)) for k in range(2 * n)])
    r, s = np.ogrid[:n, :n]
    flip = ((r + s) % 2 == 1) & (r + s > n)
    expected = np.where(flip, -1, 1) * table[(r * s) % (2 * n)]
    assert np.max(np.abs(half_phase_exponents(n) - expected)) <= 2e-15


@pytest.mark.parametrize("n", range(1, 17))
def test_closed_form_broadcasts_like_scalar_calls(n):
    """One call over label grids gives exactly the N⁴ scalar results."""
    m, nn = np.divmod(np.arange(n * n), n)
    table = coherent_overlap_closed(n, m[:, None], nn[:, None], m[None, :], nn[None, :])
    labels = [(p, q) for p in range(n) for q in range(n)]
    scalar = np.array([[coherent_overlap_closed(n, *a, *b) for b in labels] for a in labels])
    assert np.array_equal(table, scalar)
    # labels are taken mod N before the case split
    shifted = coherent_overlap_closed(n, m[:, None] - n, nn[:, None] + 3 * n, m[None, :], nn[None, :])
    assert np.array_equal(shifted, table)


@pytest.mark.parametrize("n", range(1, 65))
def test_closed_form_tables_match_the_direct_form(n):
    """Every call gathers from one table over the label differences, so a call over
    (4N)² label pairs equals its 4N calls over 4N pairs, bit for bit."""
    p, q, r, s = np.random.default_rng(n).integers(-3 * n, 3 * n, size=(4, 4 * n))
    table = coherent_overlap_closed(n, p[:, None], q[:, None], r[None, :], s[None, :])
    rows = np.array([coherent_overlap_closed(n, p[i], q[i], r, s) for i in range(4 * n)])
    assert np.array_equal(table, rows)


@pytest.mark.parametrize("n", range(1, 65))
def test_family_states_equal_the_matrix_form(n):
    """The index form of |m,n⟩ is D_mn|0⟩ computed as a matrix product, bit for bit."""
    states, ref, k = CoherentFamily(n).states, reference_state(n), np.arange(n)
    for m in range(n):
        assert np.array_equal(states[m], displacement(n, m, k) @ ref)


@pytest.mark.parametrize("n", (3, 4, 5))
def test_overlap_magnitude_cases(n):
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for s in range(n):
                    assert abs(coherent_overlap(n, p, q, r, s)) == pytest.approx(
                        abs(coherent_overlap_closed(n, p, q, r, s)), abs=1e-12
                    )


@pytest.mark.parametrize("n", range(2, 9))
def test_identity_resolution(n):
    family = CoherentFamily(n)
    np.testing.assert_allclose(family.identity_resolution(), n * np.eye(n), atol=1e-9)


def test_family_states_match_functional_form():
    family = CoherentFamily(4)
    for m in range(4):
        for nn in range(4):
            np.testing.assert_allclose(
                family.states[m, nn], coherent_state(4, m, nn), atol=1e-12
            )
            assert np.linalg.norm(family.states[m, nn]) == pytest.approx(1.0, abs=1e-12)


def test_gram_is_hermitian_psd():
    family = CoherentFamily(5)
    gram = family.gram()
    np.testing.assert_allclose(gram, gram.conj().T, atol=1e-12)
    assert np.linalg.eigvalsh(gram).min() > -1e-10


@pytest.mark.parametrize("n", (2, 4, 6, 8, 10, 12))
def test_even_dimensions_admit_orthogonal_pairs(n):
    # closed-form witness: labels (0,0) and (1, n/2) make the cosine vanish
    witness = coherent_overlap(n, 0, 0, 1, n // 2)
    assert abs(witness) <= 1e-10
    # the closed form takes the cosine at a quarter turn, which is exactly 0
    assert coherent_overlap_closed(n, 0, 0, 1, n // 2) == 0
    gram = CoherentFamily(n).gram()
    off = gram[~np.eye(n * n, dtype=bool)]
    assert np.min(np.abs(off)) <= 1e-10


@pytest.mark.parametrize("n", (3, 5, 7, 9, 11, 13))
def test_odd_dimensions_have_no_orthogonal_pairs(n):
    gram = CoherentFamily(n).gram()
    off = gram[~np.eye(n * n, dtype=bool)]
    assert np.min(np.abs(off)) > 1e-6


def test_magnitude_table_matches_golden_fixture():
    """The full magnitude table is frozen as a fixture for N = 3, 4, 5."""
    fixture = json.loads((GOLDEN / "coherent_magnitudes.json").read_text())
    for key, table in fixture.items():
        n = int(key)
        gram = np.abs(CoherentFamily(n).gram())
        np.testing.assert_allclose(gram, np.array(table), atol=1e-9)
