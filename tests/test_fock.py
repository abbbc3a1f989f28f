"""Tests for the truncated bosonic mode."""

import numpy as np
import pytest

from qpl import (
    FockSpace,
    is_unitary,
    sl2_generators,
)

DIM = 64
SPACE = FockSpace(DIM)


def test_ladder_action_on_number_states():
    for n in range(1, DIM):
        np.testing.assert_allclose(
            SPACE.a @ SPACE.number_state(n), np.sqrt(n) * SPACE.number_state(n - 1), atol=1e-14
        )
    # raising operator annihilates the top level in the truncated space
    np.testing.assert_allclose(SPACE.adag @ SPACE.number_state(DIM - 1), np.zeros(DIM))
    np.testing.assert_allclose(SPACE.a @ SPACE.vacuum(), np.zeros(DIM))


def test_number_operator_diagonal():
    np.testing.assert_allclose(SPACE.num, np.diag(np.arange(DIM, dtype=float)), atol=1e-14)


def test_canonical_commutator_interior():
    c = SPACE.q @ SPACE.p - SPACE.p @ SPACE.q
    interior = c[: DIM - 1, : DIM - 1]
    np.testing.assert_allclose(interior, 1j * np.eye(DIM - 1), atol=1e-12)
    # truncation dumps the missing trace into the top corner
    assert c[DIM - 1, DIM - 1] == pytest.approx(1j * (1 - DIM), abs=1e-10)
    assert np.trace(c) == pytest.approx(0.0, abs=1e-10)


def test_h0_counts_quanta_on_interior():
    diag = np.diag(SPACE.h0).real
    np.testing.assert_allclose(diag[: DIM - 1], np.arange(DIM - 1) + 0.5, atol=1e-12)


def test_sl2_closure_away_from_edge():
    h0, g, k = sl2_generators(DIM)
    block = slice(0, DIM - 2)
    for left, right, expected in (
        (h0, g, 2j * k),
        (g, k, -2j * h0),
        (k, h0, 2j * g),
    ):
        comm = left @ right - right @ left
        np.testing.assert_allclose(comm[block, block], expected[block, block], atol=1e-12)


def test_sl2_needs_room():
    with pytest.raises(ValueError):
        sl2_generators(3)


def test_vacuum_quadrature_variances():
    v = SPACE.vacuum()
    assert SPACE.variance(SPACE.q, v) == pytest.approx(0.5, abs=1e-12)
    assert SPACE.variance(SPACE.p, v) == pytest.approx(0.5, abs=1e-12)


def test_displacement_unitary_and_guard():
    d = SPACE.displacement(1.0 + 0.5j)
    assert is_unitary(d)
    with pytest.raises(ValueError):
        FockSpace(16).displacement(2.0)  # (2+3)² = 25 > 16
    with pytest.raises(ValueError):
        SPACE.displacement(6.0)


@pytest.mark.parametrize("z", (0.3, 1.0 + 1.0j, -2.0 + 0.5j, 3.0, 3j))
def test_coherent_moments(z):
    psi = SPACE.coherent(z)
    assert SPACE.mean(SPACE.num, psi).real == pytest.approx(abs(z) ** 2, abs=1e-6)
    assert SPACE.mean(SPACE.a, psi) == pytest.approx(z, abs=1e-6)
    # minimal uncertainty in both quadratures
    assert SPACE.variance(SPACE.q, psi) == pytest.approx(0.5, abs=1e-6)
    assert SPACE.variance(SPACE.p, psi) == pytest.approx(0.5, abs=1e-6)


@pytest.mark.parametrize("z", (0.5, 1.5 + 0.5j, 2.0j, -1.0 - 1.0j, 3.0))
@pytest.mark.parametrize("theta", (0.3, np.pi / 2, 1.9))
def test_rotation_acts_as_phase_on_labels(z, theta):
    """F_θ|z⟩ = |e^{iθ}z⟩ up to global phase, within truncation error."""
    rotated = SPACE.rotation(theta) @ SPACE.coherent(z)
    target = SPACE.coherent(np.exp(1j * theta) * z)
    fidelity = abs(target.conj() @ rotated)
    assert fidelity >= 1 - 1e-6


def test_rotation_unitary_and_periodic():
    r = SPACE.rotation(0.7)
    assert is_unitary(r)
    np.testing.assert_allclose(SPACE.rotation(2 * np.pi), np.eye(DIM), atol=1e-12)


@pytest.mark.parametrize("xi", (1 / 3, 0.5, 1.0, 2.0, 3.0))
def test_scale_dilates_quadrature_variances(xi):
    psi = SPACE.scale(xi) @ SPACE.vacuum()
    assert SPACE.variance(SPACE.q, psi) == pytest.approx(0.5 / xi**2, abs=2e-5)
    assert SPACE.variance(SPACE.p, psi) == pytest.approx(0.5 * xi**2, abs=2e-5)


def test_scale_guard():
    with pytest.raises(ValueError):
        SPACE.scale(4.0)
    with pytest.raises(ValueError):
        SPACE.scale(0.2)


def test_truncation_needs_two_levels():
    with pytest.raises(ValueError):
        FockSpace(1)
