"""Tests for the dense linear-algebra substrate."""

import re

import numpy as np
import pytest

from oracles import unitary_exp
from qpl import (
    anticommutator,
    as_ket,
    as_operator,
    basis_ket,
    commutator,
    expectation,
    hs_inner,
    is_unitary,
    normalize,
    partial_trace,
    projector,
    random_density,
    random_hermitian,
    random_ket,
)
from qpl.linalg import as_hermitian, as_unit_ket, require_finite, require_same_dims

RNG = np.random.default_rng(20240817)


def test_as_ket_accepts_lists_and_validates():
    psi = as_ket([1, 1j])
    assert psi.dtype == complex
    with pytest.raises(ValueError):
        as_ket([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        as_ket([])
    with pytest.raises(ValueError):
        as_ket([np.nan, 0.0])


def test_as_operator_requires_square_finite():
    as_operator(np.eye(3))
    with pytest.raises(ValueError):
        as_operator(np.ones((2, 3)))
    with pytest.raises(ValueError):
        as_operator(np.array([[np.inf, 0], [0, 1]]))


def test_normalize():
    psi = normalize([3, 4j])
    assert abs(np.linalg.norm(psi) - 1) < 1e-14
    with pytest.raises(ValueError):
        normalize([0, 0])


def test_hs_inner_is_trace_of_product():
    a = random_hermitian(4, RNG) + 1j * random_hermitian(4, RNG)
    b = random_hermitian(4, RNG) + 1j * random_hermitian(4, RNG)
    # hs_inner is tr(A†B)
    np.testing.assert_allclose(hs_inner(a, b), np.trace(a.conj().T @ b), atol=1e-12)
    with pytest.raises(ValueError):
        hs_inner(a, np.eye(3))


def test_as_hermitian_returns_the_operator_or_names_it():
    h = random_hermitian(4, RNG)
    out = as_hermitian(h.tolist(), "generator")
    assert out.dtype == complex and np.array_equal(out, h)
    as_hermitian(h + 1e-11j * np.eye(4), "generator")  # inside HERMITIAN_TOL
    with pytest.raises(ValueError, match="generator must be hermitian"):
        as_hermitian(h + 1e-6j * np.eye(4), "generator")
    with pytest.raises(ValueError, match="square"):
        as_hermitian(np.ones((2, 3)), "generator")


@pytest.mark.parametrize("n", (1, 63, 64, 65, 130, 256))
def test_as_hermitian_sees_a_defect_in_every_band(n):
    h = random_hermitian(n, RNG)
    assert np.array_equal(as_hermitian(h, "h"), h)
    corners = {(0, n - 1), (n - 1, 0), (n // 2, n // 2), (n - 1, n - 1), (n - 1, n // 3)}
    for i, j in corners | {(64 % n, 63 % n), (64 % n, n - 1), (n - 1, 64 % n)}:
        bad = h.copy()
        bad[i, j] += 1e-9j if i == j else 1e-9
        with pytest.raises(ValueError, match="h must be hermitian"):
            as_hermitian(bad, "h")


def test_require_same_dims_names_every_length():
    require_same_dims(psi=np.ones(3), op=np.eye(3), skipped=None)
    with pytest.raises(ValueError, match="dimensions differ: psi has 3, op has 2$"):
        require_same_dims(psi=np.ones(3), op=np.eye(2), skipped=None)


def test_require_finite_names_the_value():
    require_finite(t=0.5, grid=np.zeros(4))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^grid must be finite$"):
            require_finite(t=0.5, grid=np.array([0.0, bad]))


def test_as_unit_ket_returns_the_ket_or_names_it():
    psi = random_ket(5, RNG)
    out = as_unit_ket(list(psi), "pointer state")
    assert out.dtype == complex and np.array_equal(out, psi)
    as_unit_ket(psi * (1 + 1e-11), "pointer state")  # inside the 1e-10 norm tolerance
    for scale in (0.0, 1 + 1e-9, 2.0):
        with pytest.raises(ValueError, match="pointer state must be normalized"):
            as_unit_ket(scale * psi, "pointer state")
    with pytest.raises(ValueError, match="non-finite"):
        as_unit_ket([np.nan, 1.0], "pointer state")


def test_hermitian_unitary_predicates():
    h = random_hermitian(5, RNG)
    assert np.array_equal(as_hermitian(h, "h"), h)
    with pytest.raises(ValueError, match="h must be hermitian"):
        as_hermitian(h + 1e-6 * 1j * np.eye(5), "h")
    u = unitary_exp(h, 0.7)
    assert is_unitary(u)
    assert not is_unitary(2 * u)


def test_tensor_and_partial_trace_roundtrip():
    rho_a = random_density(3, RNG)
    rho_b = random_density(4, RNG)
    composite = np.kron(rho_a, rho_b)
    np.testing.assert_allclose(partial_trace(composite, (3, 4), keep=0), rho_a, atol=1e-12)
    np.testing.assert_allclose(partial_trace(composite, (3, 4), keep=1), rho_b, atol=1e-12)
    # row-major composite index convention: i = i_a * N_b + i_b
    ket = np.kron(basis_ket(3, 1), basis_ket(4, 2))
    assert ket[1 * 4 + 2] == 1.0


def test_partial_trace_validates():
    with pytest.raises(ValueError):
        partial_trace(np.eye(6), (4, 2), keep=2)
    with pytest.raises(ValueError):
        partial_trace(np.eye(6), (4, 2), keep=0)  # 4*2 != 6


def test_unitary_exp_properties():
    h = random_hermitian(6, RNG)
    u1 = unitary_exp(h, 0.3)
    u2 = unitary_exp(h, 0.5)
    np.testing.assert_allclose(u1 @ u2, unitary_exp(h, 0.8), atol=1e-12)
    np.testing.assert_allclose(unitary_exp(h, 0.0), np.eye(6), atol=1e-12)
    # diagonal generator: closed form
    d = np.diag([0.0, 1.0, 2.0])
    np.testing.assert_allclose(unitary_exp(d, 1.0), np.diag(np.exp(-1j * np.array([0, 1, 2]))), atol=1e-14)
    with pytest.raises(ValueError):
        unitary_exp(np.array([[0, 1], [0, 0]]), 1.0)


def test_commutator_identities():
    a = random_hermitian(4, RNG)
    b = random_hermitian(4, RNG)
    np.testing.assert_allclose(commutator(a, b) + anticommutator(a, b), 2 * a @ b, atol=1e-12)
    np.testing.assert_allclose(commutator(a, a), np.zeros((4, 4)), atol=1e-12)


def test_expectation_projector_basis():
    psi = random_ket(5, RNG)
    p = projector(psi)
    np.testing.assert_allclose(p @ p, p, atol=1e-12)
    np.testing.assert_allclose(expectation(p, psi), 1.0, atol=1e-12)
    e2 = basis_ket(5, 2)
    assert expectation(np.diag(np.arange(5.0)), e2) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        basis_ket(3, 3)


@pytest.mark.parametrize("index", (1.5, np.float64(2.0)), ids=("float", "float64"))
def test_basis_ket_rejects_a_non_integer_index(index):
    """A float index used to reach numpy's indexing and raise IndexError; numpy integers still pass."""
    with pytest.raises(ValueError, match=re.escape(f"basis index must be an integer, got {index!r}")):
        basis_ket(3, index)
    assert np.array_equal(basis_ket(3, np.int64(2)), basis_ket(3, 2))


def test_random_density_is_a_state():
    for rank in (1, 2, 4):
        rho = random_density(4, RNG, rank=rank)
        as_hermitian(rho, "rho")
        assert np.trace(rho).real == pytest.approx(1.0)
        eigs = np.linalg.eigvalsh(rho)
        assert eigs.min() > -1e-12
        assert np.sum(eigs > 1e-10) == rank
