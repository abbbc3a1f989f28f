"""Tests for the truncated bosonic mode."""

import tracemalloc

import numpy as np
import pytest

from qpl import (
    FockSpace,
    basis_ket,
    expectation,
    is_unitary,
    unitary_exp,
)
from qpl.schwinger import roots

DIM = 64
SPACE = FockSpace(DIM)


def test_ladder_action_on_fock_basis():
    for n in range(1, DIM):
        np.testing.assert_allclose(
            SPACE.a @ basis_ket(DIM, n), np.sqrt(n) * basis_ket(DIM, n - 1), atol=1e-14
        )
    # raising operator annihilates the top level in the truncated space
    np.testing.assert_allclose(SPACE.adag @ basis_ket(DIM, DIM - 1), np.zeros(DIM))
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


@pytest.mark.parametrize("dim", (2, 3, 8, 64, 256))
def test_generators_match_quadrature_products(dim):
    """h0, g and k against their defining products of the quadratures."""
    space = FockSpace(dim)
    q, p = space.q, space.p
    oracle = ((q @ q + p @ p) / 2, (q @ p + p @ q) / 2, (q @ q - p @ p) / 2)
    for built, expected in zip((space.h0, space.g, space.k), oracle):
        np.testing.assert_allclose(built, expected, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(space.num, space.adag @ space.a)


def test_sl2_closure_away_from_edge():
    h0, g, k = SPACE.h0, SPACE.g, SPACE.k
    block = slice(0, DIM - 2)
    for left, right, expected in (
        (h0, g, 2j * k),
        (g, k, -2j * h0),
        (k, h0, 2j * g),
    ):
        comm = left @ right - right @ left
        np.testing.assert_allclose(comm[block, block], expected[block, block], atol=1e-12)


def test_vacuum_quadrature_variances():
    v = SPACE.vacuum()
    assert SPACE.variance(SPACE.q, v) == pytest.approx(0.5, abs=1e-12)
    assert SPACE.variance(SPACE.p, v) == pytest.approx(0.5, abs=1e-12)


EIGHT = FockSpace(8)


@pytest.mark.parametrize(
    "op, psi",
    (
        (EIGHT.a, EIGHT.vacuum()),  # not hermitian
        (np.diag([1.0, -1.0]), basis_ket(2, 0)),  # a 2-level pair on the 8-level space
        (np.full((8, 8), np.nan), EIGHT.vacuum()),
    ),
    ids=("non-hermitian", "wrong-side", "nan"),
)
def test_variance_rejects_an_operator_it_cannot_take(op, psi):
    with pytest.raises(ValueError):
        EIGHT.variance(op, psi)


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
    assert expectation(SPACE.num, psi).real == pytest.approx(abs(z) ** 2, abs=1e-6)
    assert expectation(SPACE.a, psi) == pytest.approx(z, abs=1e-6)
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


@pytest.mark.parametrize("dim", (2, 3, 8, 64, 256))
@pytest.mark.parametrize("key", sorted(FockSpace.GENERATORS))
def test_spectrum_diagonalizes_the_dense_generator(dim, key):
    space = FockSpace(dim)
    values, vectors = space.spectrum(key)
    dense = getattr(space, FockSpace.GENERATORS[key])
    assert np.max(np.abs((vectors * values) @ vectors.conj().T - dense)) <= 1e-12
    assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(dim))) <= 1e-12
    # only the rotated generators carry complex vectors
    assert np.iscomplexobj(vectors) == (key in ("p", "g"))
    assert not values.flags.writeable and not vectors.flags.writeable
    assert space.spectrum(key)[1] is vectors


def test_spectrum_rejects_unknown_generators():
    with pytest.raises(ValueError, match="unknown generator"):
        SPACE.spectrum("num")


def test_rotated_spectra_gather_exact_phases():
    """p = R(π/2)·q·R(π/2)† and g = R(π/4)·k·R(π/4)†, phases i^n and e^{iπn/4} from `roots`."""
    levels = np.arange(256)
    space = FockSpace(256)
    for key, base, turns in (("p", "q", 4), ("g", "k", 8)):
        values, vectors = space.spectrum(key)
        base_values, base_vectors = space.spectrum(base)
        assert np.array_equal(values, base_values)
        assert np.array_equal(vectors, roots(turns)[levels % turns][:, None] * base_vectors)


def dense_displacement(space, z):
    """Oracle: exp(z·a† - z̄·a) from one dense eigendecomposition of its generator."""
    return unitary_exp(1j * (z * space.adag - np.conjugate(z) * space.a), 1.0)


# All four quadrants, and |z| = √dim - 3 on the guard boundary (5 at 64, 13 at 256).
@pytest.mark.parametrize(
    "dim,z",
    [(16, z) for z in (0.3 + 0.2j, -0.4 + 0.1j, -0.2 - 0.3j, 0.1 - 0.45j)]
    + [(64, z) for z in (5, 3 + 4j, -4 + 3j, -3 - 4j, 4 - 3j, -5j)]
    + [(256, z) for z in (13, 5 + 12j, -12 + 5j, -5 - 12j, 12 - 5j)],
)
def test_displacement_and_coherent_match_dense_oracle(dim, z):
    space = FockSpace(dim)
    oracle = dense_displacement(space, z)
    assert np.max(np.abs(space.displacement(z) - oracle)) <= 1e-12
    assert np.max(np.abs(space.coherent(z) - oracle[:, 0])) <= 1e-12
    if (abs(z) + 3) ** 2 == dim:
        with pytest.raises(ValueError):
            space.coherent(z * 1.001)  # just past the boundary


def test_construction_allocates_no_dense_matrix(clear_fock_caches):
    """FockSpace keeps diagonals; a D×D operator is built on its first access."""
    tracemalloc.start()
    try:
        space = FockSpace(256)
        built = tracemalloc.get_traced_memory()[1]
        assert space.q.shape == (256, 256)
        with_q = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built < 256 * 256  # a complex 256 × 256 matrix is 1 MiB
    assert with_q >= 256 * 256 * 16


def bitwise_equal(x, y):
    """Same dtype, shape and bytes: equal entries, signed zeros included."""
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def uncached_oracle(dim):
    """The q and k spectra and the dense q and p, built without the fock caches."""
    levels = np.arange(dim)
    ladder = np.sqrt(levels[1:])
    a = np.diag(ladder, 1).astype(complex)
    adag = a.conj().T
    q = ladder / np.sqrt(2)
    q_values, q_vectors = np.linalg.eigh(np.diag(q, 1) + np.diag(q, -1))
    squared = np.sqrt(levels[1:-1] * levels[2:]) / 2
    blocks = [
        np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1)) for off in (squared[0::2], squared[1::2])
    ]
    k_vectors = np.zeros((dim, dim))
    k_vectors[0::2, : blocks[0][0].size] = blocks[0][1]
    k_vectors[1::2, blocks[0][0].size :] = blocks[1][1]
    return {
        "q spectrum": (q_values, q_vectors),
        "k spectrum": (np.concatenate([blocks[0][0], blocks[1][0]]), k_vectors),
        "quadratures": ((a + adag) / np.sqrt(2), (a - adag) / (1j * np.sqrt(2))),
    }


@pytest.mark.parametrize("dim", (2, 3, 24, 32, 64, 128, 256))
def test_modes_of_one_dimension_share_the_uncached_values(dim):
    """Two modes of one dimension get the same q and k spectra and q and p
    arrays, bit for bit the arrays an uncached build gives."""
    def arrays(space):
        return {
            "q spectrum": space.spectrum("q"),
            "k spectrum": space.spectrum("k"),
            "quadratures": (space.q, space.p),
        }

    first, second = arrays(FockSpace(dim)), arrays(FockSpace(dim))
    for name, expected in uncached_oracle(dim).items():
        for built, other, oracle in zip(first[name], second[name], expected):
            assert built is other, name
            assert not built.flags.writeable, name
            assert np.array_equal(built, oracle) and bitwise_equal(built, oracle), name


@pytest.mark.parametrize("name", ("a", "adag", "num", "q", "p", "h0", "g", "k"))
def test_dense_operators_are_read_only(name):
    """An in-place write raises; a fresh mode of the same size has the untouched values."""
    dim = 16
    operator = getattr(FockSpace(dim), name)
    before = operator.copy()
    with pytest.raises(ValueError, match="read-only"):
        operator[0, 1] = 7.0
    with pytest.raises(ValueError, match="read-only"):
        operator += 1.0
    with pytest.raises(ValueError, match="read-only"):
        np.multiply(operator, 2.0, out=operator)
    assert bitwise_equal(operator, before)
    assert bitwise_equal(getattr(FockSpace(dim), name), before)
