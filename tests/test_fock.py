"""Tests for the truncated bosonic mode."""

import tracemalloc

import numpy as np
import pytest

from oracles import dense_operator, unitary_exp
from qpl import (
    FockSpace,
    basis_ket,
    expectation,
    is_unitary,
)
from qpl.fock import _band_table, _spectrum
from qpl.schwinger import roots

DIM = 64
SPACE = FockSpace(DIM)


def test_ladder_action_on_fock_basis():
    for n in range(1, DIM):
        np.testing.assert_allclose(
            SPACE.apply("a", basis_ket(DIM, n)), np.sqrt(n) * basis_ket(DIM, n - 1), atol=1e-14
        )
    # raising operator annihilates the top level in the truncated space
    np.testing.assert_allclose(SPACE.operator("a").conj().T @ basis_ket(DIM, DIM - 1), np.zeros(DIM))
    np.testing.assert_allclose(SPACE.apply("a", SPACE.vacuum()), np.zeros(DIM))


def test_number_operator_diagonal():
    np.testing.assert_allclose(SPACE.operator("n"), np.diag(np.arange(DIM, dtype=float)), atol=1e-14)


def test_canonical_commutator_interior():
    q, p = SPACE.operator("q"), SPACE.operator("p")
    c = q @ p - p @ q
    interior = c[: DIM - 1, : DIM - 1]
    np.testing.assert_allclose(interior, 1j * np.eye(DIM - 1), atol=1e-12)
    # truncation dumps the missing trace into the top corner
    assert c[DIM - 1, DIM - 1] == pytest.approx(1j * (1 - DIM), abs=1e-10)
    assert np.trace(c) == pytest.approx(0.0, abs=1e-10)


def test_h0_counts_quanta_on_interior():
    diag = np.diag(SPACE.operator("h0")).real
    np.testing.assert_allclose(diag[: DIM - 1], np.arange(DIM - 1) + 0.5, atol=1e-12)


@pytest.mark.parametrize("dim", (2, 3, 8, 64, 256))
def test_generators_match_quadrature_products(dim):
    """h0, g and k against their defining products of the quadratures."""
    space = FockSpace(dim)
    q, p, a = space.operator("q"), space.operator("p"), space.operator("a")
    oracle = ((q @ q + p @ p) / 2, (q @ p + p @ q) / 2, (q @ q - p @ p) / 2)
    for key, expected in zip(("h0", "g", "k"), oracle):
        np.testing.assert_allclose(space.operator(key), expected, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(space.operator("n"), a.conj().T @ a)


def test_sl2_closure_away_from_edge():
    h0, g, k = (SPACE.operator(key) for key in ("h0", "g", "k"))
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
    assert SPACE.variance("q", v) == pytest.approx(0.5, abs=1e-12)
    assert SPACE.variance("p", v) == pytest.approx(0.5, abs=1e-12)


EIGHT = FockSpace(8)


@pytest.mark.parametrize(
    "key, psi",
    (
        ("a", EIGHT.vacuum()),  # not hermitian
        ("q", basis_ket(2, 0)),  # a 2-level ket on the 8-level space
        ("q", np.full(8, np.nan)),
        ("q", 2 * EIGHT.vacuum()),  # Var_q is 0.5 for the unit vacuum; 2.0 came back
    ),
    ids=("non-hermitian", "wrong-side", "nan", "unnormalized"),
)
def test_variance_rejects_an_operator_it_cannot_take(key, psi):
    with pytest.raises(ValueError):
        EIGHT.variance(key, psi)


@pytest.mark.parametrize("key", FockSpace.GENERATORS)
def test_variance_is_the_dense_second_moment(key):
    """‖Xψ‖² - ⟨ψ|X|ψ⟩² from the bands against ⟨ψ|X²|ψ⟩ - ⟨ψ|X|ψ⟩² of the dense oracle."""
    psi = SPACE.coherent(1.0 - 0.5j)
    x = dense_operator(DIM, key)
    mean = (psi.conj() @ x @ psi).real
    second = (psi.conj() @ x @ x @ psi).real
    assert SPACE.variance(key, psi) == pytest.approx(second - mean**2, rel=1e-12)


def test_displacement_unitary_and_guard():
    d = SPACE.displacement(1.0 + 0.5j)
    assert is_unitary(d)
    with pytest.raises(ValueError):
        FockSpace(16).displacement(2.0)  # (2+3)² = 25 > 16
    with pytest.raises(ValueError):
        SPACE.displacement(6.0)


@pytest.mark.parametrize("z", (complex(np.nan, 1.0), complex(1.0, np.nan), complex(np.inf, 0.0)))
def test_displacement_guard_rejects_non_finite(z):
    """A NaN or infinite |z| fails the (|z| + 3)² ≤ dim guard instead of returning NaN arrays."""
    space = FockSpace(16)
    for build in (space.displacement, space.coherent):
        with pytest.raises(ValueError, match="too large for truncation"):
            build(z)


@pytest.mark.parametrize("z", (0.3, 1.0 + 1.0j, -2.0 + 0.5j, 3.0, 3j))
def test_coherent_moments(z):
    psi = SPACE.coherent(z)
    assert expectation(SPACE.operator("n"), psi).real == pytest.approx(abs(z) ** 2, abs=1e-6)
    assert expectation(SPACE.operator("a"), psi) == pytest.approx(z, abs=1e-6)
    # minimal uncertainty in both quadratures
    assert SPACE.variance("q", psi) == pytest.approx(0.5, abs=1e-6)
    assert SPACE.variance("p", psi) == pytest.approx(0.5, abs=1e-6)


@pytest.mark.parametrize("z", (0.5, 1.5 + 0.5j, 2.0j, -1.0 - 1.0j, 3.0))
@pytest.mark.parametrize("theta", (0.3, np.pi / 2, 1.9))
def test_rotation_acts_as_phase_on_labels(z, theta):
    """F_θ|z⟩ = |e^{iθ}z⟩ up to global phase, within truncation error."""
    rotated = SPACE.rotation(theta) @ SPACE.coherent(z)
    target = SPACE.coherent(np.exp(1j * theta) * z)
    fidelity = abs(target.conj() @ rotated)
    assert fidelity >= 1 - 1e-6


@pytest.mark.parametrize("theta", (float("nan"), float("inf"), -float("inf")))
def test_rotation_rejects_a_non_finite_angle(theta):
    with pytest.raises(ValueError, match="theta must be finite"):
        SPACE.rotation(theta)


def test_rotation_unitary_and_periodic():
    r = SPACE.rotation(0.7)
    assert is_unitary(r)
    np.testing.assert_allclose(SPACE.rotation(2 * np.pi), np.eye(DIM), atol=1e-12)


@pytest.mark.parametrize("xi", (1 / 3, 0.5, 1.0, 2.0, 3.0))
def test_scale_dilates_quadrature_variances(xi):
    psi = SPACE.scale(xi) @ SPACE.vacuum()
    assert SPACE.variance("q", psi) == pytest.approx(0.5 / xi**2, abs=2e-5)
    assert SPACE.variance("p", psi) == pytest.approx(0.5 * xi**2, abs=2e-5)


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
    dense = dense_operator(dim, key)
    # the diagonal n and h0 carry no vector matrix: None stands for the identity
    assert (vectors is None) == (key in ("n", "h0"))
    w = np.eye(dim) if vectors is None else vectors
    assert np.max(np.abs((w * values) @ w.conj().T - dense)) <= 1e-12
    assert np.max(np.abs(w.conj().T @ w - np.eye(dim))) <= 1e-12
    # only the rotated generators carry complex vectors
    assert np.iscomplexobj(vectors) == (key in ("p", "g"))
    assert not values.flags.writeable and (vectors is None or not vectors.flags.writeable)
    assert space.spectrum(key)[1] is vectors
    if vectors is not None:  # shared by every mode of this dimension
        assert FockSpace(dim).spectrum(key)[1] is vectors


BANDED_DIMS = (2, 3, 16, 64, 128, 256)


@pytest.mark.parametrize("dim", BANDED_DIMS)
def test_banded_action_and_cached_spectra_match_the_dense_operators(dim):
    """`apply` equals the dense oracle operator on random kets for every generator and
    `a`, and every cached spectrum rebuilds its dense generator.

    Each entry of X·ψ is a sum of at most two complex products on either side,
    so each side is within γ₄·(|X|·|ψ|) of the exact value (Higham, Accuracy and
    Stability of Numerical Algorithms, §3.6; γ₄ < 4.01u), and the dense p and g
    entries are rounded once more: 8u·(|X|·|ψ|) entrywise covers both.
    """
    space, rng = FockSpace(dim), np.random.default_rng(dim)
    for key in (*FockSpace.GENERATORS, "a"):
        dense = dense_operator(dim, key)
        for _ in range(3):
            psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            bound = 8 * np.finfo(float).eps * (np.abs(dense) @ np.abs(psi))
            assert np.all(np.abs(space.apply(key, psi) - dense @ psi) <= bound), key
    for key in FockSpace.GENERATORS:
        values, vectors = space.spectrum(key)
        rebuilt = np.diag(values) if vectors is None else (vectors * values) @ vectors.conj().T
        assert np.max(np.abs(rebuilt - dense_operator(dim, key))) <= 1e-12, key


@pytest.mark.parametrize(
    "key, psi",
    (("num", np.ones(8)), ("adag", np.ones(8)), ("q", np.ones(7)), ("q", np.ones(1)), ("k", np.full(8, np.nan))),
    ids=("attribute-name", "raising", "short", "one-entry", "nan"),
)
def test_apply_rejects_what_it_cannot_take(key, psi):
    with pytest.raises(ValueError):
        EIGHT.apply(key, psi)


@pytest.mark.parametrize("dim", BANDED_DIMS)
def test_q_spectrum_is_the_gauss_hermite_rule(dim):
    """The eigenvalues of Q are the Gauss–Hermite nodes, and the squared first
    components of its eigenvectors the weights over √π (Golub & Welsch, Math.
    Comp. 23, 221 (1969)); `hermgauss` computes them independently.

    Both sides are backward stable, so a node moves by at most c·u·‖Q‖₂ and an
    eigenvector by c·u·‖Q‖₂/gap, with ‖Q‖₂ the largest |node| and gap the
    smallest node spacing; c = 8 on each.
    """
    values, vectors = FockSpace(dim).spectrum("q")
    nodes, weights = np.polynomial.hermite.hermgauss(dim)
    norm, gap, u = np.abs(nodes).max(), np.diff(nodes).min(), np.finfo(float).eps
    assert np.max(np.abs(values - nodes)) <= 8 * u * norm
    assert np.max(np.abs(vectors[0] ** 2 - weights / np.sqrt(np.pi))) <= 8 * u * norm / gap


@pytest.mark.parametrize("dim", BANDED_DIMS)
def test_k_parity_chains_match_bisection(dim):
    """k couples level j only to j ± 2, so its values are those of the even chain, then
    the odd one; bisection (LAPACK stebz) finds each chain's eigenvalues independently.

    Both sides are backward stable, so they agree within c·u·‖k‖₂, c = 8 as for q.
    """
    eigh_tridiagonal = pytest.importorskip("scipy.linalg").eigh_tridiagonal
    values, _ = FockSpace(dim).spectrum("k")
    off = dense_operator(dim, "k").diagonal(2).real
    chains = [
        eigh_tridiagonal(np.zeros(len(range(i, dim, 2))), off[i::2], eigvals_only=True, lapack_driver="stebz")
        for i in (0, 1)
    ]
    expected = np.concatenate(chains)
    assert np.max(np.abs(values - expected)) <= 8 * np.finfo(float).eps * np.abs(expected).max()


def test_spectrum_rejects_unknown_generators():
    with pytest.raises(ValueError, match=r"generator must be one of \['g', 'h0', 'k', 'n', 'p', 'q'\], got 'num'"):
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
    a = dense_operator(space.dim, "a")
    return unitary_exp(1j * (z * a.conj().T - np.conjugate(z) * a), 1.0)


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


def test_construction_allocates_no_dense_matrix(clear_qpl_caches):
    """FockSpace keeps diagonals; a D×D operator is built only when `operator` is asked."""
    tracemalloc.start()
    try:
        space = FockSpace(256)
        built = tracemalloc.get_traced_memory()[1]
        assert space.operator("q").shape == (256, 256)
        with_q = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built < 256 * 256  # a complex 256 × 256 matrix is 1 MiB
    assert with_q >= 256 * 256 * 16


def bitwise_equal(x, y):
    """Same dtype, shape and bytes: equal entries, signed zeros included."""
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def uncached_oracle(dim):
    """The q, p, k and g spectra, built without the fock caches."""
    levels = np.arange(dim)
    q = np.sqrt(levels[1:]) / np.sqrt(2)
    q_values, q_vectors = np.linalg.eigh(np.diag(q, 1) + np.diag(q, -1))
    squared = np.sqrt(levels[1:-1] * levels[2:]) / 2
    blocks = [
        np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1)) for off in (squared[0::2], squared[1::2])
    ]
    k_vectors = np.zeros((dim, dim))
    k_vectors[0::2, : blocks[0][0].size] = blocks[0][1]
    k_vectors[1::2, blocks[0][0].size :] = blocks[1][1]
    k_values = np.concatenate([blocks[0][0], blocks[1][0]])
    return {
        "q spectrum": (q_values, q_vectors),
        "p spectrum": (q_values, roots(4)[levels % 4][:, None] * q_vectors),
        "k spectrum": (k_values, k_vectors),
        "g spectrum": (k_values, roots(8)[levels % 8][:, None] * k_vectors),
    }


@pytest.mark.parametrize("dim", (2, 3, 24, 32, 64, 128, 256))
def test_modes_of_one_dimension_share_the_uncached_values(dim):
    """Two modes of one dimension share the q, p, k and g spectra, bit for bit the
    arrays an uncached build gives."""
    def arrays(space):
        return {f"{key} spectrum": space.spectrum(key) for key in "qpkg"}

    first, second = arrays(FockSpace(dim)), arrays(FockSpace(dim))
    for name, expected in uncached_oracle(dim).items():
        for built, other, oracle in zip(first[name], second[name], expected):
            assert built is other, name
            assert not built.flags.writeable, name
            assert np.array_equal(built, oracle) and bitwise_equal(built, oracle), name


# The pointer dimensions of the weak-small and weak-large benchmark pools
# (perfbench/workloads.py), each run there under all six generator keys.
@pytest.mark.parametrize("dims", ((24, 32), (64, 128)), ids=("weak-small", "weak-large"))
def test_a_second_pool_pass_misses_no_fock_cache(clear_qpl_caches, dims):
    def one_pass():
        for dim in dims:
            space = FockSpace(dim)
            for key in FockSpace.GENERATORS:
                space.spectrum(key)
        return {cache: cache.cache_info().misses for cache in (_band_table, _spectrum)}

    first = one_pass()
    assert first == {_band_table: len(dims), _spectrum: len(dims) * len(FockSpace.GENERATORS)}
    assert one_pass() == first


@pytest.mark.parametrize("dim", (2, 3, 16, 64, 256))
def test_dense_operators_are_the_oracle_operators(dim):
    """`operator(key)` for every generator and `a` against the ladder-matrix formulas of
    `oracles.dense_operator`: a, n, h0, g and k are equal entry for entry; the oracle's q
    and p divide complex entries by √2 and i√2, so they may differ by less than an ulp."""
    space = FockSpace(dim)
    for key in (*FockSpace.GENERATORS, "a"):
        built, oracle = space.operator(key), dense_operator(dim, key)
        assert built.dtype == complex and built.shape == (dim, dim) and not built.flags.writeable, key
        if key in ("q", "p"):
            assert np.all(np.abs(built - oracle) <= np.finfo(float).eps * np.abs(oracle)), key
        else:
            assert np.array_equal(built, oracle), key


@pytest.mark.parametrize("key", ("num", "adag", "x"))
def test_operator_rejects_a_key_it_does_not_name(key):
    with pytest.raises(ValueError, match=rf"operator must be one of \['a', 'g', 'h0', 'k', 'n', 'p', 'q'\], got '{key}'"):
        EIGHT.operator(key)


@pytest.mark.parametrize("name", ("a", "n", "q", "p", "h0", "g", "k"))
def test_dense_operators_are_read_only(name):
    """An in-place write raises; a fresh mode of the same size has the untouched values."""
    dim = 16
    operator = FockSpace(dim).operator(name)
    before = operator.copy()
    with pytest.raises(ValueError, match="read-only"):
        operator[0, 1] = 7.0
    with pytest.raises(ValueError, match="read-only"):
        operator += 1.0
    with pytest.raises(ValueError, match="read-only"):
        np.multiply(operator, 2.0, out=operator)
    assert bitwise_equal(operator, before)
    assert bitwise_equal(FockSpace(dim).operator(name), before)
