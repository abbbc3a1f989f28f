"""Tests for the phase-point operator basis and the discrete Wigner transform.

The N = 2 matrices below are hardcoded as the external reference for the
whole construction; every convention in the module (label pairing, half
phase, parity factor) is pinned by requiring these four matrices
entrywise.  The closed-form product rule, the completeness sum, and the
structure-constant prefactor 2i/N are regression-tested against direct
matrix arithmetic.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpl import (
    Kinematics,
    StructureConstants,
    WeylWignerBasis,
    basis_ket,
    delta_product,
    displacement,
    hs_inner,
    normalize,
    parity_operator,
    phase_point,
    phase_space_symbol,
    random_density,
    random_hermitian,
    symplectic_area,
    wigner_map,
)
from qpl.schwinger import weyl_word
from qpl.weylwigner import TABLE_MAX_ENTRIES, half_phase_exponents

RNG = np.random.default_rng(20240818)

BASIS_DIMS = (1, 2, 3, 4, 5, 7, 8)

# External reference: the four phase-point operators of the two-dimensional
# theory, as published.  Label order (m, n) = (00, 01, 10, 11).
DELTA_2 = {
    (0, 0): np.array([[2, 1 + 1j], [1 - 1j, 0]]) / 2,
    (0, 1): np.array([[0, 1 - 1j], [1 + 1j, 2]]) / 2,
    (1, 0): np.array([[2, -1 - 1j], [-1 + 1j, 0]]) / 2,
    (1, 1): np.array([[0, -1 + 1j], [-1 - 1j, 2]]) / 2,
}


def double_sum_basis(n):
    """Brute-force oracle: Δ_mn = (1/N) Σ_rs h(r,s) v^{-s·m} v^{-r·n} U^r V^s.

    Stores all N² operators as an (N, N, N, N) array through an N⁶
    contraction; use only at small N.
    """
    k = np.arange(n)
    words = weyl_word(n, k[:, None], k[None, :])  # U^r V^s for all (r, s)
    labels = np.exp(-2j * np.pi * np.outer(k, k) / n)  # v^{-k·m} table
    # phases[m, n, r, s] = h(r,s) · v^{-s·m} · v^{-r·n}
    phases = np.einsum("rs,ms,nr->mnrs", half_phase_exponents(n), labels, labels)
    return np.einsum("mnrs,rsac->mnac", phases, words) / n


@pytest.mark.parametrize("n", range(1, 17))
def test_phase_point_matches_double_sum_oracle(n):
    k = np.arange(n)
    grid = phase_point(n, k[:, None], k[None, :])
    np.testing.assert_allclose(grid, double_sum_basis(n), rtol=0, atol=1e-12)
    assert np.array_equal(WeylWignerBasis(n).deltas, grid)


@pytest.mark.parametrize("n", (1, 2, 3, 4, 7, 8, 15))
def test_phase_point_broadcasts_like_scalar_calls(n):
    k = np.arange(n)
    grid = phase_point(n, k[:, None], k[None, :])
    assert grid.shape == (n, n, n, n)
    big = 10**22 * n
    for m in range(n):
        for nn in range(n):
            assert np.array_equal(phase_point(n, m, nn), grid[m, nn])
            # labels are taken mod N, however large or negative
            assert np.array_equal(phase_point(n, m + big, nn - 3 * n), grid[m, nn])
            assert np.array_equal(phase_point(n, m - big, nn + big), grid[m, nn])


DIMS_1_32 = st.integers(min_value=1, max_value=32)
LABEL = st.tuples(st.integers(), st.integers())


@given(n=DIMS_1_32, a=LABEL)
def test_phase_point_hermitian_unit_trace_property(n, a):
    d = phase_point(n, *a)
    np.testing.assert_allclose(d, d.conj().T, rtol=0, atol=1e-12)
    assert abs(np.trace(d) - 1.0) <= 1e-12


@given(n=DIMS_1_32, a=LABEL, b=LABEL)
def test_phase_point_orthogonality_property(n, a, b):
    """tr(Δ_a Δ_b) = N·δ_ab, with labels compared mod N."""
    da, db = phase_point(n, *a), phase_point(n, *b)
    same = (a[0] - b[0]) % n == 0 and (a[1] - b[1]) % n == 0
    assert abs(np.trace(da @ db) - n * same) <= 1e-10
    assert abs(np.trace(da @ da) - n) <= 1e-10


def test_two_dimensional_basis_matches_reference_entrywise():
    basis = WeylWignerBasis(2)
    for (m, n), expected in DELTA_2.items():
        np.testing.assert_allclose(basis.delta(m, n), expected, atol=1e-14)


@pytest.mark.parametrize("n", BASIS_DIMS)
def test_hermiticity_and_unit_trace(n):
    basis = WeylWignerBasis(n)
    for m in range(n):
        for nn in range(n):
            d = basis.deltas[m, nn]
            assert np.max(np.abs(d - d.conj().T)) <= 1e-10
            assert abs(np.trace(d) - 1.0) <= 1e-10


@pytest.mark.parametrize("n", BASIS_DIMS)
def test_orthogonality(n):
    basis = WeylWignerBasis(n)
    flat = basis.deltas.reshape(n * n, n * n)
    gram = flat.conj() @ flat.T  # hs_inner of every pair
    np.testing.assert_allclose(gram, n * np.eye(n * n), atol=1e-9)


@pytest.mark.parametrize("n", BASIS_DIMS)
def test_completeness_sum(n):
    basis = WeylWignerBasis(n)
    op = random_hermitian(n, RNG) + 1j * random_hermitian(n, RNG)
    total = np.einsum("mnab,bc,mncd->ad", basis.deltas, op, basis.deltas)
    np.testing.assert_allclose(total, n * np.trace(op) * np.eye(n), atol=1e-9)


@pytest.mark.parametrize("n", (1, 3, 5, 7))
def test_involution_odd(n):
    basis = WeylWignerBasis(n)
    for m in range(n):
        for nn in range(n):
            d = basis.deltas[m, nn]
            np.testing.assert_allclose(d @ d, np.eye(n), atol=1e-10)


@pytest.mark.parametrize("n", (4, 6, 8))
def test_involution_genuinely_lost_even(n):
    basis = WeylWignerBasis(n)
    worst = max(
        np.max(np.abs(basis.deltas[m, nn] @ basis.deltas[m, nn] - np.eye(n)))
        for m in range(n)
        for nn in range(n)
    )
    assert worst > 0.1


@pytest.mark.parametrize("n", (3, 5, 7))
def test_operator_form_odd(n):
    """Δ_mn = V^{-n} U^{2m} V^{-n} F² for odd dimensions."""
    kin = Kinematics(n)
    basis = WeylWignerBasis(n)
    f2 = kin.F @ kin.F
    for m in range(n):
        for nn in range(n):
            vminus = np.linalg.matrix_power(kin.V, (n - nn) % n)
            u2m = np.linalg.matrix_power(kin.U, (2 * m) % n)
            np.testing.assert_allclose(
                vminus @ u2m @ vminus @ f2, basis.deltas[m, nn], atol=1e-10
            )


def test_parity_operator_is_f_squared():
    for n in (2, 3, 5, 8):
        kin = Kinematics(n)
        np.testing.assert_allclose(parity_operator(n), kin.F @ kin.F, atol=1e-12)


@pytest.mark.parametrize("n", (3, 5))
def test_closed_form_product_rule(n):
    """Δ_a Δ_b = v^{2(pn - mq)} Δ_{a-b} F², every pair, odd N."""
    basis = WeylWignerBasis(n)
    for a in [(m, nn) for m in range(n) for nn in range(n)]:
        for b in [(p, q) for p in range(n) for q in range(n)]:
            direct = basis.deltas[a] @ basis.deltas[b]
            np.testing.assert_allclose(delta_product(n, a, b), direct, atol=1e-10)


def test_product_rule_rejected_even():
    with pytest.raises(ValueError):
        delta_product(4, (0, 0), (1, 1))


@pytest.mark.parametrize("n", (3, 5))
def test_parity_expansion(n):
    """Δ_pq F² = (1/N) Σ_ks v^{2(ps - kq)} Δ_ks (odd N)."""
    basis = WeylWignerBasis(n)
    f2 = parity_operator(n)
    k = np.arange(n)
    for p in range(n):
        for q in range(n):
            coeff = np.exp(2j * np.pi * 2 * (p * k[None, :] - k[:, None] * q) / n)
            total = np.einsum("ks,ksab->ab", coeff, basis.deltas) / n
            np.testing.assert_allclose(total, basis.deltas[p, q] @ f2, atol=1e-10)


def test_symplectic_area_and_symbol():
    assert symplectic_area((1, 0), (0, 1)) == -1
    assert symplectic_area((0, 1), (1, 0)) == 1
    assert symplectic_area((2, 3), (2, 3)) == 0
    # antisymmetry of the triple symbol under swapping two arguments
    a, b, c = (1, 2), (0, 3), (2, 1)
    assert phase_space_symbol(a, b, c) == -phase_space_symbol(b, a, c)
    assert phase_space_symbol(a, b, c) == phase_space_symbol(b, c, a)
    assert phase_space_symbol(a, a, c) == 0


@pytest.mark.parametrize("n", (3, 5))
def test_structure_constants_all_pairs(n):
    sc = StructureConstants(n)
    basis = WeylWignerBasis(n)
    assert sc.prefactor == pytest.approx(2j / n)
    labels = [(m, nn) for m in range(n) for nn in range(n)]
    for a in labels:
        for b in labels:
            direct = basis.deltas[a] @ basis.deltas[b] - basis.deltas[b] @ basis.deltas[a]
            np.testing.assert_allclose(sc.commutator(a, b), direct, atol=1e-9)


def test_structure_constants_table_matches_value():
    sc = StructureConstants(3)
    table = sc.table()
    assert table.shape == (3,) * 6
    assert table[1, 2, 0, 1, 2, 2] == pytest.approx(sc.value((1, 2), (0, 1), (2, 2)))
    for n in (3, 5, 7):
        sc = StructureConstants(n)
        table = sc.table()
        m, nn, p, q, r, s = np.meshgrid(*[np.arange(n)] * 6, indexing="ij")
        assert np.array_equal(sc.value((m, nn), (p, q), (r, s)), table)
        # labels are taken mod N, however large
        big = 10**22 * n
        assert sc.value((1 + big, 2 - n), (0, 1 + 3 * n), (2, 2)) == table[1, 2, 0, 1, 2, 2]
        np.testing.assert_array_equal(
            sc.commutator((1 + big, -n), (2 * n, 1)), sc.commutator((1, 0), (0, 1))
        )


def test_structure_constants_table_is_refused_past_its_bound():
    """N⁶ entries: N = 15 is the largest odd N inside the bound, and N = 17
    (24 million entries) is refused before anything is allocated."""
    assert 15**6 <= TABLE_MAX_ENTRIES < 17**6
    with pytest.raises(ValueError, match="entries"):
        StructureConstants(17).table()


def test_structure_constants_match_high_precision_reference():
    """Λ at N = 63 for 300 seeded label pairs and every c, against 40-digit
    sines taken at the unreduced symbols."""
    mpmath = pytest.importorskip("mpmath")
    n = 63
    sc = StructureConstants(n)
    pairs = np.random.default_rng(63).integers(0, n, size=(300, 4))
    m, nn, p, q = (pairs[:, i, None, None] for i in range(4))
    c = np.ogrid[:n, :n]
    symbols = phase_space_symbol((m, nn), (p, q), c)
    unique, inverse = np.unique(symbols, return_inverse=True)
    with mpmath.workdps(40):
        sines = np.array([float(mpmath.sin(2 * mpmath.pi * int(x) / n)) for x in unique])
    values = sc.value((m, nn), (p, q), c)
    assert values.shape == (300, n, n)
    assert np.max(np.abs(values - sines[inverse].reshape(symbols.shape))) <= 1e-15


def test_structure_constants_reject_even():
    with pytest.raises(ValueError):
        StructureConstants(4)


@pytest.mark.parametrize("n", range(2, 9))
def test_transform_reconstruct_roundtrip(n):
    basis = WeylWignerBasis(n)
    op = RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))
    coeffs = basis.transform(op)
    np.testing.assert_allclose(basis.reconstruct(coeffs), op, atol=1e-9)


@pytest.mark.parametrize("n", range(2, 17))
def test_wigner_normalization_random_densities(n):
    basis = WeylWignerBasis(n) if n <= 8 else None
    for _ in range(4):
        rho = random_density(n, RNG)
        wm = wigner_map(rho)
        assert abs(wm.total - 1.0) <= 1e-10
        if basis is not None:
            np.testing.assert_allclose(basis.transform(rho).real / n, wm.values, atol=1e-12)


@pytest.mark.parametrize("n", range(2, 9))
def test_wigner_marginals(n):
    """Row sums give the momentum distribution, column sums the position one."""
    kin = Kinematics(n)
    for _ in range(3):
        rho = random_density(n, RNG)
        w = wigner_map(rho).values
        momentum = np.array(
            [kin.F[:, m].conj() @ rho @ kin.F[:, m] for m in range(n)]
        ).real
        position = np.diag(rho).real
        np.testing.assert_allclose(w.sum(axis=1), momentum, atol=1e-10)
        np.testing.assert_allclose(w.sum(axis=0), position, atol=1e-10)


def test_wigner_negativity_witness():
    """A simple two-level superposition in dimension 3 goes negative."""
    ket = normalize(basis_ket(3, 0) + basis_ket(3, 1))
    wm = wigner_map(np.outer(ket, ket.conj()))
    assert wm.min_value == pytest.approx(-1 / 6, abs=1e-12)
    assert wm.negativity == pytest.approx(2 / 3, abs=1e-12)
    assert wm.min_value < -1e-6


def test_wigner_basis_state_grid():
    """Hand-computed map of |u0⟩ in dimension 2: [[1/2, 0], [1/2, 0]]."""
    rho = np.outer(basis_ket(2, 0), basis_ket(2, 0).conj())
    np.testing.assert_allclose(wigner_map(rho).values, [[0.5, 0.0], [0.5, 0.0]], atol=1e-14)


def test_wigner_validates_input():
    with pytest.raises(ValueError):
        wigner_map(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not hermitian
    with pytest.raises(ValueError):
        wigner_map(np.eye(2))  # trace 2
    basis = WeylWignerBasis(2)
    with pytest.raises(ValueError):
        basis.transform(np.eye(3) / 3)  # dimension mismatch


def test_hs_inner_against_basis():
    basis = WeylWignerBasis(4)
    assert hs_inner(basis.delta(1, 2), basis.delta(1, 2)) == pytest.approx(4.0, abs=1e-10)
    assert abs(hs_inner(basis.delta(1, 2), basis.delta(2, 1))) <= 1e-10


# --------------------------------------------------------------------------
# moment-space kernels against the dense phase-point grid


def dense_grid(n):
    """All N² operators from `phase_point`, stored as an (N, N, N, N) array."""
    k = np.arange(n)
    return phase_point(n, k[:, None], k[None, :])


def assert_relclose(actual, expected, rtol=1e-12):
    assert np.max(np.abs(actual - expected)) <= rtol * np.max(np.abs(expected))


def random_complex(n, rng):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


@pytest.mark.parametrize("n", list(range(1, 17)) + [31, 32])
def test_kernels_match_dense_grid_oracle(n):
    rng = np.random.default_rng(n)
    grid = dense_grid(n)
    basis = WeylWignerBasis(n)
    for _ in range(3):
        op = random_complex(n, rng)  # non-hermitian
        assert_relclose(basis.transform(op), np.einsum("mnab,ba->mn", grid, op))
        coeffs = random_complex(n, rng)
        assert_relclose(
            basis.reconstruct(coeffs), np.einsum("mn,mnab->ab", coeffs, grid) / n
        )
        rho = random_density(n, rng)
        dense_w = np.einsum("mnab,ba->mn", grid, rho).real / n
        assert_relclose(wigner_map(rho).values, dense_w)
    if n % 2 == 1 and n > 1:
        sc = StructureConstants(n)
        k = np.arange(n)
        labels = [((1, 0), (0, 1)), ((-1, 2 * n), (n + 3, -n))]
        for a, b in labels:
            lam = sc.value(a, b, (k[:, None], k[None, :]))
            dense = sc.prefactor * np.einsum("rs,rsab->ab", lam, grid)
            assert_relclose(sc.commutator(a, b), dense)


DIMS_1_64 = st.integers(min_value=1, max_value=64)
SEED = st.integers(min_value=0, max_value=2**32 - 1)


@given(n=DIMS_1_64, seed=SEED)
def test_reconstruct_inverts_transform_property(n, seed):
    op = random_complex(n, np.random.default_rng(seed))
    basis = WeylWignerBasis(n)
    np.testing.assert_allclose(basis.reconstruct(basis.transform(op)), op, rtol=0, atol=1e-10)


@given(n=st.integers(min_value=1, max_value=31).map(lambda k: 2 * k + 1), a=LABEL, b=LABEL)
def test_commutator_matches_direct_product_property(n, a, b):
    da, db = phase_point(n, *a), phase_point(n, *b)
    np.testing.assert_allclose(
        StructureConstants(n).commutator(a, b), da @ db - db @ da, rtol=0, atol=1e-10
    )


@given(n=DIMS_1_64, seed=SEED)
def test_wigner_normalization_and_marginals_property(n, seed):
    rho = random_density(n, np.random.default_rng(seed))
    w = wigner_map(rho).values
    f = Kinematics(n).F  # columns are the momentum kets |v_m>
    assert abs(w.sum() - 1.0) <= 1e-10
    momentum = np.einsum("am,ab,bm->m", f.conj(), rho, f).real
    np.testing.assert_allclose(w.sum(axis=1), momentum, rtol=0, atol=1e-10)
    np.testing.assert_allclose(w.sum(axis=0), np.diag(rho).real, rtol=0, atol=1e-10)


@given(n=DIMS_1_64, seed=SEED, shift=LABEL)
def test_wigner_covariance_under_displacement_property(n, seed, shift):
    """W of D_jk ρ D_jk† is W of ρ translated by (j, k), labels mod N."""
    rho = random_density(n, np.random.default_rng(seed))
    d = displacement(n, *shift)
    moved = wigner_map(d @ rho @ d.conj().T).values
    np.testing.assert_allclose(
        moved, np.roll(wigner_map(rho).values, [x % n for x in shift], axis=(0, 1)),
        rtol=0,
        atol=1e-12,
    )


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_contractions_allocate_no_quartic_array():
    """Peak traced memory stays well below one N⁴-entry complex array."""
    n = 15
    assert traced_peak(StructureConstants(n).commutator, (1, 0), (0, 1)) < n**4 * 16 / 4
    n = 64
    rho = random_density(n, RNG)
    assert traced_peak(wigner_map, rho) < n**4 * 16 / 4


def test_transform_and_reconstruct_leave_the_grid_unbuilt():
    basis = WeylWignerBasis(8)
    basis.reconstruct(basis.transform(random_complex(8, RNG)))
    assert "deltas" not in vars(basis)
