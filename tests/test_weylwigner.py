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
    basis_ket,
    commutator_expansion,
    delta_product,
    dft,
    displacement,
    normalize,
    parity_operator,
    phase_point,
    phase_space_symbol,
    random_density,
    random_hermitian,
    structure_constants,
    symplectic_area,
    weyl_reconstruct,
    weyl_transform,
    wigner_map,
)
from qpl.schwinger import roots, weyl_word
from qpl.weylwigner import half_phase_exponents

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


def dense_grid(n):
    """All N² operators from `phase_point`, stored as an (N, N, N, N) array."""
    return phase_point(n, *np.ogrid[:n, :n])


def structure_table(n):
    """Full tensor Λ[m,n,p,q,r,s] over (Z_N x Z_N)³: N⁶ entries, small N only."""
    m, nn, p, q, r, s = np.ix_(*[np.arange(n)] * 6)
    return structure_constants(n, (m, nn), (p, q), (r, s))


def structure_commutator(n, a, b):
    """[Δ_a, Δ_b] expanded over every c from the structure constants."""
    return commutator_expansion(structure_constants(n, a, b, np.ogrid[:n, :n]))


@pytest.mark.parametrize("n", range(1, 17))
def test_phase_point_matches_double_sum_oracle(n):
    k = np.arange(n)
    grid = phase_point(n, k[:, None], k[None, :])
    np.testing.assert_allclose(grid, double_sum_basis(n), rtol=0, atol=1e-12)
    assert np.array_equal(dense_grid(n), grid)


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
    for (m, n), expected in DELTA_2.items():
        np.testing.assert_allclose(phase_point(2, m, n), expected, atol=1e-14)


@pytest.mark.parametrize("n", BASIS_DIMS)
def test_hermiticity_and_unit_trace(n):
    grid = dense_grid(n)
    for m in range(n):
        for nn in range(n):
            d = grid[m, nn]
            assert np.max(np.abs(d - d.conj().T)) <= 1e-10
            assert abs(np.trace(d) - 1.0) <= 1e-10


@pytest.mark.parametrize("n", BASIS_DIMS)
def test_orthogonality(n):
    flat = dense_grid(n).reshape(n * n, n * n)
    gram = flat.conj() @ flat.T  # Hilbert-Schmidt inner product tr(A†B) of every pair
    np.testing.assert_allclose(gram, n * np.eye(n * n), atol=1e-9)


@pytest.mark.parametrize("n", BASIS_DIMS)
def test_completeness_sum(n):
    grid = dense_grid(n)
    op = random_hermitian(n, RNG) + 1j * random_hermitian(n, RNG)
    total = np.einsum("mnab,bc,mncd->ad", grid, op, grid)
    np.testing.assert_allclose(total, n * np.trace(op) * np.eye(n), atol=1e-9)


@pytest.mark.parametrize("n", (1, 3, 5, 7))
def test_involution_odd(n):
    grid = dense_grid(n)
    for m in range(n):
        for nn in range(n):
            d = grid[m, nn]
            np.testing.assert_allclose(d @ d, np.eye(n), atol=1e-10)


@pytest.mark.parametrize("n", (4, 6, 8))
def test_involution_genuinely_lost_even(n):
    grid = dense_grid(n)
    worst = max(
        np.max(np.abs(grid[m, nn] @ grid[m, nn] - np.eye(n)))
        for m in range(n)
        for nn in range(n)
    )
    assert worst > 0.1


@pytest.mark.parametrize("n", (3, 5, 7))
def test_operator_form_odd(n):
    """Δ_mn = V^{-n} U^{2m} V^{-n} F² for odd dimensions."""
    f = dft(n)
    grid = dense_grid(n)
    f2 = f @ f
    for m in range(n):
        for nn in range(n):
            vminus = np.linalg.matrix_power(weyl_word(n, 0, 1), (n - nn) % n)
            u2m = np.linalg.matrix_power(weyl_word(n, 1, 0), (2 * m) % n)
            np.testing.assert_allclose(
                vminus @ u2m @ vminus @ f2, grid[m, nn], atol=1e-10
            )


def test_parity_operator_is_f_squared():
    for n in (2, 3, 5, 8):
        f = dft(n)
        np.testing.assert_allclose(parity_operator(n), f @ f, atol=1e-12)


@pytest.mark.parametrize("n", (3, 5))
def test_closed_form_product_rule(n):
    """Δ_a Δ_b = v^{2(pn - mq)} Δ_{a-b} F², every pair, odd N."""
    grid = dense_grid(n)
    for a in [(m, nn) for m in range(n) for nn in range(n)]:
        for b in [(p, q) for p in range(n) for q in range(n)]:
            direct = grid[a] @ grid[b]
            np.testing.assert_allclose(delta_product(n, a, b), direct, atol=1e-10)


def test_product_rule_rejected_even():
    with pytest.raises(ValueError):
        delta_product(4, (0, 0), (1, 1))


@pytest.mark.parametrize("n", (3, 5))
def test_parity_expansion(n):
    """Δ_pq F² = (1/N) Σ_ks v^{2(ps - kq)} Δ_ks (odd N)."""
    grid = dense_grid(n)
    f2 = parity_operator(n)
    k = np.arange(n)
    for p in range(n):
        for q in range(n):
            coeff = np.exp(2j * np.pi * 2 * (p * k[None, :] - k[:, None] * q) / n)
            total = np.einsum("ks,ksab->ab", coeff, grid) / n
            np.testing.assert_allclose(total, grid[p, q] @ f2, atol=1e-10)


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
    grid = dense_grid(n)
    unit = np.zeros((n, n))
    unit[1, 2] = 1.0  # a one-point grid isolates the prefactor 2i/N
    np.testing.assert_allclose(commutator_expansion(unit), 2j / n * grid[1, 2], atol=1e-12)
    labels = [(m, nn) for m in range(n) for nn in range(n)]
    for a in labels:
        for b in labels:
            direct = grid[a] @ grid[b] - grid[b] @ grid[a]
            np.testing.assert_allclose(structure_commutator(n, a, b), direct, atol=1e-9)


def test_structure_constants_table_matches_value():
    table = structure_table(3)
    assert table.shape == (3,) * 6
    assert table[1, 2, 0, 1, 2, 2] == pytest.approx(structure_constants(3, (1, 2), (0, 1), (2, 2)))
    for n in (3, 5, 7):
        table = structure_table(n)
        m, nn, p, q, r, s = np.meshgrid(*[np.arange(n)] * 6, indexing="ij")
        assert np.array_equal(structure_constants(n, (m, nn), (p, q), (r, s)), table)
        # labels are taken mod N, however large
        big = 10**22 * n
        assert structure_constants(n, (1 + big, 2 - n), (0, 1 + 3 * n), (2, 2)) == table[1, 2, 0, 1, 2, 2]
        np.testing.assert_array_equal(
            structure_commutator(n, (1 + big, -n), (2 * n, 1)), structure_commutator(n, (1, 0), (0, 1))
        )


def test_structure_constants_match_high_precision_reference():
    """Λ at N = 63 for 300 seeded label pairs and every c, against 40-digit
    sines taken at the unreduced symbols."""
    mpmath = pytest.importorskip("mpmath")
    n = 63
    pairs = np.random.default_rng(63).integers(0, n, size=(300, 4))
    m, nn, p, q = (pairs[:, i, None, None] for i in range(4))
    c = np.ogrid[:n, :n]
    symbols = phase_space_symbol((m, nn), (p, q), c)
    unique, inverse = np.unique(symbols, return_inverse=True)
    with mpmath.workdps(40):
        sines = np.array([float(mpmath.sin(2 * mpmath.pi * int(x) / n)) for x in unique])
    values = structure_constants(n, (m, nn), (p, q), c)
    assert values.shape == (300, n, n)
    assert np.max(np.abs(values - sines[inverse].reshape(symbols.shape))) <= 1e-15


def test_structure_constants_reject_even():
    with pytest.raises(ValueError, match="odd dimensions"):
        structure_constants(4, (0, 0), (1, 1), (1, 0))


@pytest.mark.parametrize("n", range(2, 9))
def test_transform_reconstruct_roundtrip(n):
    op = RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))
    coeffs = weyl_transform(op)
    np.testing.assert_allclose(weyl_reconstruct(coeffs), op, atol=1e-9)


@pytest.mark.parametrize("n", range(2, 17))
def test_wigner_normalization_random_densities(n):
    for _ in range(4):
        rho = random_density(n, RNG)
        wm = wigner_map(rho)
        assert abs(wm.total - 1.0) <= 1e-10
        if n <= 8:
            np.testing.assert_allclose(weyl_transform(rho).real / n, wm.values, atol=1e-12)


@pytest.mark.parametrize("n", range(2, 9))
def test_wigner_marginals(n):
    """Row sums give the momentum distribution, column sums the position one."""
    f = dft(n)
    for _ in range(3):
        rho = random_density(n, RNG)
        w = wigner_map(rho).values
        momentum = np.array(
            [f[:, m].conj() @ rho @ f[:, m] for m in range(n)]
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
    with pytest.raises(ValueError):
        weyl_transform(np.eye(3)[:2])  # not square


# --------------------------------------------------------------------------
# moment-space kernels against the dense phase-point grid


def assert_relclose(actual, expected, rtol=1e-12):
    assert np.max(np.abs(actual - expected)) <= rtol * np.max(np.abs(expected))


def random_complex(n, rng):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


@pytest.mark.parametrize("n", list(range(1, 17)) + [31, 32])
def test_kernels_match_dense_grid_oracle(n):
    rng = np.random.default_rng(n)
    grid = dense_grid(n)
    for _ in range(3):
        op = random_complex(n, rng)  # non-hermitian
        assert_relclose(weyl_transform(op), np.einsum("mnab,ba->mn", grid, op))
        coeffs = random_complex(n, rng)
        assert_relclose(weyl_reconstruct(coeffs), np.einsum("mn,mnab->ab", coeffs, grid) / n)
        rho = random_density(n, rng)
        dense_w = np.einsum("mnab,ba->mn", grid, rho).real / n
        assert_relclose(wigner_map(rho).values, dense_w)
    if n % 2 == 1 and n > 1:
        k = np.arange(n)
        labels = [((1, 0), (0, 1)), ((-1, 2 * n), (n + 3, -n))]
        for a, b in labels:
            lam = structure_constants(n, a, b, (k[:, None], k[None, :]))
            dense = 2j / n * np.einsum("rs,rsab->ab", lam, grid)
            assert_relclose(structure_commutator(n, a, b), dense)


DIMS_1_64 = st.integers(min_value=1, max_value=64)
SEED = st.integers(min_value=0, max_value=2**32 - 1)


@given(n=DIMS_1_64, seed=SEED)
def test_reconstruct_inverts_transform_property(n, seed):
    op = random_complex(n, np.random.default_rng(seed))
    np.testing.assert_allclose(weyl_reconstruct(weyl_transform(op)), op, rtol=0, atol=1e-10)


@given(n=st.integers(min_value=1, max_value=31).map(lambda k: 2 * k + 1), a=LABEL, b=LABEL)
def test_commutator_matches_direct_product_property(n, a, b):
    da, db = phase_point(n, *a), phase_point(n, *b)
    np.testing.assert_allclose(
        structure_commutator(n, a, b), da @ db - db @ da, rtol=0, atol=1e-10
    )


@given(n=DIMS_1_64, seed=SEED)
def test_wigner_normalization_and_marginals_property(n, seed):
    rho = random_density(n, np.random.default_rng(seed))
    w = wigner_map(rho).values
    f = dft(n)  # columns are the momentum kets |v_m>
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
    assert traced_peak(structure_commutator, n, (1, 0), (0, 1)) < n**4 * 16 / 4
    n = 64
    rho = random_density(n, RNG)
    op = random_complex(n, RNG)
    for fn, arg in ((wigner_map, rho), (weyl_transform, op), (weyl_reconstruct, op)):
        assert traced_peak(fn, arg) < n**4 * 16 / 4


@pytest.mark.parametrize(
    "bad",
    (
        np.full((3, 3), np.nan),
        np.diag([1.0, np.inf, 0.0]),
        np.ones((2, 3)),
        np.zeros((0, 0)),
    ),
    ids=("nan", "inf", "non-square", "empty"),
)
@pytest.mark.parametrize("fn", (weyl_transform, weyl_reconstruct, commutator_expansion))
def test_weyl_transform_and_reconstruct_reject_bad_input(fn, bad):
    with pytest.raises(ValueError, match="non-finite|non-empty square"):
        fn(bad)


def test_structure_constants_reject_fractional_labels():
    """A fractional label is a ValueError naming the argument, not numpy's IndexError."""
    for name, labels in (("a", ((1.5, 0), (0, 0), (0, 0))), ("c", ((0, 0), (0, 0), (2, 0.5)))):
        with pytest.raises(ValueError, match=rf"{name} label \(.*\) must be a pair of integers"):
            structure_constants(5, *labels)


def test_phase_point_rejects_fractional_labels():
    with pytest.raises(ValueError, match=r"m label 1\.5 must be an integer"):
        phase_point(5, 1.5, 0)
    with pytest.raises(ValueError, match=r"nn label array\(\[0\. , 1\.5\]\) must be an integer"):
        phase_point(5, 0, np.array([0, 1.5]))


def test_delta_product_rejects_non_integer_labels():
    """A fractional label is an error, not silently truncated to the product at (1, 0)."""
    for a, b in (((1.5, 0), (0, 0)), ((0, 0), (2, 0.5))):
        with pytest.raises(ValueError, match=r"label \(.*\) must be a pair of integers"):
            delta_product(3, a, b)
    assert np.array_equal(delta_product(3, (np.int64(1), 0), (0, 0)), delta_product(3, (1, 0), (0, 0)))


@pytest.mark.parametrize(
    "a,b",
    (((1, 2), (3, 4)), ((np.arange(5)[:, None], 3), (np.arange(5), 1)), ((10**20, -(10**20)), (-(10**20), 7))),
)
def test_delta_product_checks_its_labels_once(monkeypatch, a, b):
    """`delta_product` reduces its labels once; its phase point takes them as they are, bit for bit."""
    import qpl.weylwigner

    (m, nn), (p, q) = ((x % 5 for x in label) for label in (a, b))
    phase = np.asarray(roots(5)[2 * symplectic_area((m, nn), (p, q)) % 5])[..., None, None]
    expected = phase * phase_point(5, m - p, nn - q) @ parity_operator(5)
    calls, residues = [], qpl.weylwigner._residues

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return residues(*args, **kwargs)

    monkeypatch.setattr(qpl.weylwigner, "_residues", counting)
    result = delta_product(5, a, b)
    assert result.shape == expected.shape and result.tobytes() == expected.tobytes()
    assert len(calls) == 1


@pytest.mark.parametrize("bad", (0, 2.0, 2.5))
@pytest.mark.parametrize("fn", (parity_operator, half_phase_exponents))
def test_parity_and_half_phases_name_a_bad_dimension(fn, bad):
    """Not a 0×0 parity at N = 0, nor numpy's TypeError at 2.5, nor the half phases' 2N."""
    with pytest.raises(ValueError, match=rf"dimension must be a positive integer, got {bad}$"):
        fn(bad)


@pytest.mark.parametrize("fn", (delta_product, structure_constants))
def test_odd_dimension_rules_check_n_then_parity_then_labels(fn):
    labels = ((0.5, 0),) * (2 if fn is delta_product else 3)
    with pytest.raises(ValueError, match="positive integer, got 2.5"):
        fn(2.5, *labels)
    with pytest.raises(ValueError, match="odd dimensions"):
        fn(4, *labels)
    with pytest.raises(ValueError, match=r"a label \(0\.5, 0\) must be a pair of integers"):
        fn(5, *labels)


def test_phase_point_takes_label_lists_as_arrays():
    assert np.array_equal(phase_point(3, [0, 1], (2, 3)), phase_point(3, np.array([0, 1]), np.array([2, 3])))
