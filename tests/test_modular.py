"""Residue factorization, modular lattice states, and the n-slit model."""

import numpy as np
import pytest

from qpl import (
    az_state,
    crt_map,
    crt_permutation,
    dft,
    modular_cell_coords,
    momentum_amplitudes,
    nslit_evolve,
    random_ket,
)
from qpl.schwinger import weyl_word

# Ordered coprime factor pairs (both ≥ 2) with product at most 36.
COPRIME_PAIRS = [
    (na, nb)
    for na in range(2, 19)
    for nb in range(2, 19)
    if na * nb <= 36 and np.gcd(na, nb) == 1
]


class TestCrtMap:
    def test_frozen_table_2x3(self):
        cm = crt_map(2, 3)
        table = {(0, 0): 0, (1, 1): 1, (0, 2): 2, (1, 0): 3, (0, 1): 4, (1, 2): 5}
        for (j, sigma), index in table.items():
            assert cm.fwd(j, sigma) == index
            assert cm.inv(index) == (j, sigma)

    @pytest.mark.parametrize("na,nb", COPRIME_PAIRS)
    def test_bijection(self, na, nb):
        cm = crt_map(na, nb)
        seen = {cm.fwd(j, sigma) for j in range(na) for sigma in range(nb)}
        assert seen == set(range(na * nb))
        for i in range(na * nb):
            assert cm.fwd(*cm.inv(i)) == i
            assert cm.inv(i) == (i % na, i % nb)

    @pytest.mark.parametrize("na,nb", ((2, 3), (3, 5)))
    def test_joint_shift_compatibility(self, na, nb):
        # Decrementing both residues together decrements the index: the
        # single line that covers the whole residue torus.
        cm = crt_map(na, nb)
        for j in range(na):
            for sigma in range(nb):
                assert cm.fwd(j - 1, sigma - 1) == (cm.fwd(j, sigma) - 1) % (na * nb)

    def test_inputs_wrap(self):
        cm = crt_map(3, 5)
        assert cm.fwd(4, 7) == cm.fwd(1, 2)
        assert cm.inv(17) == cm.inv(2)

    def test_rejects_shared_factor(self):
        with pytest.raises(ValueError, match="coprime"):
            crt_map(2, 4)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            crt_map(0, 3)

    def test_labels_wrap_past_int64(self):
        cm = crt_map(3, 5)
        assert cm.fwd(1 + 3 * 10**20, 2 - 5 * 10**20) == cm.fwd(1, 2)
        assert cm.inv(2 + 15 * 10**20) == cm.inv(2)


class TestInputChecks:
    """Each factor dimension and label is checked and named, as on Z_N."""

    @pytest.mark.parametrize("build", (crt_map, crt_permutation))
    def test_fractional_factor_dimensions(self, build):
        with pytest.raises(ValueError, match=r"factor dimensions must be integers, got 2\.0 x 3"):
            build(2.0, 3)

    def test_fractional_labels(self):
        with pytest.raises(ValueError, match=r"j label 1\.5 must be an integer"):
            az_state(2, 3, 1.5, 0)
        with pytest.raises(ValueError, match=r"j label 0\.5 must be an integer"):
            modular_cell_coords(2, 3, 0.5, 1)
        with pytest.raises(ValueError, match=r"sigma label 0\.5 must be an integer"):
            modular_cell_coords(2, 3, 1, 0.5)
        with pytest.raises(ValueError, match=r"i label 1\.5 must be an integer"):
            crt_map(2, 3).inv(1.5)

    @pytest.mark.parametrize("bad", (0, -2, 2.0))
    def test_nslit_register_size(self, bad):
        with pytest.raises(ValueError, match=rf"dimension must be a positive integer, got {bad}$"):
            nslit_evolve(bad, [1.0])

    def test_factor_dimensions_before_labels(self):
        with pytest.raises(ValueError, match="factor dimensions must be positive"):
            az_state(0, 3, 1.5, 0)


class TestCrtPermutation:
    @pytest.mark.parametrize("na,nb", ((2, 3), (3, 5), (4, 9)))
    def test_is_permutation(self, na, nb):
        p = crt_permutation(na, nb)
        assert np.array_equal(p @ p.T, np.eye(na * nb))
        assert np.all(p.sum(axis=0) == 1)
        assert np.all(p.sum(axis=1) == 1)

    @pytest.mark.parametrize("na,nb", COPRIME_PAIRS)
    def test_factors_the_unit_shift(self, na, nb):
        p = crt_permutation(na, nb)
        v_big = weyl_word(na * nb, 0, 1)
        v_pair = np.kron(weyl_word(na, 0, 1), weyl_word(nb, 0, 1))
        assert np.linalg.norm(p @ v_big @ p.T - v_pair) < 1e-12

    @pytest.mark.parametrize("na,nb", ((2, 3), (3, 5), (4, 9)))
    def test_factors_the_clock(self, na, nb):
        # The clock splits with the residue weights: the inverse of each
        # factor size modulo the other exponentiates the factor clocks.
        p = crt_permutation(na, nb)
        u_big = weyl_word(na * nb, 1, 0)
        ca = pow(nb, -1, na)
        cb = pow(na, -1, nb)
        u_pair = np.kron(
            np.linalg.matrix_power(weyl_word(na, 1, 0), ca),
            np.linalg.matrix_power(weyl_word(nb, 1, 0), cb),
        )
        assert np.linalg.norm(p @ u_big @ p.T - u_pair) < 1e-12


class TestCellCoords:
    def test_frozen_cell(self):
        q_mod, p_mod = modular_cell_coords(2, 3, 1, 2)
        assert q_mod == pytest.approx(np.pi)
        assert p_mod == pytest.approx(4 * np.pi / 3)

    def test_origin_cell(self):
        assert modular_cell_coords(3, 5, 0, 0) == (0.0, 0.0)

    def test_labels_wrap(self):
        assert modular_cell_coords(3, 5, 4, 7) == modular_cell_coords(3, 5, 1, 2)


class TestLatticeStates:
    @pytest.mark.parametrize("na,nb", ((2, 3), (3, 5)))
    def test_simultaneous_eigenconditions(self, na, nb):
        shift_a = np.kron(weyl_word(na, 0, 1), np.eye(nb))
        clock_b = np.kron(np.eye(na), weyl_word(nb, 1, 0))
        for j in range(na):
            for sigma in range(nb):
                state = az_state(na, nb, j, sigma)
                assert np.allclose(
                    shift_a @ state.tensor,
                    np.exp(1j * state.shift_phase) * state.tensor,
                    atol=1e-10,
                )
                assert np.allclose(
                    clock_b @ state.tensor,
                    np.exp(1j * state.clock_phase) * state.tensor,
                    atol=1e-10,
                )

    def test_commuting_pair(self):
        na, nb = 3, 5
        shift_a = np.kron(weyl_word(na, 0, 1), np.eye(nb))
        clock_b = np.kron(np.eye(na), weyl_word(nb, 1, 0))
        assert np.linalg.norm(shift_a @ clock_b - clock_b @ shift_a) == 0.0

    def test_normalization(self):
        for j in range(3):
            for sigma in range(5):
                state = az_state(3, 5, j, sigma)
                assert abs(np.linalg.norm(state.tensor) - 1.0) < 1e-12
                assert abs(np.linalg.norm(state.vector) - 1.0) < 1e-12

    def test_frozen_state_2x3(self):
        state = az_state(2, 3, 1, 2)
        assert state.shift_phase == pytest.approx(np.pi)
        assert state.clock_phase == pytest.approx(4 * np.pi / 3)
        expected = np.zeros(6, dtype=complex)
        expected[2] = 1 / np.sqrt(2)
        expected[5] = -1 / np.sqrt(2)
        assert np.allclose(state.vector, expected, atol=1e-12)
        # eigenvalues: -1 under the factor shift, e^{4πi/3} under the clock
        assert np.exp(1j * state.shift_phase) == pytest.approx(-1)
        assert np.exp(1j * state.clock_phase) == pytest.approx(
            np.exp(4j * np.pi / 3)
        )

    def test_single_register_eigenconditions(self):
        # In the Z_N register the two modular readings come from the
        # translation congruent to (1, 0) and the clock raised to na.
        for na, nb, j, sigma in ((2, 3, 1, 2), (3, 5, 2, 4)):
            state = az_state(na, nb, j, sigma)
            t = crt_map(na, nb).fwd(1, 0)
            v_t = np.linalg.matrix_power(weyl_word(na * nb, 0, 1), t)
            u_na = np.linalg.matrix_power(weyl_word(na * nb, 1, 0), na)
            assert np.allclose(
                v_t @ state.vector,
                np.exp(1j * state.shift_phase) * state.vector,
                atol=1e-10,
            )
            assert np.allclose(
                u_na @ state.vector,
                np.exp(1j * state.clock_phase) * state.vector,
                atol=1e-10,
            )

    def test_vector_is_permuted_tensor(self):
        state = az_state(3, 5, 1, 3)
        p = crt_permutation(3, 5)
        assert np.allclose(p @ state.vector, state.tensor, atol=1e-12)

    def test_factor_clock_does_not_fix_the_state(self):
        # The clock of the first factor advances the momentum label, so
        # U_na ⊗ I maps the state onto an orthogonal one.
        state = az_state(3, 5, 1, 2)
        moved = np.kron(weyl_word(3, 1, 0), np.eye(5)) @ state.tensor
        assert abs(state.tensor.conj() @ moved) < 1e-12
        other = az_state(3, 5, 2, 2)
        assert abs(other.tensor.conj() @ moved) == pytest.approx(1.0, abs=1e-12)

    def test_origin_state_is_uniform_momentum_comb(self):
        # A position ket of the second factor is the flat sum of all its
        # momentum kets, which is what an ideal slit array prepares.
        na, nb = 2, 3
        state = az_state(na, nb, 0, 0)
        f_b = dft(nb)
        comb = sum(f_b[:, s] for s in range(nb)) / np.sqrt(nb)
        expected = np.kron(dft(na)[:, 0], comb)
        assert np.allclose(state.tensor, expected, atol=1e-12)

    def test_labels_wrap(self):
        assert np.allclose(
            az_state(2, 3, 3, 5).vector, az_state(2, 3, 1, 2).vector, atol=1e-15
        )

    def test_rejects_shared_factor(self):
        with pytest.raises(ValueError, match="coprime"):
            az_state(2, 4, 0, 0)


class TestNSlit:
    def test_zero_potential_is_identity(self):
        out = nslit_evolve(6, np.zeros(2))
        assert np.allclose(out, dft(6)[:, 0], atol=1e-15)

    def test_constant_potential_is_global_phase(self):
        out = nslit_evolve(6, np.full(3, 0.7))
        flat = dft(6)[:, 0]
        assert abs(abs(flat.conj() @ out) - 1.0) < 1e-12

    def test_frozen_two_slit_support(self):
        out = nslit_evolve(6, np.array([0.0, 1.3, 0.0, 1.3, 0.0, 1.3]))
        amps = momentum_amplitudes(out)
        support = np.flatnonzero(np.abs(amps) > 1e-10)
        assert list(support) == [0, 3]
        # the comb amplitudes are the two-point means of the phase mask
        assert amps[0] == pytest.approx((1 + np.exp(-1.3j)) / 2, abs=1e-12)
        assert amps[3] == pytest.approx((1 - np.exp(-1.3j)) / 2, abs=1e-12)

    def test_single_period_equals_tiled_input(self):
        assert np.allclose(
            nslit_evolve(6, np.array([0.0, 1.3])),
            nslit_evolve(6, np.array([0.0, 1.3, 0.0, 1.3, 0.0, 1.3])),
            atol=1e-15,
        )

    @pytest.mark.parametrize(
        "n,period", ((6, 2), (6, 3), (15, 3), (15, 5))
    )
    def test_momentum_support_lands_on_comb(self, n, period):
        rng = np.random.default_rng(20240819 + n + period)
        stride = n // period
        for _ in range(5):
            samples = rng.uniform(-np.pi, np.pi, size=period)
            amps = momentum_amplitudes(nslit_evolve(n, samples))
            support = np.flatnonzero(np.abs(amps) > 1e-10)
            assert support.size > 0
            assert np.all(support % stride == 0)

    def test_rejects_period_not_dividing_register(self):
        with pytest.raises(ValueError, match="divide"):
            nslit_evolve(6, np.zeros(4))

    def test_rejects_complex_and_non_finite_samples(self):
        for samples in (np.array([0.0, 1.0j]), np.array([0.0, 1.0 + 0j])):  # a zero imaginary part too
            with pytest.raises(ValueError, match="potential samples must be real"):
                nslit_evolve(6, samples)
        with pytest.raises(ValueError, match="finite"):
            nslit_evolve(6, np.array([0.0, np.nan]))
        with pytest.raises(ValueError):
            nslit_evolve(6, np.zeros((2, 3)))
        with pytest.raises(ValueError):
            nslit_evolve(6, np.array([]))

    def test_momentum_amplitudes_invert(self):
        rng = np.random.default_rng(99)
        psi = random_ket(12, rng)
        amps = momentum_amplitudes(psi)
        assert np.allclose(dft(12) @ amps, psi, atol=1e-12)
