"""Weak-measurement simulation: exact evolution against first-order formulas."""

import numpy as np
import pytest

from qpl import (
    FactoredEvolution,
    FockSpace,
    WeakConfig,
    annihilator_shift,
    annihilator_shift_prediction,
    basis_ket,
    conditioned_shift,
    evolve_exact,
    expectation,
    fs_speed_check,
    measured_shift,
    normalize,
    pancharatnam_phase,
    partial_trace,
    post_select,
    pre_measurement,
    predicted_shift,
    qubit_pointer_profile,
    random_hermitian,
    random_ket,
    selection_probability,
    shift_residual,
    tensor,
    unitary_exp,
    weak_run,
    weak_value,
)

POINTER_DIM = 64
SPACE = FockSpace(POINTER_DIM)
VACUUM = SPACE.vacuum()
EPS = 1e-3

GENERATORS = {
    "q": SPACE.q,
    "p": SPACE.p,
    "n": SPACE.num,
    "h0": SPACE.h0,
    "g": SPACE.g,
    "k": SPACE.k,
}
P_VALUES, P_VECTORS = SPACE.spectrum("p")

# Frozen sweep configs: seeded random selections per system size.
SYSTEM_SEEDS = ((2, 11), (3, 12))
COHERENT_Z = 0.8 + 0.6j


def make_config(system_dim, seed, gen_key, pointer, eps=EPS, pointer_spectrum=None):
    rng = np.random.default_rng(seed)
    pre = random_ket(system_dim, rng)
    post = random_ket(system_dim, rng)
    obs = random_hermitian(system_dim, rng)
    return WeakConfig(
        pre=pre,
        post=post,
        obs=obs,
        pointer_gen=GENERATORS[gen_key],
        pointer=pointer,
        eps=eps,
        pointer_spectrum=pointer_spectrum,
    )


class TestWeakConfig:
    def test_rejects_unnormalized_pre(self):
        with pytest.raises(ValueError):
            WeakConfig(
                pre=np.array([1.0, 1.0]),
                post=basis_ket(2, 0),
                obs=np.eye(2),
                pointer_gen=SPACE.p,
                pointer=VACUUM,
                eps=EPS,
            )

    def test_rejects_non_hermitian_observable(self):
        with pytest.raises(ValueError):
            WeakConfig(
                pre=basis_ket(2, 0),
                post=basis_ket(2, 0),
                obs=np.array([[0.0, 1.0], [0.0, 0.0]]),
                pointer_gen=SPACE.p,
                pointer=VACUUM,
                eps=EPS,
            )

    def test_rejects_pointer_dimension_mismatch(self):
        with pytest.raises(ValueError):
            WeakConfig(
                pre=basis_ket(2, 0),
                post=basis_ket(2, 0),
                obs=np.diag([1.0, -1.0]),
                pointer_gen=SPACE.p,
                pointer=basis_ket(16, 0),
                eps=EPS,
            )

    def test_rejects_negative_coupling(self):
        with pytest.raises(ValueError):
            WeakConfig(
                pre=basis_ket(2, 0),
                post=basis_ket(2, 0),
                obs=np.diag([1.0, -1.0]),
                pointer_gen=SPACE.p,
                pointer=VACUUM,
                eps=-1.0,
            )
        cfg = make_config(2, 11, "p", VACUUM)
        for eps in (-1.0, float("nan")):
            with pytest.raises(ValueError):
                cfg.with_eps(eps)

    def test_rejects_the_spectrum_of_another_generator(self):
        """A config on p run with the q spectrum: a wrong q-shift, 5.39e-5 for 7.91e-4."""
        space, rng = FockSpace(64), np.random.default_rng(3)
        pre, post, obs = random_ket(3, rng), random_ket(3, rng), random_hermitian(3, rng)
        pointer = space.coherent(0.5 + 0.5j)
        with pytest.raises(ValueError, match="pointer_spectrum"):
            WeakConfig(pre, post, obs, space.p, pointer, EPS, pointer_spectrum=space.spectrum("q"))
        cfg = WeakConfig(pre, post, obs, space.p, pointer, EPS, pointer_spectrum=space.spectrum("p"))
        assert measured_shift(cfg, space.q) == pytest.approx(7.91e-4, rel=1e-3)

    @pytest.mark.parametrize(
        "spectrum",
        (
            (P_VALUES[:-1], P_VECTORS),
            (P_VALUES, P_VECTORS[:, :-1]),
            (np.where(np.arange(POINTER_DIM) == 5, np.nan, P_VALUES), P_VECTORS),
            (P_VALUES, np.where(np.eye(POINTER_DIM) > 0, np.inf, P_VECTORS)),
        ),
        ids=("short-values", "narrow-vectors", "nan-value", "inf-vectors"),
    )
    def test_rejects_a_malformed_spectrum(self, spectrum):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="pointer_spectrum"):
            make_config(2, 11, "p", VACUUM, pointer_spectrum=spectrum)

    @pytest.mark.parametrize("dim", (2, 3, 16, 64, 128, 256))
    def test_each_fock_spectrum_pairs_only_with_its_generator(self, dim):
        """Every key is accepted.  A wrong key is refused unless R·φ cannot tell the
        two apart, and then the runs are the same: at dimension 2, g = k = 0 and
        N|0⟩ = 0, so n, g and k on the vacuum, and g and k on any pointer."""
        space, rng = FockSpace(dim), np.random.default_rng(dim)
        pre, post, obs = random_ket(3, rng), random_ket(3, rng), random_hermitian(3, rng)
        pointers = {"vacuum": space.vacuum(), "random": random_ket(dim, rng)}
        if dim >= 16:  # the displacement guard needs (|z|+3)² ≤ dim
            pointers["coherent"] = space.coherent(COHERENT_Z)
        blind = set()
        if dim == 2:
            blind = {("vacuum", gen, key) for gen in "ngk" for key in "ngk"}
            blind |= {(name, gen, key) for name in pointers for gen, key in ("gk", "kg")}
        for name, pointer in pointers.items():
            for gen, attr in FockSpace.GENERATORS.items():
                cfg = WeakConfig(pre, post, obs, getattr(space, attr), pointer, 0.3, space.spectrum(gen))
                for key in FockSpace.GENERATORS.keys() - {gen}:
                    if (name, gen, key) not in blind:
                        with pytest.raises(ValueError, match="pointer_spectrum"):
                            WeakConfig(pre, post, obs, cfg.pointer_gen, pointer, 0.3, space.spectrum(key))
                        continue
                    wrong = WeakConfig(pre, post, obs, cfg.pointer_gen, pointer, 0.3, space.spectrum(key))
                    raw, oracle = weak_run(wrong, {}).selected.raw, weak_run(cfg, {}).selected.raw
                    np.testing.assert_allclose(raw, oracle, rtol=0, atol=1e-15)

    def test_with_eps_replaces_only_coupling(self):
        cfg = make_config(2, 11, "p", VACUUM)
        half = cfg.with_eps(EPS / 2)
        assert half.eps == EPS / 2
        assert half.pre is cfg.pre
        assert half.obs is cfg.obs


class TestWeakValue:
    def test_eigenstate_returns_eigenvalue(self):
        rng = np.random.default_rng(5)
        obs = random_hermitian(3, rng)
        vals, vecs = np.linalg.eigh(obs)
        for k in range(3):
            cfg = WeakConfig(
                pre=vecs[:, k],
                post=vecs[:, k],
                obs=obs,
                pointer_gen=SPACE.p,
                pointer=VACUUM,
                eps=EPS,
            )
            value = weak_value(cfg)
            assert abs(value - vals[k]) < 1e-10
            assert abs(value.imag) < 1e-10

    def test_equal_selections_reduce_to_expectation(self):
        rng = np.random.default_rng(6)
        alpha = random_ket(4, rng)
        obs = random_hermitian(4, rng)
        cfg = WeakConfig(
            pre=alpha,
            post=alpha,
            obs=obs,
            pointer_gen=np.eye(2),
            pointer=basis_ket(2, 0),
            eps=EPS,
        )
        assert abs(weak_value(cfg) - expectation(obs, alpha)) < 1e-10

    def test_near_orthogonal_selections_amplify(self):
        # diag(1,-1) probed between an equal superposition and a rotated
        # state: the weak value (cos t - sin t)/(cos t + sin t) leaves the
        # [-1, 1] spectrum as t approaches 3*pi/4.
        t = 3 * np.pi / 4 - 0.05
        obs = np.diag([1.0, -1.0])
        pre = normalize(np.array([1.0, 1.0]))
        post = np.array([np.cos(t), np.sin(t)])
        cfg = WeakConfig(
            pre=pre, post=post, obs=obs, pointer_gen=SPACE.p, pointer=VACUUM, eps=EPS
        )
        value = weak_value(cfg)
        expected = (np.cos(t) - np.sin(t)) / (np.cos(t) + np.sin(t))
        assert abs(value - expected) < 1e-10
        assert abs(value) > 1.0  # beyond the spectral radius

    def test_orthogonal_selections_raise(self):
        cfg = WeakConfig(
            pre=basis_ket(2, 0),
            post=basis_ket(2, 1),
            obs=np.diag([1.0, -1.0]),
            pointer_gen=SPACE.p,
            pointer=VACUUM,
            eps=EPS,
        )
        with pytest.raises(ValueError, match="orthogonal"):
            weak_value(cfg)


    @pytest.mark.parametrize("gen_key", ("q", "p"))
    def test_orthogonal_selections_keep_the_exact_quantities(self, gen_key):
        """No weak value, but the exact post-selection at ε > 0 is well defined."""
        cfg = WeakConfig(
            pre=basis_ket(2, 0),
            post=basis_ket(2, 1),
            obs=np.array([[0.0, 1.0], [1.0, 0.0]]),
            pointer_gen=GENERATORS[gen_key],
            pointer=SPACE.coherent(COHERENT_Z),
            eps=0.1,
        )
        oracle = post_select(evolve_exact(cfg), cfg.post, POINTER_DIM)
        assert 1e-4 < oracle.probability < 0.1
        assert abs(selection_probability(cfg) - oracle.probability) <= 1e-12
        for m in (SPACE.q, SPACE.p):
            exact = conditioned_shift(oracle, cfg.pointer, m).real
            assert abs(measured_shift(cfg, m) - exact) <= 1e-10
        exact_a = conditioned_shift(oracle, cfg.pointer, SPACE.a)
        assert abs(annihilator_shift(cfg, SPACE.a) - exact_a) <= 1e-10


class TestEvolveAndPostSelect:
    def test_zero_coupling_leaves_product_state(self):
        cfg = make_config(2, 21, "p", VACUUM, eps=0.0)
        state = evolve_exact(cfg)
        assert np.allclose(state, tensor(cfg.pre, cfg.pointer), atol=1e-12)

    def test_identity_observable_factorizes(self):
        rng = np.random.default_rng(22)
        pre = random_ket(3, rng)
        cfg = WeakConfig(
            pre=pre,
            post=random_ket(3, rng),
            obs=np.eye(3),
            pointer_gen=SPACE.p,
            pointer=VACUUM,
            eps=0.3,
        )
        state = evolve_exact(cfg)
        local = unitary_exp(SPACE.p, 0.3) @ VACUUM
        assert np.allclose(state, tensor(pre, local), atol=1e-10)

    def test_norm_preserved_at_strong_coupling(self):
        cfg = make_config(3, 23, "q", SPACE.coherent(COHERENT_Z), eps=0.3)
        state = evolve_exact(cfg)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-10

    def test_zero_coupling_post_selection(self):
        cfg = make_config(2, 24, "p", VACUUM, eps=0.0)
        sel = post_select(evolve_exact(cfg), cfg.post, POINTER_DIM)
        overlap = cfg.post.conj() @ cfg.pre
        assert np.allclose(sel.raw, overlap * VACUUM, atol=1e-12)
        assert abs(sel.probability - abs(overlap) ** 2) < 1e-12
        assert abs(np.linalg.norm(sel.normalized) - 1.0) < 1e-12

    def test_first_order_pointer_expansion_residual_quarters(self):
        # The conditioned pointer is <beta|alpha>(1 - i*eps*Ow*R)|phi> up to
        # a quadratic remainder, so halving eps divides the residual by ~4.
        residuals = []
        for eps in (1e-3, 5e-4):
            cfg = make_config(2, 25, "p", VACUUM, eps=eps)
            sel = post_select(evolve_exact(cfg), cfg.post, POINTER_DIM)
            overlap = cfg.post.conj() @ cfg.pre
            ow = weak_value(cfg)
            approx = overlap * (VACUUM - 1j * eps * ow * (SPACE.p @ VACUUM))
            residuals.append(np.linalg.norm(sel.raw - approx))
        ratio = residuals[0] / residuals[1]
        assert 3.5 < ratio < 4.5

    def test_zero_probability_post_selection_raises(self):
        state = tensor(basis_ket(2, 0), VACUUM)
        with pytest.raises(ValueError):
            post_select(state, basis_ket(2, 1), POINTER_DIM)

    def test_selection_probability_near_static_overlap(self):
        cfg = make_config(3, 26, "p", VACUUM)
        prob = selection_probability(cfg)
        static = abs(cfg.post.conj() @ cfg.pre) ** 2
        assert prob <= 1.0 + 1e-12
        assert abs(prob - static) < 1e-2


class TestFactoredEvolution:
    # (system_dim, pointer_dim) pairs spanning systems 2..6 and pointers 8..64
    SIZES = ((2, 64), (3, 8), (4, 16), (5, 32), (6, 24))

    @pytest.mark.parametrize("system_dim,pointer_dim", SIZES)
    @pytest.mark.parametrize("gen_key", sorted(FockSpace.GENERATORS))
    @pytest.mark.parametrize("obs_kind", ("hermitian", "diagonal"))
    def test_matches_dense_oracle(self, system_dim, pointer_dim, gen_key, obs_kind):
        space = FockSpace(pointer_dim)
        rng = np.random.default_rng(100 * system_dim + pointer_dim)
        if obs_kind == "hermitian":
            obs = random_hermitian(system_dim, rng)
        else:  # small integers: repeated eigenvalues and coincident phases
            obs = np.diag(rng.integers(-2, 3, system_dim).astype(float))
        pointers = [space.vacuum()]
        if pointer_dim >= 16:  # the displacement guard needs (|z|+3)² ≤ dim
            pointers.append(space.coherent(COHERENT_Z))
        for pointer in pointers:
            cfg = WeakConfig(
                pre=random_ket(system_dim, rng),
                post=random_ket(system_dim, rng),
                obs=obs,
                pointer_gen=getattr(space, FockSpace.GENERATORS[gen_key]),
                pointer=pointer,
                eps=0.0,
                pointer_spectrum=space.spectrum(gen_key),
            )
            evolution = FactoredEvolution(cfg.obs, space.spectrum(gen_key), cfg.pre, cfg.pointer)
            for eps in (0.0, 1e-3, 0.3, 3.0):
                oracle = post_select(evolve_exact(cfg.with_eps(eps)), cfg.post, pointer_dim)
                run = weak_run(cfg.with_eps(eps), {})
                for factored in (evolution.post_selected(eps, cfg.post), run.selected):
                    assert np.max(np.abs(factored.raw - oracle.raw)) <= 1e-12
                    assert np.max(np.abs(factored.normalized - oracle.normalized)) <= 1e-12
                    assert abs(factored.probability - oracle.probability) <= 1e-12

    def test_zero_probability_post_selection_raises(self):
        cfg = WeakConfig(
            pre=basis_ket(2, 0),
            post=basis_ket(2, 1),
            obs=np.diag([1.0, -1.0]),
            pointer_gen=SPACE.p,
            pointer=VACUUM,
            eps=EPS,
        )
        with pytest.raises(ValueError, match="zero probability"):
            FactoredEvolution(cfg.obs, SPACE.spectrum("p"), cfg.pre, cfg.pointer).post_selected(
                EPS, cfg.post
            )

    @pytest.mark.parametrize(
        "pointer", (VACUUM, normalize(np.random.default_rng(5).normal(size=POINTER_DIM) + 0j))
    )
    def test_huge_observable_stays_finite(self, pointer):
        """t·r·o is finite although r·o overflows: at t = 0 the pointer comes back unchanged."""
        evolution = FactoredEvolution(
            np.diag([1e307, -1e307]), SPACE.spectrum("n"), basis_ket(2, 0), pointer
        )
        selected = evolution.post_selected(0.0, basis_ket(2, 0))
        assert np.array_equal(selected.raw, pointer)
        np.testing.assert_allclose(selected.normalized, pointer, rtol=0, atol=1e-15)
        assert np.all(np.isfinite(evolution.post_selected(1e-3, basis_ket(2, 0)).raw))


class TestWeakRun:
    @pytest.mark.parametrize("gen_key", sorted(FockSpace.GENERATORS))
    def test_structured_spectrum_needs_no_pointer_eigh(self, eigh_sizes, gen_key):
        """From `FockSpace.spectrum`, only the 3-level observable is diagonalized."""
        space, z = FockSpace(256), 1.5 - 0.5j
        rng = np.random.default_rng(7)
        pointer_gen, pointer = getattr(space, FockSpace.GENERATORS[gen_key]), space.coherent(z)
        spectrum = space.spectrum(gen_key)
        assert (256, True) not in eigh_sizes
        eigh_sizes.clear()
        cfg = WeakConfig(
            pre=random_ket(3, rng),
            post=random_ket(3, rng),
            obs=random_hermitian(3, rng),
            pointer_gen=pointer_gen,
            pointer=pointer,
            eps=EPS,
            pointer_spectrum=spectrum,
        )
        readouts = {"q": space.q, "p": space.p}
        weak_run(cfg, readouts, halving=True, annihilator=(space.a, z))
        assert eigh_sizes == [(3, True)]

    @pytest.mark.parametrize("gen_key", sorted(GENERATORS))
    def test_halving_flow_diagonalizes_the_generator_once(self, eigh_sizes, gen_key):
        """The acceptance flow: shift_residual on cfg and cfg.with_eps(ε/2), for q and p;
        the generator and the observable are each diagonalized once."""
        cfg = make_config(2, 11, gen_key, SPACE.coherent(COHERENT_Z))
        for readout in (SPACE.q, SPACE.p):
            shift_residual(cfg, readout)
            shift_residual(cfg.with_eps(EPS / 2), readout)
        assert eigh_sizes.count((POINTER_DIM, True)) == 1
        assert eigh_sizes.count((2, True)) == 1

    @pytest.mark.parametrize("gen_key", ("n", "q"))
    def test_record_holds_what_the_library_functions_return(self, gen_key):
        cfg = make_config(3, 12, gen_key, SPACE.coherent(COHERENT_Z))
        readouts = {"q": SPACE.q, "p": SPACE.p}
        run = weak_run(cfg, readouts, True, (SPACE.a, COHERENT_Z))
        half = cfg.with_eps(EPS / 2)
        assert run.weak_value == weak_value(cfg)
        assert run.selected.probability == selection_probability(cfg)
        for name, m in readouts.items():
            assert run.shifts[name]["measured"] == measured_shift(cfg, m)
            assert run.shifts[name]["predicted"] == predicted_shift(cfg, m)
            assert run.shifts[name]["residual"] == shift_residual(cfg, m)
            assert run.halving[name]["half_residual"] == shift_residual(half, m)
            assert run.halving[name]["ratio"] == shift_residual(half, m) / shift_residual(cfg, m)
        assert run.annihilator["measured"] == annihilator_shift(cfg, SPACE.a)
        assert run.annihilator["predicted"] == annihilator_shift_prediction(cfg, COHERENT_Z)

    def test_rejects_a_non_hermitian_readout(self):
        cfg = make_config(2, 11, "p", VACUUM)
        with pytest.raises(ValueError, match="readout 'a' must be hermitian"):
            weak_run(cfg, {"q": SPACE.q, "a": SPACE.a})

    def test_overflow_raises(self):
        cfg = make_config(2, 11, "p", VACUUM, eps=1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(OverflowError, match="weak run overflows at eps = 1e"):
                weak_run(cfg, {"q": SPACE.q})


class TestShiftFormulas:
    def test_predicted_shift_variance_identity(self):
        # Measuring the generator itself: shift = 2*eps*Im(Ow)*Var(R).
        cfg = make_config(2, 31, "p", SPACE.coherent(COHERENT_Z))
        ow = weak_value(cfg)
        for gen_key in ("q", "p"):
            cfg_r = make_config(2, 31, gen_key, SPACE.coherent(COHERENT_Z))
            r = GENERATORS[gen_key]
            var = SPACE.variance(r, cfg_r.pointer)
            assert abs(
                predicted_shift(cfg_r, r) - 2 * EPS * ow.imag * var
            ) < 1e-12

    def test_real_weak_value_and_commuting_readout_gives_zero(self):
        rng = np.random.default_rng(32)
        obs = random_hermitian(2, rng)
        _, vecs = np.linalg.eigh(obs)
        cfg = WeakConfig(
            pre=vecs[:, 0],
            post=vecs[:, 0],
            obs=obs,
            pointer_gen=SPACE.p,
            pointer=VACUUM,
            eps=EPS,
        )
        assert abs(predicted_shift(cfg, SPACE.p @ SPACE.p)) < 1e-12

    def test_zero_coupling_measured_shift_is_zero(self):
        cfg = make_config(2, 33, "p", VACUUM, eps=0.0)
        assert measured_shift(cfg, SPACE.q) == pytest.approx(0.0, abs=1e-13)

    def test_measured_shift_requires_hermitian_readout(self):
        cfg = make_config(2, 34, "p", VACUUM)
        with pytest.raises(ValueError):
            measured_shift(cfg, SPACE.a)

    def test_vacuum_momentum_coupling_moves_both_quadratures(self):
        # Momentum-generated kicks on a vacuum pointer displace the position
        # mean by eps*Re(Ow) and the momentum mean by eps*Im(Ow).
        cfg = make_config(2, 35, "p", VACUUM)
        ow = weak_value(cfg)
        assert abs(measured_shift(cfg, SPACE.q) - EPS * ow.real) < 1e-8
        assert abs(measured_shift(cfg, SPACE.p) - EPS * ow.imag) < 1e-8

    def test_eigenstate_selection_matches_prediction_exactly(self):
        cfg = WeakConfig(
            pre=basis_ket(2, 0),
            post=basis_ket(2, 0),
            obs=np.diag([1.0, -1.0]),
            pointer_gen=SPACE.p,
            pointer=VACUUM,
            eps=EPS,
        )
        assert shift_residual(cfg, SPACE.q) < 1e-12

    def test_shift_residual_definition(self):
        cfg = make_config(3, 36, "n", SPACE.coherent(COHERENT_Z))
        direct = abs(measured_shift(cfg, SPACE.q) - predicted_shift(cfg, SPACE.q))
        assert shift_residual(cfg, SPACE.q) == pytest.approx(direct, abs=1e-15)


class TestHalvingSweep:
    @pytest.mark.parametrize("system_dim,seed", SYSTEM_SEEDS)
    @pytest.mark.parametrize("gen_key", sorted(GENERATORS))
    def test_coherent_pointer_residual_is_quadratic(self, system_dim, seed, gen_key):
        # Halving eps quarters |measured - predicted| for every sl(2)
        # generator when the pointer has non-degenerate odd moments.
        pointer = SPACE.coherent(COHERENT_Z)
        cfg = make_config(system_dim, seed, gen_key, pointer)
        for readout in (SPACE.q, SPACE.p):
            full = shift_residual(cfg, readout)
            half = shift_residual(cfg.with_eps(EPS / 2), readout)
            assert full > 1e-13  # the ratio below is meaningful
            ratio = half / full
            assert 0.15 < ratio < 0.35

    @pytest.mark.parametrize("system_dim,seed", SYSTEM_SEEDS)
    @pytest.mark.parametrize("gen_key", ("q", "p"))
    def test_vacuum_quadrature_coupling_residual_is_cubic(
        self, system_dim, seed, gen_key
    ):
        # Every odd vacuum moment vanishes, which cancels the quadratic
        # error term of quadrature couplings: the residual falls by ~1/8
        # per halving instead of 1/4.
        cfg = make_config(system_dim, seed, gen_key, VACUUM)
        for readout in (SPACE.q, SPACE.p):
            full = shift_residual(cfg, readout)
            half = shift_residual(cfg.with_eps(EPS / 2), readout)
            assert full > 1e-13
            ratio = half / full
            assert 0.10 < ratio < 0.16

    @pytest.mark.parametrize("system_dim,seed", SYSTEM_SEEDS)
    @pytest.mark.parametrize("gen_key", ("g", "k"))
    def test_vacuum_squeeze_coupling_prediction_is_exact(
        self, system_dim, seed, gen_key
    ):
        # Squeeze generators keep the vacuum's quadrature means pinned at
        # zero, so measured and predicted shifts both vanish identically.
        cfg = make_config(system_dim, seed, gen_key, VACUUM)
        for readout in (SPACE.q, SPACE.p):
            assert shift_residual(cfg, readout) < 1e-12

    @pytest.mark.parametrize("gen_key", ("n", "h0"))
    def test_vacuum_is_inert_under_phase_generators(self, gen_key):
        # The vacuum is an eigenvector of both number and oscillator
        # energy, so the coupling only dials a system-side phase.
        cfg = make_config(2, 11, gen_key, VACUUM)
        for readout in (SPACE.q, SPACE.p):
            assert abs(measured_shift(cfg, readout)) < 1e-12
            assert abs(predicted_shift(cfg, readout)) < 1e-12


class TestChecksOnce:
    """Each library call checks the arrays its caller hands it once, and only those."""

    @staticmethod
    def top_level(calls):
        return [call.name for call in calls if call.caller is None]

    @pytest.mark.parametrize(
        "call, checked",
        (
            (lambda cfg: measured_shift(cfg, SPACE.q), "as_hermitian"),
            (lambda cfg: shift_residual(cfg, SPACE.q), "as_hermitian"),
            (lambda cfg: annihilator_shift(cfg, SPACE.a), "as_operator"),
        ),
        ids=("measured_shift", "shift_residual", "annihilator_shift"),
    )
    def test_shift_functions_check_their_operator_once(self, validator_calls, call, checked):
        cfg = make_config(2, 41, "n", SPACE.coherent(COHERENT_Z))
        validator_calls.clear()
        call(cfg)
        assert self.top_level(validator_calls) == [checked]

    def test_fs_speed_check_checks_h_and_psi_once(self, validator_calls):
        rng = np.random.default_rng(83)
        h, psi = random_hermitian(4, rng), random_ket(4, rng)
        validator_calls.clear()
        fs_speed_check(h, psi, 1e-3)
        assert self.top_level(validator_calls) == ["as_hermitian", "as_ket"]

    def test_pre_measurement_checks_one_operator(self, validator_calls):
        pre_measurement(basis_ket(2, 0), np.diag([1.0, -1.0]), 1.0, SPACE)
        assert sum(call.name == "as_operator" for call in validator_calls) == 1


class TestAnnihilatorShift:
    def test_matches_first_order_prediction(self):
        cfg = make_config(2, 41, "n", SPACE.coherent(COHERENT_Z))
        exact = annihilator_shift(cfg, SPACE.a)
        approx = annihilator_shift_prediction(cfg, COHERENT_Z)
        assert abs(exact - approx) < 1e-2 * abs(approx)

    def test_residual_is_quadratic_in_coupling(self):
        cfg = make_config(2, 41, "n", SPACE.coherent(COHERENT_Z))
        full = abs(
            annihilator_shift(cfg, SPACE.a)
            - annihilator_shift_prediction(cfg, COHERENT_Z)
        )
        half_cfg = cfg.with_eps(EPS / 2)
        half = abs(
            annihilator_shift(half_cfg, SPACE.a)
            - annihilator_shift_prediction(half_cfg, COHERENT_Z)
        )
        assert full > 1e-13
        assert 0.15 < half / full < 0.35

    def test_zero_coupling_gives_zero_shift(self):
        cfg = make_config(2, 42, "n", SPACE.coherent(1.0), eps=0.0)
        assert abs(annihilator_shift(cfg, SPACE.a)) < 1e-12

    def test_shift_magnitude_doubles_with_amplitude(self):
        shifts = []
        for z in (2j, 1j):
            rng = np.random.default_rng(43)
            cfg = WeakConfig(
                pre=random_ket(2, rng),
                post=random_ket(2, rng),
                obs=random_hermitian(2, rng),
                pointer_gen=SPACE.num,
                pointer=SPACE.coherent(z),
                eps=EPS,
            )
            shifts.append(abs(annihilator_shift(cfg, SPACE.a)))
        assert 1.9 < shifts[0] / shifts[1] < 2.1

    def test_quadrature_pair_at_quarter_turn(self):
        # z on the imaginary axis splits the number-coupled shift into
        # dQ = eps*sqrt(2)*|z|*Re(Ow) and dP = eps*sqrt(2)*|z|*Im(Ow).
        z = 2j
        cfg = make_config(2, 44, "n", SPACE.coherent(z))
        ow = weak_value(cfg)
        scale = EPS * np.sqrt(2) * abs(z)
        assert abs(measured_shift(cfg, SPACE.q) - scale * ow.real) < 1e-5
        assert abs(measured_shift(cfg, SPACE.p) - scale * ow.imag) < 1e-5

    def test_real_weak_value_suppresses_momentum_component(self):
        obs = np.diag([1.0, -1.0])
        cfg = WeakConfig(
            pre=basis_ket(2, 0),
            post=basis_ket(2, 0),
            obs=obs,
            pointer_gen=SPACE.num,
            pointer=SPACE.coherent(1.5j),
            eps=EPS,
        )
        dq = measured_shift(cfg, SPACE.q)
        dp = measured_shift(cfg, SPACE.p)
        assert abs(dq - EPS * np.sqrt(2) * 1.5) < 1e-5
        assert abs(dp) < 1e-5


class TestPreMeasurement:
    def test_eigenstate_gives_pure_displaced_pointer(self):
        obs = np.diag([1.0, -1.0])
        for index, eigenvalue in ((0, 1.0), (1, -1.0)):
            record = pre_measurement(basis_ket(2, index), obs, 1.0, SPACE)
            assert abs(record.purity - 1.0) < 1e-10
            assert abs(record.position_mean - eigenvalue) < 1e-6

    def test_superposition_decoheres_pointer(self):
        obs = np.diag([1.0, -1.0])
        alpha = normalize(np.array([1.0, 1.0]))
        record = pre_measurement(alpha, obs, 1.0, SPACE)
        assert record.purity < 0.99
        assert abs(record.position_mean) < 1e-10

    def test_position_mean_tracks_observable_mean(self):
        obs = np.diag([1.0, -1.0])
        alpha = np.array([np.sqrt(0.8), np.sqrt(0.2)])
        lam = 0.7
        record = pre_measurement(alpha, obs, lam, SPACE)
        assert abs(record.position_mean - lam * 0.6) < 1e-6

    def test_matches_exact_unitary_reduction(self):
        rng = np.random.default_rng(51)
        obs = random_hermitian(2, rng)
        alpha = random_ket(2, rng)
        lam = 0.8
        record = pre_measurement(alpha, obs, lam, SPACE)
        state = unitary_exp(tensor(obs, SPACE.p), lam) @ tensor(alpha, VACUUM)
        rho = partial_trace(
            np.outer(state, state.conj()), (2, POINTER_DIM), keep=1
        )
        assert np.linalg.norm(record.reduced - rho) < 1e-12

    @pytest.mark.parametrize("system_dim", (2, 3, 4))
    @pytest.mark.parametrize("pointer_kind", ("vacuum", "coherent"))
    @pytest.mark.parametrize("lam", (0.0, 0.3, 1.5))
    def test_matches_dense_partial_trace(self, system_dim, pointer_kind, lam):
        rng = np.random.default_rng(60 + system_dim)
        obs = random_hermitian(system_dim, rng)
        alpha = random_ket(system_dim, rng)
        pointer = VACUUM if pointer_kind == "vacuum" else SPACE.coherent(COHERENT_Z)
        record = pre_measurement(alpha, obs, lam, SPACE, pointer=pointer)
        state = unitary_exp(tensor(obs, SPACE.p), lam) @ tensor(alpha, pointer)
        rho = partial_trace(np.outer(state, state.conj()), (system_dim, POINTER_DIM), keep=1)
        assert np.max(np.abs(record.reduced - rho)) <= 1e-12
        assert abs(record.position_mean - np.trace(rho @ SPACE.q).real) <= 1e-12
        assert abs(record.purity - np.trace(rho @ rho).real) <= 1e-12

    def test_rejects_non_hermitian_observable(self):
        with pytest.raises(ValueError):
            pre_measurement(basis_ket(2, 0), SPACE.a[:2, :2], 1.0, SPACE)

    def test_rejects_unnormalized_pointer(self):
        # a scaled pointer used to give a reduced state of trace 9
        with pytest.raises(ValueError, match="pointer state must be normalized"):
            pre_measurement(basis_ket(2, 0), np.diag([1.0, -1.0]), 1.0, SPACE, pointer=3 * VACUUM)


class TestPancharatnamPhase:
    def test_coincident_arguments_give_zero(self):
        rng = np.random.default_rng(61)
        x = random_ket(3, rng)
        z = random_ket(3, rng)
        assert pancharatnam_phase(x, x, x) == pytest.approx(0.0, abs=1e-12)
        assert pancharatnam_phase(x, x, z) == pytest.approx(0.0, abs=1e-12)

    def test_rephasing_invariance(self):
        rng = np.random.default_rng(62)
        x, y, z = (random_ket(4, rng) for _ in range(3))
        base = pancharatnam_phase(x, y, z)
        shifted = pancharatnam_phase(x, np.exp(1.3j) * y, z)
        assert abs(base - shifted) < 1e-12

    def test_swap_reverses_orientation(self):
        rng = np.random.default_rng(63)
        x, y, z = (random_ket(4, rng) for _ in range(3))
        assert pancharatnam_phase(x, y, z) == pytest.approx(
            -pancharatnam_phase(y, x, z), abs=1e-12
        )

    def test_orthogonal_pair_raises(self):
        with pytest.raises(ValueError):
            pancharatnam_phase(
                basis_ket(2, 0), basis_ket(2, 1), normalize(np.ones(2))
            )

    def test_weak_evolution_triangle_first_order(self):
        # The geodesic triangle spanned by the post-selection and two
        # nearby weakly-evolved states closes with phase
        # -eps*(Re(Ow) - <O>)*dy up to higher order.
        rng = np.random.default_rng(64)
        pre = random_ket(2, rng)
        post = random_ket(2, rng)
        obs = random_hermitian(2, rng)
        eps, dy = 1e-2, 1e-3
        a0 = pre
        a1 = unitary_exp(obs, eps * dy) @ pre
        theta = pancharatnam_phase(post, a0, a1)
        ow = (post.conj() @ obs @ pre) / (post.conj() @ pre)
        obar = expectation(obs, pre).real
        formula = -eps * (ow.real - obar) * dy
        assert abs(theta - formula) < 1e-3 * abs(formula)


class TestQubitPointerProfile:
    PHASES = np.linspace(0.0, 2 * np.pi, 720, endpoint=False)

    @staticmethod
    def _branches(pre, obs, coupling):
        return pre, unitary_exp(obs, coupling) @ pre

    def test_profile_matches_interference_formula(self):
        rng = np.random.default_rng(71)
        pre = random_ket(2, rng)
        obs = random_hermitian(2, rng)
        coupling, theta = 0.7, 0.9
        scan = qubit_pointer_profile(pre, obs, coupling, theta, self.PHASES)
        a0, a1 = self._branches(pre, obs, coupling)
        overlap = a0.conj() @ a1
        expected = 0.5 * (
            1.0 + np.sin(theta) * np.real(np.exp(1j * self.PHASES) * overlap)
        )
        assert np.allclose(scan.probabilities, expected, atol=1e-12)

    def test_maximizer_matches_branch_overlap_phase(self):
        rng = np.random.default_rng(72)
        pre = random_ket(2, rng)
        obs = random_hermitian(2, rng)
        scan = qubit_pointer_profile(pre, obs, 0.7, 0.9, self.PHASES)
        a0, a1 = self._branches(pre, obs, 0.7)
        expected = np.angle(a1.conj() @ a0) % (2 * np.pi)
        assert abs(scan.maximizer - expected) < 1e-6

    def test_post_selected_maximizer_shifts(self):
        rng = np.random.default_rng(73)
        pre = random_ket(2, rng)
        post = random_ket(2, rng)
        obs = random_hermitian(2, rng)
        scan = qubit_pointer_profile(pre, obs, 0.7, 0.9, self.PHASES, post=post)
        a0, a1 = self._branches(pre, obs, 0.7)
        expected = np.angle(
            (post.conj() @ a0) * np.conj(post.conj() @ a1)
        ) % (2 * np.pi)
        assert abs(scan.maximizer - expected) < 1e-6

    def test_maximizer_shift_is_geodesic_triangle_phase(self):
        rng = np.random.default_rng(74)
        pre = random_ket(2, rng)
        post = random_ket(2, rng)
        obs = random_hermitian(2, rng)
        plain = qubit_pointer_profile(pre, obs, 0.7, 0.9, self.PHASES)
        selected = qubit_pointer_profile(
            pre, obs, 0.7, 0.9, self.PHASES, post=post
        )
        delta = (selected.maximizer - plain.maximizer + np.pi) % (
            2 * np.pi
        ) - np.pi
        a0, a1 = self._branches(pre, obs, 0.7)
        assert abs(delta - pancharatnam_phase(a0, post, a1)) < 1e-8

    def test_zero_coupling_profile_is_free_pointer(self):
        rng = np.random.default_rng(75)
        pre = random_ket(2, rng)
        obs = random_hermitian(2, rng)
        scan = qubit_pointer_profile(pre, obs, 0.0, 0.9, self.PHASES)
        expected = 0.5 * (1.0 + np.sin(0.9) * np.cos(self.PHASES))
        assert np.allclose(scan.probabilities, expected, atol=1e-12)
        assert abs(scan.maximizer) < 1e-9 or abs(
            scan.maximizer - 2 * np.pi
        ) < 1e-9

    @pytest.mark.parametrize("system_dim", (2, 3))
    @pytest.mark.parametrize("selected", (False, True))
    def test_matches_dense_per_phase_oracle(self, system_dim, selected):
        rng = np.random.default_rng(77 + system_dim)
        pre, post = random_ket(system_dim, rng), random_ket(system_dim, rng)
        obs = random_hermitian(system_dim, rng)
        coupling, theta = 1.3, 2.1
        phases = self.PHASES[::12]
        scan = qubit_pointer_profile(
            pre, obs, coupling, theta, phases, post=post if selected else None
        )
        reference = np.ones(2) / np.sqrt(2)
        unitary = unitary_exp(tensor(obs, np.diag([0.0, 1.0])), coupling)
        for phi, probability in zip(phases, scan.probabilities):
            pointer = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
            state = unitary @ tensor(pre, pointer)
            if selected:
                expected = abs(reference @ post_select(state, post, 2).normalized) ** 2
            else:
                rho = partial_trace(np.outer(state, state.conj()), (system_dim, 2), keep=1)
                expected = (reference @ rho @ reference).real
            assert abs(probability - expected) <= 1e-12

    def test_zero_surviving_population_raises(self):
        with pytest.raises(ValueError, match="zero probability"):
            qubit_pointer_profile(
                basis_ket(2, 0), np.diag([1.0, -1.0]), 0.7, 0.9, self.PHASES, post=basis_ket(2, 1)
            )

    @pytest.mark.parametrize("selected", (False, True))
    def test_rejects_unnormalized_pre(self, selected):
        # a doubled pre used to give "probabilities" up to 3.55 on this scan
        rng = np.random.default_rng(1)
        pre, obs = random_ket(2, rng), random_hermitian(2, rng)
        post = random_ket(2, rng) if selected else None
        with pytest.raises(ValueError, match="pre state must be normalized"):
            qubit_pointer_profile(2 * pre, obs, 0.7, 0.9, self.PHASES, post=post)

    def test_polar_pointer_flattens_profile(self):
        rng = np.random.default_rng(76)
        pre = random_ket(2, rng)
        obs = random_hermitian(2, rng)
        scan = qubit_pointer_profile(pre, obs, 0.7, 0.0, self.PHASES)
        assert scan.modulation < 1e-12
        assert np.allclose(scan.probabilities, 0.5, atol=1e-12)


class TestStateSpaceSpeed:
    def test_eigenstate_is_stationary(self):
        h = np.diag([0.0, 1.0, 3.0])
        speed, _ = fs_speed_check(h, basis_ket(3, 1), 1e-3)
        assert speed < 1e-9

    def test_two_level_superposition_speed(self):
        h = np.diag([0.0, 1.0])
        psi = normalize(np.array([1.0, 1.0]))
        speed, delta_e = fs_speed_check(h, psi, 1e-3)
        assert abs(delta_e - 0.5) < 1e-12
        assert abs(speed - 0.5) < 1e-6

    def test_speed_matches_closed_form_sinc(self):
        # H with levels ±1 on an equal superposition moves at exactly
        # sin(dt)/dt in the finite-difference approximation.
        h = np.diag([1.0, -1.0])
        psi = normalize(np.array([1.0, 1.0]))
        for dt in (0.3, 1e-2, 1e-4):
            speed, delta_e = fs_speed_check(h, psi, dt)
            assert abs(delta_e - 1.0) < 1e-12
            assert abs(speed - np.sin(dt) / dt) < 1e-9

    def test_convergence_to_energy_uncertainty(self):
        rng = np.random.default_rng(81)
        h = random_hermitian(4, rng)
        psi = random_ket(4, rng)
        errors = []
        for dt in (1e-2, 5e-3):
            speed, delta_e = fs_speed_check(h, psi, dt)
            errors.append(abs(speed - delta_e))
        assert errors[1] / errors[0] < 0.6  # at least first-order in dt

    def test_invariant_under_energy_offset(self):
        rng = np.random.default_rng(82)
        h = random_hermitian(4, rng)
        psi = random_ket(4, rng)
        s0, e0 = fs_speed_check(h, psi, 1e-3)
        s1, e1 = fs_speed_check(h + 3.7 * np.eye(4), psi, 1e-3)
        assert abs(s0 - s1) < 1e-10
        assert abs(e0 - e1) < 1e-10

    def test_rejects_a_non_hermitian_hamiltonian_by_name(self):
        with pytest.raises(ValueError, match="hamiltonian of fs_speed_check must be hermitian"):
            fs_speed_check(SPACE.a, VACUUM, 1e-3)

    def test_rejects_non_positive_step(self):
        with pytest.raises(ValueError):
            fs_speed_check(np.eye(2), basis_ket(2, 0), 0.0)
