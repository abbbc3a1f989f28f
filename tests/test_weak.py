"""Weak-measurement simulation: exact evolution against first-order formulas."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    conditioned_shift,
    dense_operator,
    evolve_dense,
    first_order_shift,
    partial_trace,
    post_select,
    unitary_exp,
)
from qpl import (
    FockSpace,
    WeakConfig,
    basis_ket,
    expectation,
    fs_speed_check,
    normalize,
    pancharatnam_phase,
    pre_measurement,
    random_hermitian,
    random_ket,
    weak_run,
    weak_value,
)
from qpl.weak import _FactoredEvolution, evolve_exact

POINTER_DIM = 64
SPACE = FockSpace(POINTER_DIM)
VACUUM = SPACE.vacuum()
EPS = 1e-3

GENERATORS = sorted(FockSpace.GENERATORS)

# Frozen sweep configs: seeded random selections per system size.
SYSTEM_SEEDS = ((2, 11), (3, 12))
COHERENT_Z = 0.8 + 0.6j


def make_config(system_dim, seed, gen_key, pointer, eps=EPS):
    rng = np.random.default_rng(seed)
    pre = random_ket(system_dim, rng)
    post = random_ket(system_dim, rng)
    obs = random_hermitian(system_dim, rng)
    return WeakConfig(
        pre=pre,
        post=post,
        obs=obs,
        space=SPACE,
        pointer_gen=gen_key,
        pointer=pointer,
        eps=eps,
    )


def shifts(cfg, *readouts) -> dict:
    """`weak_run`'s (measured, predicted, residual) triple of each readout key."""
    return weak_run(cfg, readouts).shifts


def lowering_shift(cfg, z=COHERENT_Z) -> dict:
    """`weak_run`'s triple for ⟨a⟩ of a coherent pointer |z⟩."""
    return weak_run(cfg, (), z=z).annihilator


class TestWeakConfig:
    def test_rejects_unnormalized_pre(self):
        with pytest.raises(ValueError):
            WeakConfig(
                pre=np.array([1.0, 1.0]),
                post=basis_ket(2, 0),
                obs=np.eye(2),
                space=SPACE,
                pointer_gen="p",
                pointer=VACUUM,
                eps=EPS,
            )

    def test_rejects_non_hermitian_observable(self):
        with pytest.raises(ValueError):
            WeakConfig(
                pre=basis_ket(2, 0),
                post=basis_ket(2, 0),
                obs=np.array([[0.0, 1.0], [0.0, 0.0]]),
                space=SPACE,
                pointer_gen="p",
                pointer=VACUUM,
                eps=EPS,
            )

    def test_rejects_pointer_dimension_mismatch(self):
        with pytest.raises(ValueError):
            WeakConfig(
                pre=basis_ket(2, 0),
                post=basis_ket(2, 0),
                obs=np.diag([1.0, -1.0]),
                space=SPACE,
                pointer_gen="p",
                pointer=basis_ket(16, 0),
                eps=EPS,
            )

    def test_rejects_negative_coupling(self):
        with pytest.raises(ValueError):
            WeakConfig(
                pre=basis_ket(2, 0),
                post=basis_ket(2, 0),
                obs=np.diag([1.0, -1.0]),
                space=SPACE,
                pointer_gen="p",
                pointer=VACUUM,
                eps=-1.0,
            )
        cfg = make_config(2, 11, "p", VACUUM)
        for eps in (-1.0, float("nan")):
            with pytest.raises(ValueError):
                cfg.with_eps(eps)

    @pytest.mark.parametrize("dim", (2, 3, 16, 64, 128, 256))
    def test_each_fock_spectrum_pairs_only_with_its_generator(self, dim):
        """A config names its generator by key, so it runs on that key's cached
        spectrum and applies that key's bands: R·φ is the dense product within
        8u·(|R|·|φ|) (see test_fock), for every key and pointer."""
        space, rng = FockSpace(dim), np.random.default_rng(dim)
        pre, post, obs = random_ket(3, rng), random_ket(3, rng), random_hermitian(3, rng)
        for pointer in (space.vacuum(), random_ket(dim, rng)):
            for key in FockSpace.GENERATORS:
                cfg = WeakConfig(pre, post, obs, space, key, pointer, 0.3)
                values, vectors = space.spectrum(key)
                assert cfg._evolution.gen_values is values and cfg._evolution.gen_vectors is vectors
                dense = dense_operator(dim, key)
                bound = 8 * np.finfo(float).eps * (np.abs(dense) @ np.abs(pointer))
                assert np.all(np.abs(cfg._evolution.r_phi - dense @ pointer) <= bound), key

    @pytest.mark.parametrize("key", ("num", "a", "x"))
    def test_rejects_a_generator_key_fock_space_does_not_name(self, key):
        with pytest.raises(ValueError, match="pointer_gen must be one of"):
            make_config(2, 11, key, VACUUM)

    def test_rejects_a_pointer_space_that_is_not_a_fock_space(self):
        cfg = make_config(2, 11, "p", VACUUM)
        with pytest.raises(ValueError, match="space must be a FockSpace"):
            WeakConfig(cfg.pre, cfg.post, cfg.obs, dense_operator(POINTER_DIM, "p"), "p", VACUUM, EPS)

    def test_with_eps_replaces_only_coupling(self):
        cfg = make_config(2, 11, "p", VACUUM)
        half = cfg.with_eps(EPS / 2)
        assert half.eps == EPS / 2
        assert half.pre is cfg.pre
        assert half.obs is cfg.obs


GENERATOR_KEYS = "['g', 'h0', 'k', 'n', 'p', 'q']"


@pytest.mark.parametrize(
    "call, message",
    (
        (lambda key: SPACE.spectrum(key), f"generator must be one of {GENERATOR_KEYS}"),
        (lambda key: SPACE.apply(key, VACUUM), "operator must be one of ['a', 'g', 'h0', 'k', 'n', 'p', 'q']"),
        (lambda key: SPACE.operator(key), "operator must be one of ['a', 'g', 'h0', 'k', 'n', 'p', 'q']"),
        (lambda key: SPACE.variance(key, VACUUM), f"generator must be one of {GENERATOR_KEYS}"),
        (lambda key: make_config(2, 11, key, VACUUM), f"pointer_gen must be one of {GENERATOR_KEYS}"),
        (lambda key: weak_run(make_config(2, 11, "p", VACUUM), ("q", key)), f"readout must be one of {GENERATOR_KEYS}"),
    ),
    ids=("spectrum", "apply", "operator", "variance", "WeakConfig", "weak_run"),
)
@pytest.mark.parametrize("key", ("x", ["q"]), ids=("unknown", "unhashable"))
def test_every_pointer_key_is_checked_with_one_message(call, message, key):
    """FockSpace checks every key in one place; each caller names its own argument."""
    with pytest.raises(ValueError) as raised:
        call(key)
    assert str(raised.value) == f"{message}, got {key!r}"


@pytest.mark.parametrize(
    "call, what",
    (
        (lambda psi: SPACE.apply("q", psi), "psi"),
        (lambda psi: SPACE.variance("q", psi), "variance state"),
        (lambda psi: make_config(2, 11, "p", psi), "pointer"),
        (lambda psi: pre_measurement(basis_ket(2, 0), np.diag([1.0, -1.0]), 1.0, SPACE, pointer=psi), "pointer"),
    ),
    ids=("apply", "variance", "WeakConfig", "pre_measurement"),
)
def test_every_pointer_length_is_checked_with_one_message(call, what):
    with pytest.raises(ValueError) as raised:
        call(basis_ket(16, 0))
    assert str(raised.value) == f"dimensions differ: {what} has 16, space has {POINTER_DIM}"


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
                space=SPACE,
                pointer_gen="p",
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
            space=FockSpace(2),
            pointer_gen="n",
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
            pre=pre, post=post, obs=obs, space=SPACE, pointer_gen="p", pointer=VACUUM, eps=EPS
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
            space=SPACE,
            pointer_gen="p",
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
            space=SPACE,
            pointer_gen=gen_key,
            pointer=SPACE.coherent(COHERENT_Z),
            eps=0.1,
        )
        oracle = post_select(evolve_dense(cfg), cfg.post, POINTER_DIM)
        assert 1e-4 < oracle.probability < 0.1
        run = weak_run(cfg, ("q", "p"), halving=True, z=COHERENT_Z)
        assert abs(run.selected.probability - oracle.probability) <= 1e-12
        for name in ("q", "p"):
            exact = conditioned_shift(oracle, cfg.pointer, dense_operator(POINTER_DIM, name)).real
            assert abs(run.shifts[name]["measured"] - exact) <= 1e-10
            assert run.shifts[name]["predicted"] is None and run.shifts[name]["residual"] is None
            assert run.halving[name] == {"half_residual": None, "ratio": None}
        exact_a = conditioned_shift(oracle, cfg.pointer, dense_operator(POINTER_DIM, "a"))
        assert abs(run.annihilator["measured"] - exact_a) <= 1e-10
        assert run.annihilator["predicted"] is None and run.annihilator["residual"] is None
        assert run.weak_value is None


class TestEvolveAndPostSelect:
    def test_zero_coupling_leaves_product_state(self):
        cfg = make_config(2, 21, "p", VACUUM, eps=0.0)
        state = evolve_exact(cfg)
        assert np.allclose(state, np.kron(cfg.pre, cfg.pointer), atol=1e-12)

    def test_identity_observable_factorizes(self):
        rng = np.random.default_rng(22)
        pre = random_ket(3, rng)
        cfg = WeakConfig(
            pre=pre,
            post=random_ket(3, rng),
            obs=np.eye(3),
            space=SPACE,
            pointer_gen="p",
            pointer=VACUUM,
            eps=0.3,
        )
        state = evolve_exact(cfg)
        local = unitary_exp(dense_operator(POINTER_DIM, "p"), 0.3) @ VACUUM
        assert np.allclose(state, np.kron(pre, local), atol=1e-10)

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
            approx = overlap * (VACUUM - 1j * eps * ow * SPACE.apply("p", VACUUM))
            residuals.append(np.linalg.norm(sel.raw - approx))
        ratio = residuals[0] / residuals[1]
        assert 3.5 < ratio < 4.5

    @pytest.mark.parametrize("gen_key", GENERATORS)
    def test_evolve_exact_is_the_dense_oracle(self, gen_key):
        """`evolve_exact` on `FockSpace.operator` against `oracles.evolve_dense` on the
        ladder-matrix formulas, at a weak and a strong coupling."""
        for eps in (EPS, 0.3):
            cfg = make_config(3, 27, gen_key, SPACE.coherent(COHERENT_Z), eps=eps)
            assert np.max(np.abs(evolve_exact(cfg) - evolve_dense(cfg))) <= 1e-12

    def test_zero_probability_post_selection_raises(self):
        state = np.kron(basis_ket(2, 0), VACUUM)
        with pytest.raises(ValueError):
            post_select(state, basis_ket(2, 1), POINTER_DIM)

    def test_selection_probability_near_static_overlap(self):
        cfg = make_config(3, 26, "p", VACUUM)
        prob = weak_run(cfg, ()).selected.probability
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
                space=space,
                pointer_gen=gen_key,
                pointer=pointer,
                eps=0.0,
            )
            evolution = _FactoredEvolution(cfg.obs, space, gen_key, cfg.pre, cfg.pointer)
            for eps in (0.0, 1e-3, 0.3, 3.0):
                oracle = post_select(evolve_dense(cfg.with_eps(eps)), cfg.post, pointer_dim)
                run = weak_run(cfg.with_eps(eps), ())
                for factored in (evolution.post_selected(eps, cfg.post), run.selected):
                    assert np.max(np.abs(factored.raw - oracle.raw)) <= 1e-12
                    assert np.max(np.abs(factored.normalized - oracle.normalized)) <= 1e-12
                    assert abs(factored.probability - oracle.probability) <= 1e-12

    def test_zero_probability_post_selection_raises(self):
        cfg = WeakConfig(
            pre=basis_ket(2, 0),
            post=basis_ket(2, 1),
            obs=np.diag([1.0, -1.0]),
            space=SPACE,
            pointer_gen="p",
            pointer=VACUUM,
            eps=EPS,
        )
        with pytest.raises(ValueError, match="zero probability"):
            _FactoredEvolution(cfg.obs, SPACE, "p", cfg.pre, cfg.pointer).post_selected(EPS, cfg.post)

    @pytest.mark.parametrize(
        "pointer", (VACUUM, normalize(np.random.default_rng(5).normal(size=POINTER_DIM) + 0j))
    )
    def test_huge_observable_stays_finite(self, pointer):
        """t·r·o is finite although r·o overflows: at t = 0 the pointer comes back unchanged."""
        evolution = _FactoredEvolution(np.diag([1e307, -1e307]), SPACE, "n", basis_ket(2, 0), pointer)
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
        pointer = space.coherent(z)
        space.spectrum(gen_key)
        assert (256, True) not in eigh_sizes
        eigh_sizes.clear()
        cfg = WeakConfig(
            pre=random_ket(3, rng),
            post=random_ket(3, rng),
            obs=random_hermitian(3, rng),
            space=space,
            pointer_gen=gen_key,
            pointer=pointer,
            eps=EPS,
        )
        weak_run(cfg, ("q", "p"), halving=True, z=z)
        assert eigh_sizes == [(3, True)]

    @pytest.mark.parametrize("gen_key", GENERATORS)
    def test_halving_flow_diagonalizes_the_generator_once(self, eigh_sizes, gen_key):
        """A halving run on cfg and a run on cfg.with_eps(ε/2), for q and p: the
        observable is diagonalized once, and the generator only through its
        cached structural spectrum, never as a complex pointer-size matrix."""
        cfg = make_config(2, 11, gen_key, SPACE.coherent(COHERENT_Z))
        readouts = ("q", "p")
        weak_run(cfg, readouts, halving=True)
        weak_run(cfg.with_eps(EPS / 2), readouts)
        assert eigh_sizes.count((POINTER_DIM, True)) == 0
        assert eigh_sizes.count((2, True)) == 1

    @pytest.mark.parametrize("gen_key", ("n", "q"))
    def test_halving_reads_the_run_at_half_the_coupling(self, gen_key):
        """The halving residual is the residual of the run at ε/2, bit for bit."""
        cfg = make_config(3, 12, gen_key, SPACE.coherent(COHERENT_Z))
        readouts = ("q", "p")
        run = weak_run(cfg, readouts, halving=True)
        half = weak_run(cfg.with_eps(EPS / 2), readouts)
        assert run.weak_value == weak_value(cfg)
        for name in readouts:
            assert run.halving[name]["half_residual"] == half.shifts[name]["residual"]
            assert run.halving[name]["ratio"] == half.shifts[name]["residual"] / run.shifts[name]["residual"]

    @given(
        system_dim=st.integers(2, 4),
        pointer_dim=st.integers(4, 24),
        gen_key=st.sampled_from(sorted(FockSpace.GENERATORS)),
        coherent=st.booleans(),
        orthogonal=st.integers(0, 2).map(lambda k: k == 0),  # pre ⟂ post in a third of the examples
        eps=st.floats(0.0, 1.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_dense_oracle(
        self, system_dim, pointer_dim, gen_key, coherent, orthogonal, eps, seed
    ):
        """Probability, pointer and shifts against `oracles.evolve_dense` and `oracles.post_select`;
        predictions against the dense first-order formula, or None when pre ⟂ post."""
        space, rng = FockSpace(pointer_dim), np.random.default_rng(seed)
        pre, post = random_ket(system_dim, rng), random_ket(system_dim, rng)
        obs = random_hermitian(system_dim, rng)
        if orthogonal:
            post = normalize(post - (pre.conj() @ post) * pre)
            eps = 0.0 if eps < 1e-3 else eps  # in between, nothing or almost nothing survives
        # a coherent pointer where the displacement guard (|z|+3)² ≤ dim allows one
        z = 0.6 - 0.4j if coherent and pointer_dim >= 16 else None
        pointer = random_ket(pointer_dim, rng) if z is None else space.coherent(z)
        cfg = WeakConfig(pre, post, obs, space, gen_key, pointer, eps)
        readouts = ("q", "p")
        if orthogonal and eps == 0.0:
            with pytest.raises(ValueError, match="zero probability"):
                weak_run(cfg, readouts)
            with pytest.raises(ValueError, match="zero probability"):
                post_select(evolve_dense(cfg), post, pointer_dim)
            return
        run = weak_run(cfg, readouts, halving=True, z=z)
        oracle = post_select(evolve_dense(cfg), post, pointer_dim)
        half = post_select(evolve_dense(cfg.with_eps(eps / 2)), post, pointer_dim)
        assert abs(run.selected.probability - oracle.probability) <= 1e-12
        assert np.max(np.abs(run.selected.raw - oracle.raw)) <= 1e-12
        for name in readouts:
            m, shift, halved = dense_operator(pointer_dim, name), run.shifts[name], run.halving[name]
            assert abs(shift["measured"] - conditioned_shift(oracle, pointer, m).real) <= 1e-10
            if orthogonal:
                assert shift["predicted"] is None and shift["residual"] is None
                assert halved == {"half_residual": None, "ratio": None}
                continue
            assert isinstance(shift["predicted"], float)
            assert abs(shift["predicted"] - first_order_shift(cfg, m)) <= 1e-10
            half_shift = conditioned_shift(half, pointer, m).real
            half_residual = abs(half_shift - first_order_shift(cfg.with_eps(eps / 2), m))
            assert abs(halved["half_residual"] - half_residual) <= 1e-10
        if z is not None:
            exact_a = conditioned_shift(oracle, pointer, dense_operator(pointer_dim, "a"))
            assert abs(run.annihilator["measured"] - exact_a) <= 1e-10
            # the first-order ⟨a⟩ shift holds for R = N only
            assert (run.annihilator["predicted"] is None) == (orthogonal or gen_key != "n")
            assert (run.annihilator["residual"] is None) == (run.annihilator["predicted"] is None)
        assert (run.weak_value is None) == orthogonal

    def test_rejects_a_non_hermitian_readout(self):
        cfg = make_config(2, 11, "p", VACUUM)
        with pytest.raises(ValueError, match="readout must be one of .*, got 'a'"):
            weak_run(cfg, ("q", "a"))

    def test_overflow_raises(self):
        cfg = make_config(2, 11, "p", VACUUM, eps=1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(OverflowError, match="weak run overflows at eps = 1e"):
                weak_run(cfg, ("q",))


class TestShiftFormulas:
    def test_predicted_shift_variance_identity(self):
        # Measuring the generator itself: shift = 2*eps*Im(Ow)*Var(R).
        cfg = make_config(2, 31, "p", SPACE.coherent(COHERENT_Z))
        ow = weak_value(cfg)
        for gen_key in ("q", "p"):
            cfg_r = make_config(2, 31, gen_key, SPACE.coherent(COHERENT_Z))
            var = SPACE.variance(gen_key, cfg_r.pointer)
            assert abs(
                shifts(cfg_r, gen_key)[gen_key]["predicted"] - 2 * EPS * ow.imag * var
            ) < 1e-12

    def test_real_weak_value_and_commuting_readout_gives_zero(self):
        rng = np.random.default_rng(32)
        obs = random_hermitian(2, rng)
        _, vecs = np.linalg.eigh(obs)
        cfg = WeakConfig(
            pre=vecs[:, 0],
            post=vecs[:, 0],
            obs=obs,
            space=SPACE,
            pointer_gen="p",
            pointer=VACUUM,
            eps=EPS,
        )
        assert abs(shifts(cfg, "p")["p"]["predicted"]) < 1e-12

    def test_zero_coupling_measured_shift_is_zero(self):
        cfg = make_config(2, 33, "p", VACUUM, eps=0.0)
        assert shifts(cfg, "q")["q"]["measured"] == pytest.approx(0.0, abs=1e-13)

    def test_measured_shift_requires_hermitian_readout(self):
        cfg = make_config(2, 34, "p", VACUUM)
        with pytest.raises(ValueError, match="readout must be one of .*, got 'a'"):
            shifts(cfg, "a")

    def test_vacuum_momentum_coupling_moves_both_quadratures(self):
        # Momentum-generated kicks on a vacuum pointer displace the position
        # mean by eps*Re(Ow) and the momentum mean by eps*Im(Ow).
        cfg = make_config(2, 35, "p", VACUUM)
        ow, run = weak_value(cfg), shifts(cfg, "q", "p")
        assert abs(run["q"]["measured"] - EPS * ow.real) < 1e-8
        assert abs(run["p"]["measured"] - EPS * ow.imag) < 1e-8

    def test_eigenstate_selection_matches_prediction_exactly(self):
        cfg = WeakConfig(
            pre=basis_ket(2, 0),
            post=basis_ket(2, 0),
            obs=np.diag([1.0, -1.0]),
            space=SPACE,
            pointer_gen="p",
            pointer=VACUUM,
            eps=EPS,
        )
        assert shifts(cfg, "q")["q"]["residual"] < 1e-12

    def test_shift_residual_definition(self):
        cfg = make_config(3, 36, "n", SPACE.coherent(COHERENT_Z))
        shift = shifts(cfg, "q")["q"]
        direct = abs(shift["measured"] - shift["predicted"])
        assert shift["residual"] == pytest.approx(direct, abs=1e-15)


class TestHalvingSweep:
    @pytest.mark.parametrize("system_dim,seed", SYSTEM_SEEDS)
    @pytest.mark.parametrize("gen_key", GENERATORS)
    def test_coherent_pointer_residual_is_quadratic(self, system_dim, seed, gen_key):
        # Halving eps quarters |measured - predicted| for every sl(2)
        # generator when the pointer has non-degenerate odd moments.
        pointer = SPACE.coherent(COHERENT_Z)
        cfg = make_config(system_dim, seed, gen_key, pointer)
        run = weak_run(cfg, ("q", "p"), halving=True)
        for name in ("q", "p"):
            full = run.shifts[name]["residual"]
            half = run.halving[name]["half_residual"]
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
        run = weak_run(cfg, ("q", "p"), halving=True)
        for name in ("q", "p"):
            full = run.shifts[name]["residual"]
            half = run.halving[name]["half_residual"]
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
        for shift in shifts(cfg, "q", "p").values():
            assert shift["residual"] < 1e-12

    @pytest.mark.parametrize("gen_key", ("n", "h0"))
    def test_vacuum_is_inert_under_phase_generators(self, gen_key):
        # The vacuum is an eigenvector of both number and oscillator
        # energy, so the coupling only dials a system-side phase.
        cfg = make_config(2, 11, gen_key, VACUUM)
        for shift in shifts(cfg, "q", "p").values():
            assert abs(shift["measured"]) < 1e-12
            assert abs(shift["predicted"]) < 1e-12


class TestChecksOnce:
    """Each library call checks the arrays its caller hands it once, and only those."""

    @staticmethod
    def top_level(calls):
        return [call.name for call in calls if call.caller is None]

    @pytest.mark.parametrize(
        "call, checked",
        (
            (lambda cfg: weak_run(cfg, ("q",)), []),
            (lambda cfg: weak_run(cfg, ("q", "p"), halving=True), []),
            (lambda cfg: weak_run(cfg, (), z=COHERENT_Z), []),
        ),
        ids=("readout", "halving", "annihilator"),
    )
    def test_weak_run_checks_each_operator_once(self, validator_calls, call, checked):
        cfg = make_config(2, 41, "n", SPACE.coherent(COHERENT_Z))
        validator_calls.clear()
        call(cfg)
        assert self.top_level(validator_calls) == checked

    def test_fs_speed_check_checks_h_and_psi_once(self, validator_calls):
        rng = np.random.default_rng(83)
        h, psi = random_hermitian(4, rng), random_ket(4, rng)
        validator_calls.clear()
        fs_speed_check(h, psi, 1e-3)
        assert self.top_level(validator_calls) == ["as_hermitian", "as_unit_ket"]

    def test_pre_measurement_checks_one_operator(self, validator_calls):
        pre_measurement(basis_ket(2, 0), np.diag([1.0, -1.0]), 1.0, SPACE)
        assert sum(call.name == "as_operator" for call in validator_calls) == 1


class TestAnnihilatorShift:
    def test_matches_first_order_prediction(self):
        cfg = make_config(2, 41, "n", SPACE.coherent(COHERENT_Z))
        shift = lowering_shift(cfg)
        exact, approx = shift["measured"], shift["predicted"]
        assert approx == -1j * EPS * COHERENT_Z * weak_value(cfg)
        assert abs(exact - approx) < 1e-2 * abs(approx)

    @pytest.mark.parametrize("gen_key", ("q", "p", "h0", "g", "k"))
    def test_is_only_measured_under_another_generator(self, gen_key):
        """-i·ε·z·O_w is the first-order ⟨a⟩ shift for R = N only: under R = q it
        would be off by as much as the shift itself, so nothing is predicted."""
        space, z = FockSpace(32), 0.5 + 0.5j
        rng = np.random.default_rng(41)
        pre, post, obs = random_ket(2, rng), random_ket(2, rng), random_hermitian(2, rng)
        cfg = WeakConfig(pre, post, obs, space, gen_key, space.coherent(z), EPS)
        shift = weak_run(cfg, (), z=z).annihilator
        assert shift["predicted"] is None and shift["residual"] is None
        oracle = post_select(evolve_dense(cfg), post, 32)
        exact = conditioned_shift(oracle, cfg.pointer, dense_operator(32, "a"))
        assert abs(shift["measured"] - exact) <= 1e-12
        if gen_key == "q":
            old_prediction = -1j * EPS * z * weak_value(cfg)
            assert abs(shift["measured"] - old_prediction) > 0.5 * abs(shift["measured"])

    def test_residual_is_quadratic_in_coupling(self):
        cfg = make_config(2, 41, "n", SPACE.coherent(COHERENT_Z))
        full = lowering_shift(cfg)["residual"]
        half = lowering_shift(cfg.with_eps(EPS / 2))["residual"]
        assert full > 1e-13
        assert 0.15 < half / full < 0.35

    def test_zero_coupling_gives_zero_shift(self):
        cfg = make_config(2, 42, "n", SPACE.coherent(1.0), eps=0.0)
        assert abs(lowering_shift(cfg, 1.0)["measured"]) < 1e-12

    def test_shift_magnitude_doubles_with_amplitude(self):
        moved = []
        for z in (2j, 1j):
            rng = np.random.default_rng(43)
            cfg = WeakConfig(
                pre=random_ket(2, rng),
                post=random_ket(2, rng),
                obs=random_hermitian(2, rng),
                space=SPACE,
                pointer_gen="n",
                pointer=SPACE.coherent(z),
                eps=EPS,
            )
            moved.append(abs(lowering_shift(cfg, z)["measured"]))
        assert 1.9 < moved[0] / moved[1] < 2.1

    def test_quadrature_pair_at_quarter_turn(self):
        # z on the imaginary axis splits the number-coupled shift into
        # dQ = eps*sqrt(2)*|z|*Re(Ow) and dP = eps*sqrt(2)*|z|*Im(Ow).
        z = 2j
        cfg = make_config(2, 44, "n", SPACE.coherent(z))
        ow, run = weak_value(cfg), shifts(cfg, "q", "p")
        scale = EPS * np.sqrt(2) * abs(z)
        assert abs(run["q"]["measured"] - scale * ow.real) < 1e-5
        assert abs(run["p"]["measured"] - scale * ow.imag) < 1e-5

    def test_real_weak_value_suppresses_momentum_component(self):
        obs = np.diag([1.0, -1.0])
        cfg = WeakConfig(
            pre=basis_ket(2, 0),
            post=basis_ket(2, 0),
            obs=obs,
            space=SPACE,
            pointer_gen="n",
            pointer=SPACE.coherent(1.5j),
            eps=EPS,
        )
        run = shifts(cfg, "q", "p")
        dq, dp = run["q"]["measured"], run["p"]["measured"]
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
        state = unitary_exp(np.kron(obs, dense_operator(POINTER_DIM, "p")), lam) @ np.kron(alpha, VACUUM)
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
        state = unitary_exp(np.kron(obs, dense_operator(POINTER_DIM, "p")), lam) @ np.kron(alpha, pointer)
        rho = partial_trace(np.outer(state, state.conj()), (system_dim, POINTER_DIM), keep=1)
        assert np.max(np.abs(record.reduced - rho)) <= 1e-12
        assert abs(record.position_mean - np.trace(rho @ dense_operator(POINTER_DIM, "q")).real) <= 1e-12
        assert abs(record.purity - np.trace(rho @ rho).real) <= 1e-12

    def test_rejects_non_hermitian_observable(self):
        with pytest.raises(ValueError):
            pre_measurement(basis_ket(2, 0), dense_operator(2, "a"), 1.0, SPACE)

    def test_rejects_unnormalized_pointer(self):
        # a scaled pointer used to give a reduced state of trace 9
        with pytest.raises(ValueError, match="pointer state must be normalized"):
            pre_measurement(basis_ket(2, 0), np.diag([1.0, -1.0]), 1.0, SPACE, pointer=3 * VACUUM)

    @pytest.mark.parametrize("lam", (np.nan, np.inf, -np.inf))
    def test_rejects_a_non_finite_coupling(self, lam):
        # NaN or inf used to give position_mean = nan and purity = nan
        with pytest.raises(ValueError, match="lam must be finite"):
            pre_measurement(basis_ket(2, 0), np.diag([1.0, -1.0]), lam, SPACE)

    @pytest.mark.parametrize(
        "alpha, pointer, named",
        (
            (basis_ket(3, 0), None, "alpha has 3, obs has 2"),
            (basis_ket(2, 0), basis_ket(16, 0), "pointer has 16, space has 64"),
        ),
        ids=("alpha", "pointer"),
    )
    def test_names_the_argument_of_another_dimension(self, alpha, pointer, named):
        with pytest.raises(ValueError, match=f"dimensions differ: {named}"):
            pre_measurement(alpha, np.diag([1.0, -1.0]), 1.0, SPACE, pointer=pointer)


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

    def test_names_the_kets_of_another_dimension(self):
        with pytest.raises(ValueError, match="dimensions differ: x has 2, y has 2, z has 3"):
            pancharatnam_phase(basis_ket(2, 0), normalize(np.ones(2)), normalize(np.ones(3)))

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
            fs_speed_check(SPACE.operator("a"), VACUUM, 1e-3)

    @pytest.mark.parametrize("scale", (2.0, 0.5j, 0.0))
    def test_rejects_a_state_that_is_not_normalized(self, scale):
        # ψ gives (1.247, 1.247); 2ψ used to give (0, 0) and ψ/2i (0.850, 0.850)
        h, psi = np.diag([0.0, 1.0, 3.0]), normalize(np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match="state of fs_speed_check must be normalized"):
            fs_speed_check(h, scale * psi, 1e-3)

    def test_rejects_non_positive_step(self):
        with pytest.raises(ValueError):
            fs_speed_check(np.eye(2), basis_ket(2, 0), 0.0)

    def test_names_the_argument_of_another_dimension(self):
        with pytest.raises(ValueError, match="dimensions differ: psi has 3, h has 2"):
            fs_speed_check(np.eye(2), basis_ket(3, 0), 1e-3)

    @pytest.mark.parametrize("dt", (np.nan, np.inf))
    def test_rejects_a_non_finite_step(self, dt):
        with pytest.raises(ValueError, match="step dt must be positive and finite"):
            fs_speed_check(np.eye(2), basis_ket(2, 0), dt)
