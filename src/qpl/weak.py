"""Von Neumann measurement models: weak values, pointer shifts, geometry.

A run couples a system observable O to a pointer generator R through the
exact unitary exp(-i·ε·O⊗R), then post-selects the system on |β⟩.

The exact evolution is computed factor by factor (`FactoredEvolution`).
With O = V·diag(o)·V† and R = W·diag(r)·W†, the coupling is diagonal in
the product eigenbasis |o_k⟩⊗|r_j⟩ with phases exp(-i·ε·o_k·r_j), so the
post-selected pointer is

    ⟨β|⊗I·exp(-i·ε·O⊗R)·|α⟩⊗|φ⟩ = Σ_k ⟨β|o_k⟩⟨o_k|α⟩·W·exp(-i·ε·o_k·r)·W†|φ⟩

at the cost of one eigendecomposition per factor and an (np × ns) phase
table per ε; no composite matrix is formed.  `pre_measurement` and
`qubit_pointer_profile` use the same phase table.  `evolve_exact` builds
the dense composite unitary and is kept only as the brute-force oracle the
tests compare against.

For small ε the conditioned pointer mean of an observable M moves by

    ΔM = ε·[Im(O_w)·(⟨{M,R}⟩ - 2⟨R⟩⟨M⟩) - i·Re(O_w)·⟨[M,R]⟩]

where O_w = ⟨β|O|α⟩/⟨β|α⟩ is the weak value and all pointer moments are
taken in the initial pointer state.  The exact simulation is kept fully
separate from this first-order formula so the two can be compared; their
difference shrinks quadratically in ε.

For a coherent pointer |z⟩ coupled through the number operator, the mean
of the lowering operator moves by Δ⟨a⟩ = -i·ε·z·O_w to first order (the
pinned phase convention; at arg z = π/2 this reproduces the quadrature
pair ΔQ = ε√2|z|·Re O_w, ΔP = ε√2|z|·Im O_w).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linalg import (
    as_ket,
    as_operator,
    expectation,
    is_hermitian,
    tensor,
    unitary_exp,
)

ORTHOGONAL_TOL = 1e-12


@dataclass(frozen=True)
class WeakConfig:
    """One weak-measurement run.

    Fields:
        pre:         normalized system pre-selection |α⟩
        post:        normalized system post-selection |β⟩
        obs:         hermitian system observable O
        pointer_gen: hermitian pointer generator R
        pointer:     normalized initial pointer state |φ⟩
        eps:         coupling strength ε ≥ 0
    """

    pre: np.ndarray
    post: np.ndarray
    obs: np.ndarray
    pointer_gen: np.ndarray
    pointer: np.ndarray
    eps: float

    def __post_init__(self):
        pre = as_ket(self.pre)
        post = as_ket(self.post)
        obs = as_operator(self.obs)
        gen = as_operator(self.pointer_gen)
        pointer = as_ket(self.pointer)
        if pre.shape != post.shape or obs.shape[0] != pre.shape[0]:
            raise ValueError("system state and observable dimensions do not match")
        if gen.shape[0] != pointer.shape[0]:
            raise ValueError("pointer state and generator dimensions do not match")
        for name, ket in (("pre", pre), ("post", post), ("pointer", pointer)):
            if abs(np.linalg.norm(ket) - 1.0) > 1e-10:
                raise ValueError(f"{name} state must be normalized")
        if not is_hermitian(obs):
            raise ValueError("system observable must be hermitian")
        if not is_hermitian(gen):
            raise ValueError("pointer generator must be hermitian")
        if not np.isfinite(self.eps) or self.eps < 0:
            raise ValueError(f"coupling eps must be a finite nonnegative real, got {self.eps!r}")
        object.__setattr__(self, "pre", pre)
        object.__setattr__(self, "post", post)
        object.__setattr__(self, "obs", obs)
        object.__setattr__(self, "pointer_gen", gen)
        object.__setattr__(self, "pointer", pointer)
        object.__setattr__(self, "eps", float(self.eps))

    def with_eps(self, eps: float) -> "WeakConfig":
        return replace(self, eps=eps)


@dataclass(frozen=True)
class PostSelection:
    """Pointer state after projecting the system; `raw` is unnormalized."""

    raw: np.ndarray
    normalized: np.ndarray
    probability: float

    @classmethod
    def of(cls, raw: np.ndarray) -> "PostSelection":
        """Normalize a surviving pointer; errors when nothing survives."""
        prob = float(np.linalg.norm(raw) ** 2)
        if prob <= ORTHOGONAL_TOL**2:
            raise ValueError("post-selection has zero probability on this state")
        return cls(raw=raw, normalized=raw / np.sqrt(prob), probability=prob)


def weak_value(cfg: WeakConfig) -> complex:
    """O_w = ⟨β|O|α⟩ / ⟨β|α⟩.  Errors when pre and post are orthogonal."""
    denom = complex(cfg.post.conj() @ cfg.pre)
    if abs(denom) <= ORTHOGONAL_TOL:
        raise ValueError(
            "pre/post selections are orthogonal: <post|pre> = 0, weak value undefined"
        )
    return complex(cfg.post.conj() @ cfg.obs @ cfg.pre) / denom


def _coupling_phases(t: float, gen_values, obs_values) -> np.ndarray:
    """exp(-i·t·r_j·o_k): rows follow the eigenvalues r_j of the pointer
    generator, columns the eigenvalues o_k of the system observable."""
    return np.exp(-1j * t * np.outer(gen_values, obs_values))


class FactoredEvolution:
    """exp(-i·ε·O⊗R)·(|α⟩⊗|φ⟩) post-selected on ⟨β|, from the factor spectra.

    Both eigendecompositions are taken once at construction; each call of
    `post_selected` then costs an (np × ns) phase table and one pointer-side
    matrix-vector product.
    """

    def __init__(self, cfg: WeakConfig):
        self.obs_values, obs_vectors = np.linalg.eigh(cfg.obs)
        self.gen_values, self.gen_vectors = np.linalg.eigh(cfg.pointer_gen)
        # ⟨β|o_k⟩⟨o_k|α⟩ per eigenvector of O; |φ⟩ in the eigenbasis of R
        self.amplitudes = (cfg.post.conj() @ obs_vectors) * (obs_vectors.conj().T @ cfg.pre)
        self.pointer_coeffs = self.gen_vectors.conj().T @ cfg.pointer

    def post_selected(self, eps: float) -> PostSelection:
        phases = _coupling_phases(eps, self.gen_values, self.obs_values)
        return PostSelection.of(self.gen_vectors @ (self.pointer_coeffs * (phases @ self.amplitudes)))


def evolve_exact(cfg: WeakConfig) -> np.ndarray:
    """Composite ket exp(-i·ε·O⊗R)·(|α⟩⊗|φ⟩), no expansion in ε.

    Dense brute force over the (ns·np)-dimensional composite space: the
    reference that `FactoredEvolution` is tested against.
    """
    coupling = tensor(cfg.obs, cfg.pointer_gen)
    return unitary_exp(coupling, cfg.eps) @ tensor(cfg.pre, cfg.pointer)


def post_select(state, post, pointer_dim: int) -> PostSelection:
    """Apply ⟨β|⊗I to a composite ket and normalize the surviving pointer."""
    state = as_ket(state)
    post = as_ket(post)
    if post.shape[0] * pointer_dim != state.shape[0]:
        raise ValueError("composite state does not factor into post x pointer dimensions")
    return PostSelection.of(post.conj() @ state.reshape(post.shape[0], pointer_dim))


def conditioned_shift(selection: PostSelection, pointer, m) -> complex:
    """⟨M⟩ in the post-selected pointer minus ⟨M⟩ in the initial pointer."""
    return expectation(m, selection.normalized) - expectation(m, pointer)


def selection_probability(cfg: WeakConfig) -> float:
    return FactoredEvolution(cfg).post_selected(cfg.eps).probability


def measured_shift(cfg: WeakConfig, m) -> float:
    """Exact conditioned shift ⟨M⟩_final - ⟨M⟩_initial of a hermitian M."""
    m = as_operator(m)
    if not is_hermitian(m):
        raise ValueError("measured_shift expects a hermitian pointer observable")
    final = FactoredEvolution(cfg).post_selected(cfg.eps)
    return float(conditioned_shift(final, cfg.pointer, m).real)


def predicted_shift(cfg: WeakConfig, m) -> float:
    """First-order shift formula evaluated in the initial pointer state."""
    m = as_operator(m)
    ow = weak_value(cfg)
    phi = cfg.pointer
    # matrix-vector products only: ⟨φ|MR|φ⟩ = (φ†M)·(Rφ) and, R being
    # hermitian, ⟨φ|RM|φ⟩ = (Rφ)†·(Mφ)
    m_phi = m @ phi
    r_phi = cfg.pointer_gen @ phi
    mr = (phi.conj() @ m) @ r_phi
    rm = r_phi.conj() @ m_phi
    anti = mr + rm
    mean_r = phi.conj() @ r_phi
    mean_m = phi.conj() @ m_phi
    comm = mr - rm
    value = cfg.eps * (ow.imag * (anti - 2 * mean_r * mean_m) - 1j * ow.real * comm)
    return float(value.real)


def shift_residual(cfg: WeakConfig, m) -> float:
    """|measured - predicted|; shrinks as ε² when the formula applies."""
    return abs(measured_shift(cfg, m) - predicted_shift(cfg, m))


def annihilator_shift(cfg: WeakConfig, a) -> complex:
    """Exact conditioned shift of the (non-hermitian) lowering operator."""
    final = FactoredEvolution(cfg).post_selected(cfg.eps)
    return complex(conditioned_shift(final, cfg.pointer, as_operator(a)))


def annihilator_shift_prediction(cfg: WeakConfig, z: complex) -> complex:
    """First-order form -i·ε·z·O_w for a coherent pointer |z⟩ with R = N."""
    return -1j * cfg.eps * complex(z) * weak_value(cfg)


@dataclass(frozen=True)
class PreMeasurement:
    """Strong pre-measurement record: reduced pointer state and moments."""

    reduced: np.ndarray
    position_mean: float
    purity: float


def pre_measurement(alpha, obs, lam: float, space, pointer=None) -> PreMeasurement:
    """Strong coupling exp(-i·λ·O⊗P) traced over the system.

    The reduced pointer state is the mixture Σ_j |α_j|²·|ψ_j⟩⟨ψ_j| of
    momentum-translated copies ψ_j = exp(-i·λ·o_j·P)|φ⟩, one per
    eigenvalue o_j of the observable, and its position mean sits at
    ⟨Q⟩_φ + λ·⟨O⟩_α.
    """
    alpha = as_ket(alpha)
    obs = as_operator(obs)
    if not is_hermitian(obs):
        raise ValueError("pre_measurement expects a hermitian observable")
    if abs(np.linalg.norm(alpha) - 1.0) > 1e-10:
        raise ValueError("system state must be normalized")
    phi = space.vacuum() if pointer is None else as_ket(pointer)
    obs_values, obs_vectors = np.linalg.eigh(obs)
    weights = np.abs(obs_vectors.conj().T @ alpha) ** 2
    p_values, p_vectors = np.linalg.eigh(space.p)
    # column j is the branch exp(-i·λ·o_j·P)|φ⟩, applied in the eigenbasis of P
    phases = _coupling_phases(lam, p_values, obs_values)
    branches = p_vectors @ (phases * (p_vectors.conj().T @ phi)[:, None])
    reduced = (branches * weights) @ branches.conj().T
    position_mean = float(np.trace(reduced @ space.q).real)
    purity = float(np.trace(reduced @ reduced).real)
    return PreMeasurement(reduced=reduced, position_mean=position_mean, purity=purity)


def pancharatnam_phase(x, y, z) -> float:
    """Triangle phase arg(⟨x|z⟩·⟨z|y⟩·⟨y|x⟩) in (-π, π].

    Invariant under independent rephasing of all three kets and
    antisymmetric under swapping any two of them.  Errors when the
    triangle is degenerate (some pairwise overlap vanishes).
    """
    x = as_ket(x)
    y = as_ket(y)
    z = as_ket(z)
    xz = complex(x.conj() @ z)
    zy = complex(z.conj() @ y)
    yx = complex(y.conj() @ x)
    if min(abs(xz), abs(zy), abs(yx)) <= ORTHOGONAL_TOL:
        raise ValueError("pancharatnam phase undefined: a pairwise overlap vanishes")
    return float(np.angle(xz * zy * yx))


@dataclass(frozen=True)
class PointerScan:
    """Probability profile over a phase scan of the qubit pointer azimuth.

    `maximizer` is recovered from the first Fourier harmonic of the
    profile, which is exact for the cosine-shaped profiles produced here
    when the scan is a uniform grid over one full period.  `modulation`
    is the amplitude of that harmonic; a flat profile has modulation 0.
    """

    phases: np.ndarray
    probabilities: np.ndarray
    maximizer: float
    modulation: float


def qubit_pointer_profile(pre, obs, coupling: float, theta: float, phases, post=None) -> PointerScan:
    """Probability of finding a qubit pointer back in (|v_0⟩+|v_1⟩)/√2.

    The pointer starts in cos(θ/2)|v_0⟩ + e^{iφ}sin(θ/2)|v_1⟩ with φ
    running over `phases`, couples through exp(-i·λ·O⊗P) where P is the
    qubit momentum observable Σ_σ σ|v_σ⟩⟨v_σ|, and is measured either
    after tracing out the system (post=None) or after post-selecting the
    system on `post`.
    """
    pre = as_ket(pre)
    obs = as_operator(obs)
    if not is_hermitian(obs):
        raise ValueError("system observable must be hermitian")
    phases = np.asarray(phases, dtype=float)
    if phases.ndim != 1 or phases.size < 3:
        raise ValueError("need a 1-D scan of at least 3 phases")
    obs_values, obs_vectors = np.linalg.eigh(obs)
    pre_coeffs = obs_vectors.conj().T @ pre
    # P has eigenvalues (0, 1) on |v_0⟩, |v_1⟩: branch k keeps the |v_0⟩
    # amplitude and multiplies the |v_1⟩ amplitude by e^{-iλ·o_k}.  Pointer
    # kets are held in the v basis, where the reference ket is (1, 1)/√2.
    kicks = _coupling_phases(coupling, np.array([0.0, 1.0]), obs_values)
    if post is not None:
        selected = kicks @ ((as_ket(post).conj() @ obs_vectors) * pre_coeffs)
    reference = np.ones(2) / np.sqrt(2)
    probs = np.empty(phases.size)
    for i, phi in enumerate(phases):
        pointer = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
        if post is None:
            overlaps = reference @ (kicks * pointer[:, None])
            probs[i] = float(np.abs(pre_coeffs) ** 2 @ np.abs(overlaps) ** 2)
        else:
            sel = PostSelection.of(pointer * selected)
            probs[i] = float(abs(reference @ sel.normalized) ** 2)
    harmonic = complex(np.sum(probs * np.exp(1j * phases)))
    maximizer = float(np.angle(harmonic)) % (2 * np.pi)
    modulation = 2 * abs(harmonic) / phases.size
    return PointerScan(phases=phases, probabilities=probs, maximizer=maximizer, modulation=modulation)


def fs_speed_check(h, psi, dt: float) -> tuple[float, float]:
    """(finite-difference ray speed, energy uncertainty) for one exact step.

    The squared ray-space line element of dψ = exp(-i·H·dt)ψ - ψ is
    ds² = ⟨dψ|dψ⟩ - |⟨ψ|dψ⟩|², and ds/dt converges to
    δE = sqrt(⟨H²⟩ - ⟨H⟩²) as dt → 0.
    """
    h = as_operator(h)
    psi = as_ket(psi)
    if dt <= 0:
        raise ValueError("step dt must be positive")
    dpsi = unitary_exp(h, dt) @ psi - psi
    ds2 = float((dpsi.conj() @ dpsi).real - abs(psi.conj() @ dpsi) ** 2)
    speed = np.sqrt(max(ds2, 0.0)) / dt
    mean = float(expectation(h, psi).real)
    mean2 = float(expectation(h @ h, psi).real)
    delta_e = float(np.sqrt(max(mean2 - mean * mean, 0.0)))
    return float(speed), delta_e
