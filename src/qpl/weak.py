"""Von Neumann measurement models: weak values, pointer shifts, geometry.

A run couples a system observable O to a pointer generator R through the
exact unitary exp(-i·ε·O⊗R), then post-selects the system on |β⟩.

A `WeakConfig` takes the pointer generator R with its spectrum (r, W), such
as `FockSpace.spectrum(key)` (no complex eigendecomposition), or diagonalizes
R itself.  It checks the pair once and holds the run's one `FactoredEvolution`,
shared by its `with_eps` copies.  The engine `weak_run`, which the CLI reads,
and `selection_probability`, `measured_shift`, `shift_residual` and
`annihilator_shift` all post-select through it.  Only `shift_residual` needs
the weak value, so the other three hold for orthogonal pre and post
selections too.

The exact evolution has one implementation, `FactoredEvolution`.  With
O = V·diag(o)·V† and R = W·diag(r)·W†, the coupling is diagonal in the
product eigenbasis |o_k⟩⊗|r_j⟩, so |o_k⟩ carries the pointer branch
W·exp(-i·ε·o_k·r)·W†|φ⟩ and the post-selected pointer is

    ⟨β|⊗I·exp(-i·ε·O⊗R)·|α⟩⊗|φ⟩ = Σ_k ⟨β|o_k⟩⟨o_k|α⟩·W·exp(-i·ε·o_k·r)·W†|φ⟩

from one spectrum per factor; no composite matrix is formed.
`pre_measurement` mixes the branches with weights |⟨o_k|α⟩|², and
`qubit_pointer_profile` is the two-branch case P = |v_1⟩⟨v_1|: |v_0⟩
carries |α⟩ and |v_1⟩ carries exp(-iλO)|α⟩.  The dense composite oracle
the tests use, `evolve_exact` and `post_select`, stays here while the
benchmark harness in `perfbench/` wraps it.

For small ε the conditioned pointer mean of an observable M moves by

    ΔM = ε·[Im(O_w)·(⟨{M,R}⟩ - 2⟨R⟩⟨M⟩) - i·Re(O_w)·⟨[M,R]⟩]

where O_w = ⟨β|O|α⟩/⟨β|α⟩ is the weak value and all pointer moments are
taken in the initial pointer state.  The formula is linear in ε, so the
prediction at ε/2 is the same moments times ε/2.  The exact simulation is
kept separate from it so the two can be compared; their difference
shrinks quadratically in ε.

For a coherent pointer |z⟩ coupled through the number operator, the mean
of the lowering operator moves by Δ⟨a⟩ = -i·ε·z·O_w to first order (the
pinned phase convention; at arg z = π/2 this reproduces the quadrature
pair ΔQ = ε√2|z|·Re O_w, ΔP = ε√2|z|·Im O_w).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .linalg import as_hermitian, as_ket, as_operator, as_unit_ket, spectral_exp, tensor, unitary_exp

ORTHOGONAL_TOL = 1e-12
PAIRING_TOL = 1e-10


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
        pointer_spectrum: (r, W) with R = W·diag(r)·W†, such as `FockSpace.spectrum(key)`,
                     held to max|W·(r∘W†φ) − R·φ| ≤ PAIRING_TOL·max|r|, which a
                     non-finite entry fails; None runs np.linalg.eigh(R)
    """

    pre: np.ndarray
    post: np.ndarray
    obs: np.ndarray
    pointer_gen: np.ndarray
    pointer: np.ndarray
    eps: float
    pointer_spectrum: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        pre = as_unit_ket(self.pre, "pre state")
        post = as_unit_ket(self.post, "post state")
        obs = as_hermitian(self.obs, "system observable")
        gen = as_hermitian(self.pointer_gen, "pointer generator")
        pointer = as_unit_ket(self.pointer, "pointer state")
        if pre.shape != post.shape or obs.shape[0] != pre.shape[0]:
            raise ValueError("system state and observable dimensions do not match")
        if gen.shape[0] != pointer.shape[0]:
            raise ValueError("pointer state and generator dimensions do not match")
        validated = dict(pre=pre, post=post, obs=obs, pointer_gen=gen, pointer=pointer)
        for name, value in validated.items():
            object.__setattr__(self, name, value)
        self._set_eps(self.eps)
        given = self.pointer_spectrum is not None
        values, vectors = map(np.asarray, self.pointer_spectrum) if given else np.linalg.eigh(gen)
        if values.shape != pointer.shape or vectors.shape != gen.shape:
            raise ValueError("pointer_spectrum must be (r, W): r as long as the pointer, W shaped as R")
        evolution = FactoredEvolution(obs, (values, vectors), pre, pointer)
        r_phi = gen @ pointer
        if given:  # an eigh pair of gen diagonalizes it by construction
            residual = np.abs(vectors @ (values * evolution.pointer_coeffs) - r_phi).max()
            if not residual <= PAIRING_TOL * np.abs(values).max():
                raise ValueError(f"pointer_spectrum does not diagonalize pointer_gen: R·φ is off by {residual:.3g}")
        object.__setattr__(self, "_evolution", evolution)  # with_eps copies share it
        object.__setattr__(self, "_r_phi", r_phi)

    def _set_eps(self, eps) -> None:
        if not np.isfinite(eps) or eps < 0:
            raise ValueError(f"coupling eps must be a finite nonnegative real, got {eps!r}")
        object.__setattr__(self, "eps", float(eps))

    def with_eps(self, eps: float) -> "WeakConfig":
        """This run at coupling `eps`: only eps is checked, everything else is shared."""
        moved = copy.copy(self)
        moved._set_eps(eps)
        return moved


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


class FactoredEvolution:
    """exp(-i·t·O⊗R)·(|α⟩⊗|φ⟩) from the factor spectra, for any coupling t.

    FactoredEvolution(obs, gen_spectrum, pre, pointer): `gen_spectrum` is
    the pointer generator as its spectrum, a pair (r, W) with
    R = W·diag(r)·W† and W unitary, such as `FockSpace.spectrum(key)` or
    `np.linalg.eigh(R)`.  The observable is diagonalized here, and ⟨o_k|α⟩
    and W†|φ⟩ are taken once at construction; each later call costs an
    (np × ns) phase table and pointer-side products, and no composite
    matrix is formed.
    """

    def __init__(self, obs, gen_spectrum, pre, pointer):
        self.obs_values, self.obs_vectors = np.linalg.eigh(obs)
        self.gen_values, self.gen_vectors = gen_spectrum
        self.pre_coeffs = self.obs_vectors.conj().T @ pre  # ⟨o_k|α⟩
        self.pointer_coeffs = self.gen_vectors.conj().T @ pointer  # |φ⟩ in the eigenbasis of R

    def _coupling_phases(self, t: float) -> np.ndarray:
        """exp(-i·t·r_j·o_k): rows follow the eigenvalues r_j of R, columns o_k.

        t scales o_k before the product, so t·r_j·o_k stays finite whenever it is.
        """
        return np.exp(-1j * np.outer(self.gen_values, t * self.obs_values))

    def branches(self, t: float) -> np.ndarray:
        """Column k is the pointer exp(-i·t·o_k·R)|φ⟩ carried by |o_k⟩."""
        return self.gen_vectors @ (self._coupling_phases(t) * self.pointer_coeffs[:, None])

    def post_selected(self, t: float, post) -> PostSelection:
        """The pointer left by ⟨β|⊗I on the evolved state, for |β⟩ = `post`."""
        amplitudes = (post.conj() @ self.obs_vectors) * self.pre_coeffs  # ⟨β|o_k⟩⟨o_k|α⟩
        phases = self._coupling_phases(t)
        return PostSelection.of(self.gen_vectors @ (self.pointer_coeffs * (phases @ amplitudes)))


def evolve_exact(cfg: WeakConfig) -> np.ndarray:
    """Composite ket exp(-i·ε·O⊗R)·(|α⟩⊗|φ⟩), no expansion in ε.

    Dense brute force over the (ns·np)-dimensional composite space: the
    reference that `FactoredEvolution` is tested against.
    """
    coupling = tensor(cfg.obs, cfg.pointer_gen)
    return unitary_exp(coupling, cfg.eps) @ tensor(cfg.pre, cfg.pointer)


def post_select(state, post, pointer_dim: int) -> PostSelection:
    """Apply ⟨β|⊗I to a composite ket and normalize the surviving pointer."""
    state, post = as_ket(state), as_ket(post)
    if post.shape[0] * pointer_dim != state.shape[0]:
        raise ValueError("composite state does not factor into post x pointer dimensions")
    return PostSelection.of(post.conj() @ state.reshape(post.shape[0], pointer_dim))


def conditioned_shift(selection: PostSelection, pointer, m) -> complex:
    """⟨M⟩ in the post-selected pointer minus ⟨M⟩ in the initial pointer."""
    return _shift(as_ket(selection.normalized), as_ket(pointer), as_operator(m))


def _shift(psi: np.ndarray, phi: np.ndarray, m: np.ndarray) -> complex:
    """⟨ψ|M|ψ⟩ − ⟨φ|M|φ⟩ for checked arrays, each term associated as (ψ†M)ψ."""
    return complex(psi.conj() @ m @ psi) - complex(phi.conj() @ m @ phi)


def _shift_rate(cfg: WeakConfig, ow: complex, m) -> complex:
    """ΔM/ε of the first-order formula; ε·rate is the predicted shift at any ε."""
    phi = cfg.pointer
    # matrix-vector products only: ⟨φ|MR|φ⟩ = (φ†M)·(Rφ) and, R being
    # hermitian, ⟨φ|RM|φ⟩ = (Rφ)†·(Mφ)
    m_phi, r_phi = m @ phi, cfg._r_phi
    mr = (phi.conj() @ m) @ r_phi
    rm = r_phi.conj() @ m_phi
    anti = mr + rm - 2 * (phi.conj() @ r_phi) * (phi.conj() @ m_phi)
    return ow.imag * anti - 1j * ow.real * (mr - rm)


def predicted_shift(cfg: WeakConfig, m) -> float:
    """First-order shift formula evaluated in the initial pointer state."""
    return float((cfg.eps * _shift_rate(cfg, weak_value(cfg), as_operator(m))).real)


def annihilator_shift_prediction(cfg: WeakConfig, z: complex) -> complex:
    """First-order form -i·ε·z·O_w for a coherent pointer |z⟩ with R = N."""
    return -1j * cfg.eps * complex(z) * weak_value(cfg)


def _triple(measured, predicted) -> dict:
    return {"measured": measured, "predicted": predicted, "residual": abs(measured - predicted)}


@dataclass(frozen=True)
class WeakRun:
    """A weak run, exact and to first order; `weak_run` says what each field holds."""

    weak_value: complex
    spectral_radius: float  # max |o_k|: a weak value beyond it is amplified
    selected: PostSelection
    shifts: dict[str, dict]
    halving: dict[str, dict] | None
    annihilator: dict | None


def weak_run(cfg: WeakConfig, readouts: dict, halving=False, annihilator=None) -> WeakRun:
    """Evolve `cfg` exactly, through its `FactoredEvolution`, and to first order.

    `shifts[name]` holds the measured and predicted shift of each hermitian
    readout and their distance, the residual.  `halving` adds `halving[name]`:
    the residual at ε/2 and its ratio to the one at ε (~1/4 for a quadratic
    remainder, None below 1e-14).  `annihilator` = (a, z) adds that triple
    for ⟨a⟩ of a coherent pointer |z⟩ under R = N.  Raises ValueError for a
    readout that is not hermitian, when pre ⟂ post or when nothing survives,
    and OverflowError when ε past float range leaves the weak value, the
    probability or a prediction not finite.
    """
    readouts = {name: as_hermitian(m, f"readout {name!r}") for name, m in readouts.items()}
    lowering = None if annihilator is None else as_operator(annihilator[0])
    ow, evolution = weak_value(cfg), cfg._evolution
    selected = evolution.post_selected(cfg.eps, cfg.post)
    half_selected = evolution.post_selected(cfg.eps / 2, cfg.post) if halving else None
    rates = {name: _shift_rate(cfg, ow, m) for name, m in readouts.items()}
    predicted = {name: float((cfg.eps * rate).real) for name, rate in rates.items()}
    # every number measured from a finite post-selected pointer is bounded
    named = {"weak value": ow, "probability": selected.probability}
    named.update((f"{name} predicted shift", value) for name, value in predicted.items())
    if annihilator is not None:
        named["a predicted shift"] = annihilator_shift_prediction(cfg, annihilator[1])
    overflowed = ", ".join(what for what, value in named.items() if not np.isfinite(np.abs(value)))
    if overflowed:
        raise OverflowError(f"weak run overflows at eps = {cfg.eps}: {overflowed} not finite")

    phi, shifts, halves = cfg.pointer, {}, ({} if halving else None)
    for name, m in readouts.items():
        shift = shifts[name] = _triple(_shift(selected.normalized, phi, m).real, predicted[name])
        if halving:
            measured = _shift(half_selected.normalized, phi, m).real
            half = abs(measured - float((cfg.eps / 2 * rates[name]).real))
            ratio = None if shift["residual"] < 1e-14 else half / shift["residual"]
            halves[name] = {"half_residual": half, "ratio": ratio}
    if annihilator is not None:
        measured = _shift(selected.normalized, phi, lowering)
        annihilator = _triple(measured, named["a predicted shift"])
    radius = float(np.max(np.abs(evolution.obs_values)))
    return WeakRun(ow, radius, selected, shifts, halves, annihilator)


def selection_probability(cfg: WeakConfig) -> float:
    return cfg._evolution.post_selected(cfg.eps, cfg.post).probability


def measured_shift(cfg: WeakConfig, m) -> float:
    """Exact conditioned shift ⟨M⟩_final - ⟨M⟩_initial of a hermitian M."""
    m = as_hermitian(m, "pointer observable of measured_shift")
    return float(_shift(cfg._evolution.post_selected(cfg.eps, cfg.post).normalized, cfg.pointer, m).real)


def shift_residual(cfg: WeakConfig, m) -> float:
    """|measured - predicted|; shrinks as ε² when the formula applies."""
    m = as_hermitian(m, "pointer observable of shift_residual")
    measured = float(_shift(cfg._evolution.post_selected(cfg.eps, cfg.post).normalized, cfg.pointer, m).real)
    return abs(measured - float((cfg.eps * _shift_rate(cfg, weak_value(cfg), m)).real))


def annihilator_shift(cfg: WeakConfig, a) -> complex:
    """Exact conditioned shift of the (non-hermitian) lowering operator."""
    return _shift(cfg._evolution.post_selected(cfg.eps, cfg.post).normalized, cfg.pointer, as_operator(a))


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
    alpha = as_unit_ket(alpha, "system state")
    obs = as_hermitian(obs, "observable of pre_measurement")
    phi = space.vacuum() if pointer is None else as_unit_ket(pointer, "pointer state")
    evolution = FactoredEvolution(obs, space.spectrum("p"), alpha, phi)
    branches = evolution.branches(lam)
    reduced = (branches * np.abs(evolution.pre_coeffs) ** 2) @ branches.conj().T
    # reduced and q are hermitian, so tr(ρ·q) = tr(ρ†·q) and tr(ρ²) = tr(ρ†·ρ)
    position_mean = float(np.vdot(reduced, space.q).real)
    purity = float(np.vdot(reduced, reduced).real)
    return PreMeasurement(reduced=reduced, position_mean=position_mean, purity=purity)


def pancharatnam_phase(x, y, z) -> float:
    """Triangle phase arg(⟨x|z⟩·⟨z|y⟩·⟨y|x⟩) in (-π, π].

    Invariant under independent rephasing of all three kets and
    antisymmetric under swapping any two of them.  Errors when the
    triangle is degenerate (some pairwise overlap vanishes).
    """
    x, y, z = as_ket(x), as_ket(y), as_ket(z)
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
    pre = as_unit_ket(pre, "pre state")
    obs = as_hermitian(obs, "system observable")
    phases = np.asarray(phases, dtype=float)
    if phases.ndim != 1 or phases.size < 3:
        raise ValueError("need a 1-D scan of at least 3 phases")
    # Pointer kets are held in the v basis, where P = diag(0, 1) and the
    # reference ket is (1, 1)/√2.  The azimuth diag(1, e^{iφ}) commutes with
    # the coupling, so each scanned pointer is the φ = 0 one, rotated: branch
    # by branch (weights |⟨o_k|α⟩|²) without `post`, or once selected.
    start = np.array([np.cos(theta / 2), np.sin(theta / 2)])
    evolution = FactoredEvolution(obs, (np.array([0.0, 1.0]), np.eye(2)), pre, start)
    azimuths = np.exp(1j * phases[:, None] * np.array([0.0, 1.0]))
    if post is None:
        overlaps = azimuths @ evolution.branches(coupling) / np.sqrt(2)
        probs = np.abs(overlaps) ** 2 @ np.abs(evolution.pre_coeffs) ** 2
    else:
        selected = evolution.post_selected(coupling, as_ket(post))
        probs = np.abs(azimuths @ selected.normalized) ** 2 / 2
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
    h = as_hermitian(h, "hamiltonian of fs_speed_check")
    psi = as_ket(psi)
    if dt <= 0:
        raise ValueError("step dt must be positive")
    dpsi = spectral_exp(*np.linalg.eigh(h), dt) @ psi - psi
    ds2 = float((dpsi.conj() @ dpsi).real - abs(psi.conj() @ dpsi) ** 2)
    speed = np.sqrt(max(ds2, 0.0)) / dt
    mean = float((psi.conj() @ h @ psi).real)
    mean2 = float((psi.conj() @ (h @ h) @ psi).real)
    delta_e = float(np.sqrt(max(mean2 - mean * mean, 0.0)))
    return float(speed), delta_e
