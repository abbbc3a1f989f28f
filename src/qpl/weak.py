"""Von Neumann measurement models: weak values, pointer shifts, geometry.

A run couples a system observable O to a pointer generator R through the
exact unitary exp(-i·ε·O⊗R), then post-selects the system on |β⟩.

The pointer is a truncated mode, a `FockSpace`, and a `WeakConfig` names its
generator R by key in `FockSpace.GENERATORS`.  The config holds the run's one
private `_FactoredEvolution`, shared by its `with_eps` copies.  `weak_run`
post-selects through it and returns the exact and first-order record for
readouts named by key; for orthogonal pre and post it keeps the exact
quantities and sets the weak value and the predictions to None.  Every
pointer operator has at most two nonzero diagonals, so R·φ and each pointer
mean ⟨ψ|M|ψ⟩ come from its bands (`FockSpace.apply`), in O(D), and a run
forms no D×D pointer operator.

The exact evolution has one implementation, `_FactoredEvolution`.  Only
`WeakConfig` and `pre_measurement` build it, and they check what they pass.
With O = V·diag(o)·V† and R = W·diag(r)·W†, the coupling is diagonal in the
product eigenbasis |o_k⟩⊗|r_j⟩, so |o_k⟩ carries the pointer branch
W·exp(-i·ε·o_k·r)·W†|φ⟩ and the post-selected pointer is

    ⟨β|⊗I·exp(-i·ε·O⊗R)·|α⟩⊗|φ⟩ = Σ_k ⟨β|o_k⟩⟨o_k|α⟩·W·exp(-i·ε·o_k·r)·W†|φ⟩

from one spectrum per factor; no composite matrix is formed.  For the
diagonal n and h0, W = I and the products with W are skipped.
`pre_measurement` mixes the branches with weights |⟨o_k|α⟩|².
`evolve_exact` (np.kron of O and `FockSpace.operator(key)`, then one dense
eigh of the composite coupling) runs in no request and is not exported from
`qpl`; it stays here only because `perfbench/` wraps it by name.

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
pair ΔQ = ε√2|z|·Re O_w, ΔP = ε√2|z|·Im O_w); `weak_run` predicts it only
under pointer_gen = "n", the R = N it holds for.  A bad pointer key or
length gets the one message `FockSpace` gives for each.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .fock import FockSpace
from .linalg import as_hermitian, as_ket, as_unit_ket, require_finite, require_same_dims
from .linalg import spectral_exp

ORTHOGONAL_TOL = 1e-12


@dataclass(frozen=True)
class WeakConfig:
    """One weak-measurement run.

    Fields:
        pre:         normalized system pre-selection |α⟩
        post:        normalized system post-selection |β⟩
        obs:         hermitian system observable O
        space:       the pointer mode, a `FockSpace`
        pointer_gen: key in `FockSpace.GENERATORS` of the pointer generator R
        pointer:     normalized initial pointer state |φ⟩ of that mode
        eps:         coupling strength ε ≥ 0
    """

    pre: np.ndarray
    post: np.ndarray
    obs: np.ndarray
    space: FockSpace
    pointer_gen: str
    pointer: np.ndarray
    eps: float

    def __post_init__(self):
        pre = as_unit_ket(self.pre, "pre state")
        post = as_unit_ket(self.post, "post state")
        obs = as_hermitian(self.obs, "system observable")
        pointer = as_unit_ket(self.pointer, "pointer state")
        require_same_dims(pre=pre, post=post, obs=obs)
        space, key = self.space, self.pointer_gen
        if not isinstance(space, FockSpace):
            raise ValueError(f"space must be a FockSpace, got {type(space).__name__}")
        space._check_key("pointer_gen", key)
        space._fits(pointer, "pointer")
        for name, value in dict(pre=pre, post=post, obs=obs, pointer=pointer).items():
            object.__setattr__(self, name, value)
        self._set_eps(self.eps)
        # with_eps copies share it
        object.__setattr__(self, "_evolution", _FactoredEvolution(obs, space, key, pre, pointer))

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


def weak_value(cfg: WeakConfig) -> complex:
    """O_w = ⟨β|O|α⟩ / ⟨β|α⟩.  Errors when pre and post are orthogonal."""
    denom = complex(cfg.post.conj() @ cfg.pre)
    if abs(denom) <= ORTHOGONAL_TOL:
        raise ValueError(
            "pre/post selections are orthogonal: <post|pre> = 0, weak value undefined"
        )
    return complex(cfg.post.conj() @ cfg.obs @ cfg.pre) / denom


class _FactoredEvolution:
    """exp(-i·t·O⊗R)·(|α⟩⊗|φ⟩) from the factor spectra, for any coupling t.

    R is the generator `key` of the `FockSpace` `space`, as its cached spectrum
    (r, W) = `space.spectrum(key)`, W = None for a diagonal R, and R·φ from its
    bands.  The observable is diagonalized here, and ⟨o_k|α⟩ and W†|φ⟩ are
    taken once at construction; each later call costs an (np × ns) phase table
    and pointer-side products, and no composite matrix is formed.
    """

    def __init__(self, obs, space, key, pre, pointer):
        self.obs_values, self.obs_vectors = np.linalg.eigh(obs)
        self.gen_values, self.gen_vectors = space.spectrum(key)
        self.r_phi = space._apply(key, pointer)  # R·φ
        self.pre_coeffs = self.obs_vectors.conj().T @ pre  # ⟨o_k|α⟩
        # |φ⟩ in the eigenbasis of R
        self.pointer_coeffs = pointer if self.gen_vectors is None else self.gen_vectors.conj().T @ pointer

    def _from_eigenbasis(self, coeffs: np.ndarray) -> np.ndarray:
        """W·coeffs: pointer kets from their coefficients in the eigenbasis of R."""
        return coeffs if self.gen_vectors is None else self.gen_vectors @ coeffs

    def _coupling_phases(self, t: float) -> np.ndarray:
        """exp(-i·t·r_j·o_k): rows follow the eigenvalues r_j of R, columns o_k.

        t scales o_k before the product, so t·r_j·o_k stays finite whenever it is.
        """
        return np.exp(-1j * np.outer(self.gen_values, t * self.obs_values))

    def branches(self, t: float) -> np.ndarray:
        """Column k is the pointer exp(-i·t·o_k·R)|φ⟩ carried by |o_k⟩."""
        return self._from_eigenbasis(self._coupling_phases(t) * self.pointer_coeffs[:, None])

    def post_selected(self, t: float, post) -> PostSelection:
        """The pointer left by ⟨β|⊗I on the evolved state, for |β⟩ = `post`, normalized;
        errors when nothing survives."""
        amplitudes = (post.conj() @ self.obs_vectors) * self.pre_coeffs  # ⟨β|o_k⟩⟨o_k|α⟩
        phases = self._coupling_phases(t)
        raw = self._from_eigenbasis(self.pointer_coeffs * (phases @ amplitudes))
        prob = float(np.linalg.norm(raw) ** 2)
        if prob <= ORTHOGONAL_TOL**2:
            raise ValueError("post-selection has zero probability on this state")
        return PostSelection(raw=raw, normalized=raw / np.sqrt(prob), probability=prob)


def evolve_exact(cfg: WeakConfig) -> np.ndarray:
    """Composite ket exp(-i·ε·O⊗R)·(|α⟩⊗|φ⟩), no expansion in ε.

    Dense brute force over the (ns·np)-dimensional composite space, index
    i_s·np + i_p, with the dense pointer generator of `FockSpace.operator`.
    """
    coupling = np.kron(cfg.obs, cfg.space.operator(cfg.pointer_gen))
    return spectral_exp(*np.linalg.eigh(coupling), cfg.eps) @ np.kron(cfg.pre, cfg.pointer)


def _shift_rate(cfg: WeakConfig, ow: complex, m_phi: np.ndarray) -> complex:
    """ΔM/ε of the first-order formula for a hermitian M, from Mφ; ε·rate is the
    predicted shift at any ε."""
    phi, r_phi = cfg.pointer, cfg._evolution.r_phi
    # M and R hermitian: ⟨φ|MR|φ⟩ = (Mφ)†·(Rφ) and ⟨φ|RM|φ⟩ = (Rφ)†·(Mφ)
    mr, rm = np.vdot(m_phi, r_phi), np.vdot(r_phi, m_phi)
    anti = mr + rm - 2 * np.vdot(phi, r_phi) * np.vdot(phi, m_phi)
    return ow.imag * anti - 1j * ow.real * (mr - rm)


def _triple(measured, predicted) -> dict:
    residual = None if predicted is None else abs(measured - predicted)
    return {"measured": measured, "predicted": predicted, "residual": residual}


@dataclass(frozen=True)
class WeakRun:
    """A weak run, exact and to first order; `weak_run` says what each field holds."""

    weak_value: complex | None  # None when pre ⟂ post
    spectral_radius: float  # max |o_k|: a weak value beyond it is amplified
    selected: PostSelection
    shifts: dict[str, dict]
    halving: dict[str, dict] | None
    annihilator: dict | None


def weak_run(cfg: WeakConfig, readouts, halving=False, z=None) -> WeakRun:
    """Evolve `cfg` exactly, through its `_FactoredEvolution`, and to first order.

    `readouts` names pointer observables M by key in `FockSpace.GENERATORS`,
    such as ("q", "p").  `shifts[key]` holds the measured and predicted shift
    of ⟨M⟩ and their distance, the residual.  `halving` adds `halving[key]`:
    the residual at ε/2 and its ratio to the one at ε (~1/4 for a quadratic
    remainder, None below 1e-14).  The amplitude `z` of a coherent pointer |z⟩
    adds the `annihilator` triple for ⟨a⟩, predicted as -i·ε·z·O_w only under
    pointer_gen = "n" (R = N) and else None with its residual.  If pre ⟂ post,
    the probability and the measured shifts stay exact, and the weak value and
    every prediction, residual and ratio are None.  Raises ValueError for a
    readout key that is not a generator ("readout must be one of [...]") or
    when nothing survives, and OverflowError when ε past float range leaves the
    weak value, the probability or a prediction not finite.
    """
    space, phi = cfg.space, cfg.pointer
    for key in readouts:
        space._check_key("readout", key)
    evolution, eps = cfg._evolution, cfg.eps
    ow = weak_value(cfg) if abs(cfg.post.conj() @ cfg.pre) > ORTHOGONAL_TOL else None
    selected = evolution.post_selected(eps, cfg.post)
    half_selected = evolution.post_selected(eps / 2, cfg.post) if halving and ow is not None else None
    m_phis = {key: space._apply(key, phi) for key in readouts}
    rates = {} if ow is None else {key: _shift_rate(cfg, ow, m_phi) for key, m_phi in m_phis.items()}
    predicted = {key: float((eps * rate).real) for key, rate in rates.items()}
    # every number measured from a finite post-selected pointer is bounded
    named = {"weak value": ow, "probability": selected.probability}
    named.update((f"{key} predicted shift", value) for key, value in predicted.items())
    if z is not None and ow is not None and cfg.pointer_gen == "n":
        named["a predicted shift"] = -1j * eps * complex(z) * ow
    bad = [what for what, value in named.items() if value is not None and not np.isfinite(np.abs(value))]
    if bad:
        raise OverflowError(f"weak run overflows at eps = {eps}: {', '.join(bad)} not finite")

    def mean(key, psi):
        """⟨ψ|X|ψ⟩ of the pointer operator `key`."""
        return complex(np.vdot(psi, space._apply(key, psi)))

    shifts = {}
    halves = {key: {"half_residual": None, "ratio": None} for key in readouts} if halving else None
    for key, m_phi in m_phis.items():
        initial = complex(np.vdot(phi, m_phi))
        full = shifts[key] = _triple((mean(key, selected.normalized) - initial).real, predicted.get(key))
        if half_selected is not None:
            half = abs((mean(key, half_selected.normalized) - initial).real - float((eps / 2 * rates[key]).real))
            ratio = None if full["residual"] < 1e-14 else half / full["residual"]
            halves[key] = {"half_residual": half, "ratio": ratio}
    annihilator = None
    if z is not None:
        measured = mean("a", selected.normalized) - mean("a", phi)
        annihilator = _triple(measured, named.get("a predicted shift"))
    radius = float(np.max(np.abs(evolution.obs_values)))
    return WeakRun(ow, radius, selected, shifts, halves, annihilator)


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
    require_same_dims(alpha=alpha, obs=obs)
    space._fits(phi, "pointer")
    require_finite(lam=lam)
    evolution = _FactoredEvolution(obs, space, "p", alpha, phi)
    branches = evolution.branches(lam)
    reduced = (branches * np.abs(evolution.pre_coeffs) ** 2) @ branches.conj().T
    # ρ is hermitian: tr(ρ·q) = 2·Re Σ_j b_j·ρ[j+1, j] over the upper q band b, and tr(ρ²) = tr(ρ†·ρ)
    position_mean = float(2 * (space._bands["q"][0][2] @ np.diagonal(reduced, -1)).real)
    purity = float(np.vdot(reduced, reduced).real)
    return PreMeasurement(reduced=reduced, position_mean=position_mean, purity=purity)


def pancharatnam_phase(x, y, z) -> float:
    """Triangle phase arg(⟨x|z⟩·⟨z|y⟩·⟨y|x⟩) in (-π, π].

    Invariant under independent rephasing of all three kets and
    antisymmetric under swapping any two of them.  Errors when the
    triangle is degenerate (some pairwise overlap vanishes).
    """
    x, y, z = as_ket(x), as_ket(y), as_ket(z)
    require_same_dims(x=x, y=y, z=z)
    xz = complex(x.conj() @ z)
    zy = complex(z.conj() @ y)
    yx = complex(y.conj() @ x)
    if min(abs(xz), abs(zy), abs(yx)) <= ORTHOGONAL_TOL:
        raise ValueError("pancharatnam phase undefined: a pairwise overlap vanishes")
    return float(np.angle(xz * zy * yx))


def fs_speed_check(h, psi, dt: float) -> tuple[float, float]:
    """(finite-difference ray speed, energy uncertainty) for one exact step.

    The squared ray-space line element of dψ = exp(-i·H·dt)ψ - ψ is
    ds² = ⟨dψ|dψ⟩ - |⟨ψ|dψ⟩|², and ds/dt converges to
    δE = sqrt(⟨H²⟩ - ⟨H⟩²) as dt → 0.
    """
    h = as_hermitian(h, "hamiltonian of fs_speed_check")
    psi = as_unit_ket(psi, "state of fs_speed_check")
    require_same_dims(psi=psi, h=h)
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"step dt must be positive and finite, got {dt!r}")
    dpsi = spectral_exp(*np.linalg.eigh(h), dt) @ psi - psi
    ds2 = float((dpsi.conj() @ dpsi).real - abs(psi.conj() @ dpsi) ** 2)
    speed = np.sqrt(max(ds2, 0.0)) / dt
    mean = float((psi.conj() @ h @ psi).real)
    mean2 = float((psi.conj() @ (h @ h) @ psi).real)
    delta_e = float(np.sqrt(max(mean2 - mean * mean, 0.0)))
    return float(speed), delta_e
