"""Brute-force references the tests hold qpl against.

Each one takes the slow, direct route: a pointer operator is a dense matrix
built from the ladder matrix (`dense_operator`), not from the bands qpl
applies; an exponential is one dense eigendecomposition of its generator;
the composite ket (`evolve_dense`) is projected with ⟨β|⊗I or traced from its
whole density matrix (`partial_trace`); and pointer moments are dense operator
products.  `oracle_payload` rebuilds every number of a `weak` payload from
these.  The coherent family is built from its definition |m,n⟩ = D_mn|0⟩
with dense displacement matrices, and `coherent_gram_payload` holds a
`coherent-gram` payload against its whole N²×N² Gram matrix and the closed
form at all N⁴ entries.
"""

from dataclasses import dataclass
from functools import lru_cache

import mpmath
import numpy as np

from qpl import (
    FockSpace,
    PostSelection,
    WeakConfig,
    as_ket,
    cli,
    coherent_overlap_closed,
    displacement,
    reference_state,
    weak_value,
)
from qpl.linalg import as_hermitian, spectral_exp
from qpl.weak import ORTHOGONAL_TOL


def is_unitary(a) -> bool:
    """A†A = I within 1e-10 in every entry."""
    a = np.asarray(a, dtype=complex)
    return bool(np.max(np.abs(a.conj().T @ a - np.eye(len(a)))) <= 1e-10)


def partial_trace(m, dims, keep: int) -> np.ndarray:
    """The operator `m` on the tensor factors of dimensions `dims`, index i_0·dims[1]·… + i_1·… + …,
    with every factor but `keep` traced out."""
    k = len(dims)
    col = [i + k if i == keep else i for i in range(k)]
    return np.einsum(np.reshape(m, (*dims, *dims)), list(range(k)) + col, [keep, keep + k])


def unitary_exp(h, t: float) -> np.ndarray:
    """exp(-i·t·H) for hermitian H, from a full eigendecomposition (unitary for any t)."""
    h = as_hermitian(h, "generator passed to unitary_exp")
    return spectral_exp(*np.linalg.eigh(h), t)


@lru_cache(maxsize=32)
def dense_operator(dim: int, key: str) -> np.ndarray:
    """The pointer operator `key` ("a" or a key in `FockSpace.GENERATORS`) of a `dim`-level
    mode, read-only, from the dense ladder matrix a|n⟩ = √n|n-1⟩ with a†|dim-1⟩ = 0:
    q = (a + a†)/√2, p = (a - a†)/(i√2), n = a†a, h0 = (a a† + a†a)/2 (its diagonal
    from the integer counts), g = (a² - a†²)/(2i) and k = (a² + a†²)/2."""
    levels = np.arange(dim)
    a = np.diag(np.sqrt(levels[1:]), 1).astype(complex)
    adag = a.conj().T
    a2 = np.diag(np.sqrt(levels[1:-1] * levels[2:]), 2).astype(complex)
    formulas = {
        "a": lambda: a,
        "q": lambda: (a + adag) / np.sqrt(2),
        "p": lambda: (a - adag) / (1j * np.sqrt(2)),
        "n": lambda: adag @ a,
        "h0": lambda: np.diag((levels + np.append(levels[1:], 0)) / 2).astype(complex),
        "g": lambda: (a2 - a2.T) / 2j,
        "k": lambda: (a2 + a2.T) / 2,
    }
    operator = formulas[key]()
    operator.flags.writeable = False
    return operator


@lru_cache(maxsize=2)
def _composite_spectrum(obs_bytes: bytes, ns: int, key: str, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """One dense eigendecomposition of the coupling O⊗R, R = dense_operator(dim, key), read-only."""
    obs = np.frombuffer(obs_bytes, dtype=complex).reshape(ns, ns)
    values, vectors = np.linalg.eigh(np.kron(obs, dense_operator(dim, key)))
    values.flags.writeable = vectors.flags.writeable = False
    return values, vectors


def evolve_dense(cfg: WeakConfig) -> np.ndarray:
    """Composite ket exp(-i·ε·O⊗R)·(|α⟩⊗|φ⟩), index i_s·np + i_p, by brute force over the
    composite space; the eigendecomposition of O⊗R is shared by every coupling ε."""
    values, vectors = _composite_spectrum(cfg.obs.tobytes(), len(cfg.obs), cfg.pointer_gen, cfg.space.dim)
    return vectors @ (np.exp(-1j * cfg.eps * values) * (vectors.conj().T @ np.kron(cfg.pre, cfg.pointer)))


def post_select(state, post, pointer_dim: int) -> PostSelection:
    """Apply ⟨β|⊗I to a composite ket and normalize the surviving pointer."""
    state, post = as_ket(state), as_ket(post)
    if post.shape[0] * pointer_dim != state.shape[0]:
        raise ValueError("composite state does not factor into post x pointer dimensions")
    raw = post.conj() @ state.reshape(post.shape[0], pointer_dim)
    prob = float(np.linalg.norm(raw) ** 2)
    if prob <= ORTHOGONAL_TOL**2:
        raise ValueError("post-selection has zero probability on this state")
    return PostSelection(raw=raw, normalized=raw / np.sqrt(prob), probability=prob)


def conditioned_shift(selection: PostSelection, pointer, m) -> complex:
    """⟨M⟩ in the post-selected pointer minus ⟨M⟩ in the initial pointer."""
    psi, phi = selection.normalized, np.asarray(pointer)
    return complex(psi.conj() @ m @ psi) - complex(phi.conj() @ m @ phi)


def first_order_shift(cfg, m) -> float:
    """The first-order shift ε·[Im(O_w)·(⟨{M,R}⟩ − 2⟨R⟩⟨M⟩) − i·Re(O_w)·⟨[M,R]⟩],
    from dense products of M and R in the initial pointer."""
    ow, phi = weak_value(cfg), cfg.pointer
    r = dense_operator(cfg.space.dim, cfg.pointer_gen)

    def mean(op):
        return phi.conj() @ op @ phi

    spread = mean(m @ r + r @ m) - 2 * mean(r) * mean(m)
    return float((cfg.eps * (ow.imag * spread - 1j * ow.real * mean(m @ r - r @ m))).real)


WEAK_COMPOSITE_CAP = 1024  # largest ns·np that `oracle_payload` evolves densely


@dataclass(frozen=True)
class Expected:
    """A printed number's brute-force value and how far a correct run may be from it,
    before the printed rounding."""

    value: float
    tol: float


def oracle_payload(argv) -> dict[str, Expected]:
    """Every number `qpl weak` prints as JSON for `argv`, keyed as
    `tools/bytecheck.printed_fields` names it, computed the slow way.

    The inputs come from the CLI's own parsers; the numbers come from the dense
    `evolve_dense`, `post_select`, `conditioned_shift` and `first_order_shift`.
    Each tolerance bounds the distance between two correct computations of
    its field from the conditioning of that field:

    * either side's post-selected pointer is within η = 4u·(√n + ε‖O‖‖R‖) of
      the exact one (u = 2⁻⁵³, n = ns·np): a backward error c·u·‖εO⊗R‖ of the
      eigendecomposition moves exp(-iεO⊗R)ψ by as much (Duhamel), and the
      n-term sums that rebuild the state add √n·u in the usual statistical
      model (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
      ch. 3);
    * so the two probabilities p = ‖raw‖² are within 4√p·η of each other, and
      the two normalized pointers within 2η/√p once a phase is removed (only
      the step tangent to the unit sphere is left);
    * a tangent step δψ moves ⟨ψ|M|ψ⟩ by at most ‖δψ‖ times
      s_M = ‖(M − ⟨M⟩)ψ‖ + ‖(M† − ⟨M⟩*)ψ‖ (2σ_M for a hermitian M), and each
      side's D-term means of M round by 2u·√D·‖M‖: ⟨M⟩ is within
      2s_M·η/√p + 4u·√D·‖M‖;
    * a first-order prediction sums four pointer moments of size ≤ ‖M‖‖R‖
      over D levels, scaled by ε|O_w|: 8u·√D·ε|O_w|·‖M‖‖R‖;
    * a residual adds the tolerances of its two terms, and the halving ratio
      h/r is within (tol_h + (h/r)·tol_r)/r.

    `argv` must be a run the CLI accepts; past WEAK_COMPOSITE_CAP this raises ValueError.
    """
    args = cli.build_parser().parse_args(argv)
    conf = cli._read_config(args.config)
    seed = cli.resolve_seed(args.seed, conf["seed"])
    ns, dim = int(conf["system_dim"]), int(conf["pointer_dim"])
    eps, key = float(conf["eps"]), conf["pointer_gen"]
    if ns * dim > WEAK_COMPOSITE_CAP:
        raise ValueError(f"composite dimension {ns * dim} is past {WEAK_COMPOSITE_CAP}")
    rng = np.random.default_rng(seed)
    space = FockSpace(dim)
    pointer, z = cli.parse_pointer_selector(conf["pointer"], space)
    obs = cli.parse_obs_selector(conf["obs"], ns)
    pre = cli.parse_ket_selector(conf["pre"], ns, lambda: rng)
    post = cli.parse_ket_selector(conf["post"], ns, lambda: rng)
    cfg = WeakConfig(pre, post, obs, space, key, pointer, eps)
    ow = weak_value(cfg)

    u = np.finfo(float).eps / 2
    obs_norm = float(np.max(np.abs(np.linalg.eigvalsh(obs))))
    gen_norm = float(np.max(np.abs(np.linalg.eigvalsh(dense_operator(dim, key)))))
    overlap = abs(post.conj() @ pre)
    fields = {
        # the same quotient on the same kets; ⟨β|O|α⟩ carries ns-term rounding
        "weak_value.re": Expected(ow.real, 8 * u * ns * obs_norm / overlap),
        "weak_value.im": Expected(ow.imag, 8 * u * ns * obs_norm / overlap),
        "spectral_radius": Expected(obs_norm, 8 * u * obs_norm),  # two Hermitian eigensolvers
        "eps": Expected(eps, 0.0),
        "pointer_dim": Expected(dim, 0.0),
        "seed": Expected(seed, 0.0),
        "system_dim": Expected(ns, 0.0),
    }

    def run_at(t):
        """(post-selection, its η) at coupling t."""
        selection = post_select(evolve_dense(cfg.with_eps(t)), post, dim)
        return selection, 4 * u * (np.sqrt(ns * dim) + t * obs_norm * gen_norm)

    def measured_tol(selection, eta, m):
        psi, m_norm = selection.normalized, np.linalg.norm(m, 2)
        mean = psi.conj() @ m @ psi
        spread = np.linalg.norm(m @ psi - mean * psi) + np.linalg.norm(m.conj().T @ psi - np.conj(mean) * psi)
        return 2 * spread * eta / np.sqrt(selection.probability) + 4 * u * np.sqrt(dim) * m_norm

    def predicted_tol(t, m_norm):
        return 8 * u * np.sqrt(dim) * t * abs(ow) * m_norm * gen_norm

    selected, eta = run_at(eps)
    fields["probability"] = Expected(selected.probability, 4 * np.sqrt(selected.probability) * eta)
    halving = cli._parse_number(conf["halving"], bool, "halving")
    half, half_eta = run_at(eps / 2) if halving else (None, None)
    for name in ("q", "p"):
        m = dense_operator(dim, name)
        m_norm = np.linalg.norm(m, 2)
        measured = conditioned_shift(selected, pointer, m).real
        predicted = first_order_shift(cfg, m)
        residual = abs(measured - predicted)
        residual_tol = measured_tol(selected, eta, m) + predicted_tol(eps, m_norm)
        fields[f"shifts.{name}.measured"] = Expected(measured, measured_tol(selected, eta, m))
        fields[f"shifts.{name}.predicted"] = Expected(predicted, predicted_tol(eps, m_norm))
        fields[f"shifts.{name}.residual"] = Expected(residual, residual_tol)
        if half is None:
            continue
        half_shift = conditioned_shift(half, pointer, m).real
        half_residual = abs(half_shift - first_order_shift(cfg.with_eps(eps / 2), m))
        half_tol = measured_tol(half, half_eta, m) + predicted_tol(eps / 2, m_norm)
        fields[f"halving.{name}.half_residual"] = Expected(half_residual, half_tol)
        if residual >= 1e-14:  # the CLI prints no ratio below
            ratio = half_residual / residual
            fields[f"halving.{name}.ratio"] = Expected(ratio, (half_tol + ratio * residual_tol) / residual)
    if z is not None and key == "n":
        a = dense_operator(dim, "a")
        measured, predicted = conditioned_shift(selected, pointer, a), -1j * eps * z * ow
        measured_tol_a = measured_tol(selected, eta, a)
        predicted_tol_a = 4 * u * abs(predicted)  # the same two products on both sides
        for part, value in (("re", measured.real), ("im", measured.imag)):
            fields[f"annihilator.measured.{part}"] = Expected(value, measured_tol_a)
        for part, value in (("re", predicted.real), ("im", predicted.imag)):
            fields[f"annihilator.predicted.{part}"] = Expected(value, predicted_tol_a)
        fields["annihilator.residual"] = Expected(abs(measured - predicted), measured_tol_a + predicted_tol_a)
    return fields


def dense_gram(n: int) -> np.ndarray:
    """Gram matrix ⟨p,q|r,s⟩ over flat labels (p·N + q, r·N + s), each state D_mn|0⟩ a dense
    displacement matrix times the reference state."""
    m, nn = np.divmod(np.arange(n * n), n)
    states = displacement(n, m, nn) @ reference_state(n)
    return states.conj() @ states.T


def closed_form_residual(n: int, gram: np.ndarray) -> float:
    """max |gram − closed form| over all N⁴ label pairs, `gram` indexed as `dense_gram`."""
    m, nn = np.divmod(np.arange(n * n), n)
    closed = coherent_overlap_closed(n, m[:, None], nn[:, None], m[None, :], nn[None, :])
    return float(np.max(np.abs(gram - closed)))


def coherent_gram_payload(argv) -> dict[str, list[Expected]]:
    """Every number `qpl coherent-gram` prints for `argv`, JSON or CSV, keyed as
    `tools/bytecheck.printed_fields` names it, in printed order within each field.

    The magnitudes come from `dense_gram`, the two closed-form constants from
    50-digit arithmetic, and each residual is 0 exactly.  With u = 2⁻⁵³ and
    γ_k = k·u/(1 − k·u) (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 3), each tolerance bounds the distance between
    two correct computations of its field:

    * an entry of a family ket, on either route, is within κ = γ_{N+9} of the
      exact one, relatively: 3 roundings for |u_0⟩ + 1/√N, N + 2 for its norm
      and the division, and at most 4 for two table phases and their
      products (an exact zero term adds none);
    * an overlap of two such unit kets is an N-term sum, within δ = γ_N + 3κ
      of the exact one (Cauchy–Schwarz bounds Σ|a_i||b_i| by 1);
    * a closed-form entry is a table phase times a factor of at most three
      roundings, within 6u of the exact one, |value| ≤ 1;
    * an entry of Σ|m,n⟩⟨m,n| is an N²-term sum with Σ_mn |ψ_mn[i]|·|ψ_mn[j]| ≤ N,
      within N·(γ_{N²} + 3κ) of N·δ_ij;
    * the Weyl relation V U = v U V compares two products whose terms have
      one non-zero each: within 3u; `max_closed_residual` is its maximum with
      the row (0, 0) check, so within δ + 6u of 0, and the full N⁴ comparison
      `closed_form_residual(n, dense_gram(n))` lies under the same bound.
    """
    args = cli.build_parser().parse_args(argv)
    n = args.n
    u = np.finfo(float).eps / 2

    def gamma(k):
        return k * u / (1 - k * u)

    kappa = gamma(n + 9)
    delta = gamma(n) + 3 * kappa
    with mpmath.workdps(50):
        rt = mpmath.sqrt(n)
        one_shared, generic = (n + 2 * rt) / (2 * (n + rt)), 1 / (rt + 1)
    row = np.abs(dense_gram(n)[0])
    # JSON key: (CSV quantity, value or row-major grid, tolerance)
    quantities = {
        "generic_scale": ("generic_scale", float(generic), 3 * u),  # sqrt, sum, quotient
        "identity_residual": ("identity_residual", 0.0, n * (gamma(n * n) + 3 * kappa)),
        "magnitude_direct": ("direct_magnitude", row, 2 * delta),
        "magnitude_predicted": ("predicted_magnitude", row, delta + 6 * u),
        "max_closed_residual": ("max_closed_residual", 0.0, delta + 6 * u),
        "n": (None, n, 0.0),
        "one_shared_magnitude": ("one_shared_magnitude", float(one_shared), 4 * u),  # sqrt, two sums, quotient
    }
    dp, dq = np.divmod(np.arange(n * n), n)
    fields: dict[str, list[Expected]] = {}
    for key, (quantity, value, tol) in quantities.items():
        grid = np.ndim(value) > 0
        values = [Expected(v, tol) for v in np.ravel(value)]
        if args.format == "json":
            fields[key + "[*][*]" * grid] = values
        elif quantity is not None:
            if grid:
                fields[f"{quantity}.dp"] = [Expected(i, 0.0) for i in dp]
                fields[f"{quantity}.dq"] = [Expected(i, 0.0) for i in dq]
            fields[f"{quantity}.value"] = values
    return fields
