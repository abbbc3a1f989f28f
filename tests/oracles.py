"""Brute-force references the tests hold qpl against.

Each one takes the slow, direct route: an exponential is one dense
eigendecomposition of its generator, the composite ket is projected with
⟨β|⊗I, and pointer moments are dense operator products.  The composite
evolution itself is `qpl.weak.evolve_exact`.
"""

import numpy as np

from qpl import PostSelection, as_ket, weak_value
from qpl.linalg import as_hermitian, spectral_exp
from qpl.weak import ORTHOGONAL_TOL


def unitary_exp(h, t: float) -> np.ndarray:
    """exp(-i·t·H) for hermitian H, from a full eigendecomposition (unitary for any t)."""
    h = as_hermitian(h, "generator passed to unitary_exp")
    return spectral_exp(*np.linalg.eigh(h), t)


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
    ow, r, phi = weak_value(cfg), cfg.pointer_gen, cfg.pointer

    def mean(op):
        return phi.conj() @ op @ phi

    spread = mean(m @ r + r @ m) - 2 * mean(r) * mean(m)
    return float((cfg.eps * (ow.imag * spread - 1j * ow.real * mean(m @ r - r @ m))).real)
