"""Displaced Fourier-invariant states on Z_N.

The displacement family is D_mn = v^{-mn/2} U^m V^{-n} with the half phase
e^{-iπmn/N} evaluated at representatives 0 ≤ m,n ≤ N-1, for odd and even N
alike.  The phase-point basis (`weylwigner`) reads its half phase h(r,s)
otherwise: v^{2⁻¹·rs} with the ring inverse 2⁻¹ = (N+1)/2 for odd N, and
e^{iπrs/N} with a sign repair for even N.  So h(r,s) = ±e^{iπrs/N}, with
the minus sign at some (r, s) for every N ≥ 3.  The reference state

    |0⟩ = (|u_0⟩ + |v_0⟩) / ||...||

is invariant under the discrete Fourier transform, and the N² states
|m,n⟩ = D_mn|0⟩ form an overcomplete family resolving the identity as
Σ|m,n⟩⟨m,n| = N·I.

The overlap of two family members factors as a symplectic phase times a
real magnitude:

    ⟨p,q|r,s⟩ = v^{(rq-ps)/2} · M(p,q,r,s)

with M = 1 on the diagonal, (N + 2√N)/(2(N + √N)) when exactly one index
pair agrees, and cos(π(r-p)(s-q)/N)/(√N + 1) when both differ.  The cosine
vanishes at half-integer arguments, which exist exactly when N is even:
even dimensions admit orthogonal pairs of distinct coherent states, odd
ones never do.

Both factors come from per-N tables: the phase from `roots(2N)` at
(rq − ps) mod 2N, the magnitude from `_overlap_factors(N)` at the cell
(r − p, s − q).

The family is covariant under the displacements: by the Weyl relation
V^j U^k = v^{jk} U^k V^j, D_pq† D_rs is a phase times D_{r−p, s−q}, so

    ⟨p,q|r,s⟩ = ω · ⟨0,0|r−p, s−q⟩,   labels mod N,

with |ω| = 1 fixed by the labels: the symplectic phase, up to the sign that
reducing r − p and s − q to representatives carries (Perelomov, Commun.
Math. Phys. 26, 222 (1972)).  Row (0, 0) of the Gram matrix therefore fixes
all of it, and a check of that row against the closed form, with the Weyl
relation on the generators U and V, covers the N²×N² table without forming
it.  `CoherentFamily.gram` still builds the whole matrix; the states and
every overlap are computed afresh on each call.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .linalg import basis_ket, normalize
from .schwinger import _check_dim, _residues, _weyl_word, roots


def displacement(n: int, m, nn) -> np.ndarray:
    """Displacement D_mn = v^{-mn/2} U^m V^{-n}, canonical representatives; a stack for array labels."""
    m, nn = _residues(n, m=m, nn=nn)
    half = roots(2 * n)[(-m * nn) % (2 * n)]  # e^{-iπ·m·n/N}
    return np.asarray(half)[..., None, None] * _weyl_word(n, m, -nn % n)


def reference_state(n: int) -> np.ndarray:
    """Fourier-invariant reference |0⟩ ∝ |u_0⟩ + |v_0⟩.

    The pre-normalization squared norm is 2 + 2/√N.  |v_0⟩ = F[:, 0] is the
    constant column 1/√N, since every v^{j·0} is 1.
    """
    _check_dim(n)
    return normalize(basis_ket(n, 0) + np.full(n, 1 / np.sqrt(n)))


def coherent_state(n: int, m, nn) -> np.ndarray:
    """Family member |m,n⟩ = D_mn|0⟩; array labels give a stack of kets.

    Row a of D_mn has one entry, v^{-mn/2}·v^{ma} in column a - n: no matrix is formed.
    """
    m, nn = _residues(n, m=m, nn=nn)
    m, nn, a = np.asarray(m)[..., None], np.asarray(nn)[..., None], np.arange(n)
    half, clock = roots(2 * n)[(-m * nn) % (2 * n)], roots(n)[(m * a) % n]
    return (half * clock) * reference_state(n)[(a - nn) % n]


def coherent_overlap(n: int, p: int, q: int, r: int, s: int) -> complex:
    """Direct inner product ⟨p,q|r,s⟩ of two family members."""
    p, q, r, s = _residues(n, p=p, q=q, r=r, s=s)
    return complex(coherent_state(n, p, q).conj() @ coherent_state(n, r, s))


def symplectic_phase(n: int, p, q, r, s):
    """Phase factor v^{(rq-ps)/2} = e^{iπ(rq-ps)/N}, canonical representatives."""
    return _symplectic_phase(n, *_residues(n, p=p, q=q, r=r, s=s))


def _symplectic_phase(n: int, p, q, r, s):
    """`symplectic_phase` of labels already reduced mod n."""
    return roots(2 * n)[(r * q - p * s) % (2 * n)]


def coherent_overlap_closed(n: int, p, q, r, s):
    """Closed-form complex overlap: symplectic phase times a signed factor.

    The factor is 1 on the diagonal, (N + 2√N)/(2(N + √N)) when exactly one
    index pair agrees, and cos(π(r-p)(s-q)/N)/(√N + 1), sign kept, when both
    differ.
    """
    p, q, r, s = _residues(n, p=p, q=q, r=r, s=s)
    w = 2 * n - 1  # the number of distinct label differences
    cell = (r * w + s + (n - 1) * (w + 1)) - (p * w + q)  # flat (r - p, s - q) entry
    return _symplectic_phase(n, p, q, r, s) * _overlap_factors(n)[cell]


@lru_cache(maxsize=64)
def _overlap_factors(n: int) -> np.ndarray:
    """Read-only flat table of the signed factor over (r - p, s - q) in (1-N..N-1)², row-major."""
    dp, dq = np.ogrid[1 - n : n, 1 - n : n]
    rt = np.sqrt(n)
    # generic case first, then the one-shared and diagonal cases override it
    factor = roots(2 * n)[(dp * dq) % (2 * n)].real / (rt + 1)
    factor = np.where((dp == 0) | (dq == 0), (n + 2 * rt) / (2 * (n + rt)), factor)
    table = np.where((dp == 0) & (dq == 0), 1.0, factor).ravel()
    table.flags.writeable = False
    return table


class CoherentFamily:
    """All N² coherent states of one dimension: states[m, n] is |m,n⟩, flat index m·N + n."""

    def __init__(self, n: int):
        _check_dim(n)
        self.dim = int(n)
        k = np.arange(self.dim)
        self.states = coherent_state(self.dim, k[:, None], k[None, :])

    def gram(self) -> np.ndarray:
        """Gram matrix G[i,j] = ⟨state_i|state_j⟩ over the flat index."""
        flat = self.states.reshape(self.dim * self.dim, self.dim)
        return flat.conj() @ flat.T

    def identity_resolution(self) -> np.ndarray:
        """Σ_mn |m,n⟩⟨m,n|; equals N·I for the Fourier-invariant reference."""
        flat = self.states.reshape(self.dim * self.dim, self.dim)
        return flat.T @ flat.conj()
