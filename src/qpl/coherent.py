"""Displaced Fourier-invariant states on Z_N.

The displacement family is D_mn = v^{-mn/2} U^m V^{-n} with the half phase
e^{-iπmn/N} evaluated at representatives 0 ≤ m,n ≤ N-1 (same convention as
the phase-point basis).  The reference state

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
(r − p, s − q).  `_closed_form_check` compares a whole Gram matrix with the
closed form through index tables built from N×N ones: one gather per entry
from the product of those two tables, no modular arithmetic per entry.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .linalg import basis_ket, normalize
from .schwinger import _check_dim, dft, roots, weyl_word


def displacement(n: int, m, nn) -> np.ndarray:
    """Displacement D_mn = v^{-mn/2} U^m V^{-n}, canonical representatives.

    Labels may be integer arrays; they broadcast to a stack of matrices.
    """
    _check_dim(n)
    m = m % n
    nn = nn % n
    half = roots(2 * n)[(-m * nn) % (2 * n)]  # e^{-iπ·m·n/N}
    return np.asarray(half)[..., None, None] * weyl_word(n, m, -nn)


def reference_state(n: int) -> np.ndarray:
    """Fourier-invariant reference |0⟩ ∝ |u_0⟩ + |v_0⟩.

    The pre-normalization squared norm is 2 + 2/√N.
    """
    return normalize(basis_ket(n, 0) + dft(n)[:, 0])


def coherent_state(n: int, m, nn) -> np.ndarray:
    """Family member |m,n⟩ = D_mn|0⟩; array labels give a stack of kets.

    Row a of D_mn has one entry, v^{-mn/2}·v^{ma} in column a - n: no matrix is formed.
    """
    _check_dim(n)
    m, nn, a = np.asarray(m % n)[..., None], np.asarray(nn % n)[..., None], np.arange(n)
    half, clock = roots(2 * n)[(-m * nn) % (2 * n)], roots(n)[(m * a) % n]
    return (half * clock) * reference_state(n)[(a - nn) % n]


def coherent_overlap(n: int, p: int, q: int, r: int, s: int) -> complex:
    """Direct inner product ⟨p,q|r,s⟩ of two family members."""
    return complex(coherent_state(n, p, q).conj() @ coherent_state(n, r, s))


def symplectic_phase(n: int, p, q, r, s):
    """Phase factor v^{(rq-ps)/2} = e^{iπ(rq-ps)/N}, canonical representatives.

    Labels may be integer arrays that broadcast against each other.
    """
    p, q, r, s = (x % n for x in (p, q, r, s))
    return roots(2 * n)[(r * q - p * s) % (2 * n)]


def coherent_overlap_closed(n: int, p, q, r, s):
    """Closed-form complex overlap: symplectic phase times a signed factor.

    The factor is 1 on the diagonal, (N + 2√N)/(2(N + √N)) when exactly one
    index pair agrees, and cos(π(r-p)(s-q)/N)/(√N + 1), sign kept, when both
    differ.  Labels may be integer arrays that broadcast against each other.
    """
    p, q, r, s = (x % n for x in (p, q, r, s))
    w = 2 * n - 1  # the number of distinct label differences
    cell = (r * w + s + (n - 1) * (w + 1)) - (p * w + q)  # flat (r - p, s - q) entry
    return symplectic_phase(n, p, q, r, s) * _overlap_factors(n)[cell]


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


def _closed_form_check(n: int, gram: np.ndarray) -> tuple[np.ndarray, float]:
    """Row 0 of the closed-form overlap table and max |gram − closed| over all of it.

    `gram` is indexed by flat labels (p·N + q, r·N + s), as `CoherentFamily.gram`
    returns it.  The table is `coherent_overlap_closed(n, p, q, r, s)` bit for bit: the
    same phase·factor products, gathered from their outer-product table at
    (qr mod 2N − ps mod 2N)·(2N − 1)² + cell(r − p, s − q).  The phase part lies in
    (−2N, 2N), so a negative index wraps to its residue, and the cell splits into a
    [p, r] and a [q, s] part.  The check runs one p at a time, N³ ≤ 4096 entries, so no
    N⁴ temporary is formed; a NaN in `gram` gives a NaN residual.
    """
    w, k = 2 * n - 1, np.arange(n)
    products = np.multiply.outer(roots(2 * n), _overlap_factors(n)).ravel()
    phase = (np.multiply.outer(k, k) % (2 * n)) * (w * w)  # [q, r] or [p, s]
    rows = phase[None, :, :] + ((k - k[:, None] + n - 1) * w + n - 1)[:, None, :]  # [p, q, r]
    cols = (k - k[:, None])[None, :, :] - phase[:, None, :]  # [p, q, s]
    gram = gram.reshape(n, n, n, n)
    peaks = np.empty(n)
    for p in range(n):
        closed = products[rows[p][:, :, None] + cols[p][:, None, :]]  # [q, r, s]
        if p == 0:
            row0 = closed[0].ravel()
        peaks[p] = np.max(np.abs(gram[p] - closed))
    return row0, float(np.max(peaks))


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
