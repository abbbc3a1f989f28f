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
"""

from __future__ import annotations

import numpy as np

from .linalg import basis_ket, normalize
from .schwinger import _check_dim, dft, weyl_word


def displacement(n: int, m, nn) -> np.ndarray:
    """Displacement D_mn = v^{-mn/2} U^m V^{-n}, canonical representatives.

    Labels may be integer arrays; they broadcast to a stack of matrices.
    """
    _check_dim(n)
    m = m % n
    nn = nn % n
    # e^{-iπx/N} has period 2N in x; reducing first keeps the argument small
    half = np.exp(-1j * (np.pi * ((m * nn) % (2 * n)) / n))
    return np.asarray(half)[..., None, None] * weyl_word(n, m, -nn)


def reference_state(n: int) -> np.ndarray:
    """Fourier-invariant reference |0⟩ ∝ |u_0⟩ + |v_0⟩.

    The pre-normalization squared norm is 2 + 2/√N.
    """
    return normalize(basis_ket(n, 0) + dft(n)[:, 0])


def coherent_state(n: int, m: int, nn: int) -> np.ndarray:
    """Family member |m,n⟩ = D_mn|0⟩."""
    return displacement(n, m, nn) @ reference_state(n)


def coherent_overlap(n: int, p: int, q: int, r: int, s: int) -> complex:
    """Direct inner product ⟨p,q|r,s⟩ of two family members."""
    return complex(coherent_state(n, p, q).conj() @ coherent_state(n, r, s))


def symplectic_phase(n: int, p, q, r, s):
    """Phase factor v^{(rq-ps)/2} = e^{iπ(rq-ps)/N}, canonical representatives.

    Labels may be integer arrays that broadcast against each other.
    """
    p, q, r, s = (x % n for x in (p, q, r, s))
    return np.exp(1j * (np.pi * ((r * q - p * s) % (2 * n)) / n))


def coherent_overlap_closed(n: int, p, q, r, s):
    """Closed-form complex overlap: symplectic phase times a signed factor.

    The factor is 1 on the diagonal, (N + 2√N)/(2(N + √N)) when exactly one
    index pair agrees, and cos(π(r-p)(s-q)/N)/(√N + 1), sign kept, when both
    differ.  Labels may be integer arrays that broadcast against each other.
    """
    p, q, r, s = (x % n for x in (p, q, r, s))
    rt = np.sqrt(n)
    same_p, same_q = p == r, q == s
    # generic case first, then the one-shared and diagonal cases override it
    factor = np.cos(np.pi * (r - p) * (s - q) / n) / (rt + 1)
    factor = np.where(same_p | same_q, (n + 2 * rt) / (2 * (n + rt)), factor)
    factor = np.where(same_p & same_q, 1.0, factor)
    return symplectic_phase(n, p, q, r, s) * factor


class CoherentFamily:
    """All N² coherent states of one dimension, flat index i = m·N + n."""

    def __init__(self, n: int):
        _check_dim(n)
        self.dim = int(n)
        self.ref = reference_state(self.dim)
        k = np.arange(self.dim)
        self.states = displacement(self.dim, k[:, None], k[None, :]) @ self.ref

    def state(self, m: int, nn: int) -> np.ndarray:
        return self.states[m % self.dim, nn % self.dim].copy()

    def gram(self) -> np.ndarray:
        """Gram matrix G[i,j] = ⟨state_i|state_j⟩ over the flat index."""
        flat = self.states.reshape(self.dim * self.dim, self.dim)
        return flat.conj() @ flat.T

    def identity_resolution(self) -> np.ndarray:
        """Σ_mn |m,n⟩⟨m,n|; equals N·I for the Fourier-invariant reference."""
        flat = self.states.reshape(self.dim * self.dim, self.dim)
        return flat.T @ flat.conj()
