"""Cyclic kinematics on Z_N: shift, clock, and discrete Fourier matrices.

Conventions (fixed once for the whole package):

    v = exp(+2πi/N)                       root of unity
    V|u_k⟩ = |u_{k-1 mod N}⟩              position shift
    U|u_k⟩ = v^k |u_k⟩                    clock; shifts momentum states up
    F_jk = v^{jk} / √N                    DFT; columns are momentum kets

With these choices the Weyl relation V^j U^k = v^{jk} U^k V^j holds
exactly, the momentum states |v_k⟩ = F|u_k⟩ are V-eigenvectors with
eigenvalue v^k, and F^4 = I.
"""

from __future__ import annotations

import numpy as np

from .linalg import basis_ket


def root_of_unity(n: int) -> complex:
    """Primitive N-th root exp(2πi/N)."""
    _check_dim(n)
    return complex(np.exp(2j * np.pi / n))


def position_shift(n: int) -> np.ndarray:
    """Cyclic shift V with V e_k = e_{(k-1) mod n}."""
    return weyl_word(n, 0, 1)


def momentum_shift(n: int) -> np.ndarray:
    """Clock U = diag(v^k); shifts momentum states: U|v_k⟩ = |v_{k+1}⟩."""
    return weyl_word(n, 1, 0)


def dft(n: int) -> np.ndarray:
    """Discrete Fourier matrix F_jk = v^{jk}/√n (positive exponent)."""
    _check_dim(n)
    return _phase_table(n) / np.sqrt(n)


def _phase_table(n: int) -> np.ndarray:
    """Unnormalized DFT phases Φ[k, j] = v^{k·j}."""
    k = np.arange(n)
    return np.exp(2j * np.pi * np.outer(k, k) / n)


def weyl_word(n: int, k, j) -> np.ndarray:
    """U^k V^j by index arithmetic, broadcast over integer arrays k and j.

    (U^k V^j)[a, c] = v^{k·a} where a ≡ c - j (mod n) and 0 elsewhere; the
    result has shape broadcast(k, j) + (n, n).
    """
    _check_dim(n)
    k = np.asarray(k % n)[..., None, None]
    j = np.asarray(j % n)[..., None, None]
    a = np.arange(n)[:, None]
    c = np.arange(n)[None, :]
    clock = np.exp(2j * np.pi * ((k * a) % n) / n)
    return np.where(a == (c - j) % n, clock, 0)


def weyl_relation_defect(n: int, j: int, k: int) -> float:
    """Max entrywise error in V^j U^k = v^{jk} U^k V^j."""
    vj = weyl_word(n, 0, j)
    uk = weyl_word(n, k, 0)
    phase = np.exp(2j * np.pi * (j * k) / n)
    return float(np.max(np.abs(vj @ uk - phase * (uk @ vj))))


def gauss_trace(n: int) -> complex:
    """Trace of the DFT matrix, computed directly from the matrix.

    Equals (1/√n)·Σ_j exp(2πi j²/n).  For odd n this matches
    gauss_trace_closed_form; for even n it does not (see that function).
    """
    return complex(np.trace(dft(n)))


def gauss_trace_closed_form(n: int) -> complex:
    """Closed form (1 - i^n)/(1 - i), valid for odd n.

    For even n the computed trace lands on the complementary values
    instead: 0 when n ≡ 2 (mod 4) and 1+i when n ≡ 0 (mod 4).
    """
    _check_dim(n)
    return complex((1 - 1j**n) / (1 - 1j))


class Kinematics:
    """Shift/clock/Fourier triple for one dimension n.

    Attributes:
        dim:   the dimension n
        omega: primitive root exp(2πi/n)
        V:     position shift matrix
        U:     clock matrix
        F:     DFT matrix (columns are momentum kets)
    """

    def __init__(self, n: int):
        _check_dim(n)
        self.dim = n
        self.omega = root_of_unity(n)
        self.V = position_shift(n)
        self.U = momentum_shift(n)
        self.F = dft(n)

    def position_state(self, k: int) -> np.ndarray:
        return basis_ket(self.dim, k % self.dim)

    def momentum_state(self, k: int) -> np.ndarray:
        return self.F[:, k % self.dim].copy()


def _check_dim(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"dimension must be a positive integer, got {n!r}")
