"""Cyclic kinematics on Z_N: shift, clock, and discrete Fourier matrices.

Conventions (fixed once for the whole package):

    v = exp(+2πi/N)                       root of unity; every phase v^x is
                                          gathered from one exact table roots(N)
                                          at x mod N (half phases: roots(2N), x mod 2N)
    V|u_k⟩ = |u_{k-1 mod N}⟩              position shift
    U|u_k⟩ = v^k |u_k⟩                    clock; shifts momentum states up
    F_jk = v^{jk} / √N                    DFT; columns are momentum kets

With these choices the Weyl relation V^j U^k = v^{jk} U^k V^j holds
exactly, the momentum states |v_k⟩ = F|u_k⟩ are V-eigenvectors with
eigenvalue v^k, and F^4 = I.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=256)
def roots(n: int) -> np.ndarray:
    """Read-only table v^x = exp(2πi·x/n), x = 0..n-1, exact where v^x is 1, i, -1 or -i.

    Up to a half turn each angle is whole quarter turns, taken exactly, plus a
    rest within ±π/4; the other half is the conjugate, v^{n-x} = conj(v^x).
    """
    _check_dim(n)
    x = np.arange(n // 2 + 1)
    # 2πx/n = quarter·π/2 + π·(rest - n)/(4n)
    quarter, rest = np.divmod(8 * x + n, 2 * n)
    first = np.array([1, 1j, -1, -1j])[quarter] * np.exp(0.25j * np.pi * (rest - n) / n)
    table = np.concatenate([first, first[1 : (n + 1) // 2][::-1].conj()])
    table.flags.writeable = False
    return table


def dft(n: int) -> np.ndarray:
    """Discrete Fourier matrix F_jk = v^{jk}/√n (positive exponent)."""
    _check_dim(n)
    return _phase_table(n) / np.sqrt(n)


def _phase_table(n: int) -> np.ndarray:
    """Unnormalized DFT phases Φ[k, j] = v^{k·j}."""
    k = np.arange(n)
    return roots(n)[np.outer(k, k) % n]


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
    return np.where(a == (c - j) % n, roots(n)[(k * a) % n], 0)


def weyl_relation_defect(n: int, j: int, k: int) -> float:
    """Max entrywise error in V^j U^k = v^{jk} U^k V^j."""
    vj, uk = weyl_word(n, 0, j), weyl_word(n, k, 0)
    phase = roots(n)[(j % n) * (k % n) % n]
    return float(np.max(np.abs(vj @ uk - phase * (uk @ vj))))


def gauss_trace(n: int) -> complex:
    """Trace of the DFT matrix, the Gauss sum (1/√n)·Σ_j v^{j²} over its diagonal.

    For odd n this matches gauss_trace_closed_form; for even n it does not
    (see that function).
    """
    return complex(roots(n)[np.arange(n) ** 2 % n].sum() / np.sqrt(n))


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
        dim: the dimension n
        V:   position shift, V|u_k⟩ = |u_{k-1 mod n}⟩ (weyl_word(n, 0, 1))
        U:   clock diag(v^k), U|v_k⟩ = |v_{k+1}⟩ (weyl_word(n, 1, 0))
        F:   DFT matrix; column k is the momentum ket |v_k⟩, and the
             position ket |u_k⟩ is basis_ket(n, k)
    """

    def __init__(self, n: int):
        _check_dim(n)
        self.dim = n
        self.V = weyl_word(n, 0, 1)
        self.U = weyl_word(n, 1, 0)
        self.F = dft(n)


def _check_dim(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"dimension must be a positive integer, got {n!r}")
