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

Labels live on Z_N.  Each function of `schwinger`, `coherent`, `weylwigner`
and `modular` that takes labels checks them, with its dimension, in
`_residues`: N is a positive integer, then each label, in argument order, an
integer or an integer array (a list counts as one; a phase point is a pair),
taken mod N (the lattice labels j, σ of `modular` mod Na, Nb); array labels
broadcast.  Python ints of any size reduce exactly, so a label shifted by any
multiple of N gives the same bits.

Tables that depend on nothing but N are built once per dimension and kept
read-only: `roots(N)` for the last 256 dimensions, and the N×N phase table
Φ[k, j] = v^{k·j} for the last TABLE_DIMS = 16 (16·N² bytes each, 64 KiB at
the register cap N = 64, so at most 1 MiB at or below it).  Φ is the source
of `dft`, of every momentum ket and of the Weyl-transform tables in
`weylwigner`; results computed from it are never cached.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

TABLE_DIMS = 16  # dimensions whose N×N phase-space tables stay cached


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


def _momentum_ket(n: int, k: int) -> np.ndarray:
    """Momentum ket |v_k⟩ = F[:, k]: the bytes of dft(n)[:, k], in a fresh contiguous array."""
    _check_dim(n)
    return _phase_table(n)[:, k] / np.sqrt(n)


@lru_cache(maxsize=TABLE_DIMS)
def _phase_table(n: int) -> np.ndarray:
    """Read-only unnormalized DFT phases Φ[k, j] = v^{k·j}."""
    k = np.arange(n)
    table = roots(n)[np.outer(k, k) % n]
    table.flags.writeable = False
    return table


def weyl_word(n: int, k, j) -> np.ndarray:
    """U^k V^j by index arithmetic, broadcast over integer arrays k and j.

    (U^k V^j)[a, c] = v^{k·a} where a ≡ c - j (mod n) and 0 elsewhere; the
    result has shape broadcast(k, j) + (n, n).
    """
    return _weyl_word(n, *_residues(n, k=k, j=j))


def _weyl_word(n: int, k, j) -> np.ndarray:
    """`weyl_word` of labels already reduced mod n."""
    k, j = (np.asarray(x)[..., None, None] for x in (k, j))
    a = np.arange(n)[:, None]
    c = np.arange(n)[None, :]
    return np.where(a == (c - j) % n, roots(n)[(k * a) % n], 0)


def weyl_relation_defect(n: int, j: int, k: int) -> float:
    """Max entrywise error in V^j U^k = v^{jk} U^k V^j."""
    j, k = _residues(n, j=j, k=k)
    vj, uk = _weyl_word(n, 0, j), _weyl_word(n, k, 0)
    phase = roots(n)[j * k % n]
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


def _check_dim(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"dimension must be a positive integer, got {n!r}")


def _residues(n: int, *, pairs: bool = False, **labels) -> tuple:
    """Check N, then each label in argument order (with `pairs`, each a pair of coordinates),
    and return them mod N: a scalar coordinate as a Python int, an array one as intp."""
    _check_dim(n)
    n = int(n)  # a Python int modulus keeps Python-int labels of any size exact
    reduced = []
    for name, label in labels.items():
        coords = tuple(label) if pairs and np.iterable(label) else (label,)
        checked = _check_label(name, coords, pairs)
        residues = tuple(x % n if isinstance(x, int) else (x % n).astype(np.intp, copy=False) for x in checked)
        reduced.append(residues if pairs else residues[0])
    return tuple(reduced)


def _check_label(name: str, coords: tuple, pair: bool) -> list:
    """Label `name` as a Python int or an integer array per coordinate; a ValueError naming
    it unless it has one coordinate (two for a `pair`), each an integer or an integer array."""
    checked = []
    for x in coords:
        if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
            checked.append(int(x))
            continue
        # Python objects unless an ndarray: numpy reads a list that mixes int64 and bigger ints as floats
        values = x if isinstance(x, np.ndarray) else np.array(x, dtype=object)
        if values.dtype.kind in "iu" or all(type(v) is int or isinstance(v, np.integer) for v in values.flat):
            checked.append(values)
    if len(checked) == len(coords) == (2 if pair else 1):
        return checked
    if pair:
        raise ValueError(f"{name} label {coords!r} must be a pair of integers")
    raise ValueError(f"{name} label {coords[0]!r} must be an integer or an array of integers")
