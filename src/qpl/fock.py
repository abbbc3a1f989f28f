"""Truncated single bosonic mode.

The ladder operator acts as a|n⟩ = √n|n-1⟩ on number states 0..D-1
(|n⟩ is basis_ket(D, n); FockSpace.vacuum() is |0⟩), with the raising
operator cut off at the top level (a†|D-1⟩ = 0).  Quadratures are
Q = (a + a†)/√2 and P = (a - a†)/(i√2), so [Q,P] = iI exactly on the
interior indices 0..D-2 and Var_Q(|0⟩) = 1/2.

The sl(2,R)-like generators, the FockSpace attributes h0, g and k, are

    h0 = (Q² + P²)/2      (equals N + I/2 on the interior)
    g  = (QP + PQ)/2
    k  = (Q² - P²)/2

whose commutators close on the span {h0, g, k} away from the truncation
edge: [h0,g] = 2ik, [g,k] = -2ih0, [k,h0] = 2ig.

The rotation R(θ) = diag(e^{iθn}) turns a into e^{-iθ}·a, so three exact
identities hold in the truncated space too:

    p    = R(π/2)·q·R(π/2)†
    g    = R(π/4)·k·R(π/4)†
    D(z) = R(θ)·exp(-i√2|z|·p)·R(θ)†      θ = arg z

`FockSpace.spectrum(key)` uses them to diagonalize each pointer generator
from its structure, with no complex eigendecomposition.  n and h0 are
diagonal; q is the real Jacobi matrix of the Hermite polynomials, whose
eigenvalues are the Gauss–Hermite nodes; k splits into real tridiagonal
blocks on the even and the odd levels; p and g are q and k rotated, with
the phases i^n and e^{iπn/4} gathered from `schwinger.roots`.  It returns
read-only (values, vectors) with generator = vectors·diag(values)·vectors†.

The dense operators are read-only and built on first access.  What depends
only on the dimension — the real q and k spectra and the dense q and p — is
computed once per dimension and shared by every FockSpace of that size:
each is held by an `lru_cache` of the last CACHED_DIMS = 4 dimensions, at
most 3 MiB per dimension at the pointer cap of 256 (q and p 1 MiB each, the
q and k vectors 0.5 MiB each), so at most 12 MiB in all.  A FockSpace
itself holds only its diagonals and what it has built.

The scale operator S_ξ = exp(i·lnξ·g) dilates quadrature statistics by
Var_Q(S_ξ|0⟩) = ξ⁻²·Var_Q(|0⟩) — the exponent -2 is the pinned direction
for this generator sign.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .linalg import as_hermitian, as_ket, basis_ket, spectral_exp
from .schwinger import roots

SCALE_MIN, SCALE_MAX = 1.0 / 3.0, 3.0
CACHED_DIMS = 4  # dimensions whose q and k spectra and dense q and p stay cached


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _ladder(levels: np.ndarray) -> np.ndarray:
    """a|n⟩ = √n|n-1⟩ on the levels 0..D-1."""
    return np.sqrt(levels[1:])


def _squared_ladder(levels: np.ndarray) -> np.ndarray:
    """a²|n⟩ = √(n(n-1))|n-2⟩ on the levels 0..D-1."""
    return np.sqrt(levels[1:-1] * levels[2:])


def _jacobi_eigh(off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real spectrum of the symmetric tridiagonal matrix with zero diagonal and `off` beside it."""
    return np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))


@lru_cache(maxsize=CACHED_DIMS)
def _quadratures(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only dense (Q, P) of the mode of dimension `dim`."""
    a = np.diag(_ladder(np.arange(dim)), 1).astype(complex)
    adag = a.conj().T
    return _read_only((a + adag) / np.sqrt(2)), _read_only((a - adag) / (1j * np.sqrt(2)))


@lru_cache(maxsize=CACHED_DIMS)
def _q_spectrum(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only real (values, vectors) of Q: one Jacobi matrix."""
    values, vectors = _jacobi_eigh(_ladder(np.arange(dim)) / np.sqrt(2))
    return _read_only(values), _read_only(vectors)


@lru_cache(maxsize=CACHED_DIMS)
def _k_spectrum(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only real (values, vectors) of k: it couples n to n ± 2 only, one block per parity."""
    squared = _squared_ladder(np.arange(dim))
    even = _jacobi_eigh(squared[0::2] / 2)
    odd = _jacobi_eigh(squared[1::2] / 2)
    vectors = np.zeros((dim, dim))
    vectors[0::2, : even[0].size] = even[1]
    vectors[1::2, even[0].size :] = odd[1]
    return _read_only(np.concatenate([even[0], odd[0]])), _read_only(vectors)


class FockSpace:
    """Operator bundle for one truncated mode of dimension `dim` ≥ 2."""

    # spectrum key -> the dense attribute it diagonalizes
    GENERATORS = {"q": "q", "p": "p", "n": "num", "h0": "h0", "g": "g", "k": "k"}

    def __init__(self, dim: int):
        if not isinstance(dim, (int, np.integer)) or dim < 2:
            raise ValueError(f"truncation dimension must be an integer >= 2, got {dim!r}")
        self.dim = int(dim)
        # The operators' diagonals; the dense operators are built from them on first access.
        levels = self._levels = np.arange(self.dim)
        self._number = np.sqrt(levels) ** 2  # a†a, entries rounded as √k·√k
        self._half_counts = levels + 0.5
        self._half_counts[-1] = (self.dim - 1) / 2  # a a† vanishes on the top level
        self._spectra: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    # Exact in the truncated space: h0 = (a a† + a† a)/2, g = (a² - a†²)/(2i),
    # k = (a² + a†²)/2.  Every dense operator is read-only; q and p are shared
    # by all modes of one dimension.

    @cached_property
    def a(self) -> np.ndarray:
        return _read_only(np.diag(_ladder(self._levels), 1).astype(complex))

    @cached_property
    def adag(self) -> np.ndarray:
        return _read_only(self.a.conj().T)

    @cached_property
    def num(self) -> np.ndarray:
        return _read_only(np.diag(self._number).astype(complex))

    @property
    def q(self) -> np.ndarray:
        return _quadratures(self.dim)[0]

    @property
    def p(self) -> np.ndarray:
        return _quadratures(self.dim)[1]

    @cached_property
    def h0(self) -> np.ndarray:
        return _read_only(np.diag(self._half_counts).astype(complex))

    @cached_property
    def g(self) -> np.ndarray:
        a2 = np.diag(_squared_ladder(self._levels), 2).astype(complex)
        return _read_only((a2 - a2.T) / 2j)

    @cached_property
    def k(self) -> np.ndarray:
        a2 = np.diag(_squared_ladder(self._levels), 2).astype(complex)
        return _read_only((a2 + a2.T) / 2)

    def spectrum(self, key: str) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (values, vectors) of the generator `key` in GENERATORS; see the module docstring."""
        if key not in self._spectra:
            values, vectors = self._structured_spectrum(key)
            self._spectra[key] = (_read_only(values), _read_only(vectors))
        return self._spectra[key]

    def _structured_spectrum(self, key: str) -> tuple[np.ndarray, np.ndarray]:
        if key in ("n", "h0"):
            diagonal = self._number if key == "n" else self._half_counts
            return diagonal, np.eye(self.dim)
        if key in ("q", "k"):
            return (_q_spectrum if key == "q" else _k_spectrum)(self.dim)
        if key in ("p", "g"):
            # p = R(π/2)·q·R(π/2)† and g = R(π/4)·k·R(π/4)†, with R(θ) = diag(e^{iθn})
            base, turns = ("q", 4) if key == "p" else ("k", 8)
            values, vectors = self.spectrum(base)
            return values, roots(turns)[self._levels % turns][:, None] * vectors
        raise ValueError(f"unknown generator {key!r}; expected one of {sorted(self.GENERATORS)}")

    def vacuum(self) -> np.ndarray:
        return basis_ket(self.dim, 0)

    def rotation(self, theta: float) -> np.ndarray:
        """Fractional Fourier operator F_θ = diag(e^{iθn})."""
        return np.diag(np.exp(1j * theta * np.arange(self.dim)))

    def _displacement_parts(self, z: complex):
        """(d, λ, V, t) with D(z) = (d·V)·exp(-i·t·diag(λ))·(d·V)†.

        d = R(θ)·i^n is a diagonal, (λ, V) the q spectrum and t = √2|z|.

        Guarded so the displaced vacuum stays numerically inside the
        truncated space: requires (|z| + 3)² ≤ dim.
        """
        z = complex(z)
        if abs(z) ** 2 + 6 * abs(z) + 9 > self.dim:
            raise ValueError(
                f"displacement |z|={abs(z):.3g} too large for truncation {self.dim}: "
                f"needs (|z|+3)^2 <= dim"
            )
        values, vectors = self.spectrum("q")
        frame = np.exp(1j * np.angle(z) * self._levels) * roots(4)[self._levels % 4]
        return frame, values, vectors, np.sqrt(2) * abs(z)

    def displacement(self, z: complex) -> np.ndarray:
        """Displacement exp(z·a† - z̄·a), guarded by (|z| + 3)² ≤ dim."""
        frame, values, vectors, t = self._displacement_parts(z)
        return spectral_exp(values, frame[:, None] * vectors, t)

    def coherent(self, z: complex) -> np.ndarray:
        """Coherent state |z⟩ = D(z)|0⟩, by matrix-vector products: V†|0⟩ is row 0 of V."""
        frame, values, vectors, t = self._displacement_parts(z)
        return frame * (vectors @ (np.exp(-1j * t * values) * vectors[0]))

    def scale(self, xi: float) -> np.ndarray:
        """Scale operator S_ξ = exp(i·lnξ·g) for ξ in [1/3, 3]."""
        xi = float(xi)
        if not SCALE_MIN <= xi <= SCALE_MAX:
            raise ValueError(f"scale parameter {xi:.3g} outside [{SCALE_MIN:.3g}, {SCALE_MAX:.3g}]")
        return spectral_exp(*self.spectrum("g"), -np.log(xi))

    def variance(self, op, psi) -> float:
        op, psi = as_hermitian(op, "operator of FockSpace.variance"), as_ket(psi)
        if op.shape[0] != self.dim or psi.shape[0] != self.dim:
            raise ValueError(f"operator and ket need side {self.dim}, got {op.shape[0]} and {psi.shape[0]}")
        m = (psi.conj() @ op @ psi).real
        m2 = (psi.conj() @ op @ (op @ psi)).real
        return float(m2 - m * m)
