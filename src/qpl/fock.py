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
read-only (values, vectors) with generator = vectors·diag(values)·vectors†,
computed once per instance.  The dense operators are built on first access.

The scale operator S_ξ = exp(i·lnξ·g) dilates quadrature statistics by
Var_Q(S_ξ|0⟩) = ξ⁻²·Var_Q(|0⟩) — the exponent -2 is the pinned direction
for this generator sign.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .linalg import as_ket, basis_ket, spectral_exp
from .schwinger import roots

SCALE_MIN, SCALE_MAX = 1.0 / 3.0, 3.0


def _jacobi_eigh(off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real spectrum of the symmetric tridiagonal matrix with zero diagonal and `off` beside it."""
    return np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))


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
        self._ladder = np.sqrt(levels[1:])  # a|n⟩ = √n|n-1⟩
        self._number = np.sqrt(levels) ** 2  # a†a, entries rounded as √k·√k
        self._half_counts = levels + 0.5
        self._half_counts[-1] = (self.dim - 1) / 2  # a a† vanishes on the top level
        self._squared_ladder = np.sqrt(levels[1:-1] * levels[2:])  # a²|n⟩ = √(n(n-1))|n-2⟩
        self._spectra: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    # Exact in the truncated space: h0 = (a a† + a† a)/2, g = (a² - a†²)/(2i),
    # k = (a² + a†²)/2.

    @cached_property
    def a(self) -> np.ndarray:
        return np.diag(self._ladder, 1).astype(complex)

    @cached_property
    def adag(self) -> np.ndarray:
        return self.a.conj().T

    @cached_property
    def num(self) -> np.ndarray:
        return np.diag(self._number).astype(complex)

    @cached_property
    def q(self) -> np.ndarray:
        return (self.a + self.adag) / np.sqrt(2)

    @cached_property
    def p(self) -> np.ndarray:
        return (self.a - self.adag) / (1j * np.sqrt(2))

    @cached_property
    def h0(self) -> np.ndarray:
        return np.diag(self._half_counts).astype(complex)

    @cached_property
    def g(self) -> np.ndarray:
        a2 = np.diag(self._squared_ladder, 2).astype(complex)
        return (a2 - a2.T) / 2j

    @cached_property
    def k(self) -> np.ndarray:
        a2 = np.diag(self._squared_ladder, 2).astype(complex)
        return (a2 + a2.T) / 2

    def spectrum(self, key: str) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (values, vectors) of the generator `key` in GENERATORS; see the module docstring."""
        if key not in self._spectra:
            values, vectors = self._structured_spectrum(key)
            values.flags.writeable = False
            vectors.flags.writeable = False
            self._spectra[key] = (values, vectors)
        return self._spectra[key]

    def _structured_spectrum(self, key: str) -> tuple[np.ndarray, np.ndarray]:
        if key in ("n", "h0"):
            diagonal = self._number if key == "n" else self._half_counts
            return diagonal, np.eye(self.dim)
        if key == "q":
            return _jacobi_eigh(self._ladder / np.sqrt(2))
        if key == "k":
            # k couples level n to n ± 2 only: one block per parity
            even = _jacobi_eigh(self._squared_ladder[0::2] / 2)
            odd = _jacobi_eigh(self._squared_ladder[1::2] / 2)
            vectors = np.zeros((self.dim, self.dim))
            vectors[0::2, : even[0].size] = even[1]
            vectors[1::2, even[0].size :] = odd[1]
            return np.concatenate([even[0], odd[0]]), vectors
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
        psi = as_ket(psi)
        m = (psi.conj() @ op @ psi).real
        m2 = (psi.conj() @ op @ (op @ psi)).real
        return float(m2 - m * m)
