"""Truncated single bosonic mode.

The ladder operator acts as a|n⟩ = √n|n-1⟩ on number states 0..D-1, with
the raising operator cut off at the top level (a†|D-1⟩ = 0).  Quadratures
are Q = (a + a†)/√2 and P = (a - a†)/(i√2), so [Q,P] = iI exactly on the
interior indices 0..D-2 and Var_Q(|0⟩) = 1/2.

The sl(2,R)-like generators are

    h0 = (Q² + P²)/2      (equals N + I/2 on the interior)
    g  = (QP + PQ)/2
    k  = (Q² - P²)/2

whose commutators close on the span {h0, g, k} away from the truncation
edge: [h0,g] = 2ik, [g,k] = -2ih0, [k,h0] = 2ig.

The scale operator S_ξ = exp(i·lnξ·g) dilates quadrature statistics by
Var_Q(S_ξ|0⟩) = ξ⁻²·Var_Q(|0⟩) — the exponent -2 is the pinned direction
for this generator sign.
"""

from __future__ import annotations

import numpy as np

from .linalg import as_ket, basis_ket, unitary_exp

DEFAULT_DIM = 64
SCALE_MIN, SCALE_MAX = 1.0 / 3.0, 3.0


class FockSpace:
    """Operator bundle for one truncated mode of dimension `dim` ≥ 2."""

    def __init__(self, dim: int = DEFAULT_DIM):
        if not isinstance(dim, (int, np.integer)) or dim < 2:
            raise ValueError(f"truncation dimension must be an integer >= 2, got {dim!r}")
        self.dim = int(dim)
        self.a = np.diag(np.sqrt(np.arange(1, self.dim)), 1).astype(complex)
        self.adag = self.a.conj().T
        self.num = self.adag @ self.a
        self.q = (self.a + self.adag) / np.sqrt(2)
        self.p = (self.a - self.adag) / (1j * np.sqrt(2))
        self.h0 = (self.q @ self.q + self.p @ self.p) / 2
        self.g = (self.q @ self.p + self.p @ self.q) / 2
        self.k = (self.q @ self.q - self.p @ self.p) / 2

    def vacuum(self) -> np.ndarray:
        return basis_ket(self.dim, 0)

    def number_state(self, n: int) -> np.ndarray:
        return basis_ket(self.dim, n)

    def rotation(self, theta: float) -> np.ndarray:
        """Fractional Fourier operator F_θ = diag(e^{iθn})."""
        return np.diag(np.exp(1j * theta * np.arange(self.dim)))

    def displacement(self, z: complex) -> np.ndarray:
        """Displacement exp(z·a† - z̄·a).

        Guarded so the displaced vacuum stays numerically inside the
        truncated space: requires (|z| + 3)² ≤ dim.
        """
        z = complex(z)
        if abs(z) ** 2 + 6 * abs(z) + 9 > self.dim:
            raise ValueError(
                f"displacement |z|={abs(z):.3g} too large for truncation {self.dim}: "
                f"needs (|z|+3)^2 <= dim"
            )
        gen = 1j * (z * self.adag - np.conjugate(z) * self.a)  # hermitian
        return unitary_exp(gen, 1.0)

    def coherent(self, z: complex) -> np.ndarray:
        """Coherent state |z⟩ = D(z)|0⟩."""
        return self.displacement(z) @ self.vacuum()

    def scale(self, xi: float) -> np.ndarray:
        """Scale operator S_ξ = exp(i·lnξ·g) for ξ in [1/3, 3]."""
        xi = float(xi)
        if not SCALE_MIN <= xi <= SCALE_MAX:
            raise ValueError(f"scale parameter {xi:.3g} outside [{SCALE_MIN:.3g}, {SCALE_MAX:.3g}]")
        return unitary_exp(self.g, -np.log(xi))

    def mean(self, op, psi) -> complex:
        psi = as_ket(psi)
        return complex(psi.conj() @ op @ psi)

    def variance(self, op, psi) -> float:
        psi = as_ket(psi)
        m = (psi.conj() @ op @ psi).real
        m2 = (psi.conj() @ op @ (op @ psi)).real
        return float(m2 - m * m)


def sl2_generators(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h0, g, k) for dimension ≥ 4 (smaller spaces cannot hold quadratics)."""
    if dim < 4:
        raise ValueError(f"sl(2) generators need dimension >= 4, got {dim}")
    space = FockSpace(dim)
    return space.h0, space.g, space.k

