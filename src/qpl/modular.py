"""Modular variables on Z_N: CRT factorization, lattice states, n-slit runs.

When N = Na·Nb with gcd(Na, Nb) = 1 the residue map i ↦ (i mod Na, i mod Nb)
is a bijection, and the permutation that reorders the N-dimensional basis
into the pair basis carries the unit shift V_N into V_Na ⊗ V_Nb exactly.
A modular lattice state is sharp in both factors at once — a shift
eigenstate of the Na factor together with a clock eigenstate of the Nb
factor — which is possible because the two factors commute.

The n-slit evolution applies a phase mask exp(-i·samples) with a period
dividing N to the flat momentum ground state; the outgoing momentum
support then lives on multiples of N/period.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .linalg import as_ket, basis_ket
from .schwinger import _check_dim, _momentum_ket, _residues, dft


def _check_factors(na: int, nb: int):
    if not all(isinstance(x, (int, np.integer)) for x in (na, nb)):
        raise ValueError(f"factor dimensions must be integers, got {na!r} x {nb!r}")
    if na < 1 or nb < 1:
        raise ValueError(f"factor dimensions must be positive, got {na} x {nb}")
    if gcd(na, nb) != 1:
        raise ValueError(f"factor dimensions {na} and {nb} must be coprime")


@dataclass(frozen=True)
class CrtMap:
    """Residue bijection between Z_(na*nb) and Z_na x Z_nb.

    `to_pair[i]` holds (i mod na, i mod nb); `to_index[j, s]` holds the
    unique i with i ≡ j (mod na) and i ≡ s (mod nb).
    """

    na: int
    nb: int
    dim: int
    to_pair: np.ndarray
    to_index: np.ndarray

    def fwd(self, j: int, sigma: int) -> int:
        [j], [sigma] = _residues(self.na, j=j), _residues(self.nb, sigma=sigma)
        return int(self.to_index[j, sigma])

    def inv(self, i: int) -> tuple[int, int]:
        [i] = _residues(self.dim, i=i)
        j, sigma = self.to_pair[i]
        return int(j), int(sigma)


def crt_map(na: int, nb: int) -> CrtMap:
    _check_factors(na, nb)
    dim = na * nb
    idx = np.arange(dim)
    to_pair = np.column_stack([idx % na, idx % nb])
    to_index = np.empty((na, nb), dtype=int)
    to_index[idx % na, idx % nb] = idx
    return CrtMap(na=na, nb=nb, dim=dim, to_pair=to_pair, to_index=to_index)


def crt_permutation(na: int, nb: int) -> np.ndarray:
    """Permutation P with P·e_i = e_(i mod na) ⊗ e_(i mod nb).

    Conjugation by P factors the unit shift: P·V_N·P† = V_na ⊗ V_nb,
    because stepping i by one steps both residues by one.
    """
    _check_factors(na, nb)
    dim = na * nb
    idx = np.arange(dim)
    p = np.zeros((dim, dim))
    p[(idx % na) * nb + (idx % nb), idx] = 1.0
    return p


def _cell_phase(n: int, labels):
    """2π·labels/n, unchecked: the phase-cell coordinate of reduced labels of one factor."""
    return 2 * np.pi * labels / n


def modular_cell_coords(na: int, nb: int, j: int, sigma: int) -> tuple[float, float]:
    """Phase-cell coordinates (2π·j/na, 2π·σ/nb) of a lattice label."""
    _check_factors(na, nb)
    [j], [sigma] = _residues(na, j=j), _residues(nb, sigma=sigma)
    return _cell_phase(na, j), _cell_phase(nb, sigma)


@dataclass(frozen=True)
class AzState:
    """Modular lattice state, in pair form and in the single Z_N register.

    `tensor` is |v_j⟩⊗|u_σ⟩ — a momentum state of the na factor next to
    a position state of the nb factor.  It is a simultaneous eigenstate
    of V_na⊗I (eigenvalue e^{i·shift_phase}) and I⊗U_nb (eigenvalue
    e^{i·clock_phase}).  `vector` is the same state carried back to Z_N
    through the residue permutation, where the two eigenconditions read
    V^t (t the residue-(1,0) translation) and U^na.
    """

    na: int
    nb: int
    j: int
    sigma: int
    tensor: np.ndarray
    vector: np.ndarray
    shift_phase: float
    clock_phase: float


def az_state(na: int, nb: int, j: int, sigma: int) -> AzState:
    _check_factors(na, nb)
    [j], [sigma] = _residues(na, j=j), _residues(nb, sigma=sigma)
    pair = np.kron(_momentum_ket(na, j), basis_ket(nb, sigma))
    idx = np.arange(na * nb)
    vector = pair[(idx % na) * nb + idx % nb]  # crt_permutation(na, nb).T @ pair
    return AzState(
        na=na,
        nb=nb,
        j=j,
        sigma=sigma,
        tensor=pair,
        vector=vector,
        shift_phase=_cell_phase(na, j),
        clock_phase=_cell_phase(nb, sigma),
    )


def nslit_evolve(n: int, samples) -> np.ndarray:
    """Apply the phase mask exp(-i·samples) to the flat momentum state.

    `samples` is one period of a real potential; its length must divide
    n and it is tiled across the register.  The returned ket has
    momentum support only on multiples of n // len(samples).
    """
    _check_dim(n)
    samples = np.asarray(samples)
    if samples.ndim != 1 or samples.size == 0:
        raise ValueError("potential samples must form a nonempty 1-D array")
    if np.iscomplexobj(samples):
        raise ValueError("potential samples must be real")
    samples = samples.astype(float)
    if not np.all(np.isfinite(samples)):
        raise ValueError("potential samples must be finite")
    period = samples.size
    if n % period != 0:
        raise ValueError(f"period {period} does not divide register size {n}")
    tiled = np.tile(samples, n // period)
    return np.exp(-1j * tiled) * _momentum_ket(n, 0)


def momentum_amplitudes(state) -> np.ndarray:
    """Coefficients of a ket in the momentum basis (columns of F)."""
    return _momentum_amplitudes(as_ket(state))


def _momentum_amplitudes(psi: np.ndarray) -> np.ndarray:
    """F†ψ for a checked or qpl-built complex ket ψ."""
    return dft(psi.shape[0]).conj().T @ psi
