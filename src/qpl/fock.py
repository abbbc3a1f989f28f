"""Truncated single bosonic mode.

The ladder operator acts as a|n⟩ = √n|n-1⟩ on number states 0..D-1
(|n⟩ is basis_ket(D, n); FockSpace.vacuum() is |0⟩), with the raising
operator cut off at the top level (a†|D-1⟩ = 0).  Quadratures are
Q = (a + a†)/√2 and P = (a - a†)/(i√2), so [Q,P] = iI exactly on the
interior indices 0..D-2 and Var_Q(|0⟩) = 1/2.

The sl(2,R)-like generators, the FockSpace keys h0, g and k, are

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
diagonal and carry no vector matrix (vectors None stands for the identity);
q is the real Jacobi matrix of the Hermite polynomials, whose eigenvalues
are the Gauss–Hermite nodes; k splits into real tridiagonal blocks on the
even and the odd levels; p and g are q and k rotated, with the phases i^n
and e^{iπn/4} gathered from `schwinger.roots`.  It returns read-only
(values, vectors) with generator = vectors·diag(values)·vectors†.

Every generator and `a` has at most two nonzero diagonals, its bands, the
one definition of the operator: `FockSpace.apply(key, ψ)` applies it in
O(D), `variance` reads ⟨X²⟩ = ‖Xψ‖², and `operator(key)` builds the dense
matrix from `apply` for library callers.  Only the spectra depend on nothing
but the dimension: the q, p, k and g spectra are computed once per dimension
and shared by every FockSpace of that size, each held by an `lru_cache` of
the last CACHED_DIMS = 4 dimensions.  That is at most 3 MiB per dimension at
the pointer cap of 256 (the real q and k vectors 0.5 MiB each, the complex p
and g vectors 1 MiB each), so at most 12 MiB in all.

The scale operator S_ξ = exp(i·lnξ·g) dilates quadrature statistics by
Var_Q(S_ξ|0⟩) = ξ⁻²·Var_Q(|0⟩) — the exponent -2 is the pinned direction
for this generator sign.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .linalg import as_ket, basis_ket, spectral_exp
from .schwinger import roots

SCALE_MIN, SCALE_MAX = 1.0 / 3.0, 3.0
CACHED_DIMS = 4  # dimensions whose q, p, k and g spectra stay cached


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


def _rotated(spectrum: tuple[np.ndarray, np.ndarray], turns: int) -> tuple[np.ndarray, np.ndarray]:
    """The spectrum of R(2π/turns)·X·R(2π/turns)† from that of X, with R(θ) = diag(e^{iθn})."""
    values, vectors = spectrum
    return values, _read_only(roots(turns)[np.arange(len(values)) % turns][:, None] * vectors)


@lru_cache(maxsize=CACHED_DIMS)
def _p_spectrum(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (values, vectors) of P = R(π/2)·Q·R(π/2)†."""
    return _rotated(_q_spectrum(dim), 4)


@lru_cache(maxsize=CACHED_DIMS)
def _g_spectrum(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (values, vectors) of g = R(π/4)·k·R(π/4)†."""
    return _rotated(_k_spectrum(dim), 8)


_SPECTRA = {"q": _q_spectrum, "p": _p_spectrum, "k": _k_spectrum, "g": _g_spectrum}


class FockSpace:
    """Operator bundle for one truncated mode of dimension `dim` ≥ 2."""

    GENERATORS = ("q", "p", "n", "h0", "g", "k")  # the hermitian pointer operators, by key

    def __init__(self, dim: int):
        if not isinstance(dim, (int, np.integer)) or dim < 2:
            raise ValueError(f"truncation dimension must be an integer >= 2, got {dim!r}")
        self.dim = int(dim)
        levels = self._levels = np.arange(self.dim)
        self._number = _read_only(np.sqrt(levels) ** 2)  # a†a, entries rounded as √k·√k
        half_counts = levels + 0.5
        half_counts[-1] = (self.dim - 1) / 2  # a a† vanishes on the top level
        self._half_counts = _read_only(half_counts)  # h0 = (a a† + a† a)/2

    def spectrum(self, key: str) -> tuple[np.ndarray, np.ndarray | None]:
        """Read-only (values, vectors) of the generator `key` in GENERATORS, vectors None
        for the diagonal n and h0; see the module docstring."""
        if key in ("n", "h0"):
            return (self._number if key == "n" else self._half_counts), None
        if key not in _SPECTRA:
            raise ValueError(f"unknown generator {key!r}; expected one of {sorted(self.GENERATORS)}")
        return _SPECTRA[key](self.dim)

    @cached_property
    def _bands(self) -> dict[str, tuple[np.ndarray, int]]:
        """key -> (b, s): ⟨j|X|j+s⟩ = b_j, times -i for p and g; `a` has no lower band.
        Exact: q = (a + a†)/√2, p = (a - a†)/(i√2), k = (a² + a†²)/2, g = (a² - a†²)/(2i)."""
        ladder = _ladder(self._levels)
        quadrature, squeeze = ladder / np.sqrt(2), _squared_ladder(self._levels) / 2
        return {"a": (ladder, 1), "q": (quadrature, 1), "p": (quadrature, 1), "k": (squeeze, 2), "g": (squeeze, 2)}

    def apply(self, key: str, psi) -> np.ndarray:
        """X·ψ in O(D) from the bands of X, for X the generator `key` in GENERATORS or "a";
        no D×D array is formed."""
        if key not in self._bands and key not in ("n", "h0"):
            raise ValueError(f"unknown operator {key!r}; expected 'a' or one of {sorted(self.GENERATORS)}")
        psi = as_ket(psi)
        if len(psi) != self.dim:
            raise ValueError(f"ket has {len(psi)} entries, the mode {self.dim} levels")
        return self._apply(key, psi)

    def _apply(self, key: str, psi: np.ndarray) -> np.ndarray:
        """`apply` for a known key and a checked ket of length dim."""
        if key in ("n", "h0"):
            return self.spectrum(key)[0] * psi
        band, step = self._bands[key]
        out = np.zeros(self.dim, dtype=complex)
        out[:-step] = band * psi[step:]
        if key == "a":
            return out
        lower = band * psi[:-step]
        if key in ("p", "g"):  # upper band times -i, lower band times +i
            out[:-step] *= -1j
            lower = 1j * lower
        out[step:] += lower
        return out

    def operator(self, key: str) -> np.ndarray:
        """The read-only dense matrix of `key` in GENERATORS or "a": column j is `apply(key, |j⟩)`."""
        return _read_only(np.column_stack([self.apply(key, basis_ket(self.dim, j)) for j in range(self.dim)]))

    def vacuum(self) -> np.ndarray:
        return basis_ket(self.dim, 0)

    def rotation(self, theta: float) -> np.ndarray:
        """Fractional Fourier operator F_θ = diag(e^{iθn}) for a finite θ."""
        if not np.isfinite(theta):
            raise ValueError(f"rotation angle theta must be finite, got {theta!r}")
        return np.diag(np.exp(1j * theta * np.arange(self.dim)))

    def _displacement_parts(self, z: complex):
        """(d, λ, V, t) with D(z) = (d·V)·exp(-i·t·diag(λ))·(d·V)†.

        d = R(θ)·i^n is a diagonal, (λ, V) the q spectrum and t = √2|z|.

        Guarded so the displaced vacuum stays numerically inside the
        truncated space: requires (|z| + 3)² ≤ dim.
        """
        z = complex(z)
        if not abs(z) ** 2 + 6 * abs(z) + 9 <= self.dim:  # NaN and inf fail it too
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

    def variance(self, key: str, psi) -> float:
        """Var_X(ψ) = ‖Xψ‖² - ⟨ψ|X|ψ⟩² of the generator `key` in GENERATORS, from its bands."""
        if key not in self.GENERATORS:
            raise ValueError(f"variance needs a generator, one of {sorted(self.GENERATORS)}, got {key!r}")
        psi = as_ket(psi)
        x_psi = self.apply(key, psi)
        mean = np.vdot(psi, x_psi).real
        return float(np.vdot(x_psi, x_psi).real - mean * mean)
