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

`FockSpace.spectrum(key)` diagonalizes each pointer generator from its
bands by one rule, with no complex eigendecomposition.  A band at offset 0
(n, h0) is its own spectrum, with vectors None for the identity.  A real
band at offset s with zero diagonal (q: s = 1, k: s = 2) couples level j
only to j ± s, so it splits into the s Jacobi chains j ≡ i (mod s) (Golub &
Welsch, Math. Comp. 23, 221 (1969); the q values are the Gauss–Hermite
nodes): one real `eigh` per chain, values concatenated in chain order,
chain i's vectors on the rows i::s.  p and g are q and k turned by the
first two identities, with the phases i^n and e^{iπn/4} from
`schwinger.roots`.  It returns read-only (values, vectors) with
generator = vectors·diag(values)·vectors†.

Every generator and `a` has at most two nonzero diagonals, its bands, the
one definition of the operator, all in one table: n and h0 are one band at
offset 0, and the ∓i of p and g sit in the coefficients.  `FockSpace.apply`
sums the bands in O(D) with no case on the key, `variance` reads
⟨X²⟩ = ‖Xψ‖², and `operator(key)` builds the dense matrix for library
callers.  Keys are checked in one place and ket lengths in one.  The bands
are kept for the last CACHED_DIMS = 4 dimensions (`_band_table`) and the
spectra for the last 6·CACHED_DIMS = 24 (dimension, key) pairs
(`_spectrum`), so a process that uses at most 4 dimensions builds each
spectrum once.  At the pointer cap of 256 the spectra of 4 dimensions take
12 MiB (the real q and k vectors 0.5 MiB each, the complex p and g vectors
1 MiB each).  A turned entry is stored right after its base, so at least
one of the 24 is real: at worst 23 complex vector matrices and one real
are kept, at most 23.5 MiB plus 48 KiB of values.

The scale operator S_ξ = exp(i·lnξ·g) dilates quadrature statistics by
Var_Q(S_ξ|0⟩) = ξ⁻²·Var_Q(|0⟩) — the exponent -2 is the pinned direction
for this generator sign.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .linalg import as_ket, as_unit_ket, basis_ket, spectral_exp
from .schwinger import roots

SCALE_MIN, SCALE_MAX = 1.0 / 3.0, 3.0
CACHED_DIMS = 4  # dimensions whose bands, and six spectra each, stay cached


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@lru_cache(maxsize=CACHED_DIMS)
def _band_table(dim: int) -> dict[str, tuple]:
    """key -> read-only bands (rows, cols, b): X·ψ adds b·ψ[cols] at rows.  Exact: n = a†a,
    h0 = (a a† + a† a)/2, q = (a + a†)/√2, p = (a - a†)/(i√2), k = (a² + a†²)/2 and
    g = (a² - a†²)/(2i); `a` has no lower band."""
    levels = np.arange(dim)
    half_counts = levels + 0.5
    half_counts[-1] = (dim - 1) / 2  # a a† vanishes on the top level
    ladder = np.sqrt(levels[1:])  # a|n⟩ = √n|n-1⟩
    squeeze = np.sqrt(levels[1:-1] * levels[2:]) / 2  # a²|n⟩ = √(n(n-1))|n-2⟩, halved
    quadrature = ladder / np.sqrt(2)

    def band(s: int, b: np.ndarray) -> tuple:
        """The band at offset s: ⟨j|X|j+s⟩ over the rows j, in order, is b."""
        return slice(max(-s, 0), dim - max(s, 0)), slice(max(s, 0), dim - max(-s, 0)), _read_only(b)

    return {
        "q": (band(1, quadrature), band(-1, quadrature)),
        "p": (band(1, -1j * quadrature), band(-1, 1j * quadrature)),
        "n": (band(0, np.sqrt(levels) ** 2),),  # entries rounded as √k·√k
        "h0": (band(0, half_counts),),
        "g": (band(2, -1j * squeeze), band(-2, 1j * squeeze)),
        "k": (band(2, squeeze), band(-2, squeeze)),
        "a": (band(1, ladder),),
    }


_TURNED = {"p": ("q", 4), "g": ("k", 8)}  # key -> (base, turns): key = R(2π/turns)·base·R(2π/turns)†


@lru_cache(maxsize=CACHED_DIMS * 6)  # six generator keys per dimension
def _spectrum(dim: int, key: str) -> tuple[np.ndarray, np.ndarray | None]:
    """Read-only (values, vectors) of the generator `key` from its bands, by the one rule
    of the module docstring."""
    if key in _TURNED:
        base, turns = _TURNED[key]
        values, vectors = _spectrum(dim, base)
        return values, _read_only(roots(turns)[np.arange(dim) % turns][:, None] * vectors)
    (rows, cols, band), *_ = _band_table(dim)[key]
    s = cols.start - rows.start  # the offset of the upper band
    if s == 0:
        return band, None
    chains = [np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1)) for off in (band[i::s] for i in range(s))]
    vectors, start = np.zeros((dim, dim)), 0
    for i, (chain_values, chain_vectors) in enumerate(chains):  # chain i holds the levels i, i + s, ...
        vectors[i::s, start : start + chain_values.size] = chain_vectors
        start += chain_values.size
    return _read_only(np.concatenate([chain_values for chain_values, _ in chains])), _read_only(vectors)


class FockSpace:
    """Operator bundle for one truncated mode of dimension `dim` ≥ 2."""

    GENERATORS = ("q", "p", "n", "h0", "g", "k")  # the hermitian pointer operators, by key

    def __init__(self, dim: int):
        if not isinstance(dim, (int, np.integer)) or dim < 2:
            raise ValueError(f"truncation dimension must be an integer >= 2, got {dim!r}")
        self.dim = int(dim)
        self._levels = np.arange(self.dim)
        self._bands = _band_table(self.dim)

    @staticmethod
    def _check_key(what: str, key, keys=GENERATORS) -> None:
        """The one check of a pointer key: `key` must be in `keys`, GENERATORS unless given."""
        if key not in tuple(keys):  # by ==, so an unhashable key gets this error too
            raise ValueError(f"{what} must be one of {sorted(keys)}, got {key!r}")

    def _fits(self, psi: np.ndarray, what: str) -> np.ndarray:
        """The checked ket `psi`, named `what`, if it has one entry per level."""
        if len(psi) != self.dim:
            raise ValueError(f"dimensions differ: {what} has {len(psi)}, space has {self.dim}")
        return psi

    def spectrum(self, key: str) -> tuple[np.ndarray, np.ndarray | None]:
        """Read-only (values, vectors) of the generator `key` in GENERATORS, vectors None
        for the diagonal n and h0; see the module docstring."""
        self._check_key("generator", key)
        return _spectrum(self.dim, key)

    def apply(self, key: str, psi) -> np.ndarray:
        """X·ψ in O(D) from the bands of X, for X the generator `key` in GENERATORS or "a";
        no D×D array is formed."""
        self._check_key("operator", key, self._bands)
        return self._apply(key, self._fits(as_ket(psi), "psi"))

    def _apply(self, key: str, psi: np.ndarray) -> np.ndarray:
        """`apply` for a known key and a checked ket of length dim."""
        out = np.zeros(self.dim, dtype=complex)
        for rows, cols, band in self._bands[key]:
            out[rows] += band * psi[cols]
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
        self._check_key("generator", key)
        psi = self._fits(as_unit_ket(psi, "variance state"), "variance state")
        x_psi = self._apply(key, psi)
        mean = np.vdot(psi, x_psi).real
        return float(np.vdot(x_psi, x_psi).real - mean * mean)
