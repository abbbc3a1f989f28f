"""Phase-point operator basis on Z_N x Z_N and the discrete Wigner transform.

The basis is defined by the double sum

    Δ_mn = (1/N) Σ_{r,s} h(r,s) v^{-s·m} v^{-r·n} U^r V^s

over representatives 0 ≤ r,s ≤ N-1, where h(r,s) is the half phase
"v^{rs/2}".  (U^r V^s)[a, c] = v^{r·a} exactly when s ≡ c - a, so with
Φ[k, j] = v^{k·j} and the Weyl moments M[r, s] = tr(U^r V^s O):

    Δ_mn[a, c]  = v^{-m·s} · (Φ·h/N)[(a - n) mod N, s],   s = (c - a) mod N
    tr(Δ_mn O)  = (1/N) Σ_{r,s} v^{-m·s} v^{-n·r} h(r,s) M[r, s]
    Σ c_mn Δ_mn = Σ_{r,s} X[r, s] U^r V^s,   X = h ∘ (Φ̄·c·Φ̄)ᵀ / N

`phase_point` builds operators from the first line.  The other two are a
few N x N matrix products each (O(N³) time, O(N²) memory, odd and even N
alike) and serve `weyl_transform`, `weyl_reconstruct`, `wigner_map` and
`commutator_expansion`.  Every table these read that depends only on N —
Φ, Φ̄, h, Φ·h/N and the index tables of the shift s = (c - a) mod N — is
built once per dimension by `_weyl_tables` and kept read-only for the last
TABLE_DIMS = 16 dimensions (72·N² bytes beside the Φ that `schwinger`
caches: 288 KiB at the register cap N = 64, at most 4.5 MiB at or below
it).  Coefficient grids, operators and Wigner maps are computed afresh on
every call.  The dense double sum, the stored
(N, N, N, N) grid and the N⁶ structure-constant table live only in the
test suite, as brute-force oracles.

The half phase is the only delicate ingredient:

  * odd N:  h(r,s) = v^{2⁻¹·rs} with 2⁻¹ = (N+1)/2, the ring inverse of 2
    in Z_N.  This yields the full algebra: Δ² = I, the symplectic product
    rule, and the u(N) structure constants below.
  * even N: 2 has no inverse in Z_N, so h(r,s) = e^{iπrs/N} is evaluated
    at the representatives (rs reduced mod 2N), with the sign flipped on
    the points {r+s odd, r+s > N} — the minimal repair that keeps every Δ
    hermitian and the completeness sum Σ Δ O Δ = N·tr(O)·I intact.  (The
    repair set is empty for N ≤ 2, so the N = 2 basis is the classic
    textbook one.)  Δ² = I is genuinely lost for even N.

Label convention: the first index m pairs with the V-power phase and the
second index n with the U-power phase.  Equivalently, for odd N,

    Δ_mn = V^{-n} U^{2m} V^{-n} F²,

and the Wigner marginals come out as

    Σ_n W(m,n) = ⟨v_m|ρ|v_m⟩   (momentum marginal along the first index)
    Σ_m W(m,n) = ⟨u_n|ρ|u_n⟩   (position marginal along the second index)

for every N, not just odd N.

Pinned constants (fixed by brute-force oracles at N = 3 and regression
tested; see the test suite):

    Δ_a Δ_b = v^{2Ω(a,b)} Δ_{a-b} F²          with Ω(a,b) = p·n - m·q
    Δ_pq F² = (1/N) Σ_{k,s} v^{2(ps-kq)} Δ_ks
    [Δ_a, Δ_b] = (2i/N) Σ_c sin((2π/N)·{a,b,c}) Δ_c
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import as_hermitian, as_operator
from .schwinger import TABLE_DIMS, _check_dim, _phase_table, _residues, roots


@dataclass(frozen=True)
class _WeylTables:
    """Read-only tables of one dimension N shared by the kernels and `phase_point`."""

    phases: np.ndarray  # Φ[k, j] = v^{k·j}, the array `schwinger` caches
    labels: np.ndarray  # Φ̄[k, j] = v^{-k·j}
    half: np.ndarray  # h(r, s), as `half_phase_exponents` returns it
    kernel: np.ndarray  # H = Φ·h/N, so Δ_mn[a, c] = v^{-m·s}·H[(a - n) mod N, s]
    shift: np.ndarray  # [a, c] -> s = (c - a) mod N
    gather: np.ndarray  # [s, a] -> flat index of entry [(a + s) mod N, a]
    unshift: np.ndarray  # [a, c] -> flat index of entry [a, s]


@lru_cache(maxsize=TABLE_DIMS)
def _weyl_tables(n: int) -> _WeylTables:
    phases = _phase_table(n)
    half = half_phase_exponents(n)
    k = np.arange(n)
    shift = (k[None, :] - k[:, None]) % n
    tables = _WeylTables(
        phases=phases,
        labels=phases.conj(),
        half=half,
        kernel=phases @ half / n,
        shift=shift,
        gather=((k[None, :] + k[:, None]) % n) * n + k[None, :],
        unshift=k[:, None] * n + shift,
    )
    for table in vars(tables).values():
        table.flags.writeable = False
    return tables


def _trace_kernel(op: np.ndarray) -> np.ndarray:
    """N·tr(Δ_mn·O) for every phase point, through the Weyl moments."""
    t = _weyl_tables(op.shape[0])
    moments = t.phases @ op.take(t.gather).T  # [r, s]
    return t.labels @ (t.labels @ (t.half * moments)).T


def _sum_kernel(coeffs: np.ndarray) -> np.ndarray:
    """Σ_mn coeffs[m, n]·Δ_mn, through the Weyl-word coefficients."""
    n = coeffs.shape[0]
    t = _weyl_tables(n)
    words = t.half * (t.labels @ coeffs @ t.labels).T / n  # [r, s]
    rows = t.phases @ words  # rows[a, s] = entry [a, (a+s) mod n]
    return rows.take(t.unshift)


def half_phase_exponents(n: int) -> np.ndarray:
    """Half-phase table h(r,s) as an (n, n) array of unimodular factors."""
    _check_dim(n)
    r = np.arange(n)[:, None]
    s = np.arange(n)[None, :]
    if n % 2 == 1:
        inv2 = (n + 1) // 2
        return roots(n)[(r * s * inv2) % n]
    h = roots(2 * n)[(r * s) % (2 * n)]
    flip = ((r + s) % 2 == 1) & (r + s > n)
    return np.where(flip, -h, h)


def parity_operator(n: int) -> np.ndarray:
    """Exact parity permutation e_k → e_{-k mod n}; equals F² up to rounding."""
    _check_dim(n)
    p = np.zeros((n, n), dtype=complex)
    p[(-np.arange(n)) % n, np.arange(n)] = 1.0
    return p


def phase_point(n: int, m, nn) -> np.ndarray:
    """Phase-point operator Δ_mn by index arithmetic, broadcast over labels.

    Δ_mn[a, c] = v^{-m·s} · H[(a - nn) mod N, s] with s = (c - a) mod N and
    H[t, s] = (1/N)·Σ_r v^{r·t}·h(r, s).  The result has shape
    broadcast(m, nn) + (n, n).
    """
    return _phase_point(n, *_residues(n, m=m, nn=nn))


def _phase_point(n: int, m, nn) -> np.ndarray:
    """`phase_point` of labels already reduced mod n."""
    m, nn = (np.asarray(x)[..., None, None] for x in (m, nn))
    t = _weyl_tables(n)
    s = t.shift
    return roots(n)[(-m * s) % n] * t.kernel[(np.arange(n)[:, None] - nn) % n, s]


def weyl_transform(op) -> np.ndarray:
    """Coefficient grid O^{mn} = tr(Δ_mn O) of an N x N operator; complex (N, N) array."""
    op = as_operator(op)
    return _trace_kernel(op) / op.shape[0]


def weyl_reconstruct(coeffs) -> np.ndarray:
    """Operator (1/N)·Σ_mn coeffs[m,n]·Δ_mn from an N x N coefficient grid."""
    coeffs = as_operator(coeffs)
    return _sum_kernel(coeffs) / coeffs.shape[0]


@dataclass(frozen=True)
class WignerMap:
    """Real Wigner grid over Z_N x Z_N.

    First index: momentum-like coordinate m (row sums give the momentum
    marginal).  Second index: position-like coordinate n (column sums give
    the position marginal).
    """

    dim: int
    values: np.ndarray

    @property
    def total(self) -> float:
        return float(self.values.sum())

    @property
    def negativity(self) -> float:
        """Σ|W| - 1: zero exactly when the grid is pointwise nonnegative."""
        return float(np.abs(self.values).sum() - 1.0)

    @property
    def min_value(self) -> float:
        return float(self.values.min())


def wigner_map(rho) -> WignerMap:
    """Wigner map W(m, n) = tr(Δ_mn ρ)/N of a density operator.

    It is `weyl_transform(rho).real / N`: the same moment-space kernel,
    divided once by N² rather than twice by N, which would round differently
    (O(N³) time, O(N²) memory).
    """
    rho = as_hermitian(rho, "wigner map input")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > 1e-10:
        raise ValueError(f"wigner map requires unit trace, got trace {tr:.3g}")
    return _wigner_map(rho)


def _wigner_map(rho: np.ndarray) -> WignerMap:
    """`wigner_map` of a density operator qpl built or checked: complex, hermitian, unit trace."""
    n = rho.shape[0]
    grid = _trace_kernel(rho) / n**2
    return WignerMap(dim=n, values=grid.real.copy())


def symplectic_area(a, b):
    """Ω(a, b) = p·n - m·q for phase points a = (m, n), b = (p, q).

    Coordinates may be integer arrays that broadcast against each other.
    """
    m, n = a
    p, q = b
    return p * n - m * q


def phase_space_symbol(a, b, c):
    """{a, b, c} = 2[Ω(a,b) + Ω(b,c) + Ω(c,a)]; zero when two points coincide."""
    return 2 * (symplectic_area(a, b) + symplectic_area(b, c) + symplectic_area(c, a))


def delta_product(n: int, a, b) -> np.ndarray:
    """Product Δ_a·Δ_b via the closed form v^{2Ω(a,b)}·Δ_{a-b}·F² (odd N).

    The exponent 2Ω(a,b) = 2(p·n - m·q) is the pinned convention; tests
    check the result against the direct matrix product.
    """
    _check_dim(n)
    if n % 2 == 0:
        raise ValueError("the closed-form product rule is defined only for odd dimensions")
    (m, nn), (p, q) = _residues(n, pairs=True, a=a, b=b)
    phase = np.asarray(roots(n)[2 * symplectic_area((m, nn), (p, q)) % n])[..., None, None]
    return phase * _phase_point(n, (m - p) % n, (nn - q) % n) @ parity_operator(n)


def structure_constants(n: int, a, b, c):
    """Λ_ab^c = sin((2π/N)·{a,b,c}) for odd N, read as Im v^s from `roots(N)` at s = {a,b,c} mod N."""
    _check_dim(n)
    if n % 2 == 0:
        raise ValueError("structure constants are defined only for odd dimensions")
    return _structure_constants(n, *_residues(n, pairs=True, a=a, b=b, c=c))


def _structure_constants(n: int, a, b, c):
    """`structure_constants` of phase points already reduced mod n."""
    return roots(n)[phase_space_symbol(a, b, c) % n].imag


def commutator_expansion(lam) -> np.ndarray:
    """(2i/N)·Σ_c lam[c]·Δ_c for an N x N grid; N is the side of `lam`.

    With lam = structure_constants(N, a, b, np.ogrid[:N, :N]) this is [Δ_a, Δ_b].
    """
    lam = as_operator(lam)
    return 2j / lam.shape[0] * _sum_kernel(lam)
