"""Dense complex linear algebra for finite-dimensional quantum systems.

Kets are one-dimensional complex ndarrays and operators are square
two-dimensional complex ndarrays.  All functions are pure.  Each input is
checked once, where it enters: a public function passes each array from its
caller through one `as_*` validator, and qpl hands arrays it has checked or
built to private kernels that do not check them again.

Tolerance policy: algebraic identities on dimensions up to 64 are held to
1e-10 absolute error; approximate identities on the truncated bosonic mode
use 1e-6 together with explicit truncation guards.
"""

from __future__ import annotations

from math import prod
from typing import Sequence

import numpy as np

HERMITIAN_TOL = 1e-10
UNITARY_TOL = 1e-10


def as_ket(amplitudes) -> np.ndarray:
    """Coerce input to a 1-D complex ket and validate its entries.

    Raises:
        ValueError: if the input is not 1-D, is empty, or contains
            non-finite amplitudes.
    """
    psi = np.asarray(amplitudes, dtype=complex)
    if psi.ndim != 1 or psi.size == 0:
        raise ValueError(f"ket must be a non-empty 1-D array, got shape {psi.shape}")
    if not np.isfinite(psi).all():
        raise ValueError("ket contains non-finite amplitudes")
    return psi


def as_operator(entries) -> np.ndarray:
    """Coerce input to a square 2-D complex operator matrix."""
    op = np.asarray(entries, dtype=complex)
    if op.ndim != 2 or op.shape[0] != op.shape[1] or op.shape[0] == 0:
        raise ValueError(f"operator must be a non-empty square matrix, got shape {op.shape}")
    if not np.isfinite(op).all():
        raise ValueError("operator contains non-finite entries")
    return op


def as_unit_ket(amplitudes, what: str) -> np.ndarray:
    """`as_ket`, then require unit norm (within 1e-10); `what` names the ket in the error."""
    psi = as_ket(amplitudes)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError(f"{what} must be normalized")
    return psi


def as_hermitian(entries, what: str) -> np.ndarray:
    """`as_operator`, then require A = A† within HERMITIAN_TOL; `what` names A in the error."""
    op = as_operator(entries)
    # |A_ij - conj(A_ji)| over i ≤ j in bands of 64 rows: one transposed pass over
    # a large A runs up to 3x slower depending on where A lies in memory
    for s in range(0, len(op), 64):
        if np.max(np.abs(op[s:s + 64, s:] - op[s:, s:s + 64].conj().T)) > HERMITIAN_TOL:
            raise ValueError(f"{what} must be hermitian")
    return op


def require_same_dims(**arrays) -> None:
    """Require one length along the first axis of every array given (None skips one)."""
    lengths = {name: len(a) for name, a in arrays.items() if a is not None}
    if len(set(lengths.values())) > 1:
        raise ValueError("dimensions differ: " + ", ".join(f"{name} has {n}" for name, n in lengths.items()))


def require_finite(**values) -> None:
    """Require every entry of every value finite; the error names the first that is not."""
    for name, value in values.items():
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite")


def normalize(psi) -> np.ndarray:
    """Return psi / ||psi||.  Errors on (numerically) zero vectors."""
    psi = as_ket(psi)
    nrm = np.linalg.norm(psi)
    if nrm < 1e-300:
        raise ValueError("cannot normalize a zero ket")
    return psi / nrm


def is_unitary(a) -> bool:
    a = as_operator(a)
    return bool(np.max(np.abs(a.conj().T @ a - np.eye(a.shape[0]))) <= UNITARY_TOL)


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product tr(A† B).

    Computed as the entrywise sum Σ conj(A_ij)·B_ij, which is the same
    thing without forming the product matrix.
    """
    a, b = as_operator(a), as_operator(b)
    if a.shape != b.shape:
        raise ValueError(f"operator shapes differ: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def partial_trace(m, dims: Sequence[int], keep: int) -> np.ndarray:
    """Trace out all tensor factors of `m` except factor `keep`.

    `dims` lists the factor dimensions in tensor order; their product must
    equal the side of `m`.  Returns the reduced operator on factor `keep`.
    """
    m = as_operator(m)
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValueError(f"factor dimensions must be positive, got {dims}")
    if prod(dims) != m.shape[0]:
        raise ValueError(f"product of dims {dims} does not match operator side {m.shape[0]}")
    if not 0 <= keep < len(dims):
        raise ValueError(f"keep index {keep} out of range for {len(dims)} factors")
    k = len(dims)
    t = m.reshape(dims + dims)
    row = list(range(k))
    col = [i + k if i == keep else i for i in range(k)]
    return np.einsum(t, row + col, [keep, keep + k])


def spectral_exp(values, vectors, t: float) -> np.ndarray:
    """exp(-i t H) for H = vectors·diag(values)·vectors† with unitary `vectors`."""
    return (vectors * np.exp(-1j * t * values)) @ vectors.conj().T


def commutator(a, b) -> np.ndarray:
    a, b = as_operator(a), as_operator(b)
    return a @ b - b @ a


def anticommutator(a, b) -> np.ndarray:
    a, b = as_operator(a), as_operator(b)
    return a @ b + b @ a


def expectation(op, psi) -> complex:
    """⟨psi|op|psi⟩ for a (not necessarily normalized) ket."""
    op, psi = as_operator(op), as_ket(psi)
    return complex(psi.conj() @ op @ psi)


def projector(psi) -> np.ndarray:
    """Rank-one projector |psi⟩⟨psi| of a normalized ket."""
    psi = normalize(psi)
    return np.outer(psi, psi.conj())


def basis_ket(n: int, k: int) -> np.ndarray:
    """Computational basis ket |k⟩ in dimension n."""
    if not isinstance(k, (int, np.integer)):
        raise ValueError(f"basis index must be an integer, got {k!r}")
    if not 0 <= k < n:
        raise ValueError(f"basis index {k} out of range for dimension {n}")
    e = np.zeros(n, dtype=complex)
    e[k] = 1.0
    return e


def random_ket(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random pure state: normalized complex gaussian vector."""
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    return x / np.linalg.norm(x)


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (x + x.conj().T) / 2


def random_density(n: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random density operator: normalized Wishart matrix of given rank."""
    rank = n if rank is None else rank
    if not 1 <= rank <= n:
        raise ValueError(f"rank {rank} out of range for dimension {n}")
    x = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real
