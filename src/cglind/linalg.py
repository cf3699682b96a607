"""Dense complex linear algebra on operator space.

Conventions used throughout the package:

* Vectorization is column stacking, ``vec(X) = X.flatten(order="F")``,
  so ``vec(A X B) = (B.T kron A) vec(X)``.
* A superoperator is a ``d**2 x d**2`` complex matrix acting on
  vectorized ``d x d`` operators; composition is matrix product.
* Energies are dimensionless (hbar = 1); times carry inverse-energy
  units.

All matrices are plain ``numpy`` arrays.  Hermiticity, finiteness and
PSD requirements are enforced by explicit check functions rather than
wrapper classes.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

__all__ = [
    "HERMITICITY_RTOL",
    "PSD_SLACK",
    "EigenSystem",
    "PsdResult",
    "max_abs",
    "hermitize",
    "require_hermitian",
    "require_square",
    "hermitian_eig",
    "expm",
    "expm_grid",
    "ExpmScaleError",
    "to_real_basis",
    "from_real_basis",
    "vectorize",
    "devectorize",
    "sandwich_superop",
    "trace_pairing_adjoint",
    "choi_matrix",
    "is_psd",
    "operator_norm",
    "trace_norm",
    "trace_distance",
    "image_basis",
    "numerical_nullity",
    "matrix_from_text",
]

# Default tolerances: PSD tests get 1e-9 slack, Hermiticity 1e-12 relative.
HERMITICITY_RTOL = 1e-12
PSD_SLACK = 1e-9

# Taylor core of expm: series order and the 1-norm the argument is
# scaled below.  expm_grid keeps at most four propagators: the
# certificate samples four times, each with its double t + t later in
# its grid, which can then be one squaring of a kept propagator.
EXPM_TAYLOR_ORDER = 18
EXPM_SCALE_TARGET = 0.5
EXPM_GRID_KEPT = 4

# numpy copies a broadcast or transposed operand of an elementwise op
# into a buffer as large as the op (up to 8192 elements); the streamed
# kernels split such ops into pieces of at most this many elements, or
# of one row where a row is longer, so the buffers stay small next to
# a d^2 x d^2 array.
ELEMENTWISE_CHUNK = 256


def max_abs(M: np.ndarray) -> float:
    """Largest absolute entry (max norm)."""
    M = np.asarray(M)
    if M.size == 0:
        return 0.0
    return float(np.max(np.abs(M)))


def require_square(M: np.ndarray, name: str = "matrix",
                   dtype=complex) -> np.ndarray:
    M = np.asarray(M, dtype=dtype)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    return M


def hermitize(M: np.ndarray) -> np.ndarray:
    """Hermitian part (M + M†)/2."""
    M = np.asarray(M, dtype=complex)
    return 0.5 * (M + M.conj().T)


def require_hermitian(M: np.ndarray, name: str = "matrix",
                      rtol: float = HERMITICITY_RTOL) -> np.ndarray:
    """Validate Hermiticity to ``rtol * (1 + ||M||_max)``; return M as complex.

    Raises ``ValueError`` carrying the max-asymmetry witness otherwise.
    """
    M = require_square(M, name)
    defect = max_abs(M - M.conj().T)
    if defect > rtol * (1.0 + max_abs(M)):
        raise ValueError(
            f"{name} is not Hermitian: max asymmetry {defect:.3e} "
            f"exceeds {rtol:.1e} * (1 + max entry)")
    return M


@dataclass
class EigenSystem:
    """Spectral data of a Hermitian matrix: ascending eigenvalues and a
    unitary matrix whose columns are the eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray


def hermitian_eig(M: np.ndarray, name: str = "matrix") -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix.

    The input is validated against the Hermiticity invariant; rejection
    carries the asymmetry witness.  The returned eigenvalues are
    ascending and the reconstruction residual ``M U - U diag(eps)`` is
    checked at 1e-10 relative.
    """
    M = require_hermitian(M, name)
    values, vectors = np.linalg.eigh(M)
    scale = 1.0 + max_abs(M)
    resid = max_abs(M @ vectors - vectors * values[None, :])
    if resid > 1e-10 * scale:
        raise ValueError(f"eigendecomposition residual {resid:.3e} too large")
    ortho = max_abs(vectors.conj().T @ vectors - np.eye(len(values)))
    if ortho > 1e-10:
        raise ValueError(f"eigenvector unitarity defect {ortho:.3e} too large")
    return EigenSystem(values=values.real, vectors=vectors)


class ExpmScaleError(ValueError):
    """An ``expm`` argument whose 1-norm needs more than 64 squarings."""


def _squarings(M: np.ndarray) -> tuple:
    """(||M||_1, s): expm scales M by 2**-s and squares s times."""
    norm1 = float(np.max(np.sum(np.abs(M), axis=0))) if M.shape[0] else 0.0
    ratio = norm1 / EXPM_SCALE_TARGET
    return norm1, max(0, math.ceil(math.log2(ratio))) if ratio else 0


def expm(M: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a fixed-order
    Taylor core.

    The argument is scaled by 2**s until its 1-norm is below
    ``EXPM_SCALE_TARGET``, the series is evaluated by Horner's rule at
    order ``EXPM_TAYLOR_ORDER`` (remainder < 1e-22 at norm 0.5), and the
    result is squared s times.  Accurate to ~1e-12 relative for the norm
    ranges used here (dims <= 64, ||M|| <~ 1e3).

    The Horner step is acc <- 1 + (B @ acc) / k, B = M / 2**s, but
    neither B nor the identity is formed.  The step divides M @ acc (M
    at the first) by k 2**s: scaling by a power of two is exact and
    scales every rounding, so the bits agree while no entry of B or of a
    partial product is subnormal, and if 2M takes one squaring more than
    M, expm(2M) is expm(M) @ expm(M) to the bit (the grid rule of
    :func:`expm_grid`).  Then 1 is added to acc's diagonal by a view:
    x + 1 is 1 + x, and x is 0 + x (M is M @ 1) but for the sign of a
    zero, which never changes a nonzero product, sum or quotient; one
    + 0.0 pass sets the identity route's +0 before the squarings.  Two
    C-ordered work arrays are all it holds.  A real argument keeps a
    real dtype; any other is cast to complex.
    """
    M = require_square(M, "expm argument",
                       float if np.isrealobj(M) else complex)
    d = M.shape[0]
    norm1, n_square = _squarings(M)
    if norm1 == 0.0:
        return np.eye(d, dtype=M.dtype)
    if n_square > 64:
        raise ExpmScaleError(
            f"expm argument norm {norm1:.3e} too large to scale")
    scale = 2.0 ** n_square
    acc, tmp = np.empty((d, d), M.dtype), np.empty((d, d), M.dtype)
    diag, one = acc.reshape(-1)[::d + 1], np.ones((), M.dtype)
    for k in range(EXPM_TAYLOR_ORDER, 0, -1):
        prod = M if k == EXPM_TAYLOR_ORDER else np.matmul(M, acc, out=tmp)
        np.divide(prod, k * scale, out=acc)
        np.add(diag, one, out=diag)
    np.add(acc, 0.0, out=acc)
    for _ in range(n_square):
        np.matmul(acc, acc, out=tmp)
        acc, tmp = tmp, acc
    return acc


def expm_grid(M: np.ndarray, times) -> Iterator[np.ndarray]:
    """Yield ``expm(t * M)`` for each t of ``times`` in order, byte for
    byte.  A repeated time reuses its propagator; t = 2u squares exp(uM)
    when tM takes one squaring more than uM (the grid rule of ``expm``);
    every other time calls ``expm``, which raises where a loop of it
    would.  At most EXPM_GRID_KEPT propagators whose time or double is
    still ahead are kept."""
    times = list(times)
    ahead, kept = Counter(times), {}
    for t in times:
        ahead[t] -= 1
        if t in kept:
            E = kept[t]
        elif t / 2 in kept and \
                _squarings(t * M)[1] == _squarings(t / 2 * M)[1] + 1 <= 64:
            E = kept[t / 2] @ kept[t / 2]
        else:
            E = expm(t * M)
        kept = {u: P for u, P in kept.items() if ahead[u] or ahead[2 * u]}
        if len(kept) < EXPM_GRID_KEPT and (ahead[t] or ahead[2 * t]):
            kept[t] = E
        yield E


def _real_basis_congruence(M: np.ndarray, inverse: bool) -> np.ndarray:
    """V^dagger M V, or V M V^dagger if ``inverse`` (V^dagger x or V x for
    a vector x), by index arithmetic.  V has the columns vec(F_k) of the
    orthonormal Hermitian basis: E_aa, then (E_ab + E_ba)/sqrt(2) at the
    slot n = b d + a of vec(E_ab) and i (E_ab - E_ba)/sqrt(2) at that of
    E_ba (a < b).  So V^dagger[n, n] = u[n] and V^dagger[n, perm[n]] =
    conj(u[n]), perm[n] = a d + b the transposed slot."""
    d = math.isqrt(M.shape[0])
    b, a = np.divmod(np.arange(d * d), d)
    r, perm = math.sqrt(0.5), a * d + b
    u = np.where(a < b, r, np.where(a > b, 1j * r, 0.5))
    u, v = (u.conj(), u[perm]) if inverse else (u, u.conj())
    if M.ndim == 1:
        return u * M + v * M[perm]
    M = u[:, None] * M + v[:, None] * M[perm]
    return M * u.conj() + M[:, perm] * v.conj()


def to_real_basis(S: np.ndarray) -> tuple:
    """(Re V^dagger S V, max |Im V^dagger S V|) for a d^2 x d^2 superoperator
    S, or that pair for V^dagger x, x a vectorized operator.  A Hermiticity-
    preserving S and a Hermitian x are real in this Hermitian basis: the
    imaginary part is a roundoff (or fault) witness for the caller to bound."""
    R = _real_basis_congruence(np.asarray(S, dtype=complex), False)
    return np.ascontiguousarray(R.real), max_abs(R.imag)


def from_real_basis(R: np.ndarray) -> np.ndarray:
    """Inverse of :func:`to_real_basis`: V R V^dagger, or V x; complex."""
    return _real_basis_congruence(np.asarray(R), True)


def vectorize(X: np.ndarray) -> np.ndarray:
    """Column-stacking vec."""
    return np.asarray(X, dtype=complex).flatten(order="F")


def devectorize(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vectorize` for ``dim x dim`` matrices."""
    v = np.asarray(v, dtype=complex).ravel()
    if dim * dim != v.size:
        raise ValueError(f"vector of length {v.size} is not a square matrix")
    return v.reshape((dim, dim), order="F")


def sandwich_superop(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Superoperator of X -> A X B under column stacking: B.T kron A."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.shape[1] != B.shape[0] or A.shape[0] != B.shape[1]:
        raise ValueError(
            f"incompatible sandwich dimensions {A.shape} and {B.shape}")
    return np.kron(B.T, A)


def trace_pairing_adjoint(M: np.ndarray) -> np.ndarray:
    """Adjoint superoperator w.r.t. the bilinear trace pairing Tr(rho X).

    If S has matrix M then its trace-pairing adjoint S* with
    Tr(S*(rho) X) = Tr(rho S(X)) has matrix T M.T T, with T the
    transpose map vec(X) -> vec(X.T); the conjugation by T is an index
    permutation (no matmuls).
    """
    M = np.asarray(M, dtype=complex)
    dd = M.shape[0]
    d = math.isqrt(dd)
    if d * d != dd or M.shape != (dd, dd):
        raise ValueError(f"not a superoperator shape: {M.shape}")
    return np.ascontiguousarray(
        M.T.reshape(d, d, d, d).transpose(1, 0, 3, 2)).reshape(dd, dd)


def choi_matrix(S: np.ndarray) -> np.ndarray:
    """Choi matrix C = sum_ij E_ij kron S(E_ij) of a superoperator.

    S is completely positive iff C is positive semidefinite.  Under
    column stacking, block (i, j) entry (a, b) of C is S[b d + a, j d + i],
    so C is an index permutation of S (no matrix-vector products).
    """
    S = np.asarray(S, dtype=complex)
    dd = S.shape[0]
    d = math.isqrt(dd)
    if d * d != dd or S.shape != (dd, dd):
        raise ValueError(f"not a superoperator shape: {S.shape}")
    return S.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(dd, dd)


class PsdResult(NamedTuple):
    ok: bool
    min_eig: float


def is_psd(M: np.ndarray) -> PsdResult:
    """PSD test: true iff lambda_min >= -PSD_SLACK * (1 + ||M||), where
    ||M|| is the spectral norm.  The minimum eigenvalue witness is
    returned either way."""
    M = require_square(M, "is_psd argument")
    # hermitize(M) in one copy, with the same sums and halvings, hence
    # the same bits; the transposed add goes a few rows at a time
    n = M.shape[0]
    H = M.conj().T
    step = max(1, ELEMENTWISE_CHUNK // max(1, n))
    for r in range(0, n, step):
        H[r:r + step] += M[r:r + step]
    H *= 0.5
    eigs = np.linalg.eigvalsh(H)
    min_eig = float(eigs[0])
    norm = float(np.max(np.abs(eigs))) if len(eigs) else 0.0
    return PsdResult(ok=min_eig >= -PSD_SLACK * (1.0 + norm), min_eig=min_eig)


def operator_norm(M: np.ndarray) -> float:
    """Spectral norm (largest singular value)."""
    return float(np.linalg.norm(np.asarray(M, dtype=complex), 2))


def trace_norm(M: np.ndarray) -> float:
    """Trace norm (sum of singular values)."""
    return float(np.sum(np.linalg.svd(np.asarray(M, dtype=complex),
                                      compute_uv=False)))


def trace_distance(A: np.ndarray, B: np.ndarray) -> float:
    """Trace distance (1/2)||A - B||_1."""
    return 0.5 * trace_norm(np.asarray(A) - np.asarray(B))


def image_basis(P: np.ndarray) -> tuple:
    """Orthonormal bases (columns) of the images of a projection
    superoperator P and of its trace-pairing adjoint P* = T P.T T (T the
    transpose map), from one SVD P = U S V†: U[:, :r] and T conj(V[:, :r]),
    r the number of singular values above 1e-9 times the largest."""
    u, s, vh = np.linalg.svd(np.asarray(P, dtype=complex))
    rank = int(np.sum(s > 1e-9 * s[0]))
    d = math.isqrt(u.shape[0])
    v = vh[:rank].T.reshape(d, d, rank)
    # a copy: the view u[:, :rank] would keep all of the d^2 x d^2 U alive
    return u[:, :rank].copy(), v.transpose(1, 0, 2).reshape(d * d, rank)


def numerical_nullity(svals: np.ndarray, zero_tol: float) -> tuple:
    """(nullity, gap) from descending singular values.  Values below
    ``zero_tol`` times the largest (all of them when it is 0) count as
    zero; the gap is the relative distance from the largest zero value
    (0 if none) to the smallest kept one (inf if none is kept)."""
    smax = float(svals[0]) if svals.size else 0.0
    null = svals < zero_tol * smax if smax > 0.0 else np.ones(len(svals), bool)
    dim_null = int(np.sum(null))
    if dim_null == len(svals):
        return dim_null, np.inf
    largest_zero = float(svals[null].max() / smax) if dim_null else 0.0
    return dim_null, float(svals[~null].min() / smax) - largest_zero


def matrix_from_text(text: str) -> np.ndarray:
    """Parse the matrix interchange format: first line "d_rows d_cols",
    then row-major entries as "re im" pairs, whitespace separated."""
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("interchange text too short: missing dimension header")
    try:
        rows, cols = int(tokens[0]), int(tokens[1])
    except ValueError as exc:
        raise ValueError(f"bad dimension header {tokens[:2]!r}") from exc
    if rows <= 0 or cols <= 0:
        raise ValueError(f"dimensions must be positive, got {rows} x {cols}")
    need = 2 * rows * cols
    body = tokens[2:]
    if len(body) != need:
        raise ValueError(
            f"expected {need} entry tokens for {rows} x {cols}, got {len(body)}")
    try:
        vals = np.array([float(t) for t in body], dtype=float)
    except ValueError as exc:
        raise ValueError(f"non-numeric entry in matrix body: {exc}") from exc
    if not np.all(np.isfinite(vals)):
        raise ValueError("matrix body contains non-finite entries")
    flat = vals[0::2] + 1j * vals[1::2]
    return flat.reshape(rows, cols)
