"""Kraus-form conditional expectations onto operator subalgebras.

A finite Kraus family {V_a} defines the unit-preserving idempotent map
P0(X) = sum_a V_a† X V_a on observables.  When the family is a genuine
projection, its fixed-point space equals the commutant of the V's and
P0 is a completely positive conditional expectation onto it; this
module builds the projection (its Heisenberg action on observables,
with the trace-pairing adjoint on states derived on first use) and
solves the commutant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .linalg import (
    devectorize,
    from_real_basis,
    image_basis,
    max_abs,
    numerical_nullity,
    require_hermitian,
    require_square,
    to_real_basis,
    trace_pairing_adjoint,
    vectorize,
)

__all__ = [
    "CommutantResult",
    "PhysicalSubsystem",
    "commutant",
    "build_projection",
    "sector_family",
    "partial_trace_family",
    "trivial_family",
]


@dataclass
class CommutantResult:
    """Orthonormal (Hilbert-Schmidt) basis of the joint commutant of a
    Kraus family, with the singular-value diagnostics of the nullspace
    decision."""

    basis: list
    dimension: int
    singular_values: np.ndarray
    gap: float
    flagged: bool


def _gram(sub: PhysicalSubsystem) -> np.ndarray:
    """Gram matrix N = sum ad_G† ad_G over G in {V_a, V_a†}: N X = 0
    exactly when X commutes with every G.  It collapses to two large
    krons, N = kron(1, A) + kron(A*, 1) - 2 P0 - 2 P0*, A = sum V†V + VV†."""
    eye = np.eye(sub.dim, dtype=complex)
    S = sub.heisenberg
    A = sum(V.conj().T @ V + V @ V.conj().T for V in sub.operators)
    return np.kron(eye, A) + np.kron(A.conj(), eye) - 2.0 * S \
        - 2.0 * trace_pairing_adjoint(S)


def commutant(sub: PhysicalSubsystem) -> CommutantResult:
    """Joint commutant {X : [V_a, X] = [V_a†, X] = 0 for all a}.

    Computed as the nullspace of the stacked commutator superoperators.
    Singular values below 1e-9 sigma_max count as zero; when the
    relative gap between the zero cluster and the smallest kept
    singular value is below 1e-6 the result is flagged as
    ill-determined rather than silently trusted.

    For families too large to stack (dims above ~16) the Gram matrix N
    of the stacked map (``_gram``) is used instead.  For any Kraus
    family the generator set {V_a, V_a†} is closed under †, so N(X†) =
    N(X)†: N is real symmetric in the Hermitian basis of
    linalg.to_real_basis, where a real ``eigh`` diagonalizes it; only
    the null vectors are mapped back (Hermitian basis operators).  The
    effective zero threshold is sqrt-limited to 1e-7 by double
    precision there.
    """
    d = sub.dim
    dd = d * d
    eye = np.eye(d, dtype=complex)
    gens = []
    for V in sub.operators:
        gens.append(V)
        gens.append(V.conj().T)

    use_stack = len(gens) * dd * dd <= 3_000_000
    if use_stack:
        rows = np.vstack([np.kron(eye, G) - np.kron(G.T, eye) for G in gens])
        _, svals, vh = np.linalg.svd(rows, full_matrices=False)
        dim_null, gap = numerical_nullity(svals, 1e-9)
        null = vh[len(svals) - dim_null:].conj()  # smallest singular values
    else:
        evals, evecs = np.linalg.eigh(to_real_basis(_gram(sub))[0])
        svals = np.sqrt(np.clip(evals[::-1], 0.0, None))
        dim_null, gap = numerical_nullity(svals, 1e-7)
        null = [from_real_basis(v) for v in evecs[:, :dim_null][:, ::-1].T]

    basis = [devectorize(v, d) for v in null]
    return CommutantResult(basis=basis, dimension=dim_null,
                           singular_values=svals, gap=gap,
                           flagged=gap < 1e-6)


@dataclass
class PhysicalSubsystem:
    """Finite Kraus family {V_a} of d x d operators and the map it
    defines, P0(X) = sum_a V_a† X V_a; unchecked (``build_projection``
    checks it).  P0 and the rest are derived on first read, from
    read-only data, so a race repeats work."""

    operators: list

    def __post_init__(self):
        if not self.operators:
            raise ValueError("Kraus family must contain at least one operator")
        ops = [require_square(V, "Kraus operator") for V in self.operators]
        d = ops[0].shape[0]
        for V in ops:
            if V.shape[0] != d:
                raise ValueError("Kraus operators must share one dimension")
        self.operators = ops

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    @cached_property
    def heisenberg(self) -> np.ndarray:
        """Matrix of P0, read-only (every caller shares it).

        The Kraus sum of krons sum_a kron(V_a.T, V_a†) is evaluated as
        one tensordot; per-term np.kron is prohibitively slow for the
        large partial-trace families.
        """
        d = self.dim
        V = np.stack(self.operators)
        T4 = np.tensordot(V.transpose(0, 2, 1), V.conj().transpose(0, 2, 1),
                          axes=(0, 0))
        S = np.ascontiguousarray(T4.transpose(0, 2, 1, 3)).reshape(d * d, d * d)
        S.flags.writeable = False
        return S

    @cached_property
    def unital_defect(self) -> float:
        """||P0(1) - 1||_max with P0(1) = sum_a V_a† V_a."""
        return max_abs(sum(V.conj().T @ V for V in self.operators)
                       - np.eye(self.dim))

    @cached_property
    def schrodinger(self) -> np.ndarray:
        return trace_pairing_adjoint(self.heisenberg)

    @cached_property
    def commutant_info(self) -> CommutantResult:
        return commutant(self)

    def project(self, X: np.ndarray) -> np.ndarray:
        """Heisenberg projection P0(X)."""
        return devectorize(self.heisenberg @ vectorize(X), self.dim)

    def project_state(self, rho: np.ndarray) -> np.ndarray:
        """Schrödinger (predual) projection."""
        return devectorize(self.schrodinger @ vectorize(rho), self.dim)

    @cached_property
    def image_bases(self) -> tuple:
        """Orthonormal bases (Heisenberg, Schrödinger) of the images of
        the projection pair, from one SVD on first use."""
        return image_basis(self.heisenberg)


def build_projection(sub: PhysicalSubsystem) -> PhysicalSubsystem:
    """Check ``sub`` and return it: P0 must be a conditional expectation
    onto the commutant of {V_a, V_a†}.

    It checks unitality to 1e-10 and N P0 = 0, N (``_gram``) vanishing
    exactly on the commutant.  A unital P0 fixes the commutant, so then
    image = commutant; and P0(Y) - Y = sum_a V_a† [Y, V_a] for unital P0,
    so idempotency follows.  N P0 is sketched (Freivalds 1977) on k = 8
    complex Gaussian probes Omega, fixed seed: N Y = A Y + Y A - 2 P0(Y) -
    2 P0*(Y) for Y = P0 Omega, A = sum V†V + VV†, operator by operator,
    with P0* = T S^T T (T: vec X -> vec X^T) by index permutation, O(k d^4)
    and no d^2 x d^2 product.  Miss probability: in the row of max|N P0|,
    N P0 omega is complex Gaussian of variance >= 2 max|N P0|^2, so a
    family with max|N P0| > bound / eta passes with probability at most
    (eta^2 / 2)^k, 4e-19 at eta = 0.1.  Roundoff model: with N P0 = 0,
    max|N Y| is rounding in sums of <= n = d^2 terms, each off by more
    than lam sqrt(n) u sum|terms| (u the unit roundoff) with probability
    about exp(-lam^2/2) (Higham and Mary, SIAM J. Sci. Comput. 41, 2019).
    So the bound is lam sqrt(n) u nu (s max|Omega| + max|Y|), lam = 1e3,
    s >= ||S||_inf and s1 >= ||S||_1 from |S| <= sum_a |V_a^T| kron |V_a†|,
    nu = 2 (||A||_inf + s + s1) >= ||N||_inf; it also bounds P0(Y) - Y of
    an idempotent P0, which names the cause of a failure.
    """
    if sub.unital_defect > 1e-10:
        raise ValueError(
            f"Kraus family is not unit preserving: defect {sub.unital_defect:.3e}")
    d, k, S = sub.dim, 8, sub.heisenberg
    A = sum(V.conj().T @ V + V @ V.conj().T for V in sub.operators)
    absV = np.abs(np.stack(sub.operators))
    col, row = absV.sum(axis=1), absV.sum(axis=2)
    s, s1 = float((col.T @ col).max()), float((row.T @ row).max())
    nu = 2.0 * (float(np.abs(A).sum(axis=1).max()) + s + s1)
    rng = np.random.default_rng(0)
    omega = rng.standard_normal((d * d, k)) + 1j * rng.standard_normal((d * d, k))

    def transpose(Z):  # columns vec(X) -> vec(X^T)
        return Z.reshape(d, d, k).swapaxes(0, 1).reshape(d * d, k)
    Y = S @ omega
    PY = S @ Y
    Yt = Y.T.reshape(k, d, d)  # Yt[j] = X_j^T, so A X + X A -> Yt Ā + Ā Yt
    NY = (Yt @ A.conj() + A.conj() @ Yt).reshape(k, -1).T \
        - 2.0 * (PY + transpose(S.T @ transpose(Y)))
    bound = 1e3 * d * np.finfo(float).eps / 2 * nu \
        * (s * max_abs(omega) + max_abs(Y))
    resid, idem = max_abs(NY), max_abs(PY - Y)
    if resid <= bound:
        return sub
    if idem > bound:
        raise ValueError(f"Kraus map is not idempotent: max|P0^2 - P0| on {k} "
                         f"probes = {idem:.3e} > {bound:.3e}")
    raise ValueError(
        "projection image does not match the commutant span (invariance "
        f"residual max|N P0| on {k} probes = {resid:.3e} > {bound:.3e})")


def sector_family(sector_dims: Sequence[int]) -> PhysicalSubsystem:
    """Kraus family of orthogonal projectors onto consecutive blocks of
    the given dimensions."""
    dims = list(sector_dims)
    if not dims:
        raise ValueError("sector_dims must be nonempty")
    if any(int(n) != n or n <= 0 for n in dims):
        raise ValueError(f"sector dimensions must be positive integers: {dims}")
    labels = np.repeat(np.arange(len(dims)), [int(n) for n in dims])
    return PhysicalSubsystem([np.diag((labels == k).astype(complex))
                              for k in range(len(dims))])


def trivial_family(dim: int) -> PhysicalSubsystem:
    """Identity Kraus family; the projection is the identity map and the
    subsystem is the full matrix algebra."""
    return PhysicalSubsystem([np.eye(dim, dtype=complex)])


def partial_trace_family(dim_a: int, bath_state: np.ndarray) -> PhysicalSubsystem:
    """Kraus family V_ab = 1_A kron sqrt(w)|phi_b><phi_a| built in the
    bath-state eigenbasis (ascending eigenvalues).

    The induced Schrödinger projection is rho -> Tr_B(rho) kron w; this
    is verified entrywise against that closed form on every unit
    operator before returning.
    """
    w = require_hermitian(bath_state, "bath state")
    dim_b = w.shape[0]
    evals, evecs = np.linalg.eigh(w)
    if evals[0] < -1e-12 * (1.0 + abs(float(evals[-1]))):
        raise ValueError(f"bath state not PSD: min eigenvalue {evals[0]:.3e}")
    if abs(float(np.trace(w).real) - 1.0) > 1e-10:
        raise ValueError(f"bath state trace {np.trace(w).real!r} != 1")
    eye_a = np.eye(dim_a, dtype=complex)
    roots = np.sqrt(np.clip(evals, 0.0, None))
    ops = []
    for a in range(dim_b):
        for b in range(dim_b):
            bath_op = roots[b] * np.outer(evecs[:, b], evecs[:, a].conj())
            ops.append(np.kron(eye_a, bath_op))
    sub = PhysicalSubsystem(ops)
    worst = _predual_defect(sub.heisenberg, dim_a, w)
    if worst > 1e-10:
        raise ValueError(
            f"partial-trace family failed predual cross-check: {worst:.3e}")
    return sub


def _predual_defect(S: np.ndarray, dim_a: int, w: np.ndarray) -> float:
    """max_k ||S*(E_k) - Tr_B(E_k) kron w||_max over the d^2 unit operators
    E_k, S* the trace-pairing adjoint of S, one row of S at a time:
    S*(E_ab)[p, q] = S[a d + b, p d + q], and for a = (i, alpha), b = (j,
    beta) Tr_B(E_ab) kron w is delta_{alpha beta} |i><j| kron w."""
    dim_b = w.shape[0]
    d, js, worst = dim_a * dim_b, np.arange(dim_a), 0.0
    for a, row in enumerate(S.reshape(d, dim_a, dim_b, dim_a, dim_b, dim_a, dim_b)):
        i, alpha = divmod(a, dim_b)
        diff = row.copy()
        diff[js, alpha, i, :, js, :] -= w
        worst = max(worst, max_abs(diff))
    return worst
