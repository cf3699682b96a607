"""Assembly of the second-order Markovian generator on a physical
subsystem, its time-domain quadrature oracle, state propagation, and
semigroup certificates.

The Heisenberg generator built here has the standard dissipative form

    G(X) = i [H_eff, X] - (1/2) {A, X} + Psi(X),

with H_eff = <H0> + lam <H'> + lam^2 * (frequency-integral shift),
A = lam^2 <W^2>, Psi(X) = lam^2 <W X W> and W = L - <L> the centered
coarse-grained perturbation at frequency zero.  Psi(1) = A holds by
construction, so exp(t G) is completely positive and unital on the
full operator space; on the subsystem image it coincides with the
projected weak-coupling semigroup exp((Z0 + lam A00 + lam^2 K_T) t).

The generator is represented on the full d x d operator space but is
only contractual on the subsystem image; the Schrödinger flow used for
states is the image-restricted (quotient) action.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .coarsegrain import CoarseGrainSchedule, T_of_lambda, coarse_grained_L, \
    lamb_shift
from .linalg import (
    ELEMENTWISE_CHUNK,
    PSD_SLACK,
    choi_matrix,
    devectorize,
    expm,
    hermitian_eig,
    hermitize,
    is_psd,
    matrix_to_text,
    max_abs,
    numerical_nullity,
    operator_norm,
    require_hermitian,
    require_square,
    sandwich_superop,
    trace_norm,
    trace_pairing_adjoint,
    vectorize,
)
from .subsystem import PhysicalSubsystem, kraus_to_text

__all__ = [
    "LindbladDecomposition",
    "GeneratorBundle",
    "Trajectory",
    "QdsCertificate",
    "SteadyStateResult",
    "PreparedGenerator",
    "lindblad_superop",
    "assemble_kt",
    "build_generator",
    "k_t_oracle",
    "evolve",
    "qds_certificate",
    "steady_state",
    "export_bundle",
]


@dataclass
class LindbladDecomposition:
    """Pieces of the generator: free and first-order Hamiltonians, the
    second-order Hamiltonian shift, the decay operator A = Psi(1), and
    the completely positive jump map Psi as a superoperator."""

    h_free: np.ndarray
    h_first: np.ndarray
    h_lamb: np.ndarray
    decay: np.ndarray
    jump_map: np.ndarray

    def effective_hamiltonian(self) -> np.ndarray:
        return self.h_free + self.h_first + self.h_lamb


@dataclass
class GeneratorBundle:
    """The Heisenberg generator with its pieces; its Schrödinger forms
    are derived on first use (threads that race there repeat the work)."""

    decomposition: LindbladDecomposition
    heisenberg: np.ndarray
    schedule: CoarseGrainSchedule
    subsystem: PhysicalSubsystem
    T: float

    @classmethod
    def at_coupling(cls, sched: CoarseGrainSchedule, sub: PhysicalSubsystem,
                    T: float, h_free: np.ndarray, h_first: np.ndarray,
                    shift: np.ndarray, decay: np.ndarray,
                    jump: np.ndarray) -> "GeneratorBundle":
        """Assemble the Heisenberg generator from h_free, h_first (already
        scaled by lam) and lam^2 times the second-order pieces.  ``jump``
        is scaled in place, so no unscaled copy stays alive next to it.

        Psi(1) = A and unitality G(1) = 0 are asserted at 1e-10 relative
        (to the decay and the generator max entries)."""
        lam2 = sched.lam * sched.lam
        dec = LindbladDecomposition(
            h_free=h_free, h_first=h_first, h_lamb=lam2 * shift,
            decay=lam2 * decay, jump_map=np.multiply(jump, lam2, out=jump))
        heis = lindblad_superop(dec.effective_hamiltonian(), dec.decay,
                                dec.jump_map)
        d = sub.dim
        eye_vec = vectorize(np.eye(d))
        scale = 1.0 + max_abs(dec.decay)
        psi_unit_dev = max_abs(devectorize(dec.jump_map @ eye_vec, d) - dec.decay)
        if psi_unit_dev > 1e-10 * scale:
            raise ValueError(
                f"jump map violates Psi(1) = A: defect {psi_unit_dev:.3e}")
        unital_dev = max_abs(heis @ eye_vec)
        if unital_dev > 1e-10 * (1.0 + max_abs(heis)):
            raise ValueError(
                f"generator is not unital: ||G(1)||_max = {unital_dev:.3e}")
        return cls(decomposition=dec, heisenberg=heis, schedule=sched,
                   subsystem=sub, T=T)

    @property
    def dim(self) -> int:
        return self.subsystem.dim

    @cached_property
    def schrodinger(self) -> np.ndarray:
        return trace_pairing_adjoint(self.heisenberg)

    @cached_property
    def quotient_schrodinger(self) -> np.ndarray:
        """Schrödinger generator compressed to the predual image: the
        full dual leaks out of the image in general, and only the
        re-projected action is contractual."""
        P = self.subsystem.schrodinger
        return P @ self.schrodinger @ P

    def restricted_heisenberg(self) -> np.ndarray:
        """k x k matrix of the generator on the basis image_bases[0] of
        the observable image.  No re-projection is needed: the
        Heisenberg generator maps the image into itself exactly."""
        B = self.subsystem.image_bases[0]
        return B.conj().T @ self.heisenberg @ B

    def restricted_schrodinger(self):
        """(k x k matrix, basis) of the quotient Schrödinger generator on
        an orthonormal basis of the state image."""
        B = self.subsystem.image_bases[1]
        P = self.subsystem.schrodinger
        return B.conj().T @ P @ self.schrodinger @ B, B


def lindblad_superop(hamiltonian: np.ndarray, decay: np.ndarray,
                     jump: np.ndarray) -> np.ndarray:
    """Heisenberg superoperator X -> i[H, X] - (1/2){decay, X} + jump(X).

    The value is 1j * (kron(1, H) - kron(H^T, 1))
    - 0.5 * (kron(1, decay) + kron(decay^T, 1)) + jump, written one row
    block at a time into the output, so no d^2 x d^2 temporary is formed.
    kron(X, Y)[i d + k, j d + l] = X[i, j] * Y[k, l], so row block i of
    kron(X, Y) is X[i, j] * Y[k, l] over (k, j, l): the same elementwise
    products np.kron forms, combined in the same order, hence the same
    bits.  Besides the output, the work memory is two d^3 blocks.
    """
    H = require_square(hamiltonian, "commutator generator")
    A = require_square(decay, "anticommutator generator")
    d = H.shape[0]
    dd = d * d
    jump = np.asarray(jump)
    if A.shape != H.shape or jump.shape != (dd, dd):
        raise ValueError(
            f"incompatible Lindblad pieces: hamiltonian {H.shape}, "
            f"decay {A.shape}, jump {jump.shape}")
    out = np.empty((dd, dd), dtype=complex)
    eye = np.eye(d, dtype=complex)
    tmp, tmp2 = np.empty((2, d, d, d), dtype=complex)
    for i, blk in enumerate(out.reshape(d, d, d, d)):
        # 1j * (kron(1, H) - kron(H^T, 1))
        _kron_row_block(eye, H, i, blk)
        _kron_row_block(H.T, eye, i, tmp)
        np.subtract(blk, tmp, out=blk)
        np.multiply(1j, blk, out=blk)
        # - 0.5 * (kron(1, A) + kron(A^T, 1))
        _kron_row_block(eye, A, i, tmp)
        _kron_row_block(A.T, eye, i, tmp2)
        np.add(tmp, tmp2, out=tmp)
        np.multiply(0.5, tmp, out=tmp)
        np.subtract(blk, tmp, out=blk)
        np.add(blk, jump[i * d:(i + 1) * d].reshape(d, d, d), out=blk)
    return out


def _kron_row_block(X: np.ndarray, Y: np.ndarray, i: int, out: np.ndarray):
    """Row block i of kron(X, Y) for d x d factors, as out[k, j, l] =
    X[i, j] * Y[k, l], a few columns j at a time: numpy buffers both
    factors of a broadcast product, and over all of (k, j, l) that
    would be two more d^3 arrays."""
    d = X.shape[1]
    step = max(1, ELEMENTWISE_CHUNK // (d * d))
    for j in range(0, d, step):
        np.multiply(X[i, j:j + step, None], Y[:, None, :],
                    out=out[:, j:j + step])


def assemble_kt(sub: PhysicalSubsystem, h0_eig, Hp: np.ndarray, T: float):
    """Second-order superoperator K_T (no coupling factors) together
    with its pieces (hamiltonian shift, decay, jump map).

    The frequency-integral shift enters the effective Hamiltonian with
    a minus sign: expanding the ordered double integral against the odd
    1/w kernel, the even sandwich terms cancel in the principal value
    and the surviving commutator is -i [shift, X].  The returned
    ``shift`` is the additive Hamiltonian piece (minus the positive PV
    integral), so K = i[shift, .] - (1/2){decay, .} + jump.  The
    time-domain oracle pins this sign.
    """
    _, shift, decay, jump = _kt_pieces(sub, h0_eig, Hp, T)
    return lindblad_superop(shift, decay, jump), shift, decay, jump


def _kt_pieces(sub: PhysicalSubsystem, h0_eig, Hp: np.ndarray, T: float):
    """(L0, shift, decay, jump): the coarse-grained perturbation at
    frequency zero and the pieces of K_T, without assembling K_T itself."""
    L0 = coarse_grained_L(h0_eig, Hp, T, 0.0)
    W = L0 - sub.project(L0)
    decay = hermitize(sub.project(W @ W))
    jump = sub.heisenberg @ sandwich_superop(W, W)
    return L0, -lamb_shift(h0_eig, Hp, T, sub), decay, jump


def _covariance_defect(H0: np.ndarray, P: np.ndarray) -> float:
    """||[Z, P]||_max for Z = i ad_{H0} = i (1 kron H0 - H0^T kron 1), in
    O(d^5) without forming Z.

    Under column stacking a row or column index of P is b d + a, so each
    Kronecker factor contracts one index of P: on the columns (operators
    X, mapped to [H0, X]) 1 kron H0 contracts a and H0^T kron 1
    contracts b; on the rows (functionals vec(Y)^T, mapped to
    vec([H0^T, Y])^T) the same factors contract a and b from the right.
    The factor i does not change the norm.

    One row block (b, .) of [Z, P] at a time, with a running max, so
    the extra memory is O(d^3): row block b of ZP takes H0 against the
    rows (b, .) of P and row b of H0^T against all of P.
    """
    d = H0.shape[0]
    dd = d * d
    rows = P.reshape(d, d, dd)
    by_b = P.reshape(d, d * dd)
    defect = 0.0
    for b in range(d):
        Pb = rows[b]
        diff = H0 @ Pb
        diff -= (H0.T[b] @ by_b).reshape(d, dd)
        diff -= (Pb.reshape(dd, d) @ H0).reshape(d, dd)
        diff += np.matmul(H0, Pb.reshape(d, d, d)).reshape(d, dd)
        defect = max(defect, max_abs(diff))
    return defect


class PreparedGenerator:
    """Coupling-independent half of :func:`build_generator`, made once
    per run: H0 and H' checked Hermitian, the covariance check (the free
    commutator superoperator must commute with P0; violation is rejected
    with the commutator-norm witness), the H0 eigensystem and the
    projected H0 and H'.  :meth:`bundle` is the per-coupling half."""

    def __init__(self, sub: PhysicalSubsystem, H0: np.ndarray, Hp: np.ndarray):
        self.subsystem = sub
        self.H0 = require_hermitian(H0, "H0")
        self.Hp = require_hermitian(Hp, "Hp")
        comm_dev = _covariance_defect(self.H0, sub.heisenberg)
        if comm_dev > 1e-10 * (1.0 + max_abs(self.H0)):
            raise ValueError(
                "free evolution does not commute with the projection: "
                f"||[Z, P0]||_max = {comm_dev:.3e}")
        self.h0_eig = hermitian_eig(self.H0, "H0")
        self.h_free = hermitize(sub.project(self.H0))
        self.h_first = hermitize(sub.project(self.Hp))

    def bundle(self, sched: CoarseGrainSchedule) -> GeneratorBundle:
        """Generator bundle at the coupling of ``sched`` (nonzero)."""
        return self._bundle(sched)[0]

    def _bundle(self, sched: CoarseGrainSchedule):
        """(bundle, L0, shift): the bundle together with the unscaled L0
        and Lamb-shift Hamiltonian of K_T it was assembled from."""
        T = T_of_lambda(sched)
        L0, shift, decay, jump = _kt_pieces(self.subsystem, self.h0_eig,
                                            self.Hp, T)
        bundle = GeneratorBundle.at_coupling(
            sched, self.subsystem, T, self.h_free, sched.lam * self.h_first,
            shift, decay, jump)
        return bundle, L0, shift


def build_generator(sub: PhysicalSubsystem, H0: np.ndarray, Hp: np.ndarray,
                    sched: CoarseGrainSchedule) -> GeneratorBundle:
    """Both halves of :class:`PreparedGenerator` at one coupling."""
    return PreparedGenerator(sub, H0, Hp).bundle(sched)


K_T_ORACLE_POINTS = 1601


def k_t_oracle(sub: PhysicalSubsystem, H0: np.ndarray, Hp: np.ndarray,
               T: float) -> np.ndarray:
    """Brute-force K_T by double time quadrature of the defining
    ordered integral

        (1 / (sqrt(pi) T)) int dt1 w(t1) A01(t1) int_{-inf}^{t1} dt2
                                w(t2) A10(t2),

    with w(t) = exp(-t^2 / 2 T^2) and A_ij(t) the projected interaction
    derivations in the free interaction picture.  Truncated at
    |t| <= 8 T on a uniform grid; the inner cumulative
    integral uses Simpson's rule (the mid-domain error of a cumulative
    trapezoid is O(h^2) and would dominate the 1e-6 budget), the outer
    integral the trapezoid rule, which is spectrally accurate for the
    Gaussian-localized integrand.

    P0 enters only through its range, so the oracle factors P0 = L R
    once, from its own SVD: L is an orthonormal basis of the range
    (singular values above 1e-9 times the largest) and R = L† P0.  The
    discarded singular values bound the residual max|P0 - L R|, which is
    checked at 1e-9 (1 + ||P0||_2); the factorization needs neither
    idempotency nor Hilbert-Schmidt self-adjointness.  The integrand is
    carried as the column stack P1 i ad_{H'(t)} L and the row stack
    R i ad_{H'(t)} P1 (P1 = 1 - P0, ad applied as operator commutators),
    and the result is L (inner r x r integral) R.  With r = rank P0 and
    n = 1601 points this costs O(n d^4 r) time and O(n d^2 r) memory.

    Returns the superoperator on the subsystem image (it annihilates
    the complement by construction).  Desk-scale only: dims above 12
    are rejected.
    """
    # Deferred: only the oracles use scipy.integrate, and runs never call them.
    from scipy.integrate import cumulative_simpson
    if T <= 0.0:
        raise ValueError(f"window width T must be positive, got {T}")
    H0 = require_hermitian(H0, "H0")
    Hp = require_hermitian(Hp, "Hp")
    d = sub.dim
    if d > 12:
        raise ValueError(f"time-domain oracle is desk-scale only (d <= 12), got {d}")

    eig = hermitian_eig(H0, "H0")
    U, eps = eig.vectors, eig.values
    Hp_eig = U.conj().T @ Hp @ U
    delta = np.subtract.outer(eps, eps)
    P0 = sub.heisenberg
    dd = d * d
    P1 = np.eye(dd, dtype=complex) - P0

    u, s, _ = np.linalg.svd(P0)
    rank = int(np.sum(s > 1e-9 * s[0]))
    L = u[:, :rank]
    R = L.conj().T @ P0
    resid = max_abs(P0 - L @ R)
    if resid > 1e-9 * (1.0 + s[0]):
        raise ValueError(
            f"oracle factorization P0 = L R failed: residual {resid:.3e}")

    ts = np.linspace(-8.0 * T, 8.0 * T, K_T_ORACLE_POINTS)
    h = ts[1] - ts[0]
    weights = np.exp(-ts ** 2 / (2.0 * T * T))

    # H'(t) on the grid, (n, d, d).  A C-order reshape of a column-stacked
    # vec gives the transposed operator, so the stacks are built from
    # transposes: vec(i[H, X])^T = i[X^T, H^T] for a column X = devec(L e_j),
    # and a row R_j = vec(Y)^T maps to vec(i[H^T, Y])^T with transpose
    # i[Y^T, H].
    Hp_t = U @ (np.exp(-1j * delta * ts[:, None, None]) * Hp_eig) @ U.conj().T
    Hp_tT = Hp_t.transpose(0, 2, 1)
    Xt = L.T.reshape(rank, d, d)
    Yt = R.reshape(rank, d, d)
    cols = (1j * (Xt[None] @ Hp_tT[:, None] - Hp_tT[:, None] @ Xt[None])
            ).reshape(K_T_ORACLE_POINTS, rank, dd)
    F10 = weights[:, None, None] * (P1 @ cols.transpose(0, 2, 1))
    rows = (1j * (Yt[None] @ Hp_t[:, None] - Hp_t[:, None] @ Yt[None])
            ).reshape(K_T_ORACLE_POINTS, rank, dd) @ P1

    cum = cumulative_simpson(F10.real, dx=h, axis=0, initial=0) \
        + 1j * cumulative_simpson(F10.imag, dx=h, axis=0, initial=0)

    coeff = np.full(K_T_ORACLE_POINTS, h)
    coeff[[0, -1]] = 0.5 * h
    inner = np.sum((coeff * weights)[:, None, None] * (rows @ cum), axis=0)
    return (L @ inner @ R) / (np.sqrt(np.pi) * T)


@dataclass
class Trajectory:
    times: np.ndarray
    states: list
    trace_dev: np.ndarray
    min_eig: np.ndarray

    @property
    def max_trace_dev(self) -> float:
        return float(np.max(self.trace_dev)) if len(self.trace_dev) else 0.0

    @property
    def min_state_eig(self) -> float:
        return float(np.min(self.min_eig)) if len(self.min_eig) else 0.0


def _semigroup_times(times: Sequence[float]) -> np.ndarray:
    """The times as a float array, read once; the generator defines a
    semigroup, so a negative time raises ValueError."""
    times = np.asarray(list(times), dtype=float)
    if np.any(times < 0):
        raise ValueError(f"negative time {float(times.min())!r}: the "
                         "semigroup exp(tG) is defined for t >= 0 only")
    return times


def evolve(bundle: GeneratorBundle, state0: np.ndarray,
           times: Sequence[float]) -> Trajectory:
    """Propagate a density matrix in the predual image along the
    image-restricted (quotient) Schrödinger generator, so trajectories
    stay representable on the subsystem.  Trace deviation and the
    minimum eigenvalue are recorded at every sampled time.  The
    generator defines a semigroup, so a negative time raises ValueError.
    """
    times = _semigroup_times(times)
    d = bundle.dim
    state0 = require_hermitian(state0, "initial state", rtol=1e-10)
    if abs(np.trace(state0).real - 1.0) > 1e-9:
        raise ValueError(f"initial state trace {np.trace(state0).real!r} != 1")
    if max_abs(bundle.subsystem.project_state(state0) - state0) \
            > 1e-8 * (1.0 + max_abs(state0)):
        raise ValueError("initial state is outside the subsystem image")

    v0 = vectorize(state0)
    states, tdev, mineig = [], [], []
    for t in times:
        X = devectorize(expm(t * bundle.quotient_schrodinger) @ v0, d)
        states.append(X)
        tdev.append(abs(np.trace(X).real - np.trace(state0).real)
                    + abs(np.trace(X).imag))
        mineig.append(float(np.linalg.eigvalsh(hermitize(X))[0]))
    return Trajectory(times=times, states=states,
                      trace_dev=np.array(tdev), min_eig=np.array(mineig))


@dataclass
class QdsCertificate:
    times: np.ndarray
    choi_min_eig: np.ndarray
    unitality_dev: np.ndarray
    trace_preservation_dev: np.ndarray
    restricted_heis_norm: np.ndarray
    semigroup_dev: float
    trace_norm_growth: float
    passed: bool


def qds_certificate(bundle: GeneratorBundle,
                    time_samples: Sequence[float] = (0.1, 1.0, 10.0, 100.0),
                    rng=0) -> QdsCertificate:
    """Certify semigroup properties at sampled times.

    Per time t: the Choi matrix of the Schrödinger propagator must be
    PSD within PSD_SLACK (1 + d); the Heisenberg propagator must fix the
    identity (residual <= 1e-10) and its dual must preserve the trace
    functional (<= 1e-9).  The composition law exp((s+t)G) =
    exp(sG) exp(tG) is checked on all sample pairs (<= 1e-9), and the
    trace norm of three evolved sampled states must not grow by more
    than 1e-9.  The spectral norm of the image-restricted Heisenberg
    propagator is reported (not asserted; it is a Hilbert-Schmidt
    proxy, not the algebra norm).  A negative time raises ValueError.
    """
    rng = np.random.default_rng(rng)
    times = _semigroup_times(time_samples)
    d = bundle.dim
    eye_vec = vectorize(np.eye(d))

    g_restricted = bundle.restricted_heisenberg()
    quotient = bundle.quotient_schrodinger

    schr_props = {}
    choi_min, unit_dev, tp_dev, rnorm = [], [], [], []
    for t in times:
        prop_s = expm(t * bundle.schrodinger)
        schr_props[float(t)] = prop_s
        choi_min.append(is_psd(choi_matrix(prop_s)).min_eig)
        prop_h = expm(t * bundle.heisenberg)
        unit_dev.append(max_abs(prop_h @ eye_vec - eye_vec))
        tp_dev.append(max_abs(eye_vec.conj() @ prop_s - eye_vec.conj()))
        rnorm.append(operator_norm(expm(t * g_restricted)))

    semi_dev = 0.0
    for i, s in enumerate(times):
        for t in times[i:]:
            lhs = expm((s + t) * bundle.schrodinger)
            rhs = schr_props[float(s)] @ schr_props[float(t)]
            semi_dev = max(semi_dev, max_abs(lhs - rhs))

    quotient_props = [expm(t * quotient) for t in times]
    growth = 0.0
    for _ in range(3):
        G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = bundle.subsystem.project_state(G @ G.conj().T)
        rho = hermitize(rho) / np.trace(rho).real
        base = trace_norm(rho)
        for prop_q in quotient_props:
            evolved = devectorize(prop_q @ vectorize(rho), d)
            growth = max(growth, trace_norm(evolved) - base)

    choi_min = np.array(choi_min)
    unit_dev = np.array(unit_dev)
    tp_dev = np.array(tp_dev)
    passed = bool(
        np.all(choi_min >= -PSD_SLACK * (1.0 + d))
        and np.all(unit_dev <= 1e-10)
        and np.all(tp_dev <= 1e-9)
        and semi_dev <= 1e-9
        and growth <= 1e-9
    )
    return QdsCertificate(times=times, choi_min_eig=choi_min,
                          unitality_dev=unit_dev,
                          trace_preservation_dev=tp_dev,
                          restricted_heis_norm=np.array(rnorm),
                          semigroup_dev=semi_dev,
                          trace_norm_growth=growth,
                          passed=passed)


@dataclass
class SteadyStateResult:
    state: Optional[np.ndarray]
    nullspace_dim: int
    gap: float
    flagged: bool
    note: str = ""


STEADY_STATE_GAP_TOL = 1e-6


def steady_state(bundle: GeneratorBundle) -> SteadyStateResult:
    """Nullspace of the image-restricted Schrödinger generator (singular
    values below 1e-9 times the largest count as zero), intersected with
    trace-one Hermitian PSD operators.

    Reports the nullspace dimension; when it is one, the unique state
    is returned trace-normalized.  An ambiguous singular-value gap or a
    multi-dimensional nullspace is flagged rather than resolved, with the
    cause in ``note`` (for a gap below STEADY_STATE_GAP_TOL: the gap,
    the tolerance and their distance).
    """
    s, B = bundle.restricted_schrodinger()
    _, svals, vh = np.linalg.svd(s)
    dim_null, gap = numerical_nullity(svals, 1e-9)
    if dim_null == 0:
        return SteadyStateResult(None, 0, 0.0, True,
                                 note="no nullspace found at tolerance")
    if dim_null > 1:
        return SteadyStateResult(None, dim_null, gap, True,
                                 note="nullspace is not one-dimensional")

    vec_img = vh[-1, :].conj()
    rho = devectorize(B @ vec_img, bundle.dim)
    rho = hermitize(rho)
    tr = np.trace(rho).real
    if abs(tr) < 1e-12:
        return SteadyStateResult(None, 1, gap, True,
                                 note="null vector is traceless; cannot normalize")
    rho = rho / tr
    min_eig = float(np.linalg.eigvalsh(rho)[0])
    notes = [f"gap {gap:.3e} below gap_tol {STEADY_STATE_GAP_TOL:.3e} "
             f"(distance {STEADY_STATE_GAP_TOL - gap:.3e})"] \
        if gap < STEADY_STATE_GAP_TOL else []
    if min_eig < -1e-9:
        notes.append(f"normalized null state not PSD (min eig {min_eig:.3e})")
    return SteadyStateResult(rho, 1, gap, bool(notes), note="; ".join(notes))


def export_bundle(bundle: GeneratorBundle, directory) -> None:
    """Write the Lindblad pieces as interchange-format matrices plus a
    plain-text manifest (schedule, dims, subsystem descriptor).  Its
    ``commutant_dim`` is rank P0 = round(Re Tr P0), which a checked build
    proves equal to the commutant dimension."""
    os.makedirs(directory, exist_ok=True)
    dec = bundle.decomposition
    pieces = {
        "h_free.mat": dec.h_free,
        "h_first.mat": dec.h_first,
        "h_lamb.mat": dec.h_lamb,
        "decay.mat": dec.decay,
        "jump_map.mat": dec.jump_map,
        "heisenberg.mat": bundle.heisenberg,
        "schrodinger.mat": bundle.schrodinger,
    }
    for name, M in pieces.items():
        with open(os.path.join(directory, name), "w", encoding="ascii") as fh:
            fh.write(matrix_to_text(M))
    sched = bundle.schedule
    lines = [
        f"dim = {bundle.dim}",
        f"lambda = {sched.lam:.17g}",
        f"xi = {sched.xi:.17g}",
        f"T_ref = {sched.T_ref:.17g}",
        f"T = {bundle.T:.17g}",
        f"kraus_count = {len(bundle.subsystem.operators)}",
        f"commutant_dim = {round(np.trace(bundle.subsystem.heisenberg).real)}",
        "pieces = h_free h_first h_lamb decay jump_map heisenberg schrodinger",
    ]
    with open(os.path.join(directory, "manifest.txt"), "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(directory, "kraus.mat"), "w", encoding="ascii") as fh:
        fh.write(kraus_to_text(bundle.subsystem))
