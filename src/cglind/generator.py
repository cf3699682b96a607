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

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .coarsegrain import CoarseGrainSchedule, T_of_lambda, coarse_grained_L, \
    lamb_shift
from .linalg import (
    PSD_SLACK,
    choi_matrix,
    devectorize,
    expm,
    expm_grid,
    from_real_basis,
    hermitian_eig,
    hermitize,
    is_psd,
    max_abs,
    numerical_nullity,
    operator_norm,
    require_hermitian,
    require_square,
    sandwich_superop,
    trace_norm,
    to_real_basis,
    trace_pairing_adjoint,
    vectorize,
)
from .subsystem import PhysicalSubsystem

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
]


@dataclass
class LindbladDecomposition:
    """Pieces of the generator: free and first-order Hamiltonians, the
    second-order Hamiltonian shift and the decay operator A = Psi(1).
    The jump map Psi is not kept: it is G - i[H_eff, .] + (1/2){A, .}."""

    h_free: np.ndarray
    h_first: np.ndarray
    h_lamb: np.ndarray
    decay: np.ndarray

    def effective_hamiltonian(self) -> np.ndarray:
        return self.h_free + self.h_first + self.h_lamb


@dataclass
class GeneratorBundle:
    """The Heisenberg generator (read-only) with its pieces.  The
    Schrödinger form is derived on each read; the quotient form is
    derived on first use (threads that race there repeat the work)."""

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
        is consumed: it is scaled in place and the generator is assembled
        over it, so it becomes the returned ``heisenberg``.

        Psi(1) = A, checked on the jump before assembly, and unitality
        G(1) = 0 are asserted at 1e-10 relative (to the decay and the
        generator max entries)."""
        lam2 = sched.lam * sched.lam
        dec = LindbladDecomposition(
            h_free=h_free, h_first=h_first, h_lamb=lam2 * shift,
            decay=lam2 * decay)
        np.multiply(jump, lam2, out=jump)
        d = sub.dim
        eye_vec = vectorize(np.eye(d))
        scale = 1.0 + max_abs(dec.decay)
        psi_unit_dev = max_abs(devectorize(jump @ eye_vec, d) - dec.decay)
        if psi_unit_dev > 1e-10 * scale:
            raise ValueError(
                f"jump map violates Psi(1) = A: defect {psi_unit_dev:.3e}")
        heis = _add_lindblad_terms(dec.effective_hamiltonian(), dec.decay, jump)
        heis.flags.writeable = False
        unital_dev = max_abs(heis @ eye_vec)
        if unital_dev > 1e-10 * (1.0 + max_abs(heis)):
            raise ValueError(
                f"generator is not unital: ||G(1)||_max = {unital_dev:.3e}")
        return cls(decomposition=dec, heisenberg=heis, schedule=sched,
                   subsystem=sub, T=T)

    @property
    def dim(self) -> int:
        return self.subsystem.dim

    @property
    def schrodinger(self) -> np.ndarray:
        """A fresh copy on each read: an index permutation of G_H."""
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


def lindblad_superop(hamiltonian: np.ndarray, decay: np.ndarray,
                     jump: np.ndarray) -> np.ndarray:
    """Heisenberg superoperator X -> i[H, X] - (1/2){decay, X} + jump(X):
    :func:`_add_lindblad_terms` over a copy of ``jump``."""
    return _add_lindblad_terms(hamiltonian, decay,
                               np.array(jump, dtype=complex))


def _add_lindblad_terms(hamiltonian: np.ndarray, decay: np.ndarray,
                        jump: np.ndarray) -> np.ndarray:
    """Add i[H, .] - (1/2){decay, .} into the complex d^2 x d^2 array
    ``jump`` in place, one row block at a time, and return it.

    The value added is 1j * (kron(1, H) - kron(H^T, 1))
    - 0.5 * (kron(1, decay) + kron(decay^T, 1)).  Row block i of
    kron(X, Y) is X[i, j] * Y[k, l] over (k, j, l): the same elementwise
    products np.kron forms, combined in the same order and added to the
    jump last, hence the bits of the Kronecker assembly.  An identity
    factor, 0 or 1, makes each product exact, so the commutator pair is
    copied whole-block from 0 H, 1 H, 0 H^T[i] and 1 H^T[i], and the first
    decay product from 0 A and 1 A.  The second, 0 A^T[i] off the diagonal
    k = l, is added as a broadcast row in halves (numpy buffers such an
    operand at the op's size) and the diagonal sums are put back.
    """
    H = require_square(hamiltonian, "commutator generator")
    A = require_square(decay, "anticommutator generator")
    d = H.shape[0]
    jump = np.asarray(jump)
    if A.shape != H.shape or jump.shape != (d * d, d * d):
        raise ValueError(
            f"incompatible Lindblad pieces: hamiltonian {H.shape}, "
            f"decay {A.shape}, jump {jump.shape}")
    comm, anti = np.empty((2, d, d, d), dtype=complex)
    zero_h, one_h, diag = 0j * H, (1 + 0j) * H, np.arange(d)
    for i, blk in enumerate(np.reshape(jump, (d, d, d, d), copy=False)):
        comm[...] = zero_h[:, None, :]
        comm[:, i] = one_h
        anti[...] = (0j * H.T[i])[None, :, None]
        anti[diag, :, diag] = (1 + 0j) * H.T[i]
        np.subtract(comm, anti, out=comm)
        anti[...] = (0j * A)[:, None, :]
        anti[:, i] = (1 + 0j) * A
        on_diag = anti[diag, :, diag] + (1 + 0j) * A.T[i]
        for half in (anti[:d // 2], anti[d // 2:]):
            np.add(half, (0j * A.T[i])[None, :, None], out=half)
        anti[diag, :, diag] = on_diag
        np.multiply(1j, comm, out=comm)
        np.multiply(0.5, anti, out=anti)
        np.subtract(comm, anti, out=comm)
        np.add(comm, blk, out=blk)
    return jump


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

    cum = _cumulative_simpson(F10.real, h) \
        + 1j * _cumulative_simpson(F10.imag, h)

    coeff = np.full(K_T_ORACLE_POINTS, h)
    coeff[[0, -1]] = 0.5 * h
    inner = np.sum((coeff * weights)[:, None, None] * (rows @ cum), axis=0)
    return (L @ inner @ R) / (np.sqrt(np.pi) * T)


def _cumulative_simpson(y: np.ndarray, h: float) -> np.ndarray:
    """scipy 1.17.1's ``cumulative_simpson(y, dx=h, axis=0, initial=0)``
    bit for bit, without loading scipy.integrate: interval k takes
    h/3 (5 f1/4 + 2 f2 - f3/4) over the three points that start at it if
    k is even, else (and for the last) over the three that end at it."""
    bwd = h / 3 * (5 * y[2:] / 4 + 2 * y[1:-1] - y[:-2] / 4)
    parts = np.zeros(y.shape)
    parts[1:-1:2] = h / 3 * (5 * y[:-2:2] / 4 + 2 * y[1:-1:2] - y[2::2] / 4)
    parts[2::2] = bwd[::2]
    parts[-1] = bwd[-1]
    return np.cumsum(parts, axis=0)


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
    for prop in expm_grid(bundle.quotient_schrodinger, times):
        X = devectorize(prop @ v0, d)
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
    semigroup_dev: Optional[float]
    trace_norm_growth: Optional[float]
    real_basis_imag: float
    real_basis_imag_bound: float
    passed: bool


REAL_BASIS_IMAG_C = 4.0  # c of the c n u bound in qds_certificate


def qds_certificate(bundle: GeneratorBundle,
                    time_samples: Sequence[float] = (0.1, 1.0, 10.0, 100.0),
                    rng=0) -> QdsCertificate:
    """Certify semigroup properties at sampled times.

    Per time t: the Choi matrix of the Schrödinger propagator must be
    PSD within PSD_SLACK (1 + d), and the Heisenberg propagator must fix
    the identity (residual <= 1e-10); that row is also the
    trace-preservation row (below), so ``trace_preservation_dev`` repeats
    it under the same bound.  The composition law exp((s+t)G) =
    exp(sG) exp(tG) is checked on all sample pairs (<= 1e-9), and the
    trace norm of three evolved sampled states must not grow by more
    than 1e-9.  The spectral norm of the image-restricted Heisenberg
    propagator is reported (not asserted; it is a Hilbert-Schmidt
    proxy, not the algebra norm).  A negative time raises ValueError.

    The full-space propagators are real: they are formed in the Hermitian
    basis of linalg.to_real_basis (the coherence vectors of Alicki and
    Lendi, LNP 286, 1987).  The trace pairing is the Hilbert-Schmidt
    product there, so the real G_S is (V^dagger G_H V)^T, the Heisenberg
    propagator is the Schrödinger one transposed, and one row, computed
    once, is both the unitality and the trace-preservation deviation;
    G_H(1) = 0, asserted in GeneratorBundle.at_coupling, is the
    independent check.  Witnesses are
    read in matrix units, after the transform back.  The imaginary parts
    of V^dagger G_H V and of the transformed quotient Q are roundoff of
    products of inner dimension n = d^2 (P0 with the sandwich in G_H, P0*
    with G_S in Q); above REAL_BASIS_IMAG_C n u (max|G_H| + max|Q|), with
    u = 2^-53 and real-basis maxima, the check fails.

    A pair s = t tests nothing when 2tG takes one squaring more than tG
    (about ||2tG||_1 > 1/2): scaling and squaring then forms exp(2tG) as
    exp(tG) @ exp(tG) to the bit, and the deviation is exactly 0.  A
    propagator that overflows fails each check that reads it: its
    witnesses are None, and the maxima propagate nan.
    """
    rng = np.random.default_rng(rng)
    times = _semigroup_times(time_samples)
    d = bundle.dim
    eye_vec = vectorize(np.eye(d)).real  # also its real-basis coordinates
    heis, imag_h = to_real_basis(bundle.heisenberg)
    quotient, imag_q = to_real_basis(bundle.quotient_schrodinger)
    imag_bound = REAL_BASIS_IMAG_C * d * d * 2.0 ** -53 \
        * (max_abs(heis) + max_abs(quotient))
    g_restricted = bundle.restricted_heisenberg()

    pairs = [(s, t) for i, s in enumerate(times) for t in times[i:]]
    choi_min, unit_dev, rnorm, growth = [], [], [], []
    with np.errstate(over="ignore", invalid="ignore"):
        schr = expm_grid(np.ascontiguousarray(heis.T),
                         [*times, *(s + t for s, t in pairs)])
        props = {float(t): next(schr) for t in times}
        for t in times:
            P, E = props[float(t)], expm(t * g_restricted)
            choi_min.append(_if_finite(P, lambda: is_psd(
                choi_matrix(from_real_basis(P))).min_eig))
            # a real-basis row f has the entry moduli of V f in matrix units;
            # the Heisenberg propagator is P^T, so one row is both checks
            unit_dev.append(max_abs(from_real_basis(eye_vec @ P - eye_vec)))
            rnorm.append(_if_finite(E, lambda: operator_norm(E)))
        semi_dev = np.max([max_abs(from_real_basis(
            lhs - props[float(s)] @ props[float(t)]))
            for (s, t), lhs in zip(pairs, schr)], initial=0.0)

        quotient_props = list(expm_grid(quotient, times))
        for _ in range(3):
            G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            rho = bundle.subsystem.project_state(G @ G.conj().T)
            rho = hermitize(rho) / np.trace(rho).real
            base, x = trace_norm(rho), to_real_basis(vectorize(rho))[0]
            for Q in quotient_props:
                growth.append(_if_finite(Q, lambda: trace_norm(
                    devectorize(from_real_basis(Q @ x), d)) - base))
        growth = np.max(growth, initial=0.0)
        passed = bool(
            np.all(np.array(choi_min) >= -PSD_SLACK * (1.0 + d))
            and np.all(np.array(unit_dev) <= 1e-10)
            and semi_dev <= 1e-9 and growth <= 1e-9
            and max(imag_h, imag_q) <= imag_bound
        )
    return QdsCertificate(times=times, choi_min_eig=_finite(choi_min),
                          unitality_dev=_finite(unit_dev),
                          trace_preservation_dev=_finite(unit_dev),
                          restricted_heis_norm=_finite(rnorm),
                          semigroup_dev=_finite(semi_dev),
                          trace_norm_growth=_finite(growth),
                          real_basis_imag=max(imag_h, imag_q),
                          real_basis_imag_bound=imag_bound, passed=passed)


def _if_finite(M: np.ndarray, witness) -> float:
    """witness(), or nan if M is not finite (is_psd and SVDs reject it)."""
    return witness() if np.all(np.isfinite(M)) else np.nan


def _finite(x):
    """A witness, or an array of a list of them, with inf and nan as None."""
    if isinstance(x, list):
        return np.array([_finite(v) for v in x])
    return float(x) if np.isfinite(x) else None


@dataclass
class SteadyStateResult:
    state: Optional[np.ndarray]
    nullspace_dim: int
    gap: float
    flagged: bool
    note: str = ""


STEADY_STATE_GAP_TOL = 1e-6


def steady_state(bundle: GeneratorBundle) -> SteadyStateResult:
    """Nullspace of the cached quotient Schrödinger generator on an
    orthonormal basis of the state image (singular values below 1e-9
    times the largest count as zero), intersected with trace-one
    Hermitian PSD operators.

    Reports the nullspace dimension; when it is one, the unique state
    is returned trace-normalized.  An ambiguous singular-value gap or a
    multi-dimensional nullspace is flagged rather than resolved, with the
    cause in ``note`` (for a gap below STEADY_STATE_GAP_TOL: the gap,
    the tolerance and their distance).
    """
    B = bundle.subsystem.image_bases[1]
    _, svals, vh = np.linalg.svd(B.conj().T @ bundle.quotient_schrodinger @ B)
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
