"""Worked scenario families and the weak-coupling error curve.

Two model classes get specialized generator constructions that are
cross-checked against the general build:

* Sector dynamics: a complete family of mutually orthogonal projectors
  commuting with the free Hamiltonian.  The state equation couples the
  per-sector density matrices through scattering amplitudes
  D[src][dst] = V_dst L V_src built from the coarse-grained
  perturbation, with a per-sector second-order energy renormalization.

* Heat bath: a system A coupled to a finite thermal bath B through
  lam * Q kron Phi.  The bath enters only through its correlation
  spectrum - a finite comb of lines (frequency, weight) with the
  zero-frequency bin carrying the connected subtraction - and the
  frequency integrals collapse to exact sums of dissipators built from
  frequency-translated coarse-grained system operators.

The error curve compares the exact projected evolution against the
semigroup approximation (the CLI's auto time mode takes the rescaled
window [0, tau/lam^2]); no convergence claim is attached, since
discrete spectra cannot satisfy the continuum decay hypotheses.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .coarsegrain import CoarseGrainSchedule, T_of_lambda, coarse_grained_L, \
    pv_shift_eigenbasis
from .generator import GeneratorBundle, PreparedGenerator, \
    SteadyStateResult, _semigroup_times, steady_state
from .linalg import (
    devectorize,
    expm_grid,
    hermitian_eig,
    hermitize,
    max_abs,
    operator_norm,
    require_hermitian,
    sandwich_superop,
    trace_distance,
    vectorize,
)
from .subsystem import build_projection, sector_family, trivial_family

__all__ = [
    "QfgrModel",
    "QfgrGenerator",
    "PreparedQfgr",
    "qfgr_generator",
    "HeatBathModel",
    "CorrelationData",
    "gibbs_state",
    "bath_correlation",
    "PreparedHeatBath",
    "heat_bath_generator",
    "dual_path_residual",
    "GibbsRow",
    "gibbs_row",
    "gibbs_limit_study",
    "projected_error_curve",
    "PRESETS",
    "two_sector_qubit_model",
    "qfgr_two_block_model",
    "heat_bath_qutrit_model",
    "reference_heat_bath_model",
    "quasi_continuum_model",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


# ---------------------------------------------------------------------------
# Sector dynamics
# ---------------------------------------------------------------------------

@dataclass
class QfgrModel:
    """Block-diagonal free Hamiltonian with an arbitrary Hermitian
    perturbation on a sector decomposition."""

    sector_dims: list
    H0: np.ndarray
    Hp: np.ndarray
    schedule: CoarseGrainSchedule

    def __post_init__(self):
        self.H0 = require_hermitian(self.H0, "H0")
        self.Hp = require_hermitian(self.Hp, "Hp")
        projs = sector_family(self.sector_dims).operators
        if projs[0].shape != self.H0.shape or self.Hp.shape != self.H0.shape:
            raise ValueError(f"H0 {self.H0.shape} and Hp {self.Hp.shape} must "
                             f"match the sector total {projs[0].shape[0]}")
        worst = max(max_abs(self.H0 @ P - P @ self.H0) for P in projs)
        if worst > 1e-12 * (1.0 + max_abs(self.H0)):
            raise ValueError(
                f"H0 must commute with every sector projector: defect {worst:.3e}")


@dataclass
class QfgrGenerator:
    """Sector equations at one coupling: the scattering amplitudes
    between sectors, the sector bundle assembled from them, the general
    bundle built from the same K_T, and the residual between the two."""

    amplitudes: Dict[Tuple[int, int], np.ndarray]
    sector: GeneratorBundle
    bundle: GeneratorBundle
    residual_vs_general: float


class PreparedQfgr(PreparedGenerator):
    """Coupling-independent part of :func:`qfgr_generator`, made once per
    run: the general preparation on the sector subsystem, whose Kraus
    operators are the projectors; :meth:`generator` is the per-coupling part."""

    def __init__(self, m: QfgrModel):
        super().__init__(build_projection(sector_family(m.sector_dims)),
                         m.H0, m.Hp)

    def generator(self, sched: CoarseGrainSchedule) -> QfgrGenerator:
        """Coupled per-sector state equations

            d rho_a = -i [H_a + lam H'_a + lam^2 H''_a, rho_a]
                      - (lam^2/2) sum_{b != a} {D[a][b]† D[a][b], rho_a}
                      + lam^2 sum_{b != a} D[b][a] rho_b D[b][a]†,

        with D[src][dst] = V_dst L V_src.  Note the jump term uses the
        amplitudes oriented source -> destination; the transposed
        indexing sometimes written for it annihilates every
        block-diagonal state and cannot reproduce the general
        construction.  L and the Lamb shift are the ones the general
        bundle is assembled from, so K_T is evaluated once.  The sector
        equations are assembled like the heat-bath line sum.  Rates and
        jumps come from the same D, so a broken Psi(1) = A is a code
        fault and raises, as on the general path; a fault that keeps the
        Lindblad form shows in the residual max|P0 (G_sector - P0 G P0)|,
        the trace-pairing dual of the mismatch on block-diagonal states,
        which is returned, not judged (a run fails a coupling above 1e-8).
        """
        sub = self.subsystem
        projs = sub.operators
        bundle, L, shift = self._bundle(sched)

        amplitudes = {(src, dst): P_dst @ L @ P_src
                      for src, P_src in enumerate(projs)
                      for dst, P_dst in enumerate(projs) if src != dst}
        decay = np.zeros_like(L)
        jump = np.zeros((L.size, L.size), dtype=complex)
        for D in amplitudes.values():
            decay += D.conj().T @ D
            jump += sandwich_superop(D.conj().T, D)
        sector = GeneratorBundle.at_coupling(
            sched, sub, bundle.T, self.h_free, sched.lam * self.h_first,
            shift, decay, jump)
        P = sub.heisenberg
        residual = max_abs(P @ (sector.heisenberg - P @ bundle.heisenberg @ P))
        return QfgrGenerator(amplitudes=amplitudes, sector=sector,
                             bundle=bundle, residual_vs_general=residual)


def qfgr_generator(m: QfgrModel) -> QfgrGenerator:
    """Both parts of :class:`PreparedQfgr` at the model's coupling."""
    return PreparedQfgr(m).generator(m.schedule)


# ---------------------------------------------------------------------------
# Heat bath
# ---------------------------------------------------------------------------

def _gibbs_eigh(H: np.ndarray, beta: float):
    """(levels, eigenvectors, Gibbs populations exp(-beta (e - e_min)) / Z)
    of a Hermitian H; the shifted exponents make large beta safe."""
    evals, evecs = np.linalg.eigh(H)
    w = np.exp(-beta * (evals - evals.min()))
    return evals, evecs, w / w.sum()


def gibbs_state(H: np.ndarray, beta: float) -> np.ndarray:
    """Thermal state exp(-beta H) / Z (beta = 0 gives the maximally
    mixed state)."""
    H = require_hermitian(H, "Hamiltonian")
    if beta < 0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    _, evecs, w = _gibbs_eigh(H, beta)
    return evecs @ np.diag(w) @ evecs.conj().T


@dataclass
class HeatBathModel:
    """System A coupled to a finite bath B at inverse temperature beta
    through the interaction lam * Q kron Phi."""

    H_A: np.ndarray
    H_B: np.ndarray
    Q: np.ndarray
    Phi: np.ndarray
    beta: float
    schedule: CoarseGrainSchedule

    def __post_init__(self):
        self.H_A = require_hermitian(self.H_A, "H_A")
        self.H_B = require_hermitian(self.H_B, "H_B")
        self.Q = require_hermitian(self.Q, "Q")
        self.Phi = require_hermitian(self.Phi, "Phi")
        if self.beta < 0:
            raise ValueError(f"beta must be nonnegative, got {self.beta}")
        if self.Q.shape != self.H_A.shape or self.Phi.shape != self.H_B.shape:
            raise ValueError(f"Q {self.Q.shape} must match H_A {self.H_A.shape}, "
                             f"Phi {self.Phi.shape} must match H_B {self.H_B.shape}")

    @property
    def dim_A(self) -> int:
        return self.H_A.shape[0]

    @property
    def dim_B(self) -> int:
        return self.H_B.shape[0]

    def bath_state(self) -> np.ndarray:
        return gibbs_state(self.H_B, self.beta)

    def full_hamiltonian_parts(self):
        H0 = np.kron(self.H_A, np.eye(self.dim_B)) \
            + np.kron(np.eye(self.dim_A), self.H_B)
        Hp = np.kron(self.Q, self.Phi)
        return H0, Hp


@dataclass
class CorrelationData:
    """Bath correlation spectrum: h(t) = sum_k c_k exp(i w_k t) with
    nonnegative weights, plus the connected weights in which the
    zero-frequency bin is reduced by mean^2."""

    mean: float
    frequencies: np.ndarray
    weights: np.ndarray
    connected_weights: np.ndarray


def bath_correlation(m: HeatBathModel) -> CorrelationData:
    """Exact spectral decomposition of the bath correlation function in
    the bath eigenbasis: a line at every level difference e_m - e_n
    with weight p_m |Phi_mn|^2 (Gibbs population of the first index).

    Lines closer than 1e-10 are merged (weight-averaged position); the
    zero bin of the connected weights is reduced by the squared
    first-order mean, which never drives it negative beyond roundoff.
    """
    merge_tol = 1e-10
    evals, evecs, pops = _gibbs_eigh(m.H_B, m.beta)
    Phi_eig = evecs.conj().T @ m.Phi @ evecs
    mean = float(np.sum(pops * np.diag(Phi_eig).real))

    freqs = np.subtract.outer(evals, evals).ravel()
    # Python's scalar abs and ** on each entry: the array forms round
    # differently on complex Phi
    weights = np.array([p * abs(z) ** 2 for p, row in zip(pops, Phi_eig)
                        for z in row])

    order = np.argsort(freqs, kind="stable")
    freqs, weights = freqs[order], weights[order]
    cuts = np.flatnonzero(np.diff(freqs) > merge_tol) + 1
    groups = list(zip(np.split(freqs, cuts), np.split(weights, cuts)))
    merged_w = np.array([float(w.sum()) for _, w in groups])
    merged_f = np.array([float(np.average(f, weights=w)) if w.sum() > 0
                         else float(f.mean()) for f, w in groups])

    connected = merged_w.copy()
    zero = np.abs(merged_f) <= merge_tol
    if mean != 0.0:
        if not np.any(zero):
            merged_f = np.append(merged_f, 0.0)
            merged_w = np.append(merged_w, 0.0)
            connected = np.append(connected, 0.0)
            zero = np.abs(merged_f) <= merge_tol
        idx = int(np.argmax(zero))
        connected[idx] -= mean * mean
        if -1e-12 <= connected[idx] < 0.0:
            connected[idx] = 0.0
    return CorrelationData(mean=mean, frequencies=merged_f, weights=merged_w,
                           connected_weights=connected)


class PreparedHeatBath:
    """Coupling-independent part of :func:`heat_bath_generator`, made
    once per run: the bath correlation comb, the H_A eigensystem, Q in
    that eigenbasis and the trivial subsystem B(H_A).  :meth:`bundle` is
    the per-coupling part."""

    def __init__(self, m: HeatBathModel):
        self.model = m
        self.corr = bath_correlation(m)
        self.eigA = hermitian_eig(m.H_A, "H_A")
        self.Q_eig = self.eigA.vectors.conj().T @ m.Q @ self.eigA.vectors
        self.subsystem = build_projection(trivial_family(m.dim_A))

    def first_order_vanishes(self) -> bool:
        """Whether the bath mean Tr(sigma Phi) is below 1e-10 (1 + max|Phi|)."""
        return abs(self.corr.mean) <= 1e-10 * (1.0 + max_abs(self.model.Phi))

    def bundle(self, sched: CoarseGrainSchedule) -> GeneratorBundle:
        """Specialized generator on the system algebra B(H_A).

        The finite bath makes the correlation transform a weighted comb,
        so the frequency integral becomes an exact sum over spectral
        lines of dissipators built from the frequency-translated
        coarse-grained system operators Q_w; the zero line carries the
        connected subtraction, and the inner principal-value integral of
        each line is the shared kernel :func:`pv_shift_eigenbasis` (the
        one behind :func:`lamb_shift`) with the window translated by the
        line frequency.  First-order term: i * mean * [Q, .].
        """
        m, corr, eigA = self.model, self.corr, self.eigA
        T = T_of_lambda(sched)
        U, eps = eigA.vectors, eigA.values
        dA = m.dim_A

        weight_scale = max(1.0, float(np.max(np.abs(corr.connected_weights))))
        decay = np.zeros((dA, dA), dtype=complex)
        jump = np.zeros((dA * dA, dA * dA), dtype=complex)
        shift_pos = np.zeros((dA, dA), dtype=complex)
        for wk, ck in zip(corr.frequencies, corr.connected_weights):
            if abs(ck) <= 1e-15 * weight_scale:
                continue
            Qw = coarse_grained_L(eigA, m.Q, T, wk)
            decay += ck * (Qw.conj().T @ Qw)
            jump += ck * sandwich_superop(Qw.conj().T, Qw)
            S_pre = pv_shift_eigenbasis(eps, self.Q_eig, T, wk)
            shift_pos += ck * (U @ S_pre @ U.conj().T)

        return GeneratorBundle.at_coupling(
            sched, self.subsystem, T, m.H_A.astype(complex),
            sched.lam * corr.mean * m.Q, -hermitize(shift_pos),
            hermitize(decay), jump)


def heat_bath_generator(m: HeatBathModel) -> GeneratorBundle:
    """Both parts of :class:`PreparedHeatBath` at the model's coupling."""
    return PreparedHeatBath(m).bundle(m.schedule)


def dual_path_residual(general: GeneratorBundle,
                       specialized: GeneratorBundle) -> float:
    """Max-entry mismatch max|G J - J G_A| of the two derivations of the
    same heat-bath generator, the general bundle G on A kron B and the
    specialized one G_A on B(H_A).  J is the embedding vec(X) ->
    vec(X kron 1_B) of the system algebra, entries 0 or 1: column
    k = c d_A + r, vec(E_rc), has a 1 at each vec index of E_rc kron 1_B."""
    dA, d = specialized.dim, general.dim
    dB = d // dA
    c, r = np.divmod(np.arange(dA * dA), dA)
    beta = np.arange(dB)[:, None]
    J = np.zeros((d * d, dA * dA))
    J[(c * dB + beta) * d + r * dB + beta, np.arange(dA * dA)] = 1.0
    return max_abs(general.heisenberg @ J - J @ specialized.heisenberg)


@dataclass
class GibbsRow:
    lam: float
    distance: float
    nullspace_dim: int
    flagged: bool


def gibbs_row(lam: float, ss: SteadyStateResult,
              target: np.ndarray) -> GibbsRow:
    """Steady state vs target Gibbs state (NaN and flagged if missing)."""
    if ss.state is None:
        return GibbsRow(lam=lam, distance=float("nan"),
                        nullspace_dim=ss.nullspace_dim, flagged=True)
    return GibbsRow(lam=lam, distance=trace_distance(ss.state, target),
                    nullspace_dim=ss.nullspace_dim, flagged=ss.flagged)


def gibbs_limit_study(m: HeatBathModel,
                      lambda_grid: Sequence[float]) -> List[GibbsRow]:
    """Steady-state distance to the system Gibbs state over a coupling
    grid, for models with vanishing first-order term (Phi traceless
    against the bath state, so the mean drops out)."""
    prepared = PreparedHeatBath(m)
    if not prepared.first_order_vanishes():
        raise ValueError(
            f"gibbs_limit_study needs a vanishing first-order term "
            f"(Tr(sigma Phi) = {prepared.corr.mean:.3e}); choose Phi "
            "traceless against the bath state")
    target = gibbs_state(m.H_A, m.beta)
    rows = []
    for lam in lambda_grid:
        ss = steady_state(prepared.bundle(replace(m.schedule, lam=lam)))
        rows.append(gibbs_row(lam, ss, target))
    return rows


# ---------------------------------------------------------------------------
# Weak-coupling error curve
# ---------------------------------------------------------------------------

def projected_error_curve(bundle: GeneratorBundle, H0: np.ndarray,
                          Hp: np.ndarray, times: Sequence[float]
                          ) -> np.ndarray:
    """Spectral-norm difference, on the observable image, between the
    exact projected evolution P0 exp(t(Z + lam A)) P0 and the semigroup
    approximation ``bundle`` of H0 + lam H', per time point.  The
    semigroup is defined for t >= 0 only, so a negative time raises
    ValueError."""
    times = _semigroup_times(times)
    sub, lam = bundle.subsystem, bundle.schedule.lam
    d = sub.dim
    B = sub.image_bases[0]
    k = B.shape[1]
    Bmats = [devectorize(B[:, j], d) for j in range(k)]
    g = bundle.restricted_heisenberg()

    evals, evecs = np.linalg.eigh(H0 + lam * Hp)
    errors = np.empty(len(times))
    for idx, (t, prop) in enumerate(zip(times, expm_grid(g, times))):
        U = evecs @ np.diag(np.exp(1j * evals * t)) @ evecs.conj().T
        cols = np.empty((d * d, k), dtype=complex)
        for j, Xj in enumerate(Bmats):
            cols[:, j] = vectorize(U @ Xj @ U.conj().T)
        w = B.conj().T @ (sub.heisenberg @ cols)
        errors[idx] = operator_norm(w - prop)
    return errors


# ---------------------------------------------------------------------------
# Frozen model presets
# ---------------------------------------------------------------------------

def two_sector_qubit_model() -> QfgrModel:
    """Two one-dimensional sectors; populations follow a classical
    two-state rate equation."""
    return QfgrModel(
        sector_dims=[1, 1],
        H0=np.diag([0.3, -0.5]).astype(complex),
        Hp=np.array([[0.2, 0.7], [0.7, -0.1]], dtype=complex),
        schedule=CoarseGrainSchedule(lam=0.5, xi=1.0, T_ref=1.2),
    )


def qfgr_two_block_model() -> QfgrModel:
    """Two two-dimensional sectors with a fixed dense perturbation."""
    Hp = np.array([
        [0.10, 0.45 + 0.20j, 0.00, 0.65 - 0.10j],
        [0.45 - 0.20j, -0.30, 0.55 + 0.30j, 0.00],
        [0.00, 0.55 - 0.30j, 0.20, 0.40 + 0.15j],
        [0.65 + 0.10j, 0.00, 0.40 - 0.15j, -0.15],
    ], dtype=complex)
    return QfgrModel(
        sector_dims=[2, 2],
        H0=np.diag([0.0, 0.25, 0.8, 1.05]).astype(complex),
        Hp=Hp,
        schedule=CoarseGrainSchedule(lam=0.35, xi=0.8, T_ref=0.9),
    )


def heat_bath_qutrit_model() -> HeatBathModel:
    """Qubit system, three-level bath, generic couplings."""
    return HeatBathModel(
        H_A=np.array([[0.7, 0.15], [0.15, -0.7]], dtype=complex),
        H_B=np.diag([0.0, 0.9, 1.7]).astype(complex),
        Q=np.array([[0.3, 1.0], [1.0, -0.3]], dtype=complex),
        Phi=np.array([[0.0, 0.8, 0.2],
                      [0.8, 0.1, 0.7],
                      [0.2, 0.7, -0.1]], dtype=complex),
        beta=1.0,
        schedule=CoarseGrainSchedule(lam=0.45, xi=1.0, T_ref=1.0),
    )


def reference_heat_bath_model() -> HeatBathModel:
    """Reference thermalization model: qubit + four-level bath with all
    bath levels coupled and no first-order term (Phi has zero
    diagonal).

    The coupling weights are frozen so that the finite-coupling steady
    states approach the system Gibbs state from above: the 0 <-> 2.4
    pair is damped and the 0.7 <-> 2.4 pair boosted, which keeps the
    line mixture at larger couplings on the far side of the
    asymptotic detailed-balance point set by the 1.9 line.
    """
    phi = np.array([
        [0.0, 1.0, 1.0, 0.15],
        [1.0, 0.0, 1.0, 1.5],
        [1.0, 1.0, 0.0, 1.0],
        [0.15, 1.5, 1.0, 0.0],
    ], dtype=complex)
    return HeatBathModel(
        H_A=SIGMA_Z.copy(),
        H_B=np.diag([0.0, 0.7, 1.9, 2.4]).astype(complex),
        Q=SIGMA_X.copy(),
        Phi=phi,
        beta=1.0,
        schedule=CoarseGrainSchedule(lam=0.3, xi=1.0, T_ref=1.0),
    )


QUASI_CONTINUUM_TAU_BAR = 0.2


def quasi_continuum_model() -> HeatBathModel:
    """Qubit + 16-level quasi-continuum bath: equally spaced levels with
    a smooth Gaussian coupling profile and no first-order term.  The
    parameters are frozen so the recorded error table is reproducible."""
    n = 16
    spacing = 0.1
    levels = spacing * np.arange(n)
    phi = np.zeros((n, n), dtype=complex)
    width = 0.4
    for i in range(n):
        for j in range(n):
            if i != j:
                phi[i, j] = np.exp(-((levels[i] - levels[j]) ** 2)
                                   / (2.0 * width * width))
    return HeatBathModel(
        H_A=0.4 * SIGMA_Z,
        H_B=np.diag(levels).astype(complex),
        Q=SIGMA_X.copy(),
        Phi=phi,
        beta=1.0,
        schedule=CoarseGrainSchedule(lam=0.2, xi=1.0, T_ref=1.0),
    )


@dataclass
class Preset:
    kind: str
    builder: object
    doc: str


PRESETS: Dict[str, Preset] = {
    "two-sector-qubit": Preset("qfgr", two_sector_qubit_model,
                               "two one-dimensional sectors; classical rate-equation limit"),
    "qfgr-two-blocks": Preset("qfgr", qfgr_two_block_model,
                              "two two-dimensional sectors, dense perturbation"),
    "heat-bath-qutrit": Preset("heat_bath", heat_bath_qutrit_model,
                               "qubit + 3-level bath, generic couplings"),
    "qubit-gibbs": Preset("heat_bath", reference_heat_bath_model,
                          "qubit + 4-level bath thermalization reference model"),
    "quasi-continuum": Preset("heat_bath", quasi_continuum_model,
                              "qubit + 16-level quasi-continuum bath for the error sweep"),
}
