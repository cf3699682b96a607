import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson

from conftest import (
    BUDGET_DIM,
    kron_commutator,
    random_density,
    random_hermitian,
    superop_bytes,
    traced_peak,
    with_signed_zeros,
)
from oracles import idempotency_defect
import cglind.generator as generator_module
import cglind.linalg as linalg_module
from cglind.coarsegrain import CoarseGrainSchedule, T_of_lambda
from cglind.generator import (
    _covariance_defect,
    assemble_kt,
    build_generator,
    evolve,
    k_t_oracle,
    lindblad_superop,
    qds_certificate,
    steady_state,
)
from cglind.linalg import (
    EXPM_SCALE_TARGET,
    choi_matrix,
    devectorize,
    expm,
    from_real_basis,
    hermitian_eig,
    hermitize,
    is_psd,
    max_abs,
    to_real_basis,
    trace_norm,
    trace_pairing_adjoint,
    vectorize,
)
from cglind.subsystem import (
    PhysicalSubsystem,
    build_projection,
    partial_trace_family,
    sector_family,
    trivial_family,
)
from cglind.scenarios import PRESETS, gibbs_state, heat_bath_generator, \
    heat_bath_qutrit_model, qfgr_two_block_model

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def _lindblad_superop_kron(H, A, jump):
    """Reference: the Kronecker-product assembly that lindblad_superop
    writes row block by row block."""
    eye = np.eye(H.shape[0], dtype=complex)
    return 1j * (np.kron(eye, H) - np.kron(H.T, eye)) \
        - 0.5 * (np.kron(eye, A) + np.kron(A.T, eye)) + jump


def dephasing_sub():
    return build_projection(sector_family([1, 1]))


def dephasing_bundle(lam=1.0, t_ref=1.0):
    """Dephasing qubit with visible relaxation (window T = t_ref / lam)."""
    sched = CoarseGrainSchedule(lam=lam, xi=1.0, T_ref=t_ref)
    return build_generator(dephasing_sub(), SZ, SX, sched)


def oblique_heat_bath(rng):
    """Qubit on a two-level bath in a Gibbs state that is not maximally
    mixed: the partial-trace projection is not Hilbert-Schmidt
    self-adjoint.  Returns (subsystem, H0, H')."""
    HB = np.diag([0.0, 0.8]).astype(complex)
    sub = build_projection(partial_trace_family(2, gibbs_state(HB, 1.0)))
    H0 = np.kron(0.6 * SZ, np.eye(2)) + np.kron(np.eye(2), HB)
    return sub, H0, random_hermitian(rng, 4)


def commutator_bundle():
    """Perturbation inside the subsystem algebra: pure commutator flow."""
    sched = CoarseGrainSchedule(lam=0.5, xi=1.0, T_ref=1.0)
    return build_generator(dephasing_sub(), np.diag([0.4, -0.7]).astype(complex),
                           SZ, sched)


def jump_map(bundle, H0, Hp):
    """lam^2 Psi: the jump a bundle built from (H0, H') was assembled
    over, taken from the K_T pieces before assembly (the bundle keeps
    only the generator)."""
    prepared = generator_module.PreparedGenerator(bundle.subsystem, H0, Hp)
    _, _, _, jump = generator_module._kt_pieces(
        bundle.subsystem, prepared.h0_eig, prepared.Hp, bundle.T)
    return bundle.schedule.lam ** 2 * jump


class TestLindbladSuperop:
    @pytest.mark.parametrize("d", range(1, 10))
    def test_matches_kron_assembly_bytes(self, d, rng):
        def draw(n):
            return with_signed_zeros(rng, rng.standard_normal((n, n))
                                     + 1j * rng.standard_normal((n, n)))
        H, A, jump = draw(d), draw(d), draw(d * d)
        assert lindblad_superop(H, A, jump).tobytes() \
            == _lindblad_superop_kron(H, A, jump).tobytes()

    def test_non_contiguous_jump_matches_kron_assembly_bytes(self, rng):
        d = 4
        H, A = random_hermitian(rng, d), random_hermitian(rng, d)
        wide = rng.standard_normal((d * d, 2 * d * d)) \
            + 1j * rng.standard_normal((d * d, 2 * d * d))
        for jump in (np.asfortranarray(wide[:, :d * d]), wide[:, ::2]):
            assert lindblad_superop(H, A, jump).tobytes() \
                == _lindblad_superop_kron(H, A, jump).tobytes()

    def test_sector_jump_matches_kron_assembly_bytes(self):
        m = qfgr_two_block_model()
        sub = build_projection(sector_family(m.sector_dims))
        K, shift, decay, jump = assemble_kt(sub, hermitian_eig(m.H0), m.Hp,
                                            T_of_lambda(m.schedule))
        assert np.any(np.all(jump == 0, axis=1))  # exact zero rows
        ref = _lindblad_superop_kron(shift, decay, jump)
        assert K.tobytes() == ref.tobytes()

    def test_rejects_mismatched_pieces(self):
        with pytest.raises(ValueError, match="incompatible Lindblad pieces"):
            lindblad_superop(SZ, SZ, np.zeros((9, 9)))
        with pytest.raises(ValueError, match="incompatible Lindblad pieces"):
            lindblad_superop(SZ, np.eye(3), np.zeros((4, 4)))

    def test_memory_budget(self, rng):
        # the output and two d^3 work blocks (LAPACK and BLAS workspace
        # would be invisible to tracemalloc; this kernel uses none)
        d = BUDGET_DIM
        H, A = random_hermitian(rng, d), random_hermitian(rng, d)
        jump = rng.standard_normal((d * d, d * d)) + 0j
        assert traced_peak(lindblad_superop, H, A, jump) \
            < 1.25 * superop_bytes(d)


class TestBuildGenerator:
    def test_perturbation_in_image_gives_pure_commutator(self):
        bundle = commutator_bundle()
        dec = bundle.decomposition
        assert max_abs(dec.decay) < 1e-12
        assert max_abs(jump_map(bundle, np.diag([0.4, -0.7]), SZ)) < 1e-12
        assert max_abs(dec.h_lamb) < 1e-12
        expected = 1j * kron_commutator(dec.h_free + dec.h_first)
        np.testing.assert_allclose(bundle.heisenberg, expected, atol=1e-12)

    def test_commutation_precondition_enforced(self):
        sched = CoarseGrainSchedule(lam=0.5, xi=1.0, T_ref=1.0)
        with pytest.raises(ValueError, match="commute"):
            build_generator(dephasing_sub(), SX, SZ, sched)

    def test_zero_coupling_rejected(self):
        sched = CoarseGrainSchedule(lam=0.0, xi=1.0, T_ref=1.0)
        with pytest.raises(ValueError, match="nonzero"):
            build_generator(dephasing_sub(), SZ, SX, sched)

    def test_covariance_defect_memory_budget(self, rng):
        # one row block of [Z, P] at a time: O(d^3) next to the
        # d^2 x d^2 input (LAPACK and BLAS workspace is invisible to
        # tracemalloc)
        d = BUDGET_DIM
        H0 = random_hermitian(rng, d)
        P = rng.standard_normal((d * d, d * d)) \
            + 1j * rng.standard_normal((d * d, d * d))
        assert traced_peak(_covariance_defect, H0, P) \
            < 0.25 * superop_bytes(d)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_covariance_defect_matches_dense(self, d, rng):
        H0 = random_hermitian(rng, d)
        P = rng.standard_normal((d * d, d * d)) \
            + 1j * rng.standard_normal((d * d, d * d))
        Z = 1j * kron_commutator(H0)
        dense = max_abs(Z @ P - P @ Z)
        assert abs(_covariance_defect(H0, P) - dense) <= 1e-12 * dense

    def test_unitality_and_psi_normalization(self):
        bundle = dephasing_bundle()
        d = bundle.dim
        eye_vec = vectorize(np.eye(d))
        assert max_abs(bundle.heisenberg @ eye_vec) < 1e-10
        psi_one = devectorize(jump_map(bundle, SZ, SX) @ eye_vec, d)
        assert max_abs(psi_one - bundle.decomposition.decay) < 1e-10

    @pytest.mark.parametrize("name", ["two-sector-qubit", "qfgr-two-blocks",
                                      "heat-bath-qutrit", "qubit-gibbs"])
    def test_jump_scaled_in_place_keeps_bytes(self, name):
        # the bundle scales its jump in place and assembles G_H over it:
        # the bits of the assembly over lam^2 * jump
        m = PRESETS[name].builder()
        if PRESETS[name].kind == "qfgr":
            sub = build_projection(sector_family(m.sector_dims))
            H0, Hp = m.H0, m.Hp
        else:
            sub = build_projection(partial_trace_family(m.dim_A,
                                                        m.bath_state()))
            H0, Hp = m.full_hamiltonian_parts()
        prepared = generator_module.PreparedGenerator(sub, H0, Hp)
        bundle = prepared.bundle(m.schedule)
        _, shift, decay, jump = generator_module._kt_pieces(
            sub, prepared.h0_eig, prepared.Hp, bundle.T)
        lam2 = m.schedule.lam ** 2
        dec = bundle.decomposition
        assert bundle.heisenberg.tobytes() == lindblad_superop(
            dec.effective_hamiltonian(), lam2 * decay, lam2 * jump).tobytes()

    def test_jump_map_completely_positive(self):
        assert is_psd(choi_matrix(jump_map(dephasing_bundle(), SZ, SX))).ok

    def test_hamiltonian_pieces_hermitian_in_image(self):
        bundle = dephasing_bundle()
        sub = bundle.subsystem
        dec = bundle.decomposition
        for piece in (dec.h_free, dec.h_first, dec.h_lamb, dec.decay):
            assert max_abs(piece - piece.conj().T) < 1e-12
            assert max_abs(sub.project(piece) - piece) < 1e-10

    def test_schrodinger_is_trace_pairing_adjoint(self, rng):
        bundle = dephasing_bundle()
        d = bundle.dim
        for _ in range(4):
            rho = random_density(rng, d)
            X = random_hermitian(rng, d)
            lhs = np.trace(devectorize(bundle.schrodinger @ vectorize(rho), d) @ X)
            rhs = np.trace(rho @ devectorize(bundle.heisenberg @ vectorize(X), d))
            assert abs(lhs - rhs) < 1e-10

    def test_gauge_shift_of_perturbation(self):
        # H' -> H' + c 1 leaves the generator unchanged
        sub = dephasing_sub()
        sched = CoarseGrainSchedule(lam=0.7, xi=1.0, T_ref=1.0)
        base = build_generator(sub, SZ, SX, sched)
        for c in (1.0, -3.7):
            shifted = build_generator(sub, SZ, SX + c * np.eye(2), sched)
            assert max_abs(shifted.heisenberg - base.heisenberg) < 1e-10

    def test_coupling_rescaling_at_fixed_window(self):
        # doubling H' and halving lambda is invariant once the window is
        # pinned: T = |lam|^-xi T_ref, so T_ref must shrink with lam
        sub = dephasing_sub()
        sched_a = CoarseGrainSchedule(lam=0.5, xi=1.0, T_ref=1.0)
        T = T_of_lambda(sched_a)
        sched_b = CoarseGrainSchedule(lam=0.25, xi=1.0, T_ref=T * 0.25)
        assert T_of_lambda(sched_b) == pytest.approx(T, rel=1e-14)
        a = build_generator(sub, SZ, SX, sched_a)
        b = build_generator(sub, SZ, 2.0 * SX, sched_b)
        assert max_abs(a.heisenberg - b.heisenberg) < 1e-10
        assert max_abs(a.decomposition.h_first - b.decomposition.h_first) < 1e-12


def reachable_superops(obj, dd):
    """The ids of the dd x dd arrays reachable from obj through instance
    attributes (cached properties included) and containers."""
    seen, found, stack = set(), set(), [obj]
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, np.ndarray):
            if x.shape == (dd, dd):
                found.add(id(x))
        elif isinstance(x, (list, tuple)):
            stack.extend(x)
        elif isinstance(x, dict):
            stack.extend(x.values())
        elif hasattr(x, "__dict__"):
            stack.extend(vars(x).values())
    return found


class TestResidency:
    """A bundle holds each generator once: G_H, next to the subsystem's
    P0, and nothing else of size d^2 x d^2."""

    def setup_method(self):
        m = PRESETS["qubit-gibbs"].builder()
        self.sub = build_projection(partial_trace_family(m.dim_A,
                                                         m.bath_state()))
        self.H0, self.Hp = m.full_hamiltonian_parts()
        self.sched = m.schedule
        assert self.sub.dim == 8

    def test_only_p0_and_heisenberg_resident(self):
        bundle = build_generator(self.sub, self.H0, self.Hp, self.sched)
        dd = bundle.dim ** 2
        resident = {id(self.sub.heisenberg), id(bundle.heisenberg)}
        assert reachable_superops(bundle, dd) == resident
        first, second = bundle.schrodinger, bundle.schrodinger
        assert first.tobytes() == second.tobytes()
        assert first is not second and not np.shares_memory(first, second)
        assert reachable_superops(bundle, dd) == resident

    def test_heisenberg_read_only(self):
        bundle = build_generator(self.sub, self.H0, self.Hp, self.sched)
        with pytest.raises(ValueError, match="read-only"):
            bundle.heisenberg[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            bundle.heisenberg *= 2.0

    def test_assembly_memory_budget(self):
        # the generator is assembled over the jump it is handed: above
        # its inputs it needs two d^3 blocks and the checks' work
        d = self.sub.dim
        prepared = generator_module.PreparedGenerator(self.sub, self.H0,
                                                      self.Hp)
        T = T_of_lambda(self.sched)
        _, shift, decay, jump = generator_module._kt_pieces(
            self.sub, prepared.h0_eig, prepared.Hp, T)
        assert traced_peak(generator_module.GeneratorBundle.at_coupling,
                           self.sched, self.sub, T, prepared.h_free,
                           self.sched.lam * prepared.h_first, shift, decay,
                           jump) < 1.25 * superop_bytes(d)


def _k_t_oracle_loop(sub, H0, Hp, T, n_points=1601, half_width=8.0):
    """Reference: the oracle's ordered double integral evaluated point by
    point with full d^2 x d^2 superoperators, no factorization of P0."""
    d = sub.dim
    eig = hermitian_eig(H0)
    U, eps = eig.vectors, eig.values
    Hp_eig = U.conj().T @ Hp @ U
    delta = np.subtract.outer(eps, eps)
    P0 = sub.heisenberg
    P1 = np.eye(d * d, dtype=complex) - P0
    ts = np.linspace(-half_width * T, half_width * T, n_points)
    h = ts[1] - ts[0]
    weights = np.exp(-ts ** 2 / (2.0 * T * T))
    dd = d * d
    M01 = np.empty((n_points, dd, dd), dtype=complex)
    F10 = np.empty((n_points, dd, dd), dtype=complex)
    for k, t in enumerate(ts):
        Hp_t = U @ (np.exp(-1j * delta * t) * Hp_eig) @ U.conj().T
        comm = 1j * kron_commutator(Hp_t)
        M01[k] = P0 @ comm @ P1
        F10[k] = weights[k] * (P1 @ comm @ P0)
    cum = cumulative_simpson(F10.real, dx=h, axis=0, initial=0) \
        + 1j * cumulative_simpson(F10.imag, dx=h, axis=0, initial=0)
    K = np.zeros((dd, dd), dtype=complex)
    for k in range(n_points):
        coeff = h if 0 < k < n_points - 1 else 0.5 * h
        K += coeff * weights[k] * (M01[k] @ cum[k])
    return K / (np.sqrt(np.pi) * T)


def _oracle_case(name, rng):
    """(subsystem, H0, H', T) for the factored-oracle regression cases."""
    if name == "sector-1-2":
        sub = build_projection(sector_family([1, 2]))
        return sub, np.diag([0.2, 0.9, 1.3]).astype(complex), \
            random_hermitian(rng, 3), 0.9
    if name == "oblique-partial-trace":
        sub, H0, Hp = oblique_heat_bath(rng)
        assert max_abs(sub.heisenberg - sub.heisenberg.conj().T) > 0.1
        return sub, H0, Hp, 1.1
    if name == "full-rank":
        sub = build_projection(trivial_family(2))
        assert np.linalg.matrix_rank(sub.heisenberg) == 4
        return sub, random_hermitian(rng, 2), random_hermitian(rng, 2), 0.7
    if name == "not-idempotent":
        ops = [0.5 * (rng.standard_normal((3, 3))
                      + 1j * rng.standard_normal((3, 3))) for _ in range(2)]
        sub = PhysicalSubsystem(ops)
        assert idempotency_defect(sub) > 1e-2
        return sub, random_hermitian(rng, 3), random_hermitian(rng, 3), 0.8
    raise KeyError(name)


class TestOracle:
    @pytest.mark.parametrize("case", ["sector-1-2", "oblique-partial-trace",
                                      "full-rank", "not-idempotent"])
    def test_factored_matches_loop_reference(self, case, rng):
        sub, H0, Hp, T = _oracle_case(case, rng)
        K = k_t_oracle(sub, H0, Hp, T)
        K_ref = _k_t_oracle_loop(sub, H0, Hp, T)
        assert max_abs(K - K_ref) <= 1e-13 * (1.0 + max_abs(K_ref))

    def test_matches_assembled_dephasing_spec_point(self):
        # the named scenario point: lam = 0.1 gives window T = 10, where
        # the coupling entries underflow and both paths are ~0
        sub = dephasing_sub()
        sched = CoarseGrainSchedule(lam=0.1, xi=1.0, T_ref=1.0)
        T = T_of_lambda(sched)
        K_asm, *_ = assemble_kt(sub, hermitian_eig(SZ), SX, T)
        K_orc = k_t_oracle(sub, SZ, SX, T)
        assert max_abs(K_orc - K_asm @ sub.heisenberg) < 1e-6

    def test_matches_assembled_visible_rates(self):
        sub = dephasing_sub()
        T = 1.0
        K_asm, *_ = assemble_kt(sub, hermitian_eig(SZ), SX, T)
        K_orc = k_t_oracle(sub, SZ, SX, T)
        assert max_abs(K_orc - K_asm @ sub.heisenberg) < 1e-6

    def test_vanishes_for_perturbation_in_image(self):
        sub = dephasing_sub()
        K_orc = k_t_oracle(sub, np.diag([0.4, -0.7]).astype(complex), SZ, 1.0)
        assert max_abs(K_orc) < 1e-8

    def test_preserves_hermiticity_on_image(self, rng):
        sub = dephasing_sub()
        K_orc = k_t_oracle(sub, SZ, SX, 1.0)
        for _ in range(3):
            X = sub.project(random_hermitian(rng, 2))
            out = devectorize(K_orc @ vectorize(X), 2)
            assert max_abs(out - out.conj().T) < 1e-8

    @pytest.mark.parametrize("shape", [(1601, 64, 4), (1601, 16, 4), (3,),
                                       (4,), (7, 3), (1601,)])
    def test_cumulative_simpson_matches_scipy_bytes(self, shape, rng):
        y = with_signed_zeros(rng, rng.standard_normal(shape)).real
        h = 16.0 / 1600
        ref = cumulative_simpson(y, dx=h, axis=0, initial=0)
        assert generator_module._cumulative_simpson(y, h).tobytes() \
            == ref.tobytes()

    def test_rejects_large_dimension(self):
        w = gibbs_state(np.diag(np.linspace(0.0, 1.0, 8)), 1.0)
        sub = build_projection(partial_trace_family(2, w))
        with pytest.raises(ValueError, match="desk-scale"):
            k_t_oracle(sub, np.eye(16), np.eye(16), 1.0)


class TestEvolve:
    def test_commutator_flow_preserves_spectrum(self):
        bundle = commutator_bundle()
        rho0 = np.diag([0.8, 0.2]).astype(complex)
        traj = evolve(bundle, rho0, [0.0, 0.5, 2.0, 7.0])
        base = np.linalg.eigvalsh(rho0)
        for state in traj.states:
            np.testing.assert_allclose(np.linalg.eigvalsh(state), base,
                                       atol=1e-10)

    def test_trace_positivity_and_hermiticity(self):
        bundle = dephasing_bundle()
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        traj = evolve(bundle, rho0, np.linspace(0.0, 10.0, 7))
        assert traj.max_trace_dev < 1e-9
        assert traj.min_state_eig > -1e-9
        for state in traj.states:
            assert max_abs(state - state.conj().T) < 1e-10

    def test_image_membership_probe(self):
        sub = dephasing_bundle().subsystem
        diag = np.diag([0.3, -0.8]).astype(complex)
        assert max_abs(sub.project(diag) - diag) <= 1e-9
        assert max_abs(sub.project(SX) - SX) > 1e-9

    def test_rejects_state_outside_image(self):
        bundle = dephasing_bundle()
        plus = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError, match="image"):
            evolve(bundle, plus, [0.0, 1.0])

    def test_negative_times_raise(self):
        bundle = dephasing_bundle()
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="negative time"):
            evolve(bundle, rho0, [-1.0, 0.0, 1.0])

    def test_relaxes_to_steady_state(self):
        bundle = dephasing_bundle()
        ss = steady_state(bundle)
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        # rate ~ 2 sqrt(pi) e^-4; pick a horizon with several e-foldings
        horizon = 60.0 / (2.0 * np.sqrt(np.pi) * np.exp(-4.0))
        traj = evolve(bundle, rho0, [horizon])
        assert max_abs(traj.states[-1] - ss.state) < 1e-8


class TestSteadyState:
    def test_pure_commutator_flagged_degenerate(self):
        res = steady_state(commutator_bundle())
        assert res.nullspace_dim == 2
        assert res.flagged
        assert res.state is None

    def test_unique_dissipative_state(self):
        res = steady_state(dephasing_bundle())
        assert res.nullspace_dim == 1
        assert not res.flagged
        assert abs(np.trace(res.state).real - 1.0) < 1e-14
        # symmetric two-level rates equilibrate the populations
        np.testing.assert_allclose(res.state, np.eye(2) / 2, atol=1e-10)


def _bundle_with_schrodinger(G_S):
    """Bundle on the d = 2 trivial family with Schrödinger generator
    G_S, built directly (the dataclass constructor checks nothing)."""
    zero = np.zeros((2, 2), dtype=complex)
    return generator_module.GeneratorBundle(
        generator_module.LindbladDecomposition(zero, zero, zero, zero),
        trace_pairing_adjoint(G_S), CoarseGrainSchedule(1.0, 1.0, 1.0),
        build_projection(trivial_family(2)), 1.0)


def _kernel_spanned_by(X):
    """Schrödinger generator -(1 - |x><x|), x = vec(X) normalized: its
    nullspace is span{X}, its other singular values are 1."""
    x = vectorize(X) / np.linalg.norm(vectorize(X))
    return np.outer(x, x.conj()) - np.eye(4)


class TestSteadyStateNotes:
    def test_no_nullspace(self):
        res = steady_state(_bundle_with_schrodinger(-np.eye(4)))
        assert res.flagged and res.state is None
        assert res.nullspace_dim == 0
        assert res.note == "no nullspace found at tolerance"

    def test_traceless_null_vector(self):
        res = steady_state(_bundle_with_schrodinger(_kernel_spanned_by(SZ)))
        assert res.flagged and res.state is None
        assert res.nullspace_dim == 1
        assert res.note == "null vector is traceless; cannot normalize"

    def test_null_state_not_psd(self):
        X = np.diag([2.0, -1.0])
        res = steady_state(_bundle_with_schrodinger(_kernel_spanned_by(X)))
        assert res.flagged and res.nullspace_dim == 1
        assert res.note == "normalized null state not PSD (min eig -1.000e+00)"
        np.testing.assert_allclose(res.state, X, atol=1e-14)


def _trace_norm_growth_loop(bundle, times, rng, n_state_samples):
    """Reference: the certificate's trace-norm growth with one real-basis
    quotient propagator per (state sample, time) pair."""
    rng = np.random.default_rng(rng)
    d = bundle.dim
    quotient = to_real_basis(bundle.quotient_schrodinger)[0]
    growth = 0.0
    for _ in range(n_state_samples):
        G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = bundle.subsystem.project_state(G @ G.conj().T)
        rho = hermitize(rho) / np.trace(rho).real
        base, x = trace_norm(rho), to_real_basis(vectorize(rho))[0]
        for t in times:
            evolved = devectorize(from_real_basis(expm(t * quotient) @ x), d)
            growth = max(growth, trace_norm(evolved) - base)
    return growth


def _squarings(M):
    """Squarings of expm's scaling rule, from the 1-norm of M."""
    norm1 = float(np.max(np.sum(np.abs(M), axis=0)))
    return max(0, math.ceil(math.log2(norm1 / EXPM_SCALE_TARGET)))


def _count_expm(monkeypatch):
    """List that records every exponential formed, direct or on a grid."""
    calls = []

    def counting_expm(M):
        calls.append(M.shape)
        return expm(M)

    monkeypatch.setattr(generator_module, "expm", counting_expm)
    monkeypatch.setattr(linalg_module, "expm", counting_expm)
    return calls


def negated_lindblad_bundle():
    """A negated Lindblad form, X -> -(L^+ X L) + (1/2){L^+ L, X}, on the
    d = 3 trivial family: Psi(1) = A and unitality hold, so the bundle
    is accepted, but exp(tG) is not completely positive and grows."""
    rng = np.random.default_rng(1)
    L = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    zero = np.zeros((3, 3), dtype=complex)
    return generator_module.GeneratorBundle.at_coupling(
        CoarseGrainSchedule(1.0, 1.0, 1.0), build_projection(trivial_family(3)),
        1.0, zero, zero, zero, -(L.conj().T @ L),
        -np.kron(L.T, L.conj().T))


def _last_altered(grid, alter, min_times=1):
    """expm_grid that hands the last propagator of each grid of at least
    ``min_times`` times to ``alter`` and yields its result instead."""
    def faulty(M, times):
        props = list(grid(M, times))
        if len(props) >= min_times:
            props[-1] = alter(props[-1])
        yield from props
    return faulty


class TestCertificateFails:
    def test_negated_lindblad_form(self):
        cert = qds_certificate(negated_lindblad_bundle(), (0.1, 1.0))
        assert not cert.passed
        np.testing.assert_allclose(cert.choi_min_eig, [-0.650, -94.64],
                                   rtol=1e-3)
        assert cert.trace_norm_growth > 1e-9

    def test_overflow_fails_with_finite_or_null_witnesses(self):
        # exp(tG) reaches ~1e190 at t = 100 and overflows at the sums;
        # no floating-point warning escapes and no witness is inf or nan
        cert = qds_certificate(negated_lindblad_bundle())
        assert not cert.passed
        for f in dataclasses.fields(cert):
            for v in np.ravel(getattr(cert, f.name)).tolist():
                assert v is None or math.isfinite(v), f.name
        assert cert.semigroup_dev is None
        json.dumps(dataclasses.asdict(cert), default=np.ndarray.tolist,
                   allow_nan=False)

    def test_nan_propagator_is_not_absorbed(self, rng, monkeypatch):
        # the last Schrödinger propagator is a composition sum and the
        # last quotient one is t = 100: max(0.0, nan) would be 0.0
        sub, H0, Hp = oblique_heat_bath(rng)
        bundle = build_generator(sub, H0, Hp, CoarseGrainSchedule(0.3, 1.0, 1.0))
        assert qds_certificate(bundle).passed
        monkeypatch.setattr(generator_module, "expm_grid", _last_altered(
            generator_module.expm_grid, lambda P: np.full_like(P, np.nan)))
        cert = qds_certificate(bundle)
        assert not cert.passed
        assert cert.semigroup_dev is None and cert.trace_norm_growth is None
        assert np.all(np.isfinite(cert.choi_min_eig.astype(float)))

    def test_decaying_identity_fails_unitality(self):
        # G_H = -0.3 1: completely positive, but exp(tG) = e^{-0.3t} id
        cert = qds_certificate(_bundle_with_schrodinger(-0.3 * np.eye(4)),
                               (0.1, 1.0))
        assert not cert.passed and np.all(cert.choi_min_eig >= -1e-15)
        for dev in (cert.unitality_dev, cert.trace_preservation_dev):
            np.testing.assert_allclose(dev, 1.0 - np.exp([-0.03, -0.3]),
                                       rtol=1e-12)

    def test_composition_defect_alone_fails(self, monkeypatch):
        # 1e-8 on one entry of the last Schrödinger propagator, the sum
        # 100 + 100; the quotient grid (the 4 times) is left as it is
        bundle = heat_bath_generator(heat_bath_qutrit_model())
        assert qds_certificate(bundle).semigroup_dev < 1e-13
        monkeypatch.setattr(generator_module, "expm_grid", _last_altered(
            generator_module.expm_grid, lambda P: P + np.diag([1e-8, 0, 0, 0]),
            min_times=5))
        cert = qds_certificate(bundle)
        assert not cert.passed
        assert cert.semigroup_dev == pytest.approx(1e-8, rel=1e-6)
        assert cert.trace_norm_growth < 1e-13


class TestCertificate:
    def test_one_quotient_propagator_per_time(self, rng, monkeypatch):
        sub, H0, Hp = oblique_heat_bath(rng)
        bundle = build_generator(sub, H0, Hp, CoarseGrainSchedule(0.3, 1.0, 1.0))
        times = (0.1, 1.0, 10.0, 100.0)
        calls = _count_expm(monkeypatch)
        cert = qds_certificate(bundle, times, rng=7)
        # Full size: the real Schrödinger and quotient propagators per
        # time, plus one per composition pair s <= t, except the sums 2t
        # that take one squaring more than t: those square exp(tG).  The
        # Heisenberg propagator is a transpose; the restricted ones are
        # k x k, one per time.
        S = to_real_basis(bundle.heisenberg)[0].T
        squared = [t for t in times
                   if _squarings(2 * t * S) == _squarings(t * S) + 1]
        assert squared  # at least one sum is a square
        full = [shape for shape in calls if shape == S.shape]
        assert len(full) == (2 * len(times) + len(times) * (len(times) + 1) // 2
                             - len(squared)) <= 15
        assert len(calls) - len(full) == len(times)
        assert cert.trace_norm_growth == _trace_norm_growth_loop(bundle, times, 7, 3)

    def test_equal_time_composition_is_bitwise(self, rng):
        # exp(2tG) takes one squaring more than exp(tG) and shares its
        # Taylor core, so it is exp(tG) @ exp(tG) to the bit: the
        # certificate's s = t composition pairs deviate by exactly 0, in
        # the matrix-unit basis and in the certificate's real one
        sub, H0, Hp = oblique_heat_bath(rng)
        bundle = build_generator(sub, H0, Hp, CoarseGrainSchedule(0.3, 1.0, 1.0))
        for S in (bundle.schrodinger, to_real_basis(bundle.heisenberg)[0].T):
            for t in (1.0, 10.0, 100.0):
                assert _squarings(2 * t * S) == _squarings(t * S) + 1
                prop = expm(t * S)
                assert expm(2 * t * S).tobytes() == (prop @ prop).tobytes()

    def test_pure_commutator_unitary_propagator(self):
        cert = qds_certificate(commutator_bundle(), (0.1, 1.0, 10.0))
        assert cert.passed
        np.testing.assert_allclose(cert.restricted_heis_norm, 1.0, atol=1e-9)

    def test_dephasing_choi_psd(self):
        cert = qds_certificate(dephasing_bundle(), (0.1, 1.0, 10.0))
        assert cert.passed
        assert np.all(cert.choi_min_eig >= -1e-9 * 3)

    def test_negative_time_raises(self):
        # exp(tG) is certified for t >= 0 only; at t < 0 a valid generator
        # would be reported as failed
        with pytest.raises(ValueError, match=r"negative time -0\.5: "):
            qds_certificate(dephasing_bundle(), (0.1, -0.5, 1.0))

    def test_evolve_squares_doubled_times(self, rng, monkeypatch):
        # on 0..10 only t = 0 and the odd times are formed; every even
        # time is an earlier propagator squared, with the loop's bytes
        sub, H0, Hp = oblique_heat_bath(rng)
        bundle = build_generator(sub, H0, Hp, CoarseGrainSchedule(0.3, 1.0, 1.0))
        rho = sub.project_state(random_density(rng, 4))
        rho = hermitize(rho) / np.trace(rho).real
        times = np.linspace(0.0, 10.0, 11)
        calls = _count_expm(monkeypatch)
        traj = evolve(bundle, rho, times)
        assert len(calls) == 6
        Q = bundle.quotient_schrodinger
        for t, X in zip(times, traj.states):
            want = devectorize(expm(t * Q) @ vectorize(rho), 4)
            assert X.tobytes() == want.tobytes()

    def test_time_zero_choi_rank_one(self):
        bundle = dephasing_bundle()
        C = choi_matrix(expm(0.0 * bundle.schrodinger))
        eigs = np.linalg.eigvalsh(C)
        assert eigs[0] > -1e-9
        assert np.sum(eigs > 1e-10) == 1
        assert eigs[-1] == pytest.approx(2.0, abs=1e-12)
