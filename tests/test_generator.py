import os

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
import cglind.generator as generator_module
import cglind.subsystem as subsystem_module
from cglind.coarsegrain import CoarseGrainSchedule, T_of_lambda
from cglind.generator import (
    _covariance_defect,
    assemble_kt,
    build_generator,
    evolve,
    export_bundle,
    k_t_oracle,
    lindblad_superop,
    qds_certificate,
    steady_state,
)
from cglind.linalg import (
    choi_matrix,
    devectorize,
    expm,
    hermitian_eig,
    hermitize,
    is_psd,
    matrix_from_text,
    max_abs,
    trace_norm,
    vectorize,
)
from cglind.subsystem import (
    PhysicalSubsystem,
    build_projection,
    partial_trace_family,
    sector_family,
    trivial_family,
)
from cglind.scenarios import PRESETS, gibbs_state, qfgr_two_block_model

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


class TestLindbladSuperop:
    @pytest.mark.parametrize("d", range(1, 10))
    def test_matches_kron_assembly_bytes(self, d, rng):
        def draw(n):
            return with_signed_zeros(rng, rng.standard_normal((n, n))
                                     + 1j * rng.standard_normal((n, n)))
        H, A, jump = draw(d), draw(d), draw(d * d)
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
        assert max_abs(dec.jump_map) < 1e-12
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
        psi_one = devectorize(bundle.decomposition.jump_map @ eye_vec, d)
        assert max_abs(psi_one - bundle.decomposition.decay) < 1e-10

    @pytest.mark.parametrize("name", ["two-sector-qubit", "qfgr-two-blocks",
                                      "heat-bath-qutrit", "qubit-gibbs"])
    def test_jump_scaled_in_place_keeps_bytes(self, name):
        # the bundle scales its jump map in place: the bits of lam^2 * jump
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
        assert dec.jump_map.tobytes() == (lam2 * jump).tobytes()
        assert bundle.heisenberg.tobytes() == lindblad_superop(
            dec.effective_hamiltonian(), lam2 * decay, lam2 * jump).tobytes()

    def test_jump_map_completely_positive(self):
        bundle = dephasing_bundle()
        assert is_psd(choi_matrix(bundle.decomposition.jump_map)).ok

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
        assert sub.idempotency_defect > 1e-2
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


def _trace_norm_growth_loop(bundle, times, rng, n_state_samples):
    """Reference: the certificate's trace-norm growth with one quotient
    propagator per (state sample, time) pair."""
    rng = np.random.default_rng(rng)
    d = bundle.dim
    quotient = bundle.quotient_schrodinger
    growth = 0.0
    for _ in range(n_state_samples):
        G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = bundle.subsystem.project_state(G @ G.conj().T)
        rho = hermitize(rho) / np.trace(rho).real
        base = trace_norm(rho)
        for t in times:
            evolved = devectorize(expm(t * quotient) @ vectorize(rho), d)
            growth = max(growth, trace_norm(evolved) - base)
    return growth


class TestCertificate:
    def test_one_quotient_propagator_per_time(self, rng, monkeypatch):
        sub, H0, Hp = oblique_heat_bath(rng)
        bundle = build_generator(sub, H0, Hp, CoarseGrainSchedule(0.3, 1.0, 1.0))
        times = (0.1, 1.0, 10.0, 100.0)
        calls = []

        def counting_expm(M):
            calls.append(M.shape)
            return expm(M)

        monkeypatch.setattr(generator_module, "expm", counting_expm)
        cert = qds_certificate(bundle, times, rng=7)
        # Schrödinger, Heisenberg, restricted and quotient propagators per
        # time, plus one per composition pair s <= t
        assert len(calls) == 4 * len(times) + len(times) * (len(times) + 1) // 2
        assert cert.trace_norm_growth == _trace_norm_growth_loop(bundle, times, 7, 3)

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

    def test_time_zero_choi_rank_one(self):
        bundle = dephasing_bundle()
        C = choi_matrix(expm(0.0 * bundle.schrodinger))
        eigs = np.linalg.eigvalsh(C)
        assert eigs[0] > -1e-9
        assert np.sum(eigs > 1e-10) == 1
        assert eigs[-1] == pytest.approx(2.0, abs=1e-12)


class TestExport:
    def test_export_round_trip(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(subsystem_module, "commutant",
                            lambda family: calls.append(family))
        bundle = dephasing_bundle()
        out = tmp_path / "bundle"
        export_bundle(bundle, out)
        assert calls == []  # the manifest reads rank P0 = Tr P0
        names = {"h_free.mat", "h_first.mat", "h_lamb.mat", "decay.mat",
                 "jump_map.mat", "heisenberg.mat", "schrodinger.mat",
                 "manifest.txt", "kraus.mat"}
        assert names.issubset(set(os.listdir(out)))
        with open(out / "heisenberg.mat", encoding="ascii") as fh:
            M = matrix_from_text(fh.read())
        np.testing.assert_allclose(M, bundle.heisenberg, atol=0)
        manifest = (out / "manifest.txt").read_text()
        assert "lambda = 1" in manifest
        assert "dim = 2" in manifest
        assert "commutant_dim = 2\n" in manifest
