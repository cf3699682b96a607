import numpy as np
import pytest

from conftest import fgr_rate_profile, general_heat_bath_bundle, \
    kron_commutator, random_density, random_hermitian, random_unitary, \
    scale_sector_amplitudes
from cglind import scenarios
from cglind.coarsegrain import CoarseGrainSchedule, T_of_lambda
from cglind.generator import PreparedGenerator, expm, qds_certificate, \
    steady_state
from cglind.linalg import (
    devectorize,
    max_abs,
    trace_distance,
    vectorize,
)
from cglind.scenarios import (
    HeatBathModel,
    QfgrModel,
    bath_correlation,
    dual_path_residual,
    gibbs_limit_study,
    gibbs_state,
    heat_bath_generator,
    heat_bath_qutrit_model,
    qfgr_generator,
    qfgr_two_block_model,
    reference_heat_bath_model,
    two_sector_qubit_model,
)
from cglind.subsystem import build_projection, sector_family

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def three_sector_model(lam=0.6):
    Hp = np.array([
        [0.05, 0.30 - 0.10j, 0.20, 0.40j],
        [0.30 + 0.10j, -0.20, 0.55, 0.10],
        [0.20, 0.55, 0.15, 0.25 - 0.30j],
        [-0.40j, 0.10, 0.25 + 0.30j, -0.05],
    ], dtype=complex)
    return QfgrModel(
        sector_dims=[1, 1, 2],
        H0=np.diag([0.0, 0.45, 1.1, 1.35]).astype(complex),
        Hp=Hp,
        schedule=CoarseGrainSchedule(lam=lam, xi=1.0, T_ref=1.0),
    )


class TestQfgrGenerator:
    @pytest.mark.parametrize("model_fn", [
        two_sector_qubit_model, qfgr_two_block_model, three_sector_model])
    def test_matches_general_construction(self, model_fn):
        gen = qfgr_generator(model_fn())
        assert gen.residual_vs_general <= 1e-8

    def test_mismatch_is_returned_not_raised(self, monkeypatch):
        scale_sector_amplitudes(monkeypatch, np.sqrt(2.0))
        gen = qfgr_generator(two_sector_qubit_model())
        assert gen.residual_vs_general > 1e-8

    def test_broken_jump_normalization_raises(self, monkeypatch):
        # a sector-only fault that breaks Psi(1) = A is rejected by the
        # assembly, as on the general path
        original = scenarios.sandwich_superop
        monkeypatch.setattr(scenarios, "sandwich_superop",
                            lambda A, B: 2.0 * original(A, B))
        with pytest.raises(ValueError, match=r"Psi\(1\) = A"):
            qfgr_generator(qfgr_two_block_model())

    def test_blockdiagonal_perturbation_gives_unitary_sectors(self):
        Hp = np.diag([0.3, -0.2]).astype(complex)
        m = QfgrModel([1, 1], np.diag([0.5, -0.5]).astype(complex), Hp,
                      CoarseGrainSchedule(0.5, 1.0, 1.0))
        gen = qfgr_generator(m)
        for D in gen.amplitudes.values():
            assert max_abs(D) < 1e-14
        h_eff = gen.sector.decomposition.effective_hamiltonian()
        expected = -1j * kron_commutator(h_eff)
        np.testing.assert_allclose(gen.sector.schrodinger, expected,
                                   atol=1e-12)

    def test_two_level_rate_formula(self):
        # population transfer rate lam^2 2 sqrt(pi) T e^{-T^2 gap^2} |Hp01|^2
        m = two_sector_qubit_model()
        gen = qfgr_generator(m)
        lam = m.schedule.lam
        T = T_of_lambda(m.schedule)
        gap = 0.3 - (-0.5)
        rate = lam ** 2 * 2.0 * np.sqrt(np.pi) * T * np.exp(-(T * gap) ** 2) \
            * abs(m.Hp[0, 1]) ** 2
        # vec index of (1,1) entry is 3; of (0,0) is 0
        assert gen.sector.schrodinger[3, 0] == pytest.approx(rate, rel=1e-12)
        assert gen.sector.schrodinger[0, 0] == pytest.approx(-rate, rel=1e-12)

    def test_trace_conservation_and_sector_positivity(self):
        m = three_sector_model()
        gen = qfgr_generator(m)
        projs = sector_family(m.sector_dims).operators
        rho0 = np.diag([0.55, 0.25, 0.15, 0.05]).astype(complex)
        for t in (0.5, 2.0, 8.0):
            rho_t = devectorize(expm(t * gen.sector.schrodinger)
                                @ vectorize(rho0), 4)
            assert abs(np.trace(rho_t).real - 1.0) < 1e-9
            for P in projs:
                block = P @ rho_t @ P
                eigs = np.linalg.eigvalsh(0.5 * (block + block.conj().T))
                assert eigs[0] > -1e-9

    def test_block_structure_invariance(self, rng):
        m = three_sector_model()
        gen = qfgr_generator(m)
        sub = gen.bundle.subsystem
        quotient = sub.schrodinger @ gen.bundle.schrodinger @ sub.schrodinger
        for gen_matrix in (gen.sector.schrodinger, quotient):
            rho = sub.project_state(random_density(rng, 4))
            out = devectorize(gen_matrix @ vectorize(rho), 4)
            assert max_abs(out - sub.project_state(out)) < 1e-10

    def test_shifts_are_hermitian_blocks(self):
        gen = qfgr_generator(qfgr_two_block_model())
        projs = sector_family([2, 2]).operators
        H = gen.sector.decomposition.h_lamb
        assert max_abs(H - H.conj().T) < 1e-12
        assert max_abs(H - sum(P @ H @ P for P in projs)) < 1e-12


class TestFgrRateCheck:
    def test_normalization_and_peak(self):
        rows = [fgr_rate_profile(T) for T in (1.0, 10.0)]
        for T, (integral, peak, _) in zip((1.0, 10.0), rows):
            assert abs(integral - 2.0 * np.pi) <= 1e-6
            assert peak == pytest.approx(2.0 * np.sqrt(np.pi) * T, rel=1e-9)
        # nascent-delta concentration: half width scales like 1/T
        assert rows[0][2] / rows[1][2] == pytest.approx(10.0, rel=1e-3)


    def test_library_rate_normalization(self):
        # the 0 -> 1 rate lam^2 |L_10|^2 = lam^2 h^2 2 sqrt(pi) T
        # exp(-T^2 D^2) of the built generator, read over the splitting D:
        # its integral is 2 pi lam^2 h^2 and its peak 2 sqrt(pi) T lam^2 h^2.
        # The trapezoid error on |D| <= 8 / T with step 1 / (4 T) is below
        # exp(-64), so both hold to roundoff (a few ulps per term).
        lam, h = 0.5, 0.3
        for T in (1.0, 10.0):
            sched = CoarseGrainSchedule(lam=lam, xi=1.0, T_ref=T / 2)
            grid = np.linspace(-8.0 / T, 8.0 / T, 65)
            rates = np.array([qfgr_generator(QfgrModel(
                [1, 1], np.diag([0.0, D]), h * SX, sched)).sector.schrodinger[3, 0]
                for D in grid])
            assert max_abs(rates.imag) == 0.0
            assert np.trapezoid(rates.real, grid) == pytest.approx(
                2.0 * np.pi * lam ** 2 * h ** 2, rel=1e-13)
            assert rates[32].real == pytest.approx(
                2.0 * np.sqrt(np.pi) * T * lam ** 2 * h ** 2, rel=1e-13)


class TestBathCorrelation:
    def test_identity_coupling_is_constant(self):
        m = HeatBathModel(H_A=SZ, H_B=np.diag([0.0, 1.0]).astype(complex),
                          Q=SX, Phi=np.eye(2, dtype=complex), beta=1.0,
                          schedule=CoarseGrainSchedule(0.4, 1.0, 1.0))
        corr = bath_correlation(m)
        assert corr.mean == pytest.approx(1.0, abs=1e-14)
        assert abs(corr.h(0.0) - 1.0) < 1e-14
        assert abs(corr.h(1.7) - 1.0) < 1e-14
        assert np.all(np.abs(corr.connected_weights) < 1e-14)

    def test_ground_state_single_line(self):
        # two-level bath at very low temperature with a flip coupling: one
        # spectral line at the negative level splitting, h(t) = e^{-2it}
        m = HeatBathModel(H_A=SZ, H_B=SZ.copy(), Q=SX, Phi=SX.copy(), beta=50.0,
                          schedule=CoarseGrainSchedule(0.4, 1.0, 1.0))
        corr = bath_correlation(m)
        main = np.argmax(corr.weights)
        assert corr.frequencies[main] == pytest.approx(-2.0, abs=1e-12)
        assert corr.weights[main] == pytest.approx(1.0, abs=1e-12)
        assert complex(corr.h(1.0)) == pytest.approx(np.exp(-2.0j), abs=1e-10)

    def test_zero_time_moment(self, rng):
        m = heat_bath_qutrit_model()
        corr = bath_correlation(m)
        sigma = m.bath_state()
        expected = np.trace(sigma @ m.Phi @ m.Phi).real
        assert abs(float(corr.h(0.0).real) - expected) < 1e-12
        assert abs(float(corr.h(0.0).imag)) < 1e-12

    def test_connected_correlation_identity(self):
        # rebuilt h(t1 - t2) - mean^2 equals the centered two-point function
        m = heat_bath_qutrit_model()
        corr = bath_correlation(m)
        sigma = m.bath_state()
        evals, evecs = np.linalg.eigh(m.H_B)
        hbar = corr.mean
        for t1, t2 in [(0.0, 0.0), (0.7, 0.2), (1.5, -0.4)]:
            lhs = corr.h(t1 - t2) - hbar ** 2

            def phi_t(t):
                U = evecs @ np.diag(np.exp(1j * evals * t)) @ evecs.conj().T
                return U @ m.Phi @ U.conj().T

            centered1 = phi_t(t1) - hbar * np.eye(3)
            centered2 = phi_t(t2) - hbar * np.eye(3)
            rhs = np.trace(sigma @ centered1 @ centered2)
            assert abs(lhs - rhs) < 1e-10

    def test_weights_nonnegative(self):
        corr = bath_correlation(reference_heat_bath_model())
        assert np.all(corr.weights >= 0.0)
        assert np.all(corr.connected_weights >= -1e-12)


MERGE_TOL = 1e-10


def reference_comb(m):
    """Merged lines of the bath comb as a double loop over level pairs
    and a merge scan build them: the reference the numpy form of
    bath_correlation must reproduce byte for byte."""
    evals, evecs, pops = scenarios._gibbs_eigh(m.H_B, m.beta)
    Phi_eig = evecs.conj().T @ m.Phi @ evecs
    freqs, weights = [], []
    for i in range(m.dim_B):
        for j in range(m.dim_B):
            freqs.append(evals[i] - evals[j])
            weights.append(pops[i] * abs(Phi_eig[i, j]) ** 2)
    freqs, weights = np.array(freqs), np.array(weights)
    order = np.argsort(freqs, kind="stable")
    freqs, weights = freqs[order], weights[order]
    merged_f, merged_w, start = [], [], 0
    for k in range(1, len(freqs) + 1):
        if k == len(freqs) or freqs[k] - freqs[k - 1] > MERGE_TOL:
            chunk_f, chunk_w = freqs[start:k], weights[start:k]
            total = chunk_w.sum()
            merged_f.append(float(np.average(chunk_f, weights=chunk_w))
                            if total > 0 else float(chunk_f.mean()))
            merged_w.append(float(total))
            start = k
    return np.array(merged_f), np.array(merged_w)


def random_bath(rng, kind, beta):
    """Bath with a 5-level spectrum of the given kind and a random Phi."""
    levels = {
        "generic": rng.standard_normal(5),
        "degenerate": rng.choice([0.0, 0.5, 1.0], size=5),
        # chains of lines spaced 3e-11 apart, merged link by link
        "chain": np.array([0.0, 3e-11, 6e-11, 1.0, 1.0 + 4e-11]),
        "diagonal": rng.choice([0.0, 0.5, 1.0], size=5),
        "mean": rng.standard_normal(5),
    }[kind]
    if kind == "diagonal":  # Phi diagonal with H_B: weightless off-diagonal groups
        H_B, Phi = np.diag(levels), np.diag(rng.standard_normal(5))
    else:
        U = random_unitary(rng, 5)
        H_B, Phi = U @ np.diag(levels) @ U.conj().T, random_hermitian(rng, 5)
    if kind == "mean":
        Phi = Phi + 5.0 * np.eye(5)
    return HeatBathModel(H_A=SZ, H_B=H_B, Q=SX, Phi=Phi, beta=beta,
                         schedule=CoarseGrainSchedule(0.4, 1.0, 1.0))


class TestBathCombBytes:
    @staticmethod
    def assert_matches_reference(m):
        corr = bath_correlation(m)
        ref_f, ref_w = reference_comb(m)
        n = len(ref_f)
        assert corr.frequencies[:n].tobytes() == ref_f.tobytes()
        assert corr.weights[:n].tobytes() == ref_w.tobytes()
        # only the zero line the mean needs may follow the merged lines
        assert np.all(corr.frequencies[n:] == 0.0) and len(corr.frequencies) <= n + 1
        return corr, ref_w

    @pytest.mark.parametrize("name", [name for name, p in scenarios.PRESETS.items()
                                      if p.kind == "heat_bath"])
    def test_presets(self, name):
        self.assert_matches_reference(scenarios.PRESETS[name].builder())

    @pytest.mark.parametrize("beta", [0.0, 1.0, 40.0])
    @pytest.mark.parametrize("kind", ["generic", "degenerate", "chain",
                                      "diagonal", "mean"])
    def test_seeded_random_baths(self, kind, beta):
        rng = np.random.default_rng(25)
        for _ in range(20):
            m = random_bath(rng, kind, beta)
            corr, ref_w = self.assert_matches_reference(m)
            if kind in ("degenerate", "chain"):
                assert len(corr.frequencies) < 25  # lines were merged
            if kind == "diagonal":
                assert np.any(ref_w == 0.0)  # the mean fallback ran
            if kind == "mean":
                assert abs(corr.mean) > 1.0

    def test_h_on_arrays_matches_scalars(self):
        # one broadcast over a trailing line axis: every entry of h(t)
        # is summed exactly as h at that one time
        corr = bath_correlation(scenarios.PRESETS["quasi-continuum"].builder())
        ts = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        values = corr.h(ts)
        assert values.shape == ts.shape
        scalars = np.array([corr.h(t) for t in ts.ravel()]).reshape(ts.shape)
        assert values.tobytes() == scalars.tobytes()


class TestHeatBathGenerator:
    def test_identity_coupling_first_order_only(self):
        m = HeatBathModel(H_A=np.diag([0.5, -0.5]).astype(complex),
                          H_B=np.diag([0.0, 1.0]).astype(complex),
                          Q=SX, Phi=np.eye(2, dtype=complex), beta=1.0,
                          schedule=CoarseGrainSchedule(0.4, 1.0, 1.0))
        bundle = heat_bath_generator(m)
        dec = bundle.decomposition
        assert max_abs(dec.decay) < 1e-14
        assert max_abs(dec.h_lamb) < 1e-14
        # no jump: G_H is the pure commutator
        expected = 1j * kron_commutator(m.H_A + m.schedule.lam * m.Q)
        assert max_abs(bundle.heisenberg - expected) < 1e-14

    def test_dual_path_agreement(self):
        m = heat_bath_qutrit_model()
        assert dual_path_residual(general_heat_bath_bundle(m),
                                  heat_bath_generator(m)) <= 1e-7

    def test_steady_state_note_names_small_gap(self, monkeypatch):
        monkeypatch.setattr("cglind.generator.STEADY_STATE_GAP_TOL", 2.0)
        ss = steady_state(heat_bath_generator(reference_heat_bath_model()))
        assert ss.flagged and ss.nullspace_dim == 1
        for part in (f"gap {ss.gap:.3e}", "gap_tol 2.000e+00",
                     f"distance {2.0 - ss.gap:.3e}"):
            assert part in ss.note

    def test_certificate(self):
        cert = qds_certificate(heat_bath_generator(heat_bath_qutrit_model()),
                               (0.1, 1.0, 10.0))
        assert cert.passed

    def test_general_bundle_oracle_dimensions(self):
        bundle = general_heat_bath_bundle(heat_bath_qutrit_model())
        assert bundle.dim == 6
        assert bundle.subsystem.commutant_info.dimension == 4


class TestGibbsStudy:
    def test_gibbs_state_limits(self):
        H = np.diag([0.3, 1.1]).astype(complex)
        np.testing.assert_allclose(gibbs_state(H, 0.0), np.eye(2) / 2,
                                   atol=1e-14)
        np.testing.assert_allclose(gibbs_state(np.eye(3) * 0.7, 2.3),
                                   np.eye(3) / 3, atol=1e-14)

    def test_requires_vanishing_first_order(self):
        m = heat_bath_qutrit_model()  # Phi has nonzero thermal mean
        with pytest.raises(ValueError, match="first-order"):
            gibbs_limit_study(m, [0.3])

    def test_reference_model_rows(self):
        rows = gibbs_limit_study(reference_heat_bath_model(), [0.3, 0.1])
        assert [r.lam for r in rows] == [0.3, 0.1]
        assert all(r.nullspace_dim == 1 for r in rows)
        assert rows[1].distance < rows[0].distance

    def test_infinite_temperature_targets_maximally_mixed(self):
        m = reference_heat_bath_model()
        m = HeatBathModel(H_A=m.H_A, H_B=m.H_B, Q=m.Q, Phi=m.Phi, beta=0.0,
                          schedule=m.schedule)
        rows = gibbs_limit_study(m, [0.1])
        bundle = heat_bath_generator(m)
        ss = steady_state(bundle)
        assert trace_distance(ss.state, np.eye(2) / 2) < 0.05
        assert rows[0].distance < 0.05


class TestProjectedErrorCurve:
    def test_times_may_be_a_generator(self):
        # the times are read once: a generator gives the list's values
        m = two_sector_qubit_model()
        bundle = qfgr_generator(m).bundle
        times = [0.0, 2.0, 5.0]
        expected = scenarios.projected_error_curve(bundle, m.H0, m.Hp, times)
        got = scenarios.projected_error_curve(bundle, m.H0, m.Hp,
                                              (t for t in times))
        assert expected[1] > 1e-3
        assert got.tobytes() == expected.tobytes()


    @pytest.mark.parametrize("t", [-1.0, -5.0])
    def test_negative_time_rejected(self, t):
        # exp(tG) for t < 0 is not the semigroup, as in evolve
        m = two_sector_qubit_model()
        bundle = qfgr_generator(m).bundle
        with pytest.raises(ValueError, match="negative time"):
            scenarios.projected_error_curve(bundle, m.H0, m.Hp, [0.0, t])


class TestWeakCouplingSweep:
    """The error curve on the auto window [0, tau_bar / lam^2]."""

    def test_in_image_perturbation_is_exact(self):
        sub = build_projection(sector_family([1, 1]))
        H0 = np.diag([0.5, -0.5]).astype(complex)
        Hp = np.diag([0.4, -0.1]).astype(complex)
        prepared = PreparedGenerator(sub, H0, Hp)
        for lam in (0.5, 0.25):
            errs = scenarios.projected_error_curve(
                prepared.bundle(CoarseGrainSchedule(lam, 1.0, 1.0)), H0, Hp,
                np.linspace(0.0, 0.5 / lam ** 2, 41))
            assert np.all(errs < 1e-10)

    def test_time_zero_column_exact(self):
        m = heat_bath_qutrit_model()
        errs = scenarios.projected_error_curve(
            general_heat_bath_bundle(m), *m.full_hamiltonian_parts(),
            np.linspace(0.0, 0.3 / m.schedule.lam ** 2, 41))
        assert errs[0] < 1e-12
