import re

import numpy as np
import pytest

from cglind import subsystem
from conftest import BUDGET_DIM, random_density, random_hermitian, \
    random_unitary, superop_bytes, traced_peak
from oracles import idempotency_defect, validate_cppnce
from cglind.linalg import (
    choi_matrix,
    devectorize,
    expm,
    hermitize,
    is_psd,
    max_abs,
    numerical_nullity,
    operator_norm,
    trace_pairing_adjoint,
    vectorize,
)
from cglind.subsystem import (
    PhysicalSubsystem,
    _gram,
    _predual_defect,
    build_projection,
    commutant,
    partial_trace_family,
    sector_family,
    trivial_family,
)
from cglind.scenarios import gibbs_state

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

E00 = np.diag([1.0, 0.0]).astype(complex)
E11 = np.diag([0.0, 1.0]).astype(complex)


def partial_trace(rho, dim_a, dim_b):
    """Brute-force partial trace over B (A kron B index layout)."""
    R = np.asarray(rho, dtype=complex).reshape(dim_a, dim_b, dim_a, dim_b)
    return np.einsum("ikjk->ij", R)


def image_larger_family(U):
    """Unital and idempotent: P0(X) = diag(X00, X11, (X00 + X11)/2) has a
    2-dimensional image, but the commutant of the family is C 1; every
    operator is conjugated by the unitary U."""
    e = np.eye(3, dtype=complex)
    ops = [np.outer(e[0], e[0]), np.outer(e[1], e[1]),
           np.outer(e[0], e[2]) / np.sqrt(2), np.outer(e[1], e[2]) / np.sqrt(2)]
    return PhysicalSubsystem([U @ V @ U.conj().T for V in ops])


def dephasing_subsystem():
    return build_projection(PhysicalSubsystem([E00, E11]))


def broken_family():
    """Incomplete unitary family: the missing element breaks the
    projection and bimodule structure while keeping the Kraus (CP)
    form."""
    return PhysicalSubsystem([np.eye(2, dtype=complex) / 2, SX / 2, SZ / 2])


class TestPhysicalSubsystem:
    def test_rejects_empty_family(self):
        with pytest.raises(ValueError, match="at least one operator"):
            PhysicalSubsystem([])

    def test_rejects_non_square_operator(self):
        with pytest.raises(ValueError, match=r"Kraus operator must be square, "
                           r"got shape \(2, 3\)"):
            PhysicalSubsystem([np.eye(2), np.ones((2, 3))])

    def test_rejects_mismatched_dimensions(self):
        with pytest.raises(ValueError, match="share one dimension"):
            PhysicalSubsystem([np.eye(2), np.eye(3)])

    def test_heisenberg_is_built_once_and_read_only(self, rng, monkeypatch):
        # the predual cross-check, the checked build and every later read
        # share the one P0 of the subsystem
        calls = []
        original = np.tensordot

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return original(*args, **kwargs)
        monkeypatch.setattr(subsystem.np, "tensordot", counted)
        sub = partial_trace_family(2, random_density(rng, 3))
        S = sub.heisenberg
        build_projection(sub)
        sub.project(np.eye(6))
        sub.project_state(np.eye(6) / 6)
        assert sub.heisenberg is S
        assert len(calls) == 1
        assert not S.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            S[0, 0] = 1.0

    def test_build_returns_its_argument(self):
        for sub in (sector_family([1, 2]), trivial_family(2),
                    partial_trace_family(1, np.eye(2) / 2)):
            assert type(sub) is PhysicalSubsystem
            assert build_projection(sub) is sub


class TestBuildProjection:
    def test_dephasing(self):
        sub = dephasing_subsystem()
        assert sub.commutant_info.dimension == 2
        # commutant consists of diagonal matrices
        for C in sub.commutant_info.basis:
            assert max_abs(C - np.diag(np.diag(C))) < 1e-12
        X = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        np.testing.assert_allclose(sub.project(X), np.diag([1.0, 4.0]), atol=1e-12)

    def test_identity_family(self):
        sub = build_projection(trivial_family(3))
        np.testing.assert_allclose(sub.heisenberg, np.eye(9), atol=1e-14)
        assert sub.commutant_info.dimension == 9

    def test_partial_trace_commutant_dimension(self):
        w = np.eye(2, dtype=complex) / 2
        sub = build_projection(partial_trace_family(2, w))
        assert sub.commutant_info.dimension == 4

    def test_rejects_non_idempotent(self):
        with pytest.raises(ValueError, match="idempotent|unit"):
            build_projection(broken_family())

    def test_rejects_unital_non_idempotent(self):
        # qubit depolarizing channel: unital, and P0^2 != P0 for 0 < p < 1
        p = 0.3
        SY = np.array([[0, -1j], [1j, 0]])
        fam = PhysicalSubsystem(
            [np.sqrt(1 - 3 * p / 4) * np.eye(2, dtype=complex)]
            + [np.sqrt(p / 4) * P for P in (SX, SY, SZ)])
        assert fam.unital_defect < 1e-15
        with pytest.raises(ValueError, match="Kraus map is not idempotent"):
            build_projection(fam)

    def test_build_forms_no_dense_square(self, rng):
        # idempotency follows from the checks made: with P0 built, the
        # build holds less than one d^2 x d^2 array (a dense P0 @ P0)
        for fam in (partial_trace_family(2, random_density(rng, 6)),
                    partial_trace_family(3, random_density(rng, 4)),
                    sector_family([5, 7])):
            assert fam.dim == BUDGET_DIM and fam.heisenberg is not None
            peak = traced_peak(build_projection, fam)
            assert peak < superop_bytes(BUDGET_DIM), peak
            assert idempotency_defect(fam) < 1e-12

    def test_probe_residual_is_gram_on_the_probes(self, rng):
        # the reported residual is max|N P0 Omega| for the build's seeded
        # probes, N applied operator by operator; the dense Gram matrix
        # on the same probes gives the same value
        fam = image_larger_family(random_unitary(rng, 3))
        probes = np.random.default_rng(0).standard_normal((2, 9, 8))
        omega = probes[0] + 1j * probes[1]
        dense = max_abs(_gram(fam) @ fam.heisenberg @ omega)
        with pytest.raises(ValueError, match="on 8 probes") as info:
            build_projection(fam)
        reported = float(re.search(r"probes = (\S+) >", str(info.value))[1])
        assert reported == pytest.approx(dense, rel=1e-3)

    def test_lenient_build_records_defects(self):
        sub = broken_family()
        assert idempotency_defect(sub) > 1e-3
        assert sub.unital_defect > 1e-3

    def test_rejects_image_larger_than_commutant(self):
        fam = image_larger_family(np.eye(3, dtype=complex))
        with pytest.raises(ValueError, match="does not match the commutant "
                           r"span \(invariance residual max\|N P0\|"):
            build_projection(fam)
        assert fam.commutant_info.dimension == 1
        assert fam.unital_defect < 1e-12
        assert idempotency_defect(fam) < 1e-12


def _complex_gram_commutant(family, zero_tol=1e-9):
    """Reference for the Gram route: eigh of the complex Gram matrix N
    on the unit-operator basis, as ``commutant`` computed it before the
    real symmetric form.  Returns (singular values, nullity, projector
    onto the null space)."""
    evals, evecs = np.linalg.eigh(hermitize(_gram(family)))
    svals = np.sqrt(np.clip(evals[::-1], 0.0, None))
    dim_null, _ = numerical_nullity(svals, max(zero_tol, 1e-7))
    C = evecs[:, :dim_null]
    return svals, dim_null, C @ C.conj().T


def _block_family(rng, blocks, U):
    """Kraus family of X -> U (+)_i Tr_m[(P_i X' P_i)(1 kron w_i)] kron 1_m U†
    (X' = U† X U) for blocks (n_i, m_i), w_i a Gibbs state of a random
    m_i x m_i Hamiltonian: the general finite-dimensional conditional
    expectation, conjugated by the unitary U."""
    d = sum(n * m for n, m in blocks)
    ops, start = [], 0
    for n, m in blocks:
        evals, evecs = np.linalg.eigh(gibbs_state(random_hermitian(rng, m), 1.0))
        J = np.eye(d, dtype=complex)[:, start:start + n * m]
        for a in range(m):
            for b in range(m):
                bath_op = np.sqrt(evals[b]) * np.outer(evecs[:, b],
                                                       evecs[:, a].conj())
                V = J @ np.kron(np.eye(n), bath_op) @ J.T
                ops.append(U @ V @ U.conj().T)
        start += n * m
    return PhysicalSubsystem(ops)


class TestCommutantGramRoute:
    """The real symmetric Gram form against the complex Gram route on
    families large enough (2 K d^4 > 3e6) to take the Gram route."""

    @pytest.fixture(params=["partial-trace-gibbs", "conjugated-blocks",
                            "not-idempotent"])
    def case(self, request, rng):
        if request.param == "partial-trace-gibbs":
            w = gibbs_state(random_hermitian(rng, 8), 1.0)
            return build_projection(partial_trace_family(2, w)), 4
        if request.param == "conjugated-blocks":
            fam = _block_family(rng, [(2, 4), (2, 4)], random_unitary(rng, 16))
            return build_projection(fam), 8
        # random operators on two 8-dimensional sectors: the commutant is
        # spanned by the sector projectors, the map is not idempotent
        ops = []
        for _ in range(24):
            V = np.zeros((16, 16), dtype=complex)
            for sl in (slice(0, 8), slice(8, 16)):
                V[sl, sl] = 0.1 * (rng.standard_normal((8, 8))
                                   + 1j * rng.standard_normal((8, 8)))
            ops.append(V)
        sub = PhysicalSubsystem(ops)
        assert idempotency_defect(sub) > 1e-3
        return sub, 2

    def test_matches_complex_gram(self, case):
        sub, expected_dim = case
        assert 2 * len(sub.operators) * sub.dim ** 4 > 3_000_000
        res = sub.commutant_info
        svals, dim_null, proj = _complex_gram_commutant(sub)
        assert res.dimension == dim_null == expected_dim
        assert not res.flagged
        smax = svals[0]
        kept = len(svals) - dim_null
        # The null cluster is sqrt(roundoff), ~1e-8 sigma_max on either
        # route, so it is compared through the squares (Gram eigenvalues).
        assert np.max(np.abs(res.singular_values[:kept] - svals[:kept])) \
            <= 1e-12 * smax
        assert np.max(np.abs(res.singular_values ** 2 - svals ** 2)) \
            <= 1e-12 * smax ** 2
        C = np.column_stack([vectorize(B) for B in res.basis])
        assert max_abs(C @ C.conj().T - proj) <= 1e-10
        for B in res.basis:
            assert max_abs(B - B.conj().T) == 0.0


class TestInvarianceCheck:
    """The strict build decides image = commutant from max|N P0| alone;
    ``commutant`` is the oracle for that decision."""

    def test_build_never_solves_the_commutant(self, rng, monkeypatch):
        calls = []

        def counted(family):
            calls.append(family)
            return commutant(family)
        monkeypatch.setattr(subsystem, "commutant", counted)
        families = [
            sector_family([2, 1, 2]),
            partial_trace_family(2, random_density(rng, 3)),
            partial_trace_family(2, np.diag([1.0, 0.0]).astype(complex)),
            trivial_family(3),
            partial_trace_family(2, gibbs_state(random_hermitian(rng, 8), 1.0)),
            _block_family(rng, [(2, 4), (2, 4)], random_unitary(rng, 16)),
        ]
        for fam in families:
            sub = build_projection(fam)
            assert calls == []
            first = sub.commutant_info
            assert sub.commutant_info is first
            assert calls == [fam]
            calls.clear()

    @pytest.mark.parametrize("blocks", [[(2, 2), (1, 3)], [(1, 2), (2, 1), (1, 1)],
                                        [(3, 1), (1, 2)], [(1, 4)]])
    def test_decision_agrees_with_commutant(self, rng, blocks):
        def oracle_accepts(fam):
            rank = np.linalg.matrix_rank(fam.heisenberg)
            return commutant(fam).dimension == rank
        d = sum(n * m for n, m in blocks)
        for _ in range(3):
            fam = _block_family(rng, blocks, random_unitary(rng, d))
            assert oracle_accepts(fam)
            build_projection(fam)
            fam = image_larger_family(random_unitary(rng, 3))
            assert not oracle_accepts(fam)
            with pytest.raises(ValueError,
                               match="does not match the commutant span"):
                build_projection(fam)


def _predual_defect_loop(S, dim_a, w):
    """The cross-check as a loop over the unit operators, one column of
    S* at a time (the reference for the batched check)."""
    dim_b = w.shape[0]
    d = dim_a * dim_b
    S_star = trace_pairing_adjoint(S)
    worst = 0.0
    for k in range(d * d):
        unit = np.zeros(d * d, dtype=complex)
        unit[k] = 1.0
        got = devectorize(S_star[:, k], d)
        expect = np.kron(partial_trace(devectorize(unit, d), dim_a, dim_b), w)
        worst = max(worst, max_abs(got - expect))
    return worst


class TestPredualCrossCheck:
    def test_batched_equals_loop(self, rng):
        w = random_density(rng, 3)
        S = partial_trace_family(2, w).heisenberg
        noise = rng.standard_normal(S.shape) + 1j * rng.standard_normal(S.shape)
        for M in (S, S + 1e-6 * noise):
            assert _predual_defect(M, 2, w) == _predual_defect_loop(M, 2, w)

    def test_rejects_perturbed_superoperator(self, rng, monkeypatch):
        w = random_density(rng, 3)
        original = PhysicalSubsystem.heisenberg

        def perturbed(self):
            S = original.__get__(self, PhysicalSubsystem).copy()
            S[7, 11] += 1e-8
            return S
        monkeypatch.setattr(PhysicalSubsystem, "heisenberg",
                            property(perturbed))
        with pytest.raises(ValueError, match="predual cross-check"):
            partial_trace_family(2, w)


class TestImageBases:
    @pytest.fixture(params=["sectors", "partial_trace", "trivial"])
    def sub(self, request, rng):
        if request.param == "sectors":
            return build_projection(sector_family([2, 1, 2]))
        if request.param == "partial_trace":
            return build_projection(partial_trace_family(
                2, random_density(rng, 3)))
        return build_projection(trivial_family(3))

    def test_bases_span_the_images(self, sub):
        for P, B in zip((sub.heisenberg, sub.schrodinger), sub.image_bases):
            assert B.shape[1] == sub.commutant_info.dimension
            assert max_abs(B.conj().T @ B - np.eye(B.shape[1])) < 1e-12
            assert max_abs(P @ B - B) < 1e-10
            assert max_abs(B @ (B.conj().T @ P) - P) < 1e-10

    def test_bases_hold_only_their_own_entries(self, sub):
        # a view would keep the full d^2 x d^2 SVD factor alive
        for B in sub.image_bases:
            assert (B if B.base is None else B.base).nbytes == B.nbytes


class TestSectorFamily:
    def test_two_singletons(self):
        fam = sector_family([1, 1])
        np.testing.assert_array_equal(fam.operators[0], E00)
        np.testing.assert_array_equal(fam.operators[1], E11)

    def test_two_blocks(self):
        fam = sector_family([2, 2])
        for P in fam.operators:
            assert abs(np.trace(P) - 2.0) < 1e-14
            np.testing.assert_allclose(P @ P, P, atol=1e-14)

    def test_completeness(self):
        fam = sector_family([2, 3, 3])
        total = sum(fam.operators)
        np.testing.assert_array_equal(total, np.eye(8))
        for i, P in enumerate(fam.operators):
            for j, Q in enumerate(fam.operators):
                expected = P if i == j else np.zeros_like(P)
                np.testing.assert_array_equal(P @ Q, expected)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            sector_family([])

    @staticmethod
    def reference_projectors(dims):
        """The projectors as a loop over block slices builds them."""
        d, start, ops = sum(dims), 0, []
        for n in dims:
            P = np.zeros((d, d), dtype=complex)
            P[start:start + n, start:start + n] = np.eye(n)
            ops.append(P)
            start += n
        return ops

    @pytest.mark.parametrize("dims", [[1], [1, 1], [2, 2], [2, 3, 3],
                                      [3, 1, 4, 1], [6]])
    def test_matches_slice_loop_bytes(self, dims):
        ops = sector_family(dims).operators
        ref = self.reference_projectors(dims)
        assert [P.tobytes() for P in ops] == [P.tobytes() for P in ref]
        assert all(P.flags.c_contiguous and P.dtype == complex for P in ops)

    def test_integral_float_dims_accepted(self):
        # the validator accepts 1.0 and 2.0; the builder casts them
        ops = sector_family([1.0, 2.0]).operators
        ref = self.reference_projectors([1, 2])
        assert [P.tobytes() for P in ops] == [P.tobytes() for P in ref]

    def test_fractional_dims_rejected(self):
        with pytest.raises(ValueError, match="positive integers"):
            sector_family([1.5, 2])


class TestCommutant:
    def test_sigma_z(self):
        res = commutant(PhysicalSubsystem([SZ]))
        assert res.dimension == 2
        for C in res.basis:
            assert max_abs(C @ SZ - SZ @ C) < 1e-10

    def test_identity(self):
        res = commutant(PhysicalSubsystem([np.eye(3, dtype=complex)]))
        assert res.dimension == 9

    def test_block_sectors_dimension(self):
        # blocks of size 2 and 3: commutant is M2 + M3, dimension 4 + 9
        res = commutant(sector_family([2, 3]))
        assert res.dimension == 13
        assert not res.flagged

    def test_ill_determined_gap_flagged(self):
        # a second generator misaligned by 1e-8 leaves singular values in
        # the ambiguous band between the zero threshold and the gap limit
        R = expm(1e-8j * np.array([[0, -1j], [1j, 0]], dtype=complex))
        res = commutant(PhysicalSubsystem([SZ, R @ SZ @ R.conj().T]))
        assert res.flagged


class TestPartialTraceFamily:
    def test_pure_bath_state(self, rng):
        w = np.diag([1.0, 0.0]).astype(complex)
        sub = build_projection(partial_trace_family(2, w))
        rho = random_density(rng, 4)
        expected = np.kron(partial_trace(rho, 2, 2), w)
        np.testing.assert_allclose(sub.project_state(rho), expected, atol=1e-12)

    def test_dim_one_system(self, rng):
        w = gibbs_state(np.diag([0.0, 1.0, 2.0]), 0.7)
        sub = build_projection(partial_trace_family(1, w))
        rho = random_density(rng, 3)
        np.testing.assert_allclose(sub.project_state(rho),
                                   np.trace(rho) * w, atol=1e-12)

    def test_gibbs_bath_vs_brute_force(self, rng):
        w = gibbs_state(np.diag([0.0, 1.0, 2.0]), 1.0)
        sub = build_projection(partial_trace_family(2, w))
        for _ in range(3):
            rho = random_density(rng, 6)
            expected = np.kron(partial_trace(rho, 2, 3), w)
            np.testing.assert_allclose(sub.project_state(rho), expected,
                                       atol=1e-12)

    def test_heisenberg_action(self, rng):
        # dual form: X -> Tr_B((1 x w) X) x 1
        w = gibbs_state(np.diag([0.0, 0.8]), 1.3)
        sub = build_projection(partial_trace_family(2, w))
        X = random_hermitian(rng, 4)
        reduced = partial_trace(np.kron(np.eye(2), w) @ X, 2, 2)
        np.testing.assert_allclose(sub.project(X),
                                   np.kron(reduced, np.eye(2)), atol=1e-12)

    def test_rejects_bad_bath_state(self):
        with pytest.raises(ValueError, match="PSD"):
            partial_trace_family(2, np.diag([1.5, -0.5]).astype(complex))
        with pytest.raises(ValueError, match="trace"):
            partial_trace_family(2, np.diag([1.0, 1.0]).astype(complex))


class TestProjectionInvariants:
    @pytest.fixture(params=["sectors", "partial_trace"])
    def sub(self, request):
        if request.param == "sectors":
            return build_projection(sector_family([2, 2]))
        w = gibbs_state(np.diag([0.0, 0.9, 1.7]), 1.0)
        return build_projection(partial_trace_family(2, w))

    def test_unit_norm_on_unitaries(self, sub, rng):
        for _ in range(8):
            U = random_unitary(rng, sub.dim)
            assert operator_norm(sub.project(U)) <= 1.0 + 1e-9
        np.testing.assert_allclose(sub.project(np.eye(sub.dim)),
                                   np.eye(sub.dim), atol=1e-12)

    def test_choi_psd_and_idempotent(self, sub):
        assert is_psd(choi_matrix(sub.heisenberg)).ok
        assert max_abs(sub.heisenberg @ sub.heisenberg - sub.heisenberg) < 1e-9

    def test_image_equals_commutant_span(self, sub, rng):
        # both containments: basis elements fixed, projections in span
        for C in sub.commutant_info.basis:
            assert max_abs(sub.project(C) - C) < 1e-9
        for _ in range(4):
            X = sub.project(random_hermitian(rng, sub.dim))
            resid = X - sum(np.vdot(C, X) * C for C in sub.commutant_info.basis)
            assert max_abs(resid) < 1e-9

    def test_state_projection_trace_and_positivity(self, sub, rng):
        for _ in range(5):
            rho = random_density(rng, sub.dim)
            out = sub.project_state(rho)
            assert abs(np.trace(out).real - 1.0) < 1e-10
            assert np.linalg.eigvalsh(0.5 * (out + out.conj().T))[0] > -1e-10

    def test_adjoint_pairing(self, sub, rng):
        d = sub.dim
        for _ in range(4):
            rho = random_density(rng, d)
            X = random_hermitian(rng, d)
            lhs = np.trace(sub.project_state(rho) @ X)
            rhs = np.trace(rho @ sub.project(X))
            assert abs(lhs - rhs) < 1e-10


class TestValidator:
    def test_dephasing_passes(self):
        report = validate_cppnce(dephasing_subsystem(), rng=7)
        assert all(ok for ok, _ in report.values())

    def test_partial_trace_passes(self):
        w = gibbs_state(np.diag([0.0, 0.9, 1.7]), 1.0)
        sub = build_projection(partial_trace_family(2, w))
        report = validate_cppnce(sub, rng=7)
        assert all(ok for ok, _ in report.values())

    def test_broken_family_fails_bimodule(self):
        sub = broken_family()
        report = validate_cppnce(sub, rng=7)
        assert not report["bimodule"][0] and report["bimodule"][1] > 1e-3
        assert not report["idempotent"][0]
        # the Kraus form itself is still completely positive
        assert report["complete_positivity"][0]

    def test_never_solves_the_commutant(self, rng, monkeypatch):
        calls = []

        def counted(family):
            calls.append(family)
            return commutant(family)
        monkeypatch.setattr(subsystem, "commutant", counted)
        subs = [dephasing_subsystem(),
                build_projection(partial_trace_family(2, random_density(rng, 3))),
                broken_family(),
                image_larger_family(random_unitary(rng, 3))]
        for sub in subs:
            validate_cppnce(sub, rng=7)
        assert calls == []

    def test_image_larger_than_commutant_fails_fixed_points(self, rng):
        # unital and idempotent, so only the commutator residual of the
        # projected samples can catch the image that exceeds C 1
        sub = image_larger_family(random_unitary(rng, 3))
        report = validate_cppnce(sub, rng=7)
        assert report["unital"][0] and report["idempotent"][0]
        assert not report["fixed_points"][0]
        assert report["fixed_points"][1] > 1e-3

    def test_deterministic_given_seed(self):
        sub = dephasing_subsystem()
        r1 = validate_cppnce(sub, rng=5)
        r2 = validate_cppnce(sub, rng=5)
        assert r1 == r2
