import math
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (
    BUDGET_DIM,
    random_hermitian,
    random_unitary,
    superop_bytes,
    traced_peak,
    with_signed_zeros,
)
from cglind.cli import _times_for
from cglind.generator import lindblad_superop
from cglind.linalg import (
    EXPM_GRID_KEPT,
    EXPM_SCALE_TARGET,
    EXPM_TAYLOR_ORDER,
    ExpmScaleError,
    choi_matrix,
    devectorize,
    _squarings,
    expm,
    expm_grid,
    from_real_basis,
    hermitian_eig,
    hermitize,
    is_psd,
    matrix_from_text,
    max_abs,
    sandwich_superop,
    to_real_basis,
    trace_pairing_adjoint,
    vectorize,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

def _expm_allocating(M):
    """Reference: the Horner loop of expm with a scaled copy
    B = M / 2**s, a dense identity and a new array for every step; a
    real argument keeps a real dtype, as in expm."""
    M = np.asarray(M, dtype=float if np.isrealobj(M) else complex)
    d = M.shape[0]
    norm1 = float(np.max(np.sum(np.abs(M), axis=0))) if d else 0.0
    if norm1 == 0.0:
        return np.eye(d, dtype=M.dtype)
    n_square = max(0, int(math.ceil(math.log2(norm1 / EXPM_SCALE_TARGET))))
    B = M / (2.0 ** n_square)
    eye = np.eye(d, dtype=M.dtype)
    acc = eye.copy()
    for k in range(EXPM_TAYLOR_ORDER, 0, -1):
        acc = eye + (B @ acc) / k
    for _ in range(n_square):
        acc = acc @ acc
    return acc


def _signed_zeros_like(rng, M):
    """with_signed_zeros that keeps a real M real."""
    Z = with_signed_zeros(rng, M)
    return Z if np.iscomplexobj(M) else np.ascontiguousarray(Z.real)


def _block_diagonal(rng, dtype):
    """12 x 12 draw of the dtype with signed zeros, blocks 0-4, 5-8 and
    9-11, and rows 2 and 7 zero: off the blocks and along those rows
    each product entry is a sum of signed zeros."""
    G = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    M = _signed_zeros_like(rng, G if dtype is complex else G.real)
    blocks = np.digitize(np.arange(12), [5, 9])
    M[blocks[:, None] != blocks[None, :]] *= 0.0
    M[[2, 7]] *= -0.0
    return M


def _with_norm1(M, norm1):
    """M rescaled to the given 1-norm; a zero M is returned as it is."""
    now = float(np.max(np.sum(np.abs(M), axis=0)))
    return M * (norm1 / now) if now else M


class TestHermitianEig:
    def test_diagonal(self):
        eig = hermitian_eig(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(eig.values, [1.0, 3.0])
        # eigenvectors are a permutation of the identity
        np.testing.assert_allclose(np.abs(eig.vectors), np.eye(2)[::-1], atol=1e-14)

    def test_pauli_x_spectrum(self):
        eig = hermitian_eig(SX)
        np.testing.assert_allclose(eig.values, [-1.0, 1.0], atol=1e-14)

    @pytest.mark.parametrize("d", [2, 8, 33, 64])
    def test_reconstruction(self, rng, d):
        M = random_hermitian(rng, d)
        eig = hermitian_eig(M)
        recon = eig.vectors @ np.diag(eig.values) @ eig.vectors.conj().T
        assert max_abs(recon - M) < 1e-10 * (1.0 + max_abs(M))
        assert max_abs(eig.vectors.conj().T @ eig.vectors - np.eye(d)) < 1e-10

    def test_rejects_non_hermitian(self):
        M = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="asymmetry"):
            hermitian_eig(M)


class TestExpm:
    def test_zero_is_identity_exact(self):
        assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))

    def test_pauli_closed_form(self):
        got = expm(1j * np.pi / 2 * SX)
        np.testing.assert_allclose(got, 1j * SX, atol=1e-13)

    def test_power_series_cross_check(self, rng):
        A = random_hermitian(rng, 4) * 0.3j
        series = np.zeros((4, 4), dtype=complex)
        term = np.eye(4, dtype=complex)
        for k in range(1, 60):
            series += term
            term = term @ A / k
        np.testing.assert_allclose(expm(A), series, atol=1e-13)

    def test_inverse_identity(self, rng):
        A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        assert max_abs(expm(A) @ expm(-A) - np.eye(5)) < 1e-9

    def test_semigroup_in_time(self, rng):
        A = random_hermitian(rng, 4) * 1j
        t, s = 0.7, 1.9
        assert max_abs(expm(A * (t + s)) - expm(A * t) @ expm(A * s)) < 1e-9

    def test_skew_hermitian_gives_unitary(self, rng):
        H = random_hermitian(rng, 6, scale=3.0)
        U = expm(1j * H)
        assert max_abs(U @ U.conj().T - np.eye(6)) < 1e-10

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            expm(np.ones((2, 3)))

    @pytest.mark.parametrize("d", range(1, 13))
    def test_matches_allocating_loop_bytes(self, d, rng):
        # 1-norm 0.4 * 2**s takes exactly s squarings.  The general draws
        # overflow at the larger norms (inf and nan must agree too); the
        # skew-Hermitian ones stay unitary; the real ones take the
        # float64 route of the certificate.
        for n_square in range(15):
            G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for M in (G, 1j * (G + G.conj().T), G.real):
                M = _with_norm1(_signed_zeros_like(rng, M),
                                0.4 * 2.0 ** n_square)
                with np.errstate(over="ignore", invalid="ignore"):
                    assert expm(M).tobytes() == _expm_allocating(M).tobytes()

    @pytest.mark.parametrize("d", [16, 33, 64])
    def test_large_and_strided_match_allocating_loop_bytes(self, d, rng):
        G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for A in (G, G.real):
            for n_square in (0, 3, 7):
                M = _with_norm1(_signed_zeros_like(rng, A),
                                0.4 * 2.0 ** n_square)
                for X in (M, M.T, np.asfortranarray(M)):
                    assert expm(X).tobytes() == _expm_allocating(X).tobytes()

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_block_diagonal_zero_rows_match_allocating_loop_bytes(
            self, dtype, rng):
        for n_square in range(8):
            M = _with_norm1(_block_diagonal(rng, dtype), 0.4 * 2.0 ** n_square)
            assert expm(M).tobytes() == _expm_allocating(M).tobytes()

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_zero_products_signed_negative_match_allocating_loop_bytes(
            self, dtype, monkeypatch, rng):
        # A product kernel may return an exact zero as -0 (one that starts
        # a sum from its first term does); the + 0.0 pass must set the
        # identity route's +0.  No squarings (1-norm < 0.5): they use
        # the same kernel.
        matmul = np.matmul

        def negative_zeros(a, b, out):
            flat = matmul(a, b, out=out).reshape(-1).view(np.float64)
            flat[flat == 0.0] = -0.0
            return out

        monkeypatch.setattr(np, "matmul", negative_zeros)
        for norm1 in (0.1, 0.2, 0.4):
            M = _with_norm1(_block_diagonal(rng, dtype), norm1)
            assert expm(M).tobytes() == _expm_allocating(M).tobytes()

    def test_zero_and_views_match_allocating_loop_bytes(self, rng):
        Z = np.zeros((5, 5), dtype=complex)
        assert expm(Z).tobytes() == _expm_allocating(Z).tobytes()
        big = with_signed_zeros(rng, rng.standard_normal((12, 12))
                                + 1j * rng.standard_normal((12, 12)))
        for M in (big[::2, ::2], big[::-2, ::2].T, np.asfortranarray(big)):
            M = 3.0 * M
            assert expm(M).tobytes() == _expm_allocating(M).tobytes()

    def test_unscalable_norm_raises(self, rng):
        M = _with_norm1(rng.standard_normal((3, 3)) + 0j, 1e25)
        with pytest.raises(ExpmScaleError, match="too large to scale"):
            expm(M)

    def test_memory_budget(self, rng):
        # the accumulator and one product buffer, plus an allowance for
        # the array headers and the diagonal view (BLAS workspace is
        # invisible to tracemalloc)
        n = BUDGET_DIM * BUDGET_DIM
        M = _with_norm1(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)), 40.0)
        assert traced_peak(expm, M) <= 2 * superop_bytes(BUDGET_DIM) + 4096


CERT_TIMES = (0.1, 1.0, 10.0, 100.0)


class TestExpmGrid:
    # 0..10; the certificate's times and their pairwise sums; a grid
    # with repeated times; an auto-mode grid whose last point is not
    # bitwise twice its middle one
    AUTO = _times_for(SimpleNamespace(time_mode="auto", tau_bar=0.3,
                                      t_count=21), 0.3)
    GRIDS = (
        np.linspace(0.0, 10.0, 11),
        [*CERT_TIMES, *(s + t for i, s in enumerate(CERT_TIMES)
                        for t in CERT_TIMES[i:])],
        [0.0, 1.0, 1.0, 2.0, 0.5, 1.0, 4.0, 2.0, 0.0],
        AUTO,
    )

    def test_auto_grid_is_not_doubled(self):
        assert self.AUTO[20] != 2 * self.AUTO[10]

    @pytest.mark.parametrize("d", range(1, 13))
    def test_matches_expm_loop_bytes(self, d, rng):
        # the draws of TestExpm's byte test; at the larger norms the
        # general draws overflow, and inf and nan must agree too
        for n_square in range(15):
            G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for M in (G, 1j * (G + G.conj().T)):
                M = _with_norm1(with_signed_zeros(rng, M), 0.4 * 2.0 ** n_square)
                for times in self.GRIDS:
                    with np.errstate(over="ignore", invalid="ignore"):
                        got = [E.tobytes() for E in expm_grid(M, times)]
                        want = [expm(t * M).tobytes() for t in times]
                    assert got == want

    def test_drops_propagators_no_later_time_needs(self, rng):
        M = _with_norm1(rng.standard_normal((3, 3)) + 0j, 1.0)
        grid = expm_grid(M, [1.0, 3.0, 2.0, 5.0])
        one = weakref.ref(next(grid))
        next(grid)
        assert one() is not None  # its double 2 is ahead
        next(grid)
        assert one() is None

    def test_keeps_a_bounded_number_of_propagators(self, rng):
        # on 0..39 every t < 20 has its double ahead; besides the one
        # just yielded, at most EXPM_GRID_KEPT propagators stay alive
        M = _with_norm1(rng.standard_normal((3, 3)) + 0j, 1.0)
        times, refs = np.arange(40.0), []
        for t, E in zip(times, expm_grid(M, times)):
            assert E.tobytes() == expm(t * M).tobytes()
            refs.append(weakref.ref(E))
            del E
            assert sum(r() is not None for r in refs) <= EXPM_GRID_KEPT + 1

    def test_raises_past_squaring_budget_at_same_time(self, rng):
        G = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        M = _with_norm1(1j * (G + G.conj().T), 1.0)
        times = [2.0 ** k for k in range(70)]
        got, want = [], []
        with pytest.raises(ExpmScaleError, match="too large to scale"):
            for E in expm_grid(M, times):
                got.append(E.tobytes())
        with pytest.raises(ExpmScaleError, match="too large to scale"):
            for t in times:
                want.append(expm(t * M).tobytes())
        assert 60 < len(got) < len(times)
        assert got == want


U = 2.0 ** -53  # unit roundoff


def _route_bound(M, E):
    """c n u 2^s max(1, max|E|) with c = 1: roundoff of order n u in the
    scaled Taylor core of E = expm(M), n x n, amplified up to 2^s by its
    s squarings."""
    return M.shape[0] * U * 2.0 ** _squarings(M)[1] * max(1.0, max_abs(E))


def _kraus_superop(rng, d, k=2):
    """Superoperator of a random Kraus map X -> sum K X K^dagger: it
    preserves Hermiticity."""
    Ks = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
          for _ in range(k)]
    return sum(sandwich_superop(K, K.conj().T) for K in Ks)


class TestRealBasis:
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_basis_is_hermitian_and_unitary(self, d):
        n = d * d
        V = np.stack([from_real_basis(e) for e in np.eye(n)], axis=1)
        assert max_abs(V.conj().T @ V - np.eye(n)) <= 2 * U
        for k in range(n):
            F = devectorize(V[:, k], d)
            assert max_abs(F - F.conj().T) == 0.0
        # V^dagger applied to vectors is the forward transform
        for e in np.eye(n):
            x, imag = to_real_basis(V @ e)
            assert imag <= 2 * U and max_abs(x - e) <= 2 * U

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_round_trip(self, d, rng):
        S = _kraus_superop(rng, d)
        R, imag = to_real_basis(S)
        assert R.dtype == np.float64
        # four products with weights of modulus 1/2 per entry
        assert imag <= 4 * U * max_abs(S)
        assert max_abs(from_real_basis(R) - S) <= 8 * U * max_abs(S)
        rho = random_hermitian(rng, d)
        x, imag = to_real_basis(vectorize(rho))
        assert imag == 0.0  # exactly Hermitian in, exactly real out
        assert max_abs(devectorize(from_real_basis(x), d) - rho) \
            <= 4 * U * max_abs(rho)

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_real_route_matches_complex(self, d, rng):
        # exp(tS) in the real basis against the complex exponential, for
        # the Lindblad generator of a Hermitian H and Kraus jumps K
        H = random_hermitian(rng, d)
        J = _kraus_superop(rng, d) / d
        A = devectorize(trace_pairing_adjoint(J) @ vectorize(np.eye(d)), d)
        G = lindblad_superop(H, A, J)
        R = to_real_basis(G)[0].T
        S = trace_pairing_adjoint(G)
        for t in (0.1, 1.0, 10.0):
            E = expm(t * S)
            assert max_abs(from_real_basis(expm(t * R)) - E) \
                <= _route_bound(t * S, E)

    @pytest.mark.parametrize("d", [1, 3, 9, 16])
    def test_expm_keeps_real_dtype(self, d, rng):
        for norm1 in (0.3, 3.0, 30.0):
            M = _with_norm1(rng.standard_normal((d, d)), norm1)
            E = expm(M)
            assert E.dtype == np.float64
            assert max_abs(E - expm(M + 0j)) <= _route_bound(M, E)
        assert expm(np.zeros((d, d))).dtype == np.float64
        assert expm(np.eye(d, dtype=int)).dtype == np.float64
        grid = list(expm_grid(_with_norm1(rng.standard_normal((d, d)), 1.0),
                              [0.0, 1.0, 2.0]))
        assert all(E.dtype == np.float64 for E in grid)


class TestVectorization:
    def test_round_trip(self, rng):
        X = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        np.testing.assert_array_equal(devectorize(vectorize(X), 5), X)
        with pytest.raises(ValueError, match="not a square matrix"):
            devectorize(vectorize(X), 4)

    def test_sandwich_identity_map(self):
        assert np.array_equal(sandwich_superop(np.eye(3), np.eye(3)), np.eye(9))

    def test_sandwich_action(self, rng):
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        lhs = sandwich_superop(A, B) @ vectorize(X)
        np.testing.assert_allclose(devectorize(lhs, 4), A @ X @ B, atol=1e-12)

    def test_sandwich_pauli(self):
        out = devectorize(sandwich_superop(SX, SX) @ vectorize(SZ), 2)
        np.testing.assert_allclose(out, -SZ, atol=1e-14)

    def test_commutator_superops(self, rng):
        # the Lindblad assembly with zero pieces: i[H, X] and -1/2 {A, X}
        H, A = random_hermitian(rng, 3), random_hermitian(rng, 3)
        X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        zero, zero_map = np.zeros((3, 3)), np.zeros((9, 9))
        np.testing.assert_allclose(
            devectorize(lindblad_superop(H, zero, zero_map) @ vectorize(X), 3),
            1j * (H @ X - X @ H), atol=1e-12)
        np.testing.assert_allclose(
            devectorize(lindblad_superop(zero, A, zero_map) @ vectorize(X), 3),
            -0.5 * (A @ X + X @ A), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="incompatible"):
            sandwich_superop(np.eye(2), np.eye(3))


class TestChoi:
    def test_identity_map(self):
        C = choi_matrix(np.eye(4))
        eigs = np.linalg.eigvalsh(C)
        # maximally entangled projector scaled by d: rank one, top eig d
        np.testing.assert_allclose(eigs, [0, 0, 0, 2], atol=1e-12)
        assert is_psd(C).ok

    def test_transpose_map_not_cp(self):
        d = 2
        T = np.zeros((4, 4), dtype=complex)
        for i in range(d):
            for j in range(d):
                unit = np.zeros((d, d), dtype=complex)
                unit[i, j] = 1.0
                T[:, i + j * d] = vectorize(unit.T)
        C = choi_matrix(T)
        eigs = np.linalg.eigvalsh(C)
        assert abs(eigs[0] + 1.0) < 1e-12
        assert not is_psd(C).ok

    def test_unitary_kraus_rank_one(self, rng):
        V = random_unitary(rng, 3)
        C = choi_matrix(sandwich_superop(V.conj().T, V))
        eigs = np.linalg.eigvalsh(C)
        assert is_psd(C).ok
        assert np.sum(eigs > 1e-10) == 1

    def test_kraus_maps_always_psd(self, rng):
        # consistency of choi_matrix with Kraus-built superoperators
        d = 3
        for _ in range(4):
            ops = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                   for _ in range(2)]
            S = sum(sandwich_superop(V.conj().T, V) for V in ops)
            assert is_psd(choi_matrix(S)).ok

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_permutation_matches_unit_sum(self, rng, d):
        # reference: C = sum_ij E_ij kron S(E_ij), one block per unit matrix
        dd = d * d
        S = rng.standard_normal((dd, dd)) + 1j * rng.standard_normal((dd, dd))
        ref = np.zeros((dd, dd), dtype=complex)
        for i in range(d):
            for j in range(d):
                unit = np.zeros((d, d), dtype=complex)
                unit[i, j] = 1.0
                ref[i * d:(i + 1) * d, j * d:(j + 1) * d] = \
                    devectorize(S @ vectorize(unit), d)
        C = choi_matrix(S)
        if d > 1:  # a random superoperator is not completely positive
            assert not is_psd(C).ok
        assert np.array_equal(C, ref)


class TestIsPsd:
    def test_identity(self):
        res = is_psd(np.eye(3))
        assert res.ok and abs(res.min_eig - 1.0) < 1e-14

    def test_small_negative(self):
        res = is_psd(np.diag([1.0, -1e-3]))
        assert not res.ok
        assert abs(res.min_eig + 1e-3) < 1e-15

    @pytest.mark.parametrize("d", [1, 2, 5, 16, 40])
    def test_min_eig_matches_hermitize_bytes(self, d, rng):
        M = with_signed_zeros(rng, rng.standard_normal((d, d))
                              + 1j * rng.standard_normal((d, d)))
        ref = np.linalg.eigvalsh(hermitize(M))[0]
        assert np.float64(is_psd(M).min_eig).tobytes() == ref.tobytes()

    def test_memory_budget(self, rng):
        # one Hermitian copy (LAPACK and BLAS workspace is invisible to
        # tracemalloc)
        n = BUDGET_DIM * BUDGET_DIM
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert traced_peak(is_psd, M) <= 1.1 * superop_bytes(BUDGET_DIM)


class TestTracePairingAdjoint:
    def test_pairing_identity(self, rng):
        d = 3
        S = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        S_star = trace_pairing_adjoint(S)
        for _ in range(5):
            rho = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            lhs = np.trace(devectorize(S_star @ vectorize(rho), d) @ X)
            rhs = np.trace(rho @ devectorize(S @ vectorize(X), d))
            assert abs(lhs - rhs) < 1e-10

    def test_involution(self, rng):
        S = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        np.testing.assert_allclose(trace_pairing_adjoint(trace_pairing_adjoint(S)),
                                   S, atol=1e-14)


class TestInterchangeFormat:
    def test_round_trip(self, rng):
        M = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        text = "\n".join([f"{M.shape[0]} {M.shape[1]}"] + [
            " ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row) for row in M])
        np.testing.assert_array_equal(matrix_from_text(text), M)

    def test_header_errors(self):
        with pytest.raises(ValueError, match="header"):
            matrix_from_text("x y 1 0")
        with pytest.raises(ValueError, match="positive"):
            matrix_from_text("0 2")

    def test_token_count_error(self):
        with pytest.raises(ValueError, match="entry tokens"):
            matrix_from_text("2 2 1 0 0 0")

    def test_non_numeric_error(self):
        with pytest.raises(ValueError, match="non-numeric"):
            matrix_from_text("1 1 a b")
