import tracemalloc

import numpy as np
import pytest

from cglind.generator import build_generator
from cglind.subsystem import build_projection, partial_trace_family


def kron_commutator(H):
    """Reference superoperator of X -> H X - X H, from np.kron."""
    eye = np.eye(H.shape[0], dtype=complex)
    return np.kron(eye, H) - np.kron(H.T, eye)


def scale_sector_amplitudes(monkeypatch, factor):
    """Hand the sector equations factor * L0 while the general bundle
    keeps its own: a fault that keeps the Lindblad form of the sector
    generator (rates and jumps both scale by factor^2)."""
    from cglind import scenarios
    original = scenarios.PreparedQfgr._bundle

    def faulty(self, sched):
        bundle, L0, shift = original(self, sched)
        return bundle, factor * L0, shift
    monkeypatch.setattr(scenarios.PreparedQfgr, "_bundle", faulty)


def general_heat_bath_bundle(m):
    """A heat-bath model through the general construction: the
    partial-trace Kraus family on the full space."""
    sub = build_projection(partial_trace_family(m.dim_A, m.bath_state()))
    return build_generator(sub, *m.full_hamiltonian_parts(), m.schedule)


def fgr_rate_profile(T):
    """(integral, peak, half width at half maximum) of the nascent delta
    g_T(D) = 2 sqrt(pi) T exp(-T^2 D^2), trapezoid rule on 200001 points
    over |D| <= 12 / T."""
    n_points, R = 200001, 12.0 / T
    grid = np.linspace(-R, R, n_points)
    g = 2.0 * np.sqrt(np.pi) * T * np.exp(-(T * grid) ** 2)
    peak = float(g[n_points // 2])
    above = grid[g >= peak / 2.0]
    return float(np.trapezoid(g, grid)), peak, float(above[-1] - above[0]) / 2.0


def random_hermitian(rng, d, scale=1.0):
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * 0.5 * (G + G.conj().T)


def random_unitary(rng, d):
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(G)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, d):
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


# Memory budgets are checked at d = 12, where one d^2 x d^2 complex
# array is 324 KB.
BUDGET_DIM = 12


def with_signed_zeros(rng, X):
    """Copy of X with about half of its real parts and half of its
    imaginary parts set to +0 or -0 (drawn evenly)."""
    X = np.array(X, dtype=complex)
    for part in (X.real, X.imag):
        mask = rng.random(X.shape) < 0.5
        part[mask] = np.where(rng.random(int(mask.sum())) < 0.5, 0.0, -0.0)
    return X


def superop_bytes(d):
    """Size of one d^2 x d^2 complex array."""
    return (d * d) ** 2 * np.dtype(complex).itemsize


def traced_peak(fn, *args):
    """Peak of the memory Python's allocators hold during fn(*args),
    above what they held before, the result included.  Workspace that
    BLAS and LAPACK allocate themselves is invisible here."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
