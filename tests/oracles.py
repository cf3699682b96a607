"""Test references, kept independent of the production path: the
conditional-expectation axioms, which ``build_projection`` proves for
every family it accepts (Tomiyama 1957), the quadratures of the
coarse-grained operator and of the principal-value integral, and the
bath correlation function rebuilt from its spectral lines.  From
``cglind`` they import only the ``linalg`` primitives that
``tests/test_imports.py`` lists."""

import numpy as np
from scipy.integrate import quad

from cglind.linalg import choi_matrix, is_psd, max_abs, require_hermitian


def idempotency_defect(sub):
    """||P0^2 - P0||_max, from a dense d^2 x d^2 product."""
    S = sub.heisenberg
    return max_abs(S @ S - S)


def validate_cppnce(sub, rng=0):
    """{axiom: (ok, witness)}: unital, idempotent and adjoint-preserving
    (P0(X†) = P0(X)†) at 1e-10; fixed points at 1e-9 (P0 unital and
    projected samples commute with every V_a and V_a†); Choi(P0) PSD;
    bimodule, P0(X1 Y X2) = X1 P0(Y) X2 for X1, X2 in the image, at
    1e-10.  The sampled checks draw 16 samples each from ``rng``."""
    rng = np.random.default_rng(rng)
    d, tol = sub.dim, 1e-10

    def draw():
        return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))

    adj_dev = comm_dev = bi_dev = 0.0
    for _ in range(16):
        X = draw()
        adj_dev = max(adj_dev, max_abs(sub.project(X.conj().T)
                                       - sub.project(X).conj().T))
    for _ in range(16):
        X = sub.project(draw())
        for G in sub.operators + [V.conj().T for V in sub.operators]:
            comm_dev = max(comm_dev, max_abs(X @ G - G @ X) / (1.0 + max_abs(X)))
    for _ in range(16):
        X1, X2, Y = sub.project(draw()), sub.project(draw()), draw()
        scale = 1.0 + max_abs(X1) * max_abs(Y) * max_abs(X2)
        bi_dev = max(bi_dev, max_abs(sub.project(X1 @ Y @ X2)
                                     - X1 @ sub.project(Y) @ X2) / scale)
    idem, fixed = idempotency_defect(sub), max(sub.unital_defect, comm_dev)
    psd = is_psd(choi_matrix(sub.heisenberg))
    return {"unital": (sub.unital_defect <= tol, sub.unital_defect),
            "idempotent": (idem <= tol, idem),
            "adjoint": (adj_dev <= tol, adj_dev),
            "fixed_points": (fixed <= 1e-9, fixed),
            "complete_positivity": (psd.ok, psd.min_eig),
            "bimodule": (bi_dev <= tol, bi_dev)}


def coarse_grained_L_quadrature(h0_eig, Hp, T, omega):
    """Oracle evaluator, on the ``EigenSystem`` of H0, of the defining
    time integral

        sqrt(1 / (sqrt(pi) T)) * int dt e^{i w t} e^{-t^2/(2T^2)} H'(t)

    with H'(t) = e^{-i H0 t} H' e^{i H0 t}, truncated at |t| <= 8T and
    integrated by the trapezoid rule on a uniform 3200-point grid.  The
    Gaussian window makes the truncation error < 1e-12; kept deliberately
    independent of the closed form it checks.

    ``omega`` is a scalar (one d x d matrix is returned) or an array of
    frequencies (one d x d matrix per frequency).  All frequencies share
    the grid, so the rule is one (n_omega x n_t) @ (n_t x d^2) product
    of the weighted phases e^{i w t} with the per-entry integrands
    e^{-i D_mn t - t^2/(2T^2)}.
    """
    if T <= 0.0:
        raise ValueError(f"window width T must be positive, got {T}")
    Hp = require_hermitian(Hp, "Hp")
    U = h0_eig.vectors
    eps = h0_eig.values
    d = len(eps)
    delta = np.subtract.outer(eps, eps)
    Hp_eig = U.conj().T @ Hp @ U
    omega = np.asarray(omega, dtype=float)
    ts = np.linspace(-8.0 * T, 8.0 * T, 3200)
    rule = np.full_like(ts, ts[1] - ts[0])
    rule[[0, -1]] *= 0.5
    waves = rule * np.exp(1j * np.multiply.outer(omega.ravel(), ts))
    entries = np.exp(-1j * np.multiply.outer(ts, delta.ravel())
                     - (ts ** 2 / (2.0 * T * T))[:, None])
    integral = (waves @ entries).reshape(-1, d, d) * Hp_eig
    L_eig = integral / np.sqrt(np.sqrt(np.pi) * T)
    return (U @ L_eig @ U.conj().T).reshape(omega.shape + (d, d))


def pv_gaussian_quadrature(mu, a):
    """Quadrature oracle for ``coarsegrain.pv_gaussian``: adaptive
    integration on symmetric intervals excluding (-delta, delta),
    delta = 1e-3 / sqrt(a), Richardson extrapolated in delta (the leading
    exclusion error is linear).
    """
    if a <= 0.0:
        raise ValueError(f"Gaussian width parameter a must be positive, got {a}")
    mu = float(mu)
    sigma = 1.0 / np.sqrt(a)
    delta = 1e-3 * sigma
    R = abs(mu) + 14.0 * sigma

    def f(w):
        return np.exp(-a * (w - mu) ** 2) / w

    def excluded(dlt):
        right, _ = quad(f, dlt, R, epsabs=1e-13, epsrel=1e-12, limit=400)
        left, _ = quad(f, -R, -dlt, epsabs=1e-13, epsrel=1e-12, limit=400)
        return right + left

    coarse = excluded(delta)
    fine = excluded(delta / 2.0)
    return 2.0 * fine - coarse


def correlation_h(corr, t):
    """h(t) = sum_k c_k exp(i w_k t) of a ``scenarios.CorrelationData``,
    summed over a trailing line axis, so an array of times gives each
    entry exactly as that one time does."""
    t = np.asarray(t, dtype=float)
    return np.sum(corr.weights * np.exp(1j * corr.frequencies * t[..., None]),
                  axis=-1)
