"""Test references for the conditional-expectation axioms, which
``build_projection`` proves for every family it accepts (Tomiyama 1957)."""

import numpy as np

from cglind.linalg import choi_matrix, is_psd, max_abs


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
