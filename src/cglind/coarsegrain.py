"""Gaussian dynamically coarse-grained perturbations and the
principal-value frequency integral behind the second-order Hamiltonian
correction.

Given a free Hamiltonian H0 with spectrum eps and a Hermitian
perturbation H', the frequency-translated coarse-grained operator at
window width T is, entrywise in the H0 eigenbasis,

    L(w)_mn = sqrt(2 pi) * pi**(-1/4) * sqrt(T)
              * exp(-T**2 (w - D_mn)**2 / 2) * H'_mn,

with D_mn = eps_m - eps_n.  This closed form is the production path;
a truncated time-quadrature evaluator of the defining integral is kept
alongside as the independent oracle.  No secular or rotating-wave
grouping is performed: every formula is a smooth function of the level
differences, so degenerate spectra need no special casing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import dawsn

from .linalg import EigenSystem, hermitize, max_abs, require_hermitian
from .subsystem import PhysicalSubsystem

__all__ = [
    "CoarseGrainSchedule",
    "T_of_lambda",
    "coarse_grained_L",
    "coarse_grained_L_quadrature",
    "pv_gaussian",
    "pv_gaussian_quadrature",
    "pv_shift_eigenbasis",
    "lamb_shift",
]


@dataclass
class CoarseGrainSchedule:
    """Coupling lambda, scaling exponent xi in (0, 2), and reference
    time T_ref > 0; the window width is T = |lambda|**(-xi) * T_ref."""

    lam: float
    xi: float
    T_ref: float

    def __post_init__(self):
        if not 0.0 < self.xi < 2.0:
            raise ValueError(f"xi must satisfy 0 < xi < 2, got {self.xi}")
        if self.T_ref <= 0.0:
            raise ValueError(f"T_ref must be positive, got {self.T_ref}")


def T_of_lambda(sched: CoarseGrainSchedule) -> float:
    """Window width |lambda|**(-xi) * T_ref (adopted as an equality).

    lambda = 0 is rejected: the construction is only defined at nonzero
    coupling.  So is a window that overflows, since every Gaussian kernel
    takes T^2.
    """
    if sched.lam == 0.0:
        raise ValueError("lambda must be nonzero: the semigroup construction "
                         "is undefined at zero coupling")
    try:  # a float power raises rather than returning inf
        T = abs(sched.lam) ** (-sched.xi) * sched.T_ref
    except OverflowError:
        T = np.inf
    if not np.isfinite(T * T):
        raise ValueError(f"window T = |lambda|^-xi T_ref overflows at lambda "
                         f"{sched.lam!r}: T^2 must be finite")
    return T


def _gauss_prefactor(T: float) -> float:
    return np.sqrt(2.0 * np.pi) * np.pi ** -0.25 * np.sqrt(T)


def coarse_grained_L(h0_eig: EigenSystem, Hp: np.ndarray, T: float,
                     omega: float) -> np.ndarray:
    """Closed-form coarse-grained perturbation matrix at frequency ``omega``.

    Satisfies L(-w) = L(w)†; at w = 0 the matrix is Hermitian.
    """
    if T <= 0.0:
        raise ValueError(f"window width T must be positive, got {T}")
    Hp = require_hermitian(Hp, "Hp")
    U = h0_eig.vectors
    eps = h0_eig.values
    delta = np.subtract.outer(eps, eps)
    Hp_eig = U.conj().T @ Hp @ U
    L_eig = _gauss_prefactor(T) * np.exp(-0.5 * T * T * (omega - delta) ** 2) \
        * Hp_eig
    return U @ L_eig @ U.conj().T


def coarse_grained_L_quadrature(h0_eig: EigenSystem, Hp: np.ndarray, T: float,
                                omega: float | np.ndarray) -> np.ndarray:
    """Oracle evaluator of the defining time integral

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


def pv_gaussian(mu, a: float):
    """Principal value of int dw exp(-a (w - mu)^2) / w.

    Reduces to the Hilbert transform of a Gaussian: the value is
    2 sqrt(pi) * dawsn(sqrt(a) * mu), odd in mu.  Vectorized over mu.
    """
    if a <= 0.0:
        raise ValueError(f"Gaussian width parameter a must be positive, got {a}")
    return 2.0 * np.sqrt(np.pi) * dawsn(np.sqrt(a) * np.asarray(mu))


def pv_gaussian_quadrature(mu: float, a: float) -> float:
    """Quadrature oracle for :func:`pv_gaussian`: adaptive integration on
    symmetric intervals excluding (-delta, delta), delta = 1e-3 / sqrt(a),
    Richardson extrapolated in delta (the leading exclusion error is
    linear).
    """
    # Deferred: only this oracle uses scipy.integrate, and runs never call it.
    from scipy.integrate import quad
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


def pv_shift_eigenbasis(eps: np.ndarray, V_eig: np.ndarray, T: float,
                        omega: float) -> np.ndarray:
    """Eigenbasis matrix of the positive principal-value shift integral
    of a perturbation with eigenbasis entries V_mn, window translated
    by ``omega``:

        S[n, q] = (T / sqrt(pi)) * exp(-T^2 (eps_q - eps_n)^2 / 4)
                  * sum_m conj(V_mn) V_mq
                    * pv_gaussian(eps_m - (eps_n + eps_q)/2 - omega, T^2).

    The (n, q, m) term tensor is reduced over m along its contiguous
    last axis, so every entry is summed in the order of a 1-d sum.
    """
    a = T * T
    pref = (T / np.sqrt(np.pi)) \
        * np.exp(-0.25 * a * np.subtract.outer(eps, eps).T ** 2)
    mid = eps[None, None, :] - 0.5 * (eps[:, None, None] + eps[None, :, None]) \
        - omega
    Vt = np.ascontiguousarray(V_eig.T)  # keeps the term tensor C-ordered
    terms = (np.conj(Vt)[:, None, :] * Vt[None, :, :]) * pv_gaussian(mid, a)
    return pref * np.sum(terms, axis=-1)


def lamb_shift(h0_eig: EigenSystem, Hp: np.ndarray, T: float,
               subsystem: PhysicalSubsystem) -> np.ndarray:
    """Second-order Hamiltonian correction

        PV int dw / (2 pi w) < C(w)† C(w) >,   C(w) = L(w) - <L(w)>,

    evaluated in closed form by :func:`pv_shift_eigenbasis` (at
    omega = 0) on the eigenbasis entries of V = H' - <H'>.

    Requires the free evolution to commute with the projection (checked
    by the generator builder).  The result is Hermitian and lies in the
    subsystem image by construction; both are asserted at 1e-10.
    """
    if T <= 0.0:
        raise ValueError(f"window width T must be positive, got {T}")
    Hp = require_hermitian(Hp, "Hp")
    U = h0_eig.vectors
    eps = h0_eig.values
    V = Hp - subsystem.project(Hp)
    V_eig = U.conj().T @ V @ U
    S_pre = pv_shift_eigenbasis(eps, V_eig, T, 0.0)
    shift = subsystem.project(U @ S_pre @ U.conj().T)

    herm_dev = max_abs(shift - shift.conj().T)
    scale = 1.0 + max_abs(shift)
    if herm_dev > 1e-10 * scale:
        raise ValueError(f"Lamb shift lost Hermiticity: defect {herm_dev:.3e}")
    shift = hermitize(shift)
    image_dev = max_abs(subsystem.project(shift) - shift)
    if image_dev > 1e-10 * scale:
        raise ValueError(
            f"Lamb shift left the subsystem image: defect {image_dev:.3e}")
    return shift
