"""Correctness gate: compare a run's outputs with the stored reference.

Every compared field has a tolerance in TOLERANCES with the reason it
is as wide as it is.  A value passes when |value - ref| <= atol +
rtol * |ref|.  Fields are matched by their last key; a field that the
reference has and the output lacks is a mismatch, a field the output
adds is ignored (the JSON summary may gain keys, never lose them).
"""

from __future__ import annotations

import math

# Choi eigenvalues near zero carry roundoff of order eps * dd * ||C||;
# the CLI and the certificate accept 1e-9 * (1 + d) with d <= 9 on the
# full-space test, so 1e-9 * (1 + 9) covers every CLI config.
CHOI_ATOL = 1e-8

TOLERANCES = {
    # key: (atol, rtol, reason)
    "lambda": (0.0, 0.0, "input echoed back; any change means another run"),
    "t": (0.0, 0.0, "input time grid from linspace; deterministic"),
    "times": (0.0, 0.0, "input certificate times"),
    "error_norm": (1e-9, 1e-9,
                   "O(1) propagator differences; expm/eigh roundoff on "
                   "<= 1024^2 matrices is below 1e-12 (scipy and the "
                   "Taylor expm agree to 6e-16), 1e-9 is the CLI's own "
                   "invariant scale"),
    "sup_error_norm": (1e-9, 1e-9, "maximum of error_norm"),
    "trace_dev": (1e-9, 0.0, "roundoff witness; CLI trace bound 1e-9"),
    "max_trace_dev": (1e-9, 0.0, "roundoff witness; CLI trace bound 1e-9"),
    "min_choi_eig": (CHOI_ATOL, 0.0, "near-zero eigenvalue; CLI Choi slack"),
    "choi_min_eig": (CHOI_ATOL, 0.0, "near-zero eigenvalue; certificate slack"),
    "min_state_eig": (1e-9, 0.0, "near-zero eigenvalue; CLI state bound 1e-9"),
    "min_eig": (1e-9, 0.0, "near-zero eigenvalue; CLI state bound 1e-9"),
    "unitality_dev": (1e-10, 0.0, "roundoff witness; certificate bound 1e-10"),
    "trace_preservation_dev": (1e-9, 0.0,
                               "roundoff witness; certificate bound 1e-9"),
    "semigroup_dev": (1e-9, 0.0, "roundoff witness; certificate bound 1e-9"),
    "trace_norm_growth": (1e-9, 0.0, "roundoff witness; certificate bound 1e-9"),
    "restricted_heis_norm": (0.0, 1e-9,
                             "O(1) spectral norm of a propagator; roundoff "
                             "is ~1e-13 relative"),
    "passed": (0.0, 0.0, "certificate verdict"),
    "failures": (0.0, 0.0, "must stay empty"),
    "dual_path_residual": (1e-7, 0.0, "roundoff witness; CLI bound 1e-7"),
    "sector_residual": (1e-8, 0.0, "roundoff witness; CLI bound 1e-8"),
    "steady_state_nullspace_dim": (0.0, 0.0, "integer decision"),
    "steady_state_flagged": (0.0, 0.0, "flag decision"),
    "nullspace_dim": (0.0, 0.0, "integer decision"),
    "flagged": (0.0, 0.0, "flag decision"),
    "distance": (1e-9, 1e-9,
                 "trace distance of a steady state; null-vector roundoff "
                 "is eps / (relative gap) <= 1e-12 for gaps >= 1e-4"),
    "state": (1e-9, 0.0,
              "steady-state entries; null-vector roundoff is eps / "
              "(relative gap) <= 1e-12 for the reference gaps >= 1e-4"),
    "gap": (1e-12, 1e-6, "relative singular-value gap; roundoff eps * ||L||"),
    "oracle_dev": (1e-6, 0.0,
                   "lam^2-scaled oracle deviation is quadrature error; the "
                   "acceptance bound is 1e-6"),
    "commutant_dim": (0.0, 0.0, "integer decision"),
    "cp_min_eig": (1e-9 * 33, 0.0,
                   "Choi eigenvalue of exp(G) at d = 32; slack 1e-9 (1 + d)"),
}


def close(value, ref, key: str) -> bool:
    atol, rtol, _ = TOLERANCES[key]
    if value == ref:
        return True
    if isinstance(ref, bool) or isinstance(value, bool) or \
            isinstance(ref, str) or ref is None or value is None:
        return value == ref
    if isinstance(ref, (int, float)) and isinstance(value, (int, float)):
        if math.isnan(ref) or math.isnan(value):
            return math.isnan(ref) and math.isnan(value)
        return abs(value - ref) <= atol + rtol * abs(ref)
    return value == ref


def compare(value, ref, key: str = "", path: str = "", skip=()) -> list:
    """Mismatches between an output tree and its reference, as
    human-readable strings.  ``skip`` holds paths not compared."""
    if path in skip:
        return []
    if isinstance(ref, dict):
        if not isinstance(value, dict):
            return [f"{path}: expected a mapping"]
        out = []
        for k, r in ref.items():
            sub = f"{path}.{k}" if path else k
            if k not in value:
                if sub not in skip:
                    out.append(f"{sub}: missing")
                continue
            out += compare(value[k], r, k, sub, skip)
        return out
    if isinstance(ref, list) and key not in ("failures",):
        if not isinstance(value, list) or len(value) != len(ref):
            return [f"{path}: length {_len(value)} != {len(ref)}"]
        out = []
        for i, (v, r) in enumerate(zip(value, ref)):
            out += compare(v, r, key, f"{path}[{i}]", skip)
        return out
    if key not in TOLERANCES:
        return [f"{path}: no tolerance for field {key!r}"]
    if not close(value, ref, key):
        return [f"{path}: {value!r} vs reference {ref!r}"]
    return []


def _len(value):
    return len(value) if isinstance(value, list) else "n/a"


def seed_dependent(refs: dict, path: str = "") -> set:
    """Paths whose value differs between the reference seeds: these are
    compared only on a seed that has its own reference."""
    values = list(refs.values())
    first = values[0]
    if isinstance(first, dict):
        out = set()
        for k in first:
            sub = f"{path}.{k}" if path else k
            if all(isinstance(v, dict) and k in v for v in values):
                out |= seed_dependent({s: v[k] for s, v in refs.items()}, sub)
        return out
    if isinstance(first, list) and all(isinstance(v, list) and
                                       len(v) == len(first) for v in values):
        out = set()
        for i in range(len(first)):
            out |= seed_dependent({s: v[i] for s, v in refs.items()},
                                  f"{path}[{i}]")
        return out
    return {path} if any(v != first for v in values[1:]) else set()
