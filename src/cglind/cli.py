"""Batch driver: parse scenario configs, run builds, sweeps and
certificates, and emit CSV / JSON results.

Config files are INI-style text (sections in brackets, key = value,
multiline values indented).  A minimal heat-bath run::

    [scenario]
    kind = heat_bath
    preset = qubit-gibbs

    [schedule]
    lambda = 0.3 0.1 0.03
    xi = 1.0
    t_ref = 1.0

    [time]
    mode = explicit
    start = 0.0
    stop = 10.0
    count = 6

    [run]
    seed = 0

    [output]
    csv = run.csv
    json = run.json

``kind`` is ``qfgr`` or ``heat_bath``.  Models without a preset inline
their matrices in the interchange format (first line "rows cols", then
row-major "re im" pairs)::

    [scenario]
    kind = qfgr
    sector_dims = 1 1
    h0 = 2 2
        0.3 0  0 0
        0 0  -0.5 0
    hp = 2 2
        0.2 0  0.7 0
        0.7 0  -0.1 0

Exit codes: 0 when every asserted invariant passed, 1 on invariant
failure (witnesses in the JSON summary), 2 on a config error (a parse
error, a model that cannot be built, or times t whose propagator
exp(t G) needs more than the 64 squarings of ``expm``; nothing is
written).  The CSV is byte-identical across repeated runs with the
same config and seed.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

import numpy as np

from . import __version__
from .coarsegrain import CoarseGrainSchedule, T_of_lambda
from .generator import PreparedGenerator, SteadyStateResult, evolve, \
    qds_certificate, steady_state
from .linalg import ExpmScaleError, choi_matrix, expm, is_psd, matrix_from_text
from .scenarios import (
    PRESETS,
    HeatBathModel,
    PreparedHeatBath,
    PreparedQfgr,
    QfgrModel,
    dual_path_residual,
    gibbs_row,
    gibbs_state,
    projected_error_curve,
)
from .subsystem import build_projection, partial_trace_family

__all__ = ["main", "run_config", "ScenarioConfig", "RunReport"]

OUT_DIR_ENV = "CGLIND_OUT_DIR"
CERTIFICATE_TIMES = (0.1, 1.0, 10.0, 100.0)
FULL_CHOI_DIM_LIMIT = 9
MATRIX_KEYS = {"qfgr": ("h0", "hp"), "heat_bath": ("h_a", "h_b", "q", "phi")}


class ConfigError(Exception):
    """Config parse or validation failure; carries (field, message) pairs."""

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("; ".join(f"{f}: {m}" for f, m in self.issues))


@dataclass
class ScenarioConfig:
    kind: str
    preset: Optional[str]
    sector_dims: Optional[list]
    matrices: Dict[str, np.ndarray]
    beta: Optional[float]
    lambdas: List[float]
    xi: float
    t_ref: float
    time_mode: str
    t_start: float
    t_stop: float
    t_count: int
    tau_bar: float
    seed: int
    csv_name: str
    json_name: str


def _finite(raw: str) -> float:
    """The one cast of every float field: ``float`` also accepts nan and inf."""
    value = float(raw)
    if not np.isfinite(value):
        raise ValueError(f"{raw.strip()!r} is not a finite number")
    return value


def _parse_floats(raw: str) -> List[float]:
    return [_finite(tok) for tok in raw.split()]


def parse_config(path: str) -> ScenarioConfig:
    """Parse and semantically validate a config file.  All problems are
    collected and raised together as a ConfigError."""
    cp = configparser.ConfigParser()
    read = cp.read(path)
    issues = []
    if not read:
        raise ConfigError([("file", f"cannot read config file {path!r}")])

    def need(section, key, cast=str, default=None, required=True):
        if not cp.has_option(section, key):
            if required and default is None:
                issues.append((f"[{section}].{key}",
                               f"missing required field {key}"))
                return None
            return default
        raw = cp.get(section, key)
        try:
            return cast(raw)
        except (TypeError, ValueError) as exc:
            issues.append((f"[{section}].{key}", f"bad value {raw!r}: {exc}"))
            return None

    kind = need("scenario", "kind")
    if kind is not None and kind not in ("qfgr", "heat_bath"):
        issues.append(("[scenario].kind",
                       f"kind must be qfgr or heat_bath, got {kind!r}"))
    preset = need("scenario", "preset", required=False)
    if preset is not None and preset not in PRESETS:
        issues.append(("[scenario].preset",
                       f"unknown preset {preset!r}; see 'presets list'"))
        raise ConfigError(issues)

    sector_dims = None
    matrices: Dict[str, np.ndarray] = {}
    beta = None
    if preset is None and kind in MATRIX_KEYS:
        for key in MATRIX_KEYS[kind]:
            raw = need("scenario", key)
            if raw is not None:
                try:
                    matrices[key] = matrix_from_text(raw)
                except ValueError as exc:
                    issues.append((f"[scenario].{key}", str(exc)))
        if kind == "qfgr":
            raw = need("scenario", "sector_dims")
            if raw is not None:
                try:
                    sector_dims = [int(t) for t in raw.split()]
                except ValueError:
                    issues.append(("[scenario].sector_dims",
                                   f"expected integers, got {raw!r}"))
            if sector_dims is not None and sum(sector_dims) > FULL_CHOI_DIM_LIMIT:
                issues.append(("[scenario].sector_dims",
                               "sector scenarios need total dimension <= "
                               f"{FULL_CHOI_DIM_LIMIT} (full-space certificates)"))
        else:
            beta = need("scenario", "beta", _finite)
            if "h_a" in matrices and "h_b" in matrices:
                full = matrices["h_a"].shape[0] * matrices["h_b"].shape[0]
                if full > 32:
                    issues.append(("[scenario].h_b",
                                   f"full space dimension {full} exceeds the "
                                   "sweepable limit 32"))
    elif preset is not None:
        preset_kind = PRESETS[preset].kind
        if kind != preset_kind:
            issues.append(("[scenario].kind",
                           f"preset {preset!r} is a {preset_kind} scenario"))
        kind = preset_kind

    known = len(issues)
    xi = need("schedule", "xi", _finite)
    if xi is not None and not 0.0 < xi < 2.0:
        issues.append(("[schedule].xi",
                       f"xi must satisfy 0 < xi < 2, got {xi}"))
    t_ref = need("schedule", "t_ref", _finite)
    if t_ref is not None and t_ref <= 0.0:
        issues.append(("[schedule].t_ref", f"t_ref must be positive, got {t_ref}"))
    schedule_ok = len(issues) == known  # xi and t_ref present and valid
    lambdas = need("schedule", "lambda", _parse_floats)
    if lambdas == []:
        issues.append(("[schedule].lambda", "need at least one coupling value"))
    for lam in lambdas or []:
        if lam == 0.0:
            issues.append(("[schedule].lambda",
                           "lambda must be nonzero (the semigroup construction "
                           "requires a nonzero coupling)"))
        elif schedule_ok:
            try:
                T_of_lambda(CoarseGrainSchedule(lam=lam, xi=xi, T_ref=t_ref))
            except ValueError as exc:  # the window overflows
                issues.append(("[schedule].lambda", str(exc)))

    time_mode = need("time", "mode", default="explicit", required=False)
    if time_mode not in ("explicit", "auto"):
        issues.append(("[time].mode",
                       f"mode must be explicit or auto, got {time_mode!r}"))
    t_start = need("time", "start", _finite, default=0.0, required=False)
    t_stop = need("time", "stop", _finite,
                  default=(None if time_mode == "explicit" else 10.0),
                  required=(time_mode == "explicit"))
    t_count = need("time", "count", int, default=6, required=False)
    tau_bar = need("time", "tau_bar", _finite,
                   default=(None if time_mode == "auto" else 1.0),
                   required=(time_mode == "auto"))
    if t_count is not None and t_count < 1:
        issues.append(("[time].count", f"count must be >= 1, got {t_count}"))
    for key, value in (("start", t_start), ("stop", t_stop)):
        if time_mode == "explicit" and value is not None and value < 0:
            issues.append((f"[time].{key}", f"{key} must be >= 0 (the "
                           f"semigroup runs forward in time), got {value}"))
    if time_mode == "auto" and tau_bar is not None and tau_bar <= 0:
        issues.append(("[time].tau_bar", f"tau_bar must be positive, got {tau_bar}"))
    elif time_mode == "auto" and tau_bar is not None:
        for lam in filter(None, lambdas or []):  # lambda = 0 reported above
            if not (lam * lam > 0.0 and np.isfinite(tau_bar / (lam * lam))):
                issues.append(("[schedule].lambda", "auto window end tau_bar / "
                               f"lambda^2 is not finite for lambda = {lam}"))

    seed = need("run", "seed", int, default=0, required=False)
    if seed is not None and seed < 0:
        issues.append(("[run].seed", f"seed must be nonnegative, got {seed}"))
    csv_name = need("output", "csv", default="run.csv", required=False)
    json_name = need("output", "json", default="run.json", required=False)

    if issues:
        raise ConfigError(issues)
    cfg = ScenarioConfig(
        kind=kind, preset=preset, sector_dims=sector_dims, matrices=matrices,
        beta=beta, lambdas=lambdas, xi=xi, t_ref=t_ref, time_mode=time_mode,
        t_start=t_start, t_stop=t_stop, t_count=t_count, tau_bar=tau_bar,
        seed=seed, csv_name=csv_name, json_name=json_name)
    try:
        _build_model(cfg)
    except ValueError as exc:  # shapes, Hermiticity, beta, covariance
        raise ConfigError([("[scenario]", str(exc))]) from exc
    return cfg


def _build_model(cfg: ScenarioConfig):
    sched = CoarseGrainSchedule(lam=cfg.lambdas[0], xi=cfg.xi, T_ref=cfg.t_ref)
    if cfg.preset is not None:
        return replace(PRESETS[cfg.preset].builder(), schedule=sched)
    if cfg.kind == "qfgr":
        return QfgrModel(sector_dims=cfg.sector_dims, H0=cfg.matrices["h0"],
                         Hp=cfg.matrices["hp"], schedule=sched)
    return HeatBathModel(H_A=cfg.matrices["h_a"], H_B=cfg.matrices["h_b"],
                         Q=cfg.matrices["q"], Phi=cfg.matrices["phi"],
                         beta=cfg.beta, schedule=sched)


@dataclass
class LambdaResult:
    lam: float
    times: np.ndarray
    error_norm: np.ndarray
    trace_dev: np.ndarray
    min_choi_eig: np.ndarray
    min_state_eig: np.ndarray
    certificate: dict
    extras: dict
    failures: List[str]
    steady: Optional[SteadyStateResult] = None


@dataclass
class RunReport:
    kind: str
    results: List[LambdaResult]
    gibbs_distances: Optional[list]
    wall_clock_s: float

    def passed(self) -> bool:
        return all(not r.failures for r in self.results)


def _times_for(cfg: ScenarioConfig, lam: float) -> np.ndarray:
    if cfg.time_mode == "auto":
        return np.linspace(0.0, cfg.tau_bar / (lam * lam), cfg.t_count)
    return np.linspace(cfg.t_start, cfg.t_stop, cfg.t_count)


def _run_lambda(cfg: ScenarioConfig, lam: float, general: PreparedGenerator,
                heat: Optional[PreparedHeatBath]) -> LambdaResult:
    """One coupling; qfgr runs pass a PreparedQfgr and no ``heat``."""
    times = _times_for(cfg, lam)
    sched = CoarseGrainSchedule(lam=lam, xi=cfg.xi, T_ref=cfg.t_ref)
    failures: List[str] = []
    extras: dict = {}
    ss = None

    if heat is None:
        qgen = general.generator(sched)
        gen_bundle = bundle = qgen.bundle
        extras["sector_residual"] = qgen.residual_vs_general
        if qgen.residual_vs_general > 1e-8:
            failures.append(
                f"sector equations vs general generator: {qgen.residual_vs_general:.3e}")
    else:
        gen_bundle, bundle = general.bundle(sched), heat.bundle(sched)
        residual = dual_path_residual(gen_bundle, bundle)
        extras["dual_path_residual"] = residual
        if residual > 1e-7:
            failures.append(f"dual-path generator mismatch: {residual:.3e}")
        ss = steady_state(bundle)
        extras["steady_state_nullspace_dim"] = ss.nullspace_dim
        extras["steady_state_flagged"] = bool(ss.flagged)
    errors = projected_error_curve(gen_bundle, general.H0, general.Hp, times)
    d = bundle.dim
    rho0 = np.zeros((d, d), dtype=complex)
    rho0[0, 0] = 1.0  # block-diagonal: in the sector and the trivial images
    traj = evolve(bundle, rho0, times)
    # Full-space Choi test up to FULL_CHOI_DIM_LIMIT (parse_config caps
    # sector scenarios there), else the reduced channel on the system algebra
    S = (gen_bundle if gen_bundle.dim <= FULL_CHOI_DIM_LIMIT else bundle).schrodinger
    choi_min = np.array([is_psd(choi_matrix(expm(t * S))).min_eig for t in times])

    cert = qds_certificate(bundle, CERTIFICATE_TIMES, rng=cfg.seed)
    values = ((f.name, getattr(cert, f.name)) for f in dataclasses.fields(cert))
    cert_dict = {k: v.tolist() if isinstance(v, np.ndarray) else v
                 for k, v in values}
    if not cert.passed:
        failures.append("semigroup certificate failed")
    if traj.max_trace_dev > 1e-9:
        failures.append(f"trace deviation {traj.max_trace_dev:.3e} > 1e-9")
    if traj.min_state_eig < -1e-9:
        failures.append(f"state eigenvalue {traj.min_state_eig:.3e} < -1e-9")
    if np.min(choi_min) < -1e-9 * (1.0 + d):
        failures.append(f"Choi minimum eigenvalue {np.min(choi_min):.3e}")

    return LambdaResult(
        lam=lam, times=times, error_norm=np.asarray(errors),
        trace_dev=traj.trace_dev,
        min_choi_eig=choi_min,
        min_state_eig=traj.min_eig,
        certificate=cert_dict, extras=extras, failures=failures, steady=ss)


def run_config(cfg: ScenarioConfig, threads: int = 1) -> RunReport:
    """Run every coupling.  The model, its subsystems and every
    coupling-independent part of the generators are built once per run;
    each coupling then takes only its schedule."""
    t0 = time.monotonic()
    model = _build_model(cfg)
    heat = None
    if cfg.kind == "qfgr":
        general = PreparedQfgr(model)
    else:
        heat = PreparedHeatBath(model)
        sub = build_projection(partial_trace_family(model.dim_A,
                                                    model.bath_state()))
        general = PreparedGenerator(sub, *model.full_hamiltonian_parts())
    for prepared in filter(None, (general, heat)):
        prepared.subsystem.image_bases  # cached before workers share it
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(
                lambda lam: _run_lambda(cfg, lam, general, heat), cfg.lambdas))
    else:
        results = [_run_lambda(cfg, lam, general, heat) for lam in cfg.lambdas]

    gibbs = None
    if heat is not None and heat.first_order_vanishes():
        target = gibbs_state(model.H_A, model.beta)
        rows = [gibbs_row(r.lam, r.steady, target) for r in results]
        gibbs = [{"lambda": g.lam, "distance": g.distance,
                  "nullspace_dim": g.nullspace_dim,
                  "flagged": bool(g.flagged)} for g in rows]

    return RunReport(kind=cfg.kind, results=results, gibbs_distances=gibbs,
                     wall_clock_s=time.monotonic() - t0)


def _write_csv(path: str, report: RunReport) -> None:
    lines = ["lambda,t,error_norm,trace_dev,min_choi_eig,min_state_eig"]
    for res in report.results:
        for i, t in enumerate(res.times):
            vals = (res.lam, t, res.error_norm[i], res.trace_dev[i],
                    res.min_choi_eig[i], res.min_state_eig[i])
            lines.append(",".join(f"{v:.17g}" for v in vals))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _config_echo(cfg: ScenarioConfig) -> dict:
    echo = dataclasses.asdict(cfg)
    echo["matrices"] = {k: [v.shape[0], v.shape[1]]
                        for k, v in cfg.matrices.items()}
    return echo


def _write_json(path: str, cfg: ScenarioConfig, report: RunReport) -> None:
    payload = {
        "tool_version": __version__,
        "config": _config_echo(cfg),
        "kind": report.kind,
        "wall_clock_s": report.wall_clock_s,
        "passed": report.passed(),
        "gibbs_distances": report.gibbs_distances,
        "results": [
            {
                "lambda": r.lam,
                "sup_error_norm": float(np.max(r.error_norm)),
                "max_trace_dev": float(np.max(r.trace_dev)),
                "min_choi_eig": float(np.min(r.min_choi_eig)),
                "min_state_eig": float(np.min(r.min_state_eig)),
                "certificate": r.certificate,
                "extras": r.extras,
                "failures": r.failures,
            }
            for r in report.results
        ],
    }
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cglind",
        description="batch driver for coarse-grained generator scenarios")
    parser.add_argument("--out-dir", default=None,
                        help=f"output directory (default: ${OUT_DIR_ENV} or cwd)")
    parser.add_argument("--threads", type=int, default=1,
                        help="parallel per-coupling jobs")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a scenario config")
    p_run.add_argument("config")
    p_val = sub.add_parser("validate", help="parse and check a config only")
    p_val.add_argument("config")
    p_presets = sub.add_parser("presets", help="preset registry")
    p_presets.add_argument("action", choices=["list"])

    args = parser.parse_args(argv)

    if args.command == "presets":
        for name, preset in PRESETS.items():
            print(f"{name}  [{preset.kind}]  {preset.doc}")
        return 0

    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError([("--seed", "seed must be nonnegative, "
                                f"got {args.seed}")])
        if args.threads < 1:
            raise ConfigError([("--threads", "threads must be at least 1, "
                                f"got {args.threads}")])
        cfg = parse_config(args.config)
    except ConfigError as exc:
        for fld, msg in exc.issues:
            print(f"config error: {fld}: {msg}", file=sys.stderr)
        return 2
    if args.command == "validate":
        print("ok")
        return 0
    if args.seed is not None:
        cfg.seed = args.seed

    try:
        report = run_config(cfg, threads=args.threads)
    except ExpmScaleError as exc:  # needs ||G||, so validate cannot see it
        fld = "[time].tau_bar" if cfg.time_mode == "auto" else "[time].stop"
        print(f"config error: {fld}: t ||G|| too large for the propagator "
              f"({exc})", file=sys.stderr)
        return 2
    out_dir = args.out_dir or os.environ.get(OUT_DIR_ENV) or "."
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, cfg.csv_name), report)
    _write_json(os.path.join(out_dir, cfg.json_name), cfg, report)

    if not report.passed():
        for res in report.results:
            for msg in res.failures:
                print(f"invariant failure (lambda={res.lam}): {msg}",
                      file=sys.stderr)
        return 1
    print(f"ok: {len(report.results)} coupling values, "
          f"results in {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
