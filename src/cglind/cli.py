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
failure (witnesses in the JSON summary), 2 on a config error (nothing is
written).  ``FIELDS`` lists every key a config may hold, as does the
README.  The CSV is byte-identical for a fixed config and seed.
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
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from . import __version__
from .coarsegrain import CoarseGrainSchedule, T_of_lambda
from .generator import PreparedGenerator, SteadyStateResult, evolve, \
    qds_certificate, steady_state
# expm itself is not called here; perfbench's tracer test reads cli.expm
from .linalg import ExpmScaleError, choi_matrix, expm, expm_grid, is_psd, \
    matrix_from_text
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

__all__ = ["main", "run_config", "FIELDS", "ScenarioConfig", "RunReport"]

OUT_DIR_ENV = "CGLIND_OUT_DIR"
FULL_CHOI_DIM_LIMIT = 9
MATRIX_KEYS = {"qfgr": ("h0", "hp"), "heat_bath": ("h_a", "h_b", "q", "phi")}


class ConfigError(Exception):
    """Config parse or validation failure; carries (field, message) pairs."""

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("; ".join(f"{f}: {m}" for f, m in self.issues))


@dataclass(kw_only=True)
class ScenarioConfig:
    kind: str
    preset: Optional[str] = None
    sector_dims: Optional[list] = None
    matrices: Dict[str, np.ndarray] = field(default_factory=dict)
    beta: Optional[float] = None
    lambdas: List[float]
    xi: float
    t_ref: float
    time_mode: str
    t_start: float = 0.0
    t_stop: float = 10.0
    t_count: int
    tau_bar: float = 1.0
    seed: int
    csv_name: str
    json_name: str


def _finite(raw: str) -> float:
    """The one cast of every float field: ``float`` also accepts nan and inf."""
    value = float(raw)
    if not np.isfinite(value):
        raise ValueError(f"{raw.strip()!r} is not a finite number")
    return value


@dataclass(frozen=True)
class Field:
    """One config key: ``[section].key`` fills the ScenarioConfig field
    ``attr`` (None: an entry of ``matrices``) with ``cast(raw)``.
    ``default`` ``...`` marks a required key.  A failed cast reports
    ``bad``, a value the first of the (ok, message) ``rules`` it fails.
    A key with a ``when`` is an error in configs without that property,
    where the field keeps its ScenarioConfig default."""
    section: str
    key: str
    attr: Optional[str]
    cast: Callable = str
    default: Any = ...
    rules: tuple = ()
    when: str = ""
    bad: str = "bad value {raw!r}: {exc}"


MODES = {mode: f"[time] mode = {mode}" for mode in ("explicit", "auto")}
INLINE = {kind: f"kind = {kind} and no preset" for kind in MATRIX_KEYS}
_FORWARD = " must be >= 0 (the semigroup runs forward in time), got {}"
_A_FILE = ((lambda v: os.path.basename(v) not in ("", ".", ".."),
            "{!r} names no file: its base name is empty, . or .."),)
FIELDS = (
    Field("scenario", "kind", "kind", rules=(
        (lambda v: v in MATRIX_KEYS, "kind must be qfgr or heat_bath, got {!r}"),)),
    Field("scenario", "preset", "preset", default=None, rules=(
        (lambda v: v in PRESETS, "unknown preset {!r}; see 'presets list'"),)),
    *(Field("scenario", key, None, matrix_from_text, when=INLINE[kind], bad="{exc}")
      for kind, keys in MATRIX_KEYS.items() for key in keys),
    Field("scenario", "sector_dims", "sector_dims",
          lambda raw: [int(t) for t in raw.split()], when=INLINE["qfgr"],
          bad="expected integers, got {raw!r}", rules=((
              lambda v: sum(v) <= FULL_CHOI_DIM_LIMIT, "sector scenarios need total "
              f"dimension <= {FULL_CHOI_DIM_LIMIT} (full-space certificates)"),)),
    Field("scenario", "beta", "beta", _finite, when=INLINE["heat_bath"]),
    Field("schedule", "lambda", "lambdas",
          lambda raw: [_finite(tok) for tok in raw.split()], rules=(
              (bool, "need at least one coupling value"),
              (lambda v: 0.0 not in v, "lambda must be nonzero (the semigroup "
               "construction requires a nonzero coupling)"))),
    Field("schedule", "xi", "xi", _finite, rules=(
        (lambda v: 0.0 < v < 2.0, "xi must satisfy 0 < xi < 2, got {}"),)),
    Field("schedule", "t_ref", "t_ref", _finite, rules=(
        (lambda v: v > 0.0, "t_ref must be positive, got {}"),)),
    Field("time", "mode", "time_mode", default="explicit", rules=(
        (lambda v: v in MODES, "mode must be explicit or auto, got {!r}"),)),
    Field("time", "start", "t_start", _finite, 0.0,
          ((lambda v: v >= 0.0, "start" + _FORWARD),), MODES["explicit"]),
    Field("time", "stop", "t_stop", _finite, ...,
          ((lambda v: v >= 0.0, "stop" + _FORWARD),), MODES["explicit"]),
    Field("time", "count", "t_count", int, 6,
          ((lambda v: v >= 1, "count must be >= 1, got {}"),)),
    Field("time", "tau_bar", "tau_bar", _finite, ...,
          ((lambda v: v > 0.0, "tau_bar must be positive, got {}"),), MODES["auto"]),
    Field("run", "seed", "seed", int, 0,
          ((lambda v: v >= 0, "seed must be nonnegative, got {}"),)),
    Field("output", "csv", "csv_name", default="run.csv", rules=_A_FILE),
    Field("output", "json", "json_name", default="run.json", rules=_A_FILE),
)
SECTIONS = {section: [f.key for f in FIELDS if f.section == section]
            for section in dict.fromkeys(f.section for f in FIELDS)}


def _read(cp, f: Field, issues: list):
    """The value of one applicable field, or None with its issue recorded."""
    name, raw = f"[{f.section}].{f.key}", cp.get(f.section, f.key, fallback=None)
    if raw is None:
        if f.default is ...:
            issues.append((name, f"missing required field {f.key}"))
        return None if f.default is ... else f.default
    try:
        value = f.cast(raw)
    except (TypeError, ValueError) as exc:
        issues.append((name, f.bad.format(raw=raw, exc=exc)))
        return None
    for ok, message in f.rules:
        if not ok(value):
            issues.append((name, message.format(value)))
            return None
    return value


def parse_config(path: str) -> ScenarioConfig:
    """Parse a config file and validate it against FIELDS, then the rules
    that join several fields.  All problems are collected and raised
    together as a ConfigError."""
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    try:  # no header names the default section "", so [DEFAULT] is stray
        if not cp.read(path, encoding="utf-8"):
            raise ConfigError([("file", f"cannot read config file {path!r}")])
    except (configparser.Error, UnicodeDecodeError) as exc:  # not INI text
        raise ConfigError([("file", str(exc))]) from exc
    issues, values, matrices = [], {}, {}
    for section in cp.sections():
        if section not in SECTIONS:
            issues.append((f"[{section}]", "unknown section; the sections are "
                           + ", ".join(SECTIONS)))
        issues.extend((f"[{section}].{key}", f"unknown key; [{section}] takes "
                       + ", ".join(SECTIONS[section])) for key in cp[section]
                      if key not in SECTIONS.get(section, [key]))
    preset = cp.get("scenario", "preset", fallback=None)
    kind = cp.get("scenario", "kind", fallback=None) if preset is None else None
    context = {"", MODES.get(cp.get("time", "mode", fallback="explicit"), ""),
               INLINE.get(kind, "")}
    for f in FIELDS:
        if f.when not in context:
            if cp.has_option(f.section, f.key):
                issues.append((f"[{f.section}].{f.key}",
                               f"{f.key} applies only with {f.when}"))
        elif f.attr:
            values[f.attr] = _read(cp, f, issues)
        elif (matrix := _read(cp, f, issues)) is not None:
            matrices[f.key] = matrix

    if preset is not None:
        if values["preset"] is None:  # unknown, so is its kind
            raise ConfigError(issues)
        preset_kind = PRESETS[preset].kind
        if values["kind"] != preset_kind:
            issues.append(("[scenario].kind",
                           f"preset {preset!r} is a {preset_kind} scenario"))
        values["kind"] = preset_kind
    elif "h_a" in matrices and "h_b" in matrices:
        full = matrices["h_a"].shape[0] * matrices["h_b"].shape[0]
        if full > 32:
            issues.append(("[scenario].h_b", f"full space dimension {full} "
                           "exceeds the sweepable limit 32"))
    xi, t_ref, tau_bar = values["xi"], values["t_ref"], values.get("tau_bar")
    for lam in values["lambdas"] or []:  # None if any lambda is 0
        if xi is not None and t_ref is not None:
            try:
                T_of_lambda(CoarseGrainSchedule(lam=lam, xi=xi, T_ref=t_ref))
            except ValueError as exc:  # the window overflows
                issues.append(("[schedule].lambda", str(exc)))
        if tau_bar is not None and not (lam * lam > 0.0
                                        and np.isfinite(tau_bar / (lam * lam))):
            issues.append(("[schedule].lambda", "auto window end tau_bar / "
                           f"lambda^2 is not finite for lambda = {lam}"))
    csv_name, json_name = values["csv_name"], values["json_name"]
    if csv_name and json_name:  # as directory prefixes, after normalization
        c, j = (os.path.normpath(name) + os.sep for name in (csv_name, json_name))
        if c == j:
            issues.append(("[output].json", f"json and csv name the same file "
                           f"{json_name!r}; the JSON would overwrite the CSV"))
        elif c.startswith(j) or j.startswith(c):
            issues.append(("[output].json", f"json {json_name!r} and csv "
                           f"{csv_name!r}: one names a directory of the other"))

    if issues:
        raise ConfigError(issues)
    cfg = ScenarioConfig(matrices=matrices, **values)
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
    choi_min = np.array([is_psd(choi_matrix(prop)).min_eig
                         for prop in expm_grid(S, times)])

    cert = qds_certificate(bundle, rng=cfg.seed)
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


def _write_json(path: str, cfg: ScenarioConfig, report: RunReport) -> None:
    """Strict JSON, with a missing (NaN) Gibbs distance written as null."""
    gibbs = report.gibbs_distances and [
        dict(g, distance=g["distance"] if np.isfinite(g["distance"]) else None)
        for g in report.gibbs_distances]
    payload = {
        "tool_version": __version__,
        "config": dict(dataclasses.asdict(cfg), matrices={
            k: list(v.shape) for k, v in cfg.matrices.items()}),
        "kind": report.kind,
        "wall_clock_s": report.wall_clock_s,
        "passed": report.passed(),
        "gibbs_distances": gibbs,
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
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text + "\n")


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
        out_dir = args.out_dir or os.environ.get(OUT_DIR_ENV) or "."
        csv_path, json_path = (os.path.normpath(os.path.join(out_dir, name))
                               for name in (cfg.csv_name, cfg.json_name))
        parents = {"--out-dir" if args.out_dir else f"${OUT_DIR_ENV}": out_dir,
                   **{f"[output].{key}": os.path.normpath(os.path.dirname(path))
                      for key, path in (("csv", csv_path), ("json", json_path))}}
        for fld, parent in parents.items():
            probe = os.path.abspath(parent)
            while not os.path.exists(probe):  # the nearest existing ancestor
                probe = os.path.dirname(probe)
            if not os.path.isdir(probe):
                raise ConfigError([(fld, f"{probe!r} exists and is not a directory")])
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
    for parent in parents.values():
        os.makedirs(parent, exist_ok=True)
    _write_csv(csv_path, report)
    _write_json(json_path, cfg, report)

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
