"""Outside-in layer tracer for cglind.

The tracer records spans around the public functions of the six cglind
modules and around the ``numpy.linalg`` decompositions that cglind code
calls, without editing the program.  Installing it rebinds every name
that refers to a wrapped function in every loaded ``cglind.*``
namespace, so ``from .generator import evolve`` bindings in other
modules are covered too.  ``uninstall`` restores each binding to the
original object.

Spans are kept in memory as (name, start, end, parent, run id) and
summarised at the end.  A span's self time is its duration minus the
durations of its direct child spans.  The tracer assumes one thread of
cglind calls, which is how the benchmark runs the CLI (``--threads 1``).
"""

from __future__ import annotations

import functools
import hashlib
import json
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass

from workloads import LADDER_DIMS

# The traced package: its modules are rebound, and LAPACK calls are
# recorded only when made from its code.
PACKAGE = "cglind"

# Public functions timed per layer.  Hot helpers (max_abs, devectorize,
# vectorize, ...) run thousands of times per run and are left out to
# keep the tracing overhead low.
WRAPPED = {
    "linalg": ("expm", "choi_matrix", "image_basis", "is_psd", "hermitian_eig"),
    "subsystem": ("partial_trace_family", "build_projection", "commutant"),
    "coarsegrain": ("coarse_grained_L", "lamb_shift"),
    "generator": ("assemble_kt", "build_generator", "evolve",
                  "qds_certificate", "steady_state", "k_t_oracle"),
    "scenarios": ("qfgr_generator", "heat_bath_generator", "dual_path_residual",
                  "projected_error_curve", "gibbs_limit_study",
                  "bath_correlation"),
    "cli": ("main", "run_config"),
}
LAPACK = ("svd", "eigh", "eigvalsh")
LAYERS = tuple(WRAPPED) + ("lapack",)

# Stage-level functions whose inclusive time is reported as .total_s.
STAGES = (
    "subsystem.build_projection", "generator.build_generator",
    "generator.qds_certificate", "generator.evolve",
    "scenarios.projected_error_curve", "scenarios.heat_bath_generator",
    "scenarios.gibbs_limit_study", "cli.run_config",
)
# Functions whose distinct-argument share is reported as .unique_ratio.
DIGESTED = ("subsystem.partial_trace_family", "subsystem.build_projection",
            "scenarios.heat_bath_generator")
# Functions whose argument work, sum of n^3, is reported as .work_n3.
SIZED = ("linalg.expm", "linalg.choi_matrix")
# Per-dimension self time, for runs whose run ids are "d<dim>".
LADDER_FUNCS = ("subsystem.build_projection", "generator.build_generator",
                "generator.qds_certificate", "generator.evolve", "linalg.expm")

OVERHEAD_METRIC = "trace.overhead_frac"


def metric_table():
    """Every per-layer metric as (name, unit, better), in report order."""
    table = []
    for layer, funcs in WRAPPED.items():
        for fn in funcs:
            table.append((f"{layer}.{fn}.calls", "count", "lower"))
            table.append((f"{layer}.{fn}.self_s", "s", "lower"))
    table += [(f"{name}.total_s", "s", "lower") for name in STAGES]
    table += [(f"{name}.unique_ratio", "ratio", "higher") for name in DIGESTED]
    table += [(f"{name}.work_n3", "n3", "lower") for name in SIZED]
    for fn in LAPACK:
        table += [(f"lapack.{fn}.calls", "count", "lower"),
                  (f"lapack.{fn}.self_s", "s", "lower"),
                  (f"lapack.{fn}.work_n3", "n3", "lower")]
    table += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    for name in LADDER_FUNCS:
        table += [(f"{name}.d{d}.self_s", "s", "lower") for d in LADDER_DIMS]
    table.append((OVERHEAD_METRIC, "ratio", "lower"))
    return table


def digest(obj) -> str:
    """Stable content digest of a call's arguments (arrays by dtype,
    shape and bytes; dataclasses by field)."""
    h = hashlib.blake2b(digest_size=16)
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj) -> None:
    if hasattr(obj, "__array__") and hasattr(obj, "dtype"):
        h.update(f"array{obj.dtype}{obj.shape}".encode())
        h.update(obj.tobytes())
    elif is_dataclass(obj) and not isinstance(obj, type):
        h.update(type(obj).__qualname__.encode())
        for f in fields(obj):
            h.update(f.name.encode())
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        h.update(f"{type(obj).__name__}{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, dict):
        h.update(f"dict{len(obj)}".encode())
        for key in sorted(obj, key=repr):
            _feed(h, key)
            _feed(h, obj[key])
    else:
        h.update(repr(obj).encode())


def _square_n3(args, kwargs) -> float:
    M = args[0] if args else next(iter(kwargs.values()))
    n = M.shape[0]
    return float(n) ** 3


def _lapack_work(args, kwargs) -> float:
    a = args[0] if args else kwargs.get("a")
    m, n = a.shape[-2], a.shape[-1]
    return float(m) * n * min(m, n)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    run_id: str


class Tracer:
    """Span recorder that wraps cglind's public functions while installed."""

    def __init__(self):
        self.spans: list = []
        self.digests: dict = {}
        self.work: dict = {}
        self.run_id = ""
        self._stack: list = []
        self._patches: list = []

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        """Wrap every function in WRAPPED and numpy.linalg's LAPACK
        routines.  Modules of PACKAGE that are not imported yet are left
        alone."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        namespaces = [mod for name, mod in sorted(sys.modules.items())
                      if mod is not None
                      and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for layer, funcs in WRAPPED.items():
            home = sys.modules.get(f"{PACKAGE}.{layer}")
            if home is None:  # a layer the workload never imports
                continue
            for fn in funcs:
                name = f"{layer}.{fn}"
                original = getattr(home, fn)
                wrapper = self.wrap(original, name)
                for mod in namespaces:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
        import numpy.linalg
        for fn in LAPACK:
            original = getattr(numpy.linalg, fn)
            self._patch(numpy.linalg, fn,
                        self.wrap(original, f"lapack.{fn}", lapack=True))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches = []

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def run(self, run_id: str):
        """Label the spans recorded inside the block with ``run_id``."""
        previous, self.run_id = self.run_id, run_id
        try:
            yield
        finally:
            self.run_id = previous

    def _patch(self, mod, attr, value) -> None:
        self._patches.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def wrap(self, fn, name: str, lapack: bool = False):
        """Return ``fn`` recording a span named ``name`` per call.  With
        ``lapack``, only calls made from PACKAGE's code are recorded."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        wants_digest = name in DIGESTED
        sizer = (_square_n3 if name in SIZED
                 else _lapack_work if name.startswith("lapack.") else None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if lapack:
                module = sys._getframe(1).f_globals.get("__name__", "")
                if not (module == PACKAGE or module.startswith(PACKAGE + ".")):
                    return fn(*args, **kwargs)
            if wants_digest:
                self.digests.setdefault(name, []).append(digest((args, kwargs)))
            if sizer is not None:
                self.work[name] = self.work.get(name, 0.0) + sizer(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.run_id)

        return traced

    # -- results --------------------------------------------------------
    def self_times(self) -> list:
        """Self time of every recorded span, index-aligned with spans."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def summary(self) -> dict:
        """Per-layer metrics (every name of metric_table except the
        overhead, which needs an untraced run to compare with)."""
        own = self.self_times()
        calls, self_s, total_s, by_dim = {}, {}, {}, {}
        for i, s in enumerate(self.spans):
            calls[s.name] = calls.get(s.name, 0) + 1
            self_s[s.name] = self_s.get(s.name, 0.0) + own[i]
            if not self._has_ancestor(i, s.name):
                total_s[s.name] = total_s.get(s.name, 0.0) + (s.end - s.start)
            key = (s.name, s.run_id)
            by_dim[key] = by_dim.get(key, 0.0) + own[i]
        out = {}
        for layer, funcs in WRAPPED.items():
            for fn in funcs:
                name = f"{layer}.{fn}"
                out[f"{name}.calls"] = calls.get(name, 0)
                out[f"{name}.self_s"] = self_s.get(name, 0.0)
        for name in STAGES:
            out[f"{name}.total_s"] = total_s.get(name, 0.0)
        for name in DIGESTED:
            seen = self.digests.get(name, [])
            out[f"{name}.unique_ratio"] = (len(set(seen)) / len(seen)
                                           if seen else 0.0)
        for name in SIZED:
            out[f"{name}.work_n3"] = self.work.get(name, 0.0)
        for fn in LAPACK:
            name = f"lapack.{fn}"
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
            out[f"{name}.work_n3"] = self.work.get(name, 0.0)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v for k, v in self_s.items() if k.split(".")[0] == layer)
        for name in LADDER_FUNCS:
            for d in LADDER_DIMS:
                out[f"{name}.d{d}.self_s"] = by_dim.get((name, f"d{d}"), 0.0)
        return out

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index].parent
        while parent >= 0:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def write_spans(self, path) -> None:
        """Write the spans as JSON lines (times relative to the first)."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "run_id": s.run_id,
                    "parent": s.parent, "start": s.start - origin,
                    "end": s.end - origin}) + "\n")


def median_summary(summaries: list) -> dict:
    """Metric-wise median over several traced runs; call counts stay
    whole numbers."""
    out = {}
    for key in summaries[0]:
        values = [s[key] for s in summaries]
        ints = all(isinstance(v, int) for v in values)
        out[key] = (statistics.median_low if ints else statistics.median)(values)
    return out
