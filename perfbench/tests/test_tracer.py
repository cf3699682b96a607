"""Tests of the benchmark's outside-in tracer and correctness gate.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

import gate  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from cglind import cli  # noqa: E402


def bindings():
    """Every module attribute the tracer may rebind, by identity."""
    import numpy.linalg
    mods = {name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "cglind" or name.startswith("cglind."))}
    mods["numpy.linalg"] = numpy.linalg
    return {(name, attr): value for name, mod in mods.items()
            for attr, value in vars(mod).items() if callable(value)}


def run_cli(tmp_path, tracer=None, lambdas="0.45 0.2"):
    """Run the heat-bath-qutrit preset through cli.main; returns the CSV."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(workloads.config_text(
        "heat-bath-qutrit", "heat_bath", lambdas,
        workloads.CLI_SMALL_TIME.replace("11", "4"), "out"))
    if tracer is None:
        code = cli.main(["--out-dir", str(tmp_path), "run", str(cfg)])
    else:
        with tracer.installed():
            code = sys.modules["cglind.cli"].main(
                ["--out-dir", str(tmp_path), "run", str(cfg)])
    assert code == 0
    return (tmp_path / "out.csv").read_bytes()


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    tracer = tracing.Tracer()
    before = bindings()
    csv = run_cli(tmp_path_factory.mktemp("traced"), tracer)
    return tracer, before, csv


def test_uninstall_restores_every_binding(traced_run):
    tracer, before, _ = traced_run
    assert tracer.spans, "the traced run recorded no spans"
    after = bindings()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert changed == []


def test_rebinds_imported_names_while_installed():
    from cglind import generator, linalg
    tracer = tracing.Tracer()
    with tracer.installed():
        assert generator.expm is linalg.expm
        assert cli.expm is linalg.expm
        assert linalg.expm.__wrapped__ is not linalg.expm
        assert np.linalg.svd.__wrapped__ is not None
    assert not hasattr(linalg.expm, "__wrapped__")


def test_self_time_within_total(traced_run):
    tracer, _, _ = traced_run
    own = tracer.self_times()
    for span, self_s in zip(tracer.spans, own):
        duration = span.end - span.start
        assert -1e-12 <= self_s <= duration + 1e-12, span.name
    summary = tracer.summary()
    for name in tracing.STAGES:
        assert 0.0 <= summary[f"{name}.self_s"] <= summary[f"{name}.total_s"] + 1e-12
    assert summary["cli.main.calls"] == 1
    assert summary["cli.run_config.calls"] == 1
    assert summary["lapack.eigh.calls"] > 0


def test_unique_ratio_on_synthetic_function():
    tracer = tracing.Tracer()
    calls = []
    fn = tracer.wrap(lambda x, scale=1: calls.append(x),
                     "subsystem.build_projection")
    a, b = np.eye(2), np.ones((2, 2))
    fn(a)
    fn(a.copy())
    fn(b)
    fn(a, scale=2)
    summary = tracer.summary()
    assert len(calls) == 4
    assert summary["subsystem.build_projection.calls"] == 4
    assert summary["subsystem.build_projection.unique_ratio"] == pytest.approx(3 / 4)
    assert summary["subsystem.partial_trace_family.unique_ratio"] == 0.0


def test_traced_csv_is_byte_identical(traced_run, tmp_path):
    _, _, traced_csv = traced_run
    assert run_cli(tmp_path) == traced_csv


def test_metric_names_match_benchmark_file(traced_run):
    tracer, _, _ = traced_run
    table = [name for name, _, _ in tracing.metric_table()]
    assert len(table) == len(set(table)) <= 128
    assert sorted(tracer.summary()) + [tracing.OVERHEAD_METRIC] == \
        sorted(set(table))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == table


def test_gate_accepts_reference_and_rejects_drift():
    with open(os.path.join(BENCH, "reference", "quasi-continuum-auto.json"),
              encoding="utf-8") as fh:
        ref = json.load(fh)
    result = ref["json"]["0"]["quasi-continuum"]["results"][0]
    assert gate.compare(json.loads(json.dumps(result)), result) == []
    drifted = json.loads(json.dumps(result))
    drifted["sup_error_norm"] *= 1.0 + 1e-6
    drifted["certificate"]["choi_min_eig"][0] += 1e-12
    problems = gate.compare(drifted, result)
    assert len(problems) == 1 and problems[0].startswith("sup_error_norm")
    del drifted["extras"]
    assert "extras: missing" in gate.compare(drifted, result)
