"""The benchmark's workloads.

Each workload has three phases, run in one child process:

* ``setup()`` imports cglind and writes or draws the inputs;
* ``run(tracer)`` is the timed part and returns the raw outputs;
* ``outputs(raw)`` turns them into the tree the reference stores,
  and ``check(raw, reference)`` lists each operation with its failure.

An operation is one coupling of one config for the CLI workloads and
one (dimension, stage) call for ``certify-ladder``.
"""

from __future__ import annotations

import json
import os
from contextlib import nullcontext

import gate

CLI_SMALL_LAMBDAS = "0.5 0.4 0.3 0.2 0.15 0.1 0.05 0.03"
CLI_SMALL_TIME = "mode = explicit\nstart = 0.0\nstop = 10.0\ncount = 11"

# name -> (preset, kind, lambdas, [time] section)
CLI_CONFIGS = {
    "quasi-continuum-auto": [
        ("quasi-continuum", "heat_bath", "0.3 0.2 0.15",
         "mode = auto\ntau_bar = 0.2\ncount = 21"),
    ],
    "small-presets-scan": [
        (preset, kind, CLI_SMALL_LAMBDAS, CLI_SMALL_TIME)
        for preset, kind in (("two-sector-qubit", "qfgr"),
                             ("qfgr-two-blocks", "qfgr"),
                             ("heat-bath-qutrit", "heat_bath"),
                             ("qubit-gibbs", "heat_bath"))
    ],
}

# certify-ladder: qubit system, bath of dim_b levels, d = 2 * dim_b.
LADDER_DIM_A = 2
LADDER_DIM_B = (2, 4, 8, 16)
LADDER_DIMS = tuple(LADDER_DIM_A * b for b in LADDER_DIM_B)
LADDER_LAMBDA = 0.3
CERT_TIMES = (0.1, 1.0, 10.0, 100.0)
EVOLVE_TIMES = tuple(float(t) for t in range(11))
CERTIFY_MAX_DIM = 16
ORACLE_MAX_DIM = 8
CP_DIM = 32

WORKLOADS = ("quasi-continuum-auto", "small-presets-scan", "certify-ladder")


def op_count(name: str) -> int:
    """Operations one execution of a workload attempts."""
    if name in CLI_CONFIGS:
        return sum(len(lams.split()) for _, _, lams, _ in CLI_CONFIGS[name])
    return (3 * len(LADDER_DIMS)
            + 3 * sum(d <= CERTIFY_MAX_DIM for d in LADDER_DIMS)
            + sum(d <= ORACLE_MAX_DIM for d in LADDER_DIMS)
            + sum(d == CP_DIM for d in LADDER_DIMS))


def make(name: str, seed: int, workdir: str):
    if name in CLI_CONFIGS:
        return CliWorkload(name, seed, workdir)
    if name == "certify-ladder":
        return LadderWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")


def _span(tracer, run_id):
    return tracer.run(run_id) if tracer is not None else nullcontext()


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------

def config_text(preset, kind, lambdas, time_section, stem) -> str:
    return (f"[scenario]\nkind = {kind}\npreset = {preset}\n\n"
            f"[schedule]\nlambda = {lambdas}\nxi = 1.0\nt_ref = 1.0\n\n"
            f"[time]\n{time_section}\n\n"
            f"[output]\ncsv = {stem}.csv\njson = {stem}.json\n")


class CliWorkload:
    def __init__(self, name, seed, workdir):
        self.seed, self.workdir = seed, workdir
        self.configs = CLI_CONFIGS[name]

    def setup(self) -> None:
        from cglind import cli
        self.cli = cli
        self.paths = []
        for preset, kind, lambdas, time_section in self.configs:
            path = os.path.join(self.workdir, f"{preset}.ini")
            with open(path, "w", encoding="ascii") as fh:
                fh.write(config_text(preset, kind, lambdas, time_section, preset))
            self.paths.append(path)

    def run(self, tracer=None) -> dict:
        errors = {}
        for (preset, *_), path in zip(self.configs, self.paths):
            with _span(tracer, preset):
                try:
                    code = self.cli.main(
                        ["--threads", "1", "--seed", str(self.seed),
                         "--out-dir", self.workdir, "run", path])
                    errors[preset] = None if code in (0, 1) else f"exit {code}"
                except Exception as exc:  # a raising run fails its couplings
                    errors[preset] = f"raised {type(exc).__name__}: {exc}"
        return errors

    def outputs(self, errors: dict) -> dict:
        out = {}
        for preset, *_ in self.configs:
            if errors[preset] is not None:
                continue
            stem = os.path.join(self.workdir, preset)
            with open(stem + ".csv", encoding="ascii") as fh:
                csv_text = fh.read()
            with open(stem + ".json", encoding="ascii") as fh:
                payload = json.load(fh)
            out[preset] = {
                "csv": csv_text,
                "json": {k: payload[k] for k in
                         ("passed", "gibbs_distances", "results")},
            }
        return out

    def check(self, errors: dict, reference: dict) -> tuple:
        """(ops, diagnostics): ops is a list of (op id, failure or None)."""
        got = self.outputs(errors)
        by_seed = reference["json"]
        known = str(self.seed) in by_seed
        seed_ref = by_seed[str(self.seed) if known else min(by_seed)]
        ops, identical = [], {}
        for preset, _, lambdas, _ in self.configs:
            lams = lambdas.split()
            if errors[preset] is not None:
                ops += [(f"{preset}/{lam}", errors[preset]) for lam in lams]
                continue
            ref_csv = reference["csv"][preset]
            identical[preset] = got[preset]["csv"] == ref_csv
            rows, ref_rows = _csv_by_coupling(got[preset]["csv"]), \
                _csv_by_coupling(ref_csv)
            js, ref_js = got[preset]["json"], seed_ref[preset]
            skip = set() if known else gate.seed_dependent(
                {seed: refs[preset] for seed, refs in by_seed.items()})
            for i, lam in enumerate(lams):
                problems = []
                result = _index(js["results"], i)
                if result is None:
                    problems.append("no JSON result")
                elif result.get("failures"):
                    problems.append("; ".join(result["failures"]))
                problems += _compare_rows(_index(rows, i), ref_rows[i])
                problems += gate.compare(
                    result, ref_js["results"][i], path=f"results[{i}]",
                    skip=skip)
                if ref_js["gibbs_distances"] is not None:
                    problems += gate.compare(
                        _index(js["gibbs_distances"] or [], i),
                        ref_js["gibbs_distances"][i],
                        path=f"gibbs_distances[{i}]", skip=skip)
                ops.append((f"{preset}/{lam}",
                            "; ".join(problems[:3]) if problems else None))
        return ops, {"csv_byte_identical": identical}


def _index(seq, i):
    return seq[i] if seq is not None and i < len(seq) else None


def _csv_by_coupling(text: str) -> list:
    """Rows of a CLI CSV grouped by coupling, in file order, as dicts."""
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    groups, last = [], None
    for line in lines[1:]:
        cells = line.split(",")
        if cells[0] != last:
            groups.append([])
            last = cells[0]
        groups[-1].append(dict(zip(header, map(float, cells))))
    return groups


def _compare_rows(rows, ref_rows) -> list:
    if rows is None or len(rows) != len(ref_rows):
        return [f"CSV has {0 if rows is None else len(rows)} rows for the "
                f"coupling, reference {len(ref_rows)}"]
    problems = []
    for r, (row, ref) in enumerate(zip(rows, ref_rows)):
        for key, value in ref.items():
            if not gate.close(row.get(key), value, key):
                problems.append(f"csv row {r} {key}: {row.get(key)!r} vs "
                                f"reference {value!r}")
    return problems


# ---------------------------------------------------------------------------
# certify-ladder
# ---------------------------------------------------------------------------

def _random_hermitian(rng, n, norm):
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    H = 0.5 * (G + G.conj().T)
    return norm * H / _spectral_norm(H)


def _spectral_norm(H):
    import numpy as np
    return float(np.max(np.abs(np.linalg.eigvalsh(H))))


def ladder_model(seed: int, dim_b: int):
    """Heat-bath model for one rung, drawn from (seed, dim_b) alone so
    every rung is independent of the others."""
    import numpy as np
    from cglind.coarsegrain import CoarseGrainSchedule
    from cglind.scenarios import HeatBathModel
    rng = np.random.default_rng([seed, dim_b])
    return HeatBathModel(
        H_A=_random_hermitian(rng, LADDER_DIM_A, 1.0),
        H_B=_random_hermitian(rng, dim_b, 1.5),
        Q=_random_hermitian(rng, LADDER_DIM_A, 1.0),
        Phi=_random_hermitian(rng, dim_b, 1.0),
        beta=1.0,
        schedule=CoarseGrainSchedule(lam=LADDER_LAMBDA, xi=1.0, T_ref=1.0))


class LadderWorkload:
    def __init__(self, seed):
        self.seed = seed

    def setup(self) -> None:
        import numpy as np
        from cglind import generator, linalg, subsystem
        self.np, self.generator, self.linalg, self.subsystem = \
            np, generator, linalg, subsystem
        self.models = {}
        for dim_b in LADDER_DIM_B:
            m = ladder_model(self.seed, dim_b)
            self.models[LADDER_DIM_A * dim_b] = (m, m.bath_state(),
                                                 *m.full_hamiltonian_parts())

    def run(self, tracer=None) -> dict:
        raw = {}
        for d, model in self.models.items():
            with _span(tracer, f"d{d}"):
                raw[d] = self._rung(d, *model)
        return raw

    def _rung(self, d, m, bath, H0, Hp) -> dict:
        """Library pipeline for one dimension; returns each stage's
        result or the exception it raised."""
        np, gen, lin, sub_mod = self.np, self.generator, self.linalg, \
            self.subsystem
        res = {}

        def stage(key, fn):
            if any(isinstance(v, Exception) for v in res.values()):
                res[key] = RuntimeError("an earlier stage failed")
                return
            try:
                res[key] = fn()
            except Exception as exc:  # recorded as the stage's failure
                res[key] = exc

        stage("partial_trace_family",
              lambda: sub_mod.partial_trace_family(LADDER_DIM_A, bath))
        stage("build_projection",
              lambda: sub_mod.build_projection(res["partial_trace_family"]))
        stage("build_generator",
              lambda: gen.build_generator(res["build_projection"], H0, Hp,
                                          m.schedule))
        bundle = res["build_generator"]
        if d <= CERTIFY_MAX_DIM:
            stage("qds_certificate",
                  lambda: gen.qds_certificate(bundle, CERT_TIMES,
                                              rng=self.seed))

            def run_evolve():
                rho0 = np.zeros((d, d), dtype=complex)
                rho0[0, 0] = 1.0
                rho0 = bundle.subsystem.project_state(rho0)
                return gen.evolve(bundle, rho0 / np.trace(rho0).real,
                                  EVOLVE_TIMES)
            stage("evolve", run_evolve)
            stage("steady_state", lambda: gen.steady_state(bundle))
        if d <= ORACLE_MAX_DIM:
            def run_oracle():
                sub = bundle.subsystem
                K_orc = gen.k_t_oracle(sub, H0, Hp, bundle.T)
                K_asm, *_ = gen.assemble_kt(sub, lin.hermitian_eig(H0), Hp,
                                            bundle.T)
                lam2 = m.schedule.lam ** 2
                return lam2 * lin.max_abs(K_orc - K_asm @ sub.heisenberg)
            stage("k_t_oracle", run_oracle)
        if d == CP_DIM:
            stage("cp_check", lambda: lin.is_psd(
                lin.choi_matrix(lin.expm(bundle.schrodinger))))
        return res

    def outputs(self, raw: dict) -> dict:
        out = {}
        for d, res in raw.items():
            if any(isinstance(v, Exception) for v in res.values()):
                continue
            rung = {"commutant_dim":
                    res["build_projection"].commutant_info.dimension}
            if "qds_certificate" in res:
                c = res["qds_certificate"]
                rung["certificate"] = {
                    "choi_min_eig": c.choi_min_eig.tolist(),
                    "unitality_dev": c.unitality_dev.tolist(),
                    "trace_preservation_dev": c.trace_preservation_dev.tolist(),
                    "restricted_heis_norm": c.restricted_heis_norm.tolist(),
                    "semigroup_dev": c.semigroup_dev,
                    "trace_norm_growth": c.trace_norm_growth,
                    "passed": c.passed,
                }
                tr = res["evolve"]
                rung["evolve"] = {"trace_dev": tr.trace_dev.tolist(),
                                  "min_eig": tr.min_eig.tolist()}
                ss = res["steady_state"]
                rung["steady_state"] = {
                    "nullspace_dim": ss.nullspace_dim, "flagged": ss.flagged,
                    "gap": ss.gap,
                    "state": None if ss.state is None else
                    [[[z.real, z.imag] for z in row] for row in ss.state.tolist()],
                }
            if "k_t_oracle" in res:
                rung["oracle_dev"] = float(res["k_t_oracle"])
            if "cp_check" in res:
                rung["cp_min_eig"] = res["cp_check"].min_eig
            out[f"d{d}"] = rung
        return out

    def check(self, raw: dict, reference: dict) -> tuple:
        got = self.outputs(raw)
        ref = reference.get(str(self.seed))
        ops = []
        for d, res in raw.items():
            rung = got.get(f"d{d}")
            mismatch = {} if ref is None or rung is None else {
                stage: gate.compare(rung.get(field), ref[f"d{d}"][field],
                                    field, f"d{d}.{field}")
                for field, stage in _FIELD_STAGE.items()
                if field in ref[f"d{d}"]}
            for key, value in res.items():
                problems = [f"raised {type(value).__name__}: {value}"] \
                    if isinstance(value, Exception) else \
                    _ladder_invariants(key, value)
                problems += mismatch.get(key, [])
                ops.append((f"d{d}/{key}",
                            "; ".join(problems[:3]) if problems else None))
        return ops, {"reference_seed": ref is not None}


# The stage each reference field of a rung belongs to, so that a
# mismatch fails that stage's operation.
_FIELD_STAGE = {"commutant_dim": "build_projection",
                "certificate": "qds_certificate", "evolve": "evolve",
                "steady_state": "steady_state", "oracle_dev": "k_t_oracle",
                "cp_min_eig": "cp_check"}


def _ladder_invariants(stage: str, value) -> list:
    """Checks that hold for every seed, reference or not."""
    if stage == "qds_certificate" and not value.passed:
        return ["semigroup certificate failed"]
    if stage == "evolve":
        out = []
        if value.max_trace_dev > 1e-9:
            out.append(f"trace deviation {value.max_trace_dev:.3e} > 1e-9")
        if value.min_state_eig < -1e-9:
            out.append(f"state eigenvalue {value.min_state_eig:.3e} < -1e-9")
        return out
    if stage == "steady_state" and (value.flagged or value.nullspace_dim != 1):
        return [f"steady state flagged: {value.note or 'ambiguous gap'}"]
    if stage == "k_t_oracle" and value > 1e-6:
        return [f"oracle deviation {value:.3e} > 1e-6"]
    if stage == "cp_check" and not value.ok:
        return [f"Choi minimum eigenvalue {value.min_eig:.3e}"]
    return []
