import json
import os
import sys

import pytest

from conftest import scale_sector_amplitudes
from cglind import cli, generator, scenarios, subsystem
from cglind.cli import main, parse_config, ConfigError

BASE_QFGR = """\
[scenario]
kind = qfgr
preset = two-sector-qubit

[schedule]
lambda = 0.5 0.25
xi = 1.0
t_ref = 1.2

[time]
mode = explicit
start = 0.0
stop = 6.0
count = 4

[run]
seed = 0

[output]
csv = out.csv
json = out.json
"""

AUTO_SMALL_XI = BASE_QFGR.replace("xi = 1.0", "xi = 0.1").replace(
    "mode = explicit\nstart = 0.0\nstop = 6.0", "mode = auto\ntau_bar = 0.2")

INLINE_QFGR = """\
[scenario]
kind = qfgr
sector_dims = 1 1
h0 = 2 2
    0.3 0  0 0
    0 0  -0.5 0
hp = 2 2
    0.2 0  0.7 0
    0.7 0  -0.1 0

[schedule]
lambda = 0.5
xi = 1.0
t_ref = 1.2

[time]
mode = explicit
start = 0.0
stop = 4.0
count = 3

[output]
csv = inline.csv
json = inline.json
"""

INLINE_HEAT_BATH = """\
[scenario]
kind = heat_bath
h_a = 2 2
    0.5 0  0 0
    0 0  -0.5 0
h_b = 2 2
    0 0  0 0
    0 0  1 0
q = 2 2
    0 0  1 0
    1 0  0 0
phi = 2 2
    0 0  1 0
    1 0  0 0
beta = 1.0

[schedule]
lambda = 0.3
xi = 1.0
t_ref = 1.0

[time]
mode = explicit
start = 0.0
stop = 2.0
count = 3

[output]
csv = hb.csv
json = hb.json
"""

GIBBS = """\
[scenario]
kind = heat_bath
preset = qubit-gibbs

[schedule]
lambda = 0.3 0.1
xi = 1.0
t_ref = 1.0

[time]
mode = explicit
start = 0.0
stop = 5.0
count = 3

[run]
seed = 0

[output]
csv = gibbs.csv
json = gibbs.json
"""


# One short run per preset; the CSVs under tests/golden/ pin every byte.
GOLDEN_RUNS = {
    "two-sector-qubit": ("qfgr", "0.5 0.25",
                         "mode = explicit\nstart = 0.0\nstop = 6.0\ncount = 4"),
    "qfgr-two-blocks": ("qfgr", "0.35",
                        "mode = explicit\nstart = 0.0\nstop = 5.0\ncount = 3"),
    "heat-bath-qutrit": ("heat_bath", "0.45",
                         "mode = explicit\nstart = 0.0\nstop = 5.0\ncount = 3"),
    "qubit-gibbs": ("heat_bath", "0.3",
                    "mode = explicit\nstart = 0.0\nstop = 5.0\ncount = 3"),
    "quasi-continuum": ("heat_bath", "0.3",
                        "mode = auto\ntau_bar = 0.2\ncount = 3"),
}
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def golden_config(preset):
    kind, lambdas, time_section = GOLDEN_RUNS[preset]
    return (f"[scenario]\nkind = {kind}\npreset = {preset}\n\n"
            f"[schedule]\nlambda = {lambdas}\nxi = 1.0\nt_ref = 1.0\n\n"
            f"[time]\n{time_section}\n\n"
            f"[run]\nseed = 0\n\n"
            f"[output]\ncsv = {preset}.csv\njson = {preset}.json\n")


def write_config(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv_rows(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [dict(zip(header, map(float, line.split(","))))
                for line in fh if line.strip()]
    return header, rows


class TestValidate:
    def test_ok(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_QFGR)
        assert main(["validate", cfg]) == 0
        assert "ok" in capsys.readouterr().out

    def test_zero_lambda_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_QFGR.replace(
            "lambda = 0.5 0.25", "lambda = 0.0"))
        assert main(["validate", cfg]) == 2
        err = capsys.readouterr().err
        assert "nonzero" in err

    def test_missing_t_ref_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_QFGR.replace("t_ref = 1.2\n", ""))
        assert main(["validate", cfg]) == 2
        assert "t_ref" in capsys.readouterr().err

    def test_xi_out_of_range_cites_bound(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_QFGR.replace("xi = 1.0", "xi = 2.5"))
        assert main(["validate", cfg]) == 2
        assert "0 < xi < 2" in capsys.readouterr().err

    def test_unknown_preset(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_QFGR.replace(
            "preset = two-sector-qubit", "preset = nope"))
        assert main(["validate", cfg]) == 2
        assert "preset" in capsys.readouterr().err

    def test_custom_kind_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, INLINE_QFGR.replace(
            "kind = qfgr", "kind = custom"))
        assert main(["--out-dir", str(tmp_path / "out"), "run", cfg]) == 2
        assert "[scenario].kind" in capsys.readouterr().err

    # Configs that parse but whose model cannot be built: each is a config
    # error (exit 2) for validate and run alike, with the cause on stderr.
    @pytest.mark.parametrize("text, old, new, cause", [
        (INLINE_HEAT_BATH, "beta = 1.0", "beta = -1.0", "beta"),
        (INLINE_HEAT_BATH, "q = 2 2\n    0 0  1 0\n    1 0  0 0",
         "q = 2 2\n    0 0  1 0\n    0 0  0 0", "Q is not Hermitian"),
        (INLINE_HEAT_BATH, "phi = 2 2\n    0 0  1 0\n    1 0  0 0",
         "phi = 3 3\n    0 0  1 0  0 0\n    1 0  0 0  1 0\n    0 0  1 0  0 0",
         "Phi (3, 3) must match H_B (2, 2)"),
        (INLINE_QFGR, "    0.3 0  0 0\n    0 0  -0.5 0",
         "    0.3 0  0.1 0\n    0.1 0  -0.5 0", "H0 must commute"),
    ], ids=["negative-beta", "non-hermitian-q", "phi-shape", "h0-off-sector"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_unbuildable_model_exit_2(self, tmp_path, capsys, text, old, new,
                                      cause, command):
        assert old in text
        cfg = write_config(tmp_path, text.replace(old, new))
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), command, cfg]) == 2
        err = capsys.readouterr().err
        assert "config error: [scenario]: " in err and cause in err
        assert not out.exists()

    # float() accepts nan and inf, a tiny coupling overflows the window
    # T = |lambda|^-xi t_ref, and in auto mode lambda^2 may underflow to 0
    # (1e-170) or leave tau_bar / lambda^2 infinite (1e-160): each is a
    # config error naming its field.  So is a negative seed, which numpy's
    # generators reject.
    @pytest.mark.parametrize("text, old, new, field", [
        (BASE_QFGR, "t_ref = 1.2", "t_ref = nan", "[schedule].t_ref"),
        (BASE_QFGR, "t_ref = 1.2", "t_ref = inf", "[schedule].t_ref"),
        (BASE_QFGR, "lambda = 0.5 0.25", "lambda = 0.5 nan", "[schedule].lambda"),
        (BASE_QFGR, "lambda = 0.5 0.25", "lambda = inf", "[schedule].lambda"),
        (BASE_QFGR, "lambda = 0.5 0.25", "lambda = 1e-200", "[schedule].lambda"),
        (AUTO_SMALL_XI, "lambda = 0.5 0.25", "lambda = 1e-170",
         "[schedule].lambda"),
        (AUTO_SMALL_XI, "lambda = 0.5 0.25", "lambda = 1e-160",
         "[schedule].lambda"),
        (BASE_QFGR, "start = 0.0", "start = -inf", "[time].start"),
        (BASE_QFGR, "stop = 6.0", "stop = nan", "[time].stop"),
        (BASE_QFGR, "mode = explicit\nstart = 0.0\nstop = 6.0",
         "mode = auto\ntau_bar = nan", "[time].tau_bar"),
        (BASE_QFGR, "mode = explicit\nstart = 0.0\nstop = 6.0",
         "mode = auto\ntau_bar = inf", "[time].tau_bar"),
        (INLINE_HEAT_BATH, "beta = 1.0", "beta = inf", "[scenario].beta"),
        (INLINE_HEAT_BATH, "beta = 1.0", "beta = nan", "[scenario].beta"),
        (BASE_QFGR, "seed = 0", "seed = -1", "[run].seed"),
    ], ids=["t_ref-nan", "t_ref-inf", "lambda-nan", "lambda-inf",
            "lambda-window-overflow", "lambda-squared-underflow",
            "auto-window-overflow", "start-minus-inf", "stop-nan",
            "tau_bar-nan", "tau_bar-inf", "beta-inf", "beta-nan",
            "seed-negative"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_non_finite_number_exit_2(self, tmp_path, capsys, text, old, new,
                                      field, command):
        assert old in text
        cfg = write_config(tmp_path, text.replace(old, new))
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), command, cfg]) == 2
        assert f"config error: {field}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_negative_seed_flag_exit_2(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, BASE_QFGR)
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), "--seed", "-5", command, cfg]) == 2
        assert "config error: --seed: " in capsys.readouterr().err
        assert not out.exists()

    # exp(tG) is a semigroup: only t >= 0 is defined.
    @pytest.mark.parametrize("old, new, field", [
        ("start = 0.0", "start = -5.0", "[time].start"),
        ("stop = 6.0", "stop = -1.0", "[time].stop"),
    ], ids=["start", "stop"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_negative_time_exit_2(self, tmp_path, capsys, old, new, field,
                                  command):
        cfg = write_config(tmp_path, BASE_QFGR.replace(old, new))
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), command, cfg]) == 2
        err = capsys.readouterr().err
        assert f"config error: {field}: " in err and "must be >= 0" in err
        assert not out.exists()

    # Each worker is a real thread, so only values below 1 are tested.
    @pytest.mark.parametrize("threads", ["0", "-1"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_threads_below_one_exit_2(self, tmp_path, capsys, command,
                                      threads):
        cfg = write_config(tmp_path, BASE_QFGR)
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), "--threads", threads, command,
                     cfg]) == 2
        assert "config error: --threads: " in capsys.readouterr().err
        assert not out.exists()

    def test_parse_config_collects_issues(self, tmp_path):
        cfg = write_config(tmp_path, BASE_QFGR
                           .replace("xi = 1.0", "xi = 2.5")
                           .replace("lambda = 0.5 0.25", "lambda = 0.0"))
        with pytest.raises(ConfigError) as err:
            parse_config(cfg)
        fields = [f for f, _ in err.value.issues]
        assert "[schedule].xi" in fields
        assert "[schedule].lambda" in fields


class TestRun:
    def test_qfgr_preset(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_QFGR)
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), "run", cfg]) == 0
        header, rows = read_csv_rows(out / "out.csv")
        assert header == ["lambda", "t", "error_norm", "trace_dev",
                          "min_choi_eig", "min_state_eig"]
        assert len(rows) == 8  # two couplings x four times
        assert all(r["trace_dev"] < 1e-9 for r in rows)
        assert all(r["min_state_eig"] > -1e-9 for r in rows)
        payload = json.loads((out / "out.json").read_text())
        assert payload["passed"] is True
        assert [r["lambda"] for r in payload["results"]] == [0.5, 0.25]

    def test_inline_matrices(self, tmp_path):
        cfg = write_config(tmp_path, INLINE_QFGR)
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), "run", cfg]) == 0
        _, rows = read_csv_rows(out / "inline.csv")
        assert len(rows) == 3

    def test_inline_heat_bath(self, tmp_path):
        cfg = write_config(tmp_path, INLINE_HEAT_BATH)
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), "run", cfg]) == 0
        _, rows = read_csv_rows(out / "hb.csv")
        assert len(rows) == 3

    def test_gibbs_preset_summary(self, tmp_path):
        cfg = write_config(tmp_path, GIBBS)
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), "run", cfg]) == 0
        payload = json.loads((out / "gibbs.json").read_text())
        dists = [g["distance"] for g in payload["gibbs_distances"]]
        assert len(dists) == 2
        assert dists[1] < dists[0]
        assert payload["results"][0]["extras"]["dual_path_residual"] < 1e-7

    def test_deterministic_csv(self, tmp_path):
        cfg = write_config(tmp_path, BASE_QFGR)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["--out-dir", str(out1), "run", cfg]) == 0
        assert main(["--out-dir", str(out2), "run", cfg]) == 0
        assert (out1 / "out.csv").read_bytes() == (out2 / "out.csv").read_bytes()

    @pytest.mark.parametrize("text, couplings, csv", [
        (BASE_QFGR, ("lambda = 0.5 0.25", "lambda = 0.5 0.4 0.3 0.25"),
         "out.csv"),
        (GIBBS, ("lambda = 0.3 0.1", "lambda = 0.3 0.2 0.15 0.1"),
         "gibbs.csv"),
    ], ids=["qfgr", "gibbs"])
    def test_threaded_run_matches_serial(self, tmp_path, text, couplings, csv):
        # The workers share the prepared state, its subsystems and their
        # cached image bases.  More workers than cores and a short switch
        # interval give a write to shared state every chance to show.
        cfg = write_config(tmp_path, text.replace(*couplings))
        out1, out2 = tmp_path / "serial", tmp_path / "threaded"
        assert main(["--out-dir", str(out1), "run", cfg]) == 0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            assert main(["--out-dir", str(out2), "--threads", "4", "run",
                         cfg]) == 0
        finally:
            sys.setswitchinterval(interval)
        assert (out1 / csv).read_bytes() == (out2 / csv).read_bytes()

    # Three couplings; the coupling-independent work runs once per run.  A
    # heat-bath run builds the partial-trace and the trivial subsystem.
    # Schrödinger duals are derived only where read: the trivial
    # subsystem's and one per coupling of each generator whose dual a
    # check reads.  The checked build applies P0* to its probes by index
    # permutation and forms neither P0* nor the Gram matrix.  The qubit-gibbs full space is
    # d = 8, so its Choi test reads the general dual; the partial-trace
    # subsystem's own dual is never read.
    @pytest.mark.parametrize("text, couplings, expected", [
        (GIBBS, ("lambda = 0.3 0.1", "lambda = 0.3 0.2 0.1"),
         {"partial_trace_family": 1, "build_projection": 2,
          "bath_correlation": 1, "_covariance_defect": 1, "lamb_shift": 3,
          "trace_pairing_adjoint": 7, "_gram": 0}),
        (BASE_QFGR, ("lambda = 0.5 0.25", "lambda = 0.5 0.25 0.1"),
         {"partial_trace_family": 0, "build_projection": 1,
          "bath_correlation": 0, "_covariance_defect": 1, "lamb_shift": 3,
          "trace_pairing_adjoint": 4, "_gram": 0}),
    ], ids=["heat_bath", "qfgr"])
    def test_coupling_independent_work_once(self, tmp_path, monkeypatch,
                                            text, couplings, expected):
        calls = dict.fromkeys(expected, 0)

        def counting(name, original):
            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return counted
        for name in calls:
            for mod in (cli, generator, scenarios, subsystem):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name,
                                        counting(name, getattr(mod, name)))
        cfg = write_config(tmp_path, text.replace(*couplings))
        assert main(["--out-dir", str(tmp_path / "out"), "run", cfg]) == 0
        assert calls == expected

    # Times whose propagator exp(t G) needs more than the 64 squarings of
    # expm: validate cannot see them (the bound needs ||G||), so run
    # reports a config error on the field that sets the times and writes
    # nothing.  A large time that still scales is an invariant failure
    # with the JSON written.
    @pytest.mark.parametrize("text, old, new, field", [
        (BASE_QFGR, "stop = 6.0", "stop = 1e300", "[time].stop"),
        (AUTO_SMALL_XI, "tau_bar = 0.2", "tau_bar = 1e300", "[time].tau_bar"),
    ], ids=["explicit", "auto"])
    def test_time_beyond_squaring_budget_exit_2(self, tmp_path, capsys, text,
                                                old, new, field):
        assert old in text
        cfg = write_config(tmp_path, text.replace(old, new))
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), "validate", cfg]) == 0
        assert main(["--out-dir", str(out), "run", cfg]) == 2
        err = capsys.readouterr().err
        assert f"config error: {field}: " in err and "too large" in err
        assert not out.exists()

    def test_large_scalable_time_is_recorded(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_QFGR.replace("stop = 6.0",
                                                       "stop = 1e18"))
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), "run", cfg]) == 1
        assert "trace deviation" in capsys.readouterr().err
        assert json.loads((out / "out.json").read_text())["passed"] is False

    def test_sector_mismatch_is_recorded(self, tmp_path, monkeypatch, capsys):
        # sqrt(2) L0 in the sector equations only: the general bundle,
        # which every other check reads, is unchanged.
        scale_sector_amplitudes(monkeypatch, 2.0 ** 0.5)
        cfg = write_config(tmp_path, BASE_QFGR)
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), "run", cfg]) == 1
        assert "sector equations vs general generator" in capsys.readouterr().err
        payload = json.loads((out / "out.json").read_text())
        assert payload["passed"] is False
        for res in payload["results"]:
            residual = res["extras"]["sector_residual"]
            assert residual > 1e-8
            assert res["failures"] == [
                f"sector equations vs general generator: {residual:.3e}"]

    def test_heat_bath_builds_superoperator_once(self, tmp_path, monkeypatch):
        # The partial-trace family's superoperator serves the predual
        # cross-check, build_projection and the commutant.  The run also
        # builds a trivial qubit subsystem, whose superoperator is 4 x 4
        # and is left out here.
        returned = []
        original = subsystem.PhysicalSubsystem.heisenberg

        def recording(self):
            S = original.__get__(self, subsystem.PhysicalSubsystem)
            returned.append(S)
            return S
        monkeypatch.setattr(subsystem.PhysicalSubsystem, "heisenberg",
                            property(recording))
        cfg = write_config(tmp_path, GIBBS.replace("lambda = 0.3 0.1",
                                                   "lambda = 0.3 0.2 0.1"))
        assert main(["--out-dir", str(tmp_path / "out"), "run", cfg]) == 0
        full = [S for S in returned if S.shape != (4, 4)]
        assert len(full) >= 2
        assert len({id(S) for S in full}) == 1

    def test_out_dir_env_var(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, BASE_QFGR)
        target = tmp_path / "envout"
        monkeypatch.setenv("CGLIND_OUT_DIR", str(target))
        assert main(["run", cfg]) == 0
        assert (target / "out.csv").exists()


@pytest.mark.parametrize("preset", sorted(GOLDEN_RUNS))
def test_csv_matches_golden(tmp_path, preset):
    cfg = write_config(tmp_path, golden_config(preset), f"{preset}.ini")
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "run", cfg]) == 0
    with open(os.path.join(GOLDEN_DIR, f"{preset}.csv"), "rb") as fh:
        assert (out / f"{preset}.csv").read_bytes() == fh.read()


class TestPresets:
    def test_list(self, capsys):
        assert main(["presets", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("two-sector-qubit", "qubit-gibbs", "quasi-continuum",
                     "heat-bath-qutrit", "qfgr-two-blocks"):
            assert name in out
