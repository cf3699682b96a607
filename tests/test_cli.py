import json
import os
import sys
from dataclasses import replace

import numpy as np
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


def diag_text(n):
    """Interchange text of diag(0, 1, ..., n - 1)."""
    return f"{n} {n}\n" + "\n".join(
        "    " + "  ".join(f"{i * (i == j)} 0" for j in range(n)) for i in range(n))


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


def config_error(tmp_path, capsys, text, *argv):
    """stderr of ``main(["--out-dir", out, *argv, cfg])`` on a config
    ``text`` that must be a config error (exit 2) writing nothing."""
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), *argv, cfg]) == 2
    assert not out.exists()
    return capsys.readouterr().err


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
        assert "nonzero" in config_error(tmp_path, capsys, BASE_QFGR.replace(
            "lambda = 0.5 0.25", "lambda = 0.0"), "validate")

    def test_missing_t_ref_named(self, tmp_path, capsys):
        assert "t_ref" in config_error(
            tmp_path, capsys, BASE_QFGR.replace("t_ref = 1.2\n", ""), "validate")

    def test_xi_out_of_range_cites_bound(self, tmp_path, capsys):
        assert "0 < xi < 2" in config_error(
            tmp_path, capsys, BASE_QFGR.replace("xi = 1.0", "xi = 2.5"), "validate")

    def test_unknown_preset(self, tmp_path, capsys):
        assert "preset" in config_error(tmp_path, capsys, BASE_QFGR.replace(
            "preset = two-sector-qubit", "preset = nope"), "validate")

    def test_custom_kind_rejected(self, tmp_path, capsys):
        err = config_error(tmp_path, capsys, INLINE_QFGR.replace(
            "kind = qfgr", "kind = custom"), "run")
        assert "[scenario].kind" in err

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
        err = config_error(tmp_path, capsys, text.replace(old, new), command)
        assert "config error: [scenario]: " in err and cause in err

    # The parse-time dimension caps: 2 x 17 = 34 > 32 for a heat-bath
    # model, 5 + 5 > 9 for sector dynamics (full-space certificates).
    @pytest.mark.parametrize("text, message", [
        (INLINE_HEAT_BATH.replace("h_b = 2 2\n    0 0  0 0\n    0 0  1 0",
                                  f"h_b = {diag_text(17)}")
         .replace("phi = 2 2\n    0 0  1 0\n    1 0  0 0",
                  f"phi = {diag_text(17)}"),
         "[scenario].h_b: full space dimension 34 exceeds the sweepable "
         "limit 32"),
        (INLINE_QFGR.replace("sector_dims = 1 1", "sector_dims = 5 5"),
         "[scenario].sector_dims: sector scenarios need total dimension <= 9 "
         "(full-space certificates)"),
    ], ids=["heat-bath-34", "sectors-10"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_dimension_cap_exit_2(self, tmp_path, capsys, text, message,
                                  command):
        assert config_error(tmp_path, capsys, text, command) \
            == f"config error: {message}\n"

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
        err = config_error(tmp_path, capsys, text.replace(old, new), command)
        assert f"config error: {field}: " in err

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_negative_seed_flag_exit_2(self, tmp_path, capsys, command):
        err = config_error(tmp_path, capsys, BASE_QFGR, "--seed", "-5", command)
        assert "config error: --seed: " in err

    # exp(tG) is a semigroup: only t >= 0 is defined.
    @pytest.mark.parametrize("old, new, field", [
        ("start = 0.0", "start = -5.0", "[time].start"),
        ("stop = 6.0", "stop = -1.0", "[time].stop"),
    ], ids=["start", "stop"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_negative_time_exit_2(self, tmp_path, capsys, old, new, field,
                                  command):
        err = config_error(tmp_path, capsys, BASE_QFGR.replace(old, new),
                           command)
        assert f"config error: {field}: " in err and "must be >= 0" in err

    # Each worker is a real thread, so only values below 1 are tested.
    @pytest.mark.parametrize("threads", ["0", "-1"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_threads_below_one_exit_2(self, tmp_path, capsys, command,
                                      threads):
        err = config_error(tmp_path, capsys, BASE_QFGR, "--threads", threads,
                           command)
        assert "config error: --threads: " in err

    # The JSON is written after the CSV into the same directory.
    @pytest.mark.parametrize("json_name", ["same.csv", "./same.csv"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_json_overwriting_csv_exit_2(self, tmp_path, capsys, command,
                                         json_name):
        err = config_error(tmp_path, capsys, BASE_QFGR.replace(
            "csv = out.csv", "csv = same.csv").replace(
            "json = out.json", f"json = {json_name}"), command)
        assert "config error: [output].json: " in err and "same file" in err

    # An output directory that is a file, or lies below one, cannot be
    # made: reported before the run, which would otherwise be lost.
    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below_file"])
    @pytest.mark.parametrize("source", ["flag", "env"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_out_dir_naming_a_file_exit_2(self, tmp_path, capsys, monkeypatch,
                                          command, source, below):
        cfg = write_config(tmp_path, BASE_QFGR)
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        target = str(taken / below) if below else str(taken)
        before = sorted(os.listdir(tmp_path))
        if source == "flag":
            argv, field = ["--out-dir", target], "--out-dir"
        else:
            monkeypatch.setenv("CGLIND_OUT_DIR", target)
            argv, field = [], "$CGLIND_OUT_DIR"
        assert main(argv + [command, cfg]) == 2
        err = capsys.readouterr().err
        assert f"config error: {field}: " in err and "not a directory" in err
        assert sorted(os.listdir(tmp_path)) == before
        assert taken.read_text() == "keep\n"

    # A name whose base name is empty, . or .. names a directory: it
    # cannot be opened as a file.
    @pytest.mark.parametrize("key, name", [
        ("csv", ""), ("csv", "sub/"), ("csv", "."), ("json", "."),
        ("json", "sub/.."),
    ])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_output_name_without_file_exit_2(self, tmp_path, capsys, command,
                                             key, name):
        err = config_error(tmp_path, capsys, BASE_QFGR.replace(
            f"{key} = out.{key}", f"{key} = {name}"), command)
        assert f"config error: [output].{key}: " in err
        assert "names no file" in err

    # One name below the other: writing the first would need the second
    # to be a directory, or the reverse.
    @pytest.mark.parametrize("csv, json_name", [
        ("out.csv", "out.csv/a.json"), ("sub/a/out.csv", "./sub/a")])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_output_name_below_the_other_exit_2(self, tmp_path, capsys,
                                                command, csv, json_name):
        err = config_error(tmp_path, capsys, BASE_QFGR.replace(
            "csv = out.csv", f"csv = {csv}").replace(
            "json = out.json", f"json = {json_name}"), command)
        assert "config error: [output].json: " in err and "directory" in err

    # An output name below a file of the output directory cannot be
    # written: reported before the run, as for the output directory.
    @pytest.mark.parametrize("key", ["csv", "json"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_output_parent_naming_a_file_exit_2(self, tmp_path, capsys,
                                                command, key):
        cfg = write_config(tmp_path, BASE_QFGR.replace(
            f"{key} = out.{key}", f"{key} = taken/deeper/out.{key}"))
        out = tmp_path / "out"
        out.mkdir()
        (out / "taken").write_text("keep\n")
        assert main(["--out-dir", str(out), command, cfg]) == 2
        err = capsys.readouterr().err
        assert f"config error: [output].{key}: " in err
        assert "not a directory" in err
        assert sorted(os.listdir(out)) == ["taken"]
        assert (out / "taken").read_text() == "keep\n"

    # A key outside FIELDS, a [DEFAULT] key, a misspelled section, and a
    # key used outside the configs it applies to are named, never ignored.
    @pytest.mark.parametrize("text, old, new, field", [
        (BASE_QFGR, "seed = 0", "sed = 4", "[run].sed"),
        (BASE_QFGR, "[schedule]", "[schedul]", "[schedul]"),
        (BASE_QFGR, "[scenario]", "[DEFAULT]\nseed = 1\n\n[scenario]",
         "[DEFAULT]"),
        (BASE_QFGR, "count = 4", "count = 4\ntau_bar = 0.2", "[time].tau_bar"),
        (AUTO_SMALL_XI, "tau_bar = 0.2", "tau_bar = 0.2\nstart = 0.0",
         "[time].start"),
        (AUTO_SMALL_XI, "tau_bar = 0.2", "tau_bar = 0.2\nstop = 6.0",
         "[time].stop"),
        (BASE_QFGR, "kind = qfgr", "kind = qfgr\nh0 = 1 1\n    0 0",
         "[scenario].h0"),
        (GIBBS, "kind = heat_bath", "kind = heat_bath\nbeta = 1.0",
         "[scenario].beta"),
        (BASE_QFGR, "kind = qfgr", "kind = qfgr\nsector_dims = 1 1",
         "[scenario].sector_dims"),
        (INLINE_QFGR, "kind = qfgr", "kind = qfgr\nbeta = 1.0",
         "[scenario].beta"),
        (INLINE_QFGR, "kind = qfgr", "kind = qfgr\nh_a = 1 1\n    0 0",
         "[scenario].h_a"),
        (INLINE_HEAT_BATH, "beta = 1.0", "beta = 1.0\nsector_dims = 2",
         "[scenario].sector_dims"),
        (INLINE_HEAT_BATH, "beta = 1.0", "beta = 1.0\nhp = 1 1\n    0 0",
         "[scenario].hp"),
    ], ids=["stray-key", "misspelled-section", "default-section",
            "tau_bar-explicit", "start-auto", "stop-auto", "matrix-preset",
            "beta-preset", "sector_dims-preset", "beta-qfgr", "h_a-qfgr",
            "sector_dims-heat-bath", "hp-heat-bath"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_key_outside_contract_exit_2(self, tmp_path, capsys, text, old,
                                         new, field, command):
        assert old in text
        err = config_error(tmp_path, capsys, text.replace(old, new), command)
        assert f"config error: {field}: " in err

    # Text that is not INI is a config error on the file, not a traceback.
    @pytest.mark.parametrize("old, new", [
        ("xi = 1.0", "xi = 1.0\nxi = 1.5"),
        ("[scenario]", "kind = qfgr\n[scenario]"),
        ("seed = 0", "seed"),
    ], ids=["duplicate-key", "no-section-header", "key-without-value"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_malformed_ini_exit_2(self, tmp_path, capsys, old, new, command):
        err = config_error(tmp_path, capsys, BASE_QFGR.replace(old, new),
                           command)
        assert err.startswith("config error: file: ")

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_non_utf8_file_exit_2(self, tmp_path, capsys, command):
        cfg = tmp_path / "cfg.ini"
        cfg.write_bytes(BASE_QFGR.replace("[run]", "; caf\xe9\n[run]")
                        .encode("latin-1"))
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), command, str(cfg)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("config error: file: ")

    def test_percent_taken_literally(self, tmp_path):
        cfg = write_config(tmp_path, BASE_QFGR.replace("csv = out.csv",
                                                       "csv = 100%.csv"))
        assert parse_config(cfg).csv_name == "100%.csv"
        assert main(["--out-dir", str(tmp_path / "out"), "run", cfg]) == 0
        assert (tmp_path / "out" / "100%.csv").exists()

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

    def test_missing_gibbs_distance_is_null(self, tmp_path):
        # At lambda = 1e-3 the qubit-gibbs steady state is not unique: the
        # row keeps NaN, the JSON says null and stays strict JSON.
        cfg = write_config(tmp_path, GIBBS.replace("lambda = 0.3 0.1",
                                                   "lambda = 1e-3"))
        report = cli.run_config(parse_config(cfg))
        assert np.isnan(report.gibbs_distances[0]["distance"])
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), "run", cfg]) == 0

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")
        payload = json.loads((out / "gibbs.json").read_text(),
                             parse_constant=reject)
        (row,) = payload["gibbs_distances"]
        assert row["distance"] is None
        assert row["flagged"] is True and row["nullspace_dim"] == 2

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
    # Schrödinger duals are derived only where read: one subsystem's
    # (cached), and per coupling one for each read of a generator's dual,
    # which is not cached: the Choi test's and the certified bundle's
    # cached quotient, which the steady state, the evolution and the
    # certificate all read (the certificate transposes G_H in the real
    # Hermitian basis instead of reading G_S).  The checked build applies
    # P0* to its probes by index permutation and forms neither P0* nor the
    # Gram matrix.  The qubit-gibbs full space is d = 8, so its Choi test
    # reads the general dual; the partial-trace subsystem's own dual is
    # never read.
    @pytest.mark.parametrize("text, couplings, expected", [
        (GIBBS, ("lambda = 0.3 0.1", "lambda = 0.3 0.2 0.1"),
         {"partial_trace_family": 1, "build_projection": 2,
          "bath_correlation": 1, "_covariance_defect": 1, "lamb_shift": 3,
          "trace_pairing_adjoint": 1 + 3 * 2, "_gram": 0}),
        (BASE_QFGR, ("lambda = 0.5 0.25", "lambda = 0.5 0.25 0.1"),
         {"partial_trace_family": 0, "build_projection": 1,
          "bath_correlation": 0, "_covariance_defect": 1, "lamb_shift": 3,
          "trace_pairing_adjoint": 1 + 3 * 2, "_gram": 0}),
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

    def test_dual_path_mismatch_is_recorded(self, tmp_path, monkeypatch,
                                            capsys):
        # doubled connected weights in the line sum only: the specialized
        # generator keeps its Lindblad form, so only the dual path fails
        init = scenarios.PreparedHeatBath.__init__

        def doubled(self, m):
            init(self, m)
            self.corr.connected_weights = 2.0 * self.corr.connected_weights
        monkeypatch.setattr(scenarios.PreparedHeatBath, "__init__", doubled)
        cfg = write_config(tmp_path, golden_config("heat-bath-qutrit").replace(
            "lambda = 0.45", "lambda = 0.45 0.2"))
        assert main(["--out-dir", str(tmp_path), "run", cfg]) == 1
        assert "dual-path generator mismatch" in capsys.readouterr().err
        payload = json.loads((tmp_path / "heat-bath-qutrit.json").read_text())
        assert payload["passed"] is False and len(payload["results"]) == 2
        for res, expected in zip(payload["results"], (0.347, 0.0548)):
            residual = res["extras"]["dual_path_residual"]
            assert residual == pytest.approx(expected, rel=2e-3)
            assert res["failures"] == [
                f"dual-path generator mismatch: {residual:.3e}"]

    # The remaining invariant failures of a coupling, each injected at the
    # cli function that produces its witness: exactly that failure is
    # recorded, in the JSON and on stderr, and both outputs are written.
    @pytest.mark.parametrize("name, fault, message", [
        ("is_psd", lambda res: res._replace(min_eig=-1e-3),
         "Choi minimum eigenvalue -1.000e-03"),
        ("evolve", lambda traj: replace(
            traj, min_eig=np.append(traj.min_eig[:-1], -1e-3)),
         "state eigenvalue -1.000e-03 < -1e-9"),
        ("qds_certificate", lambda cert: replace(cert, passed=False),
         "semigroup certificate failed"),
    ], ids=["choi", "state", "certificate"])
    def test_single_fault_is_recorded(self, tmp_path, monkeypatch, capsys,
                                      name, fault, message):
        original = getattr(cli, name)
        monkeypatch.setattr(cli, name,
                            lambda *args, **kw: fault(original(*args, **kw)))
        cfg = write_config(tmp_path, BASE_QFGR)
        assert main(["--out-dir", str(tmp_path), "run", cfg]) == 1
        assert len((tmp_path / "out.csv").read_text().splitlines()) == 1 + 2 * 4
        payload = json.loads((tmp_path / "out.json").read_text())
        assert payload["passed"] is False
        assert [res["failures"] for res in payload["results"]] == [[message]] * 2
        assert capsys.readouterr().err.splitlines() == [
            f"invariant failure (lambda={lam}): {message}" for lam in (0.5, 0.25)]

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

    def test_output_subdirectories_are_created(self, tmp_path):
        cfg = write_config(tmp_path, BASE_QFGR.replace(
            "csv = out.csv", "csv = sub/out.csv").replace(
            "json = out.json", "json = sub/deeper/../x/out.json"))
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), "run", cfg]) == 0
        assert (out / "sub" / "out.csv").is_file()
        assert (out / "sub" / "x" / "out.json").is_file()
        assert sorted(os.listdir(out / "sub")) == ["out.csv", "x"]

    def test_working_directory_is_the_default(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, BASE_QFGR)
        monkeypatch.delenv("CGLIND_OUT_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        assert main(["run", cfg]) == 0
        assert (tmp_path / "out.csv").is_file()
        assert (tmp_path / "out.json").is_file()

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
