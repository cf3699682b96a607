"""The config contract, ``cli.FIELDS``: the README lists exactly its keys,
and configs drawn from it exit as the contract says."""

import contextlib
import io
import os
import re
import tempfile

from hypothesis import given, settings, strategies as st

from cglind.cli import FIELDS, INLINE, MODES, main

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
ROW = re.compile(r"^\| `\[(\w+)\]\.(\w+)` \| ([^|]+) \| [^|]+ \| ([^|]+) \|$")

settings.register_profile("config-contract", derandomize=True, database=None,
                          deadline=None)
CONTRACT = settings.get_profile("config-contract")


def _readme_rows():
    with open(README, encoding="utf-8") as fh:
        return [m.groups() for m in map(ROW.match, fh.read().splitlines()) if m]


def test_readme_lists_every_field():
    listed = {(section, key): (default.strip(), where.strip())
              for section, key, default, where in _readme_rows()}
    expected = {(f.section, f.key): (
        "required" if f.default is ... else "none" if f.default is None
        else f"`{f.default}`", f.when or "always") for f in FIELDS}
    assert listed == expected


def test_readme_example_validates(tmp_path, capsys):
    with open(README, encoding="utf-8") as fh:
        example = fh.read().split("```ini\n")[1].split("```")[0]
    path = tmp_path / "example.ini"
    path.write_text(example)
    assert main(["validate", str(path)]) == 0, capsys.readouterr().err


# Scenario-section keys of each model a valid draw may use: the presets
# small enough for a quick run, and one inline model of each kind.
MATRIX_2X2 = {
    "h0": "2 2\n0.3 0  0 0\n0 0  -0.5 0",
    "hp": "2 2\n0.2 0  0.7 0\n0.7 0  -0.1 0",
    "h_a": "2 2\n0.5 0  0 0\n0 0  -0.5 0",
    "h_b": "2 2\n0 0  0 0\n0 0  1 0",
    "q": "2 2\n0 0  1 0\n1 0  0 0",
    "phi": "2 2\n0 0  1 0\n1 0  0 0",
}
MODELS = [
    {"kind": "qfgr", "preset": "two-sector-qubit"},
    {"kind": "qfgr", "preset": "qfgr-two-blocks"},
    {"kind": "heat_bath", "preset": "heat-bath-qutrit"},
    {"kind": "heat_bath", "preset": "qubit-gibbs"},
    {"kind": "qfgr", "sector_dims": "1 1", "h0": MATRIX_2X2["h0"],
     "hp": MATRIX_2X2["hp"]},
    {"kind": "heat_bath", "beta": "1.0",
     **{k: MATRIX_2X2[k] for k in ("h_a", "h_b", "q", "phi")}},
]
# Valid values of every key; short time grids keep each run quick.
VALID = {
    **{key: [raw] for model in MODELS for key, raw in model.items()
       if key not in ("kind", "preset")},
    "lambda": ["0.5", "0.3", "-0.4", "0.5 0.25"],
    "xi": ["0.5", "1.0", "1.5"],
    "t_ref": ["0.8", "1.2"],
    "mode": ["explicit", "auto"],
    "start": ["0.0", "0.5"],
    "stop": ["2.0", "5.0"],
    "count": ["1", "3"],
    "tau_bar": ["0.05", "0.2"],
    "seed": ["0", "3"],
    "csv": ["a.csv", "sub.csv", "sub/a.csv"],
    "json": ["a.json", "sub/b.json"],
}
# Values each key rejects on its own (json also: the CSV's own name, below).
BROKEN = {
    "kind": ["custom", "QFGR"],
    "preset": ["nope"],
    **{key: ["2 2\n1 0", "2 x\n1 0"] for key in MATRIX_2X2},
    "sector_dims": ["1 x", "5 5"],
    "beta": ["nan", "warm"],
    "lambda": ["0", "", "0.5 0", "inf"],
    "xi": ["0", "2", "-inf"],
    "t_ref": ["0", "-1.5", "nan"],
    "mode": ["sideways"],
    "start": ["-1", "soon"],
    "stop": ["-0.5", "inf"],
    "count": ["0", "1.5"],
    "tau_bar": ["0", "-0.1", "nan"],
    "seed": ["-1", "x"],
    "csv": ["", "sub/", "."],
    "json": ["..", "sub/."],
}


def test_strategies_cover_fields():
    keys = {f.key for f in FIELDS}
    assert {k for model in MODELS for k in model} | set(VALID) == keys
    assert set(BROKEN) == keys


def _holds(cfg):
    """The ``when`` values of FIELDS that hold for ``cfg``; "" always does."""
    mode = cfg.get(("time", "mode"), "explicit")
    kind = cfg[("scenario", "kind")]
    return {"", MODES[mode], "" if ("scenario", "preset") in cfg else INLINE[kind]}


@st.composite
def valid_configs(draw):
    """{(section, key): raw} of a config that validates."""
    model = draw(st.sampled_from(MODELS))
    cfg = {("scenario", key): raw for key, raw in model.items()}
    for f in FIELDS:
        if f.section == "scenario" or f.when not in _holds(cfg):
            continue
        if f.default is ... or draw(st.booleans()):
            cfg[(f.section, f.key)] = draw(st.sampled_from(VALID[f.key]))
    return cfg


def _outputs(cfg):
    defaults = {f.key: f.default for f in FIELDS if f.section == "output"}
    return [os.path.normpath(cfg.get(("output", key), defaults[key]))
            for key in ("csv", "json")]


def _render(cfg):
    sections = {}
    for (section, key), raw in cfg.items():
        value = "\n    ".join(raw.split("\n"))
        sections.setdefault(section, []).append(f"{key} = {value}")
    return "\n".join(f"[{section}]\n" + "\n".join(lines) + "\n"
                     for section, lines in sections.items())


def _run(text):
    """(exit code, stderr, files written below the output directory) of
    ``cglind run`` on ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "cfg.ini"), os.path.join(tmp, "out")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(["--out-dir", out, "run", path])
        written = sorted(os.path.relpath(os.path.join(root, name), out)
                         for root, _, names in os.walk(out) for name in names)
    return code, err.getvalue(), written


@settings(CONTRACT, max_examples=12)
@given(valid_configs())
def test_valid_draw_writes_both_outputs(cfg):
    code, err, written = _run(_render(cfg))
    assert code in (0, 1), err
    assert written == sorted(_outputs(cfg))


@settings(CONTRACT, max_examples=100)
@given(valid_configs(), st.data())
def test_one_broken_field_is_named(cfg, data):
    # a rejected value, a missing required key, or a key that does not
    # apply to this config; the broken field is named and nothing written
    fields = {(f.section, f.key): f for f in FIELDS}
    present = sorted(cfg)
    inapplicable = sorted(n for n in set(fields) - set(cfg)
                          if fields[n].when not in _holds(cfg))
    how = data.draw(st.sampled_from(["value", "missing", "inapplicable"]))
    if how == "value":
        name = data.draw(st.sampled_from(present))
        csv = _outputs(cfg)[0]
        cfg[name] = data.draw(st.sampled_from(BROKEN[name[1]] + (
            [csv, "./" + csv] if name[1] == "json" else [])))
    elif how == "missing":
        name = data.draw(st.sampled_from(
            [n for n in present if fields[n].default is ...]))
        del cfg[name]
    else:
        name = data.draw(st.sampled_from(inapplicable))
        cfg[name] = VALID[name[1]][0]
    code, err, written = _run(_render(cfg))
    assert code == 2
    assert f"config error: [{name[0]}].{name[1]}: " in err
    assert written == []


def _misspellings(word):
    return {word + "s", word[:-1], word + word[-1], word[1:] + word[0]} - {""}


@settings(CONTRACT, max_examples=50)
@given(valid_configs(), st.data())
def test_misspelled_key_or_section_exits_2(cfg, data):
    section, key = data.draw(st.sampled_from(sorted(cfg)))
    sections = {f.section for f in FIELDS}
    if data.draw(st.booleans()):
        taken = {f.key for f in FIELDS if f.section == section}
        wrong = data.draw(st.sampled_from(sorted(_misspellings(key) - taken)))
        cfg[(section, wrong)] = cfg.pop((section, key))
        named = f"[{section}].{wrong}"
    else:
        wrong = data.draw(st.sampled_from(
            sorted(_misspellings(section) - sections)))
        cfg = {(wrong if s == section else s, k): v for (s, k), v in cfg.items()}
        named = f"[{wrong}]"
    code, err, written = _run(_render(cfg))
    assert code == 2
    assert f"config error: {named}: " in err
    assert written == []
