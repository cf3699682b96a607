"""Regenerate the stored reference outputs from the current sources.

    python3 perfbench/make_reference.py [WORKLOAD ...]

The reference is the correctness gate of the benchmark: only rerun
this when the program's outputs are meant to change, and say so.
Each workload runs once per seed of REFERENCE_SEEDS in a fresh child.
The CLI CSVs do not depend on the seed and are stored once; the script
stops if they differ between seeds.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

REFERENCE_SEEDS = (0, 1)
WORK_DIR = os.path.join(ROOT, ".perfbench-work")


def dump(workload: str, seed: int) -> dict:
    os.makedirs(WORK_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="reference-", dir=WORK_DIR) as workdir:
        out = os.path.join(workdir, "dump.json")
        subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"),
             "--workload", workload, "--seed", str(seed), "--workdir", workdir,
             "--result", os.path.join(workdir, "unused.json"), "--dump", out],
            cwd=ROOT, check=True)
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)


def reference_for(workload: str) -> dict:
    by_seed = {str(seed): dump(workload, seed) for seed in REFERENCE_SEEDS}
    if workload not in workloads.CLI_CONFIGS:
        return by_seed
    csv = {}
    for seed, configs in by_seed.items():
        for preset, out in configs.items():
            if csv.setdefault(preset, out["csv"]) != out["csv"]:
                raise SystemExit(f"{workload}/{preset}: CSV depends on the seed")
    return {"csv": csv,
            "json": {seed: {p: out["json"] for p, out in configs.items()}
                     for seed, configs in by_seed.items()}}


def main(argv) -> int:
    names = argv or list(workloads.WORKLOADS)
    os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
    for name in names:
        ref = reference_for(name)
        path = os.path.join(HERE, "reference", f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
