"""cglind benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a cglind checkout.  Each execution of the workload
runs in a fresh child process (perfbench/child.py), one at a time, in a
closed loop: the next child starts only after the previous one ended.
Children are started while less than ``--seconds`` have passed (at
least MIN_CHILDREN of them), so a run ends within one round's duration
after that.  Every end-to-end metric is the median over the children;
``setup_s`` also takes in SETUP_ONLY_PER_ROUND set-up-only children
after each measured one, because set-up time varies more from one
process to the next than run time does.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` untraced and traced
children alternate and the metrics are the per-layer ones from the
traced children, plus the tracing overhead.  Lines before it give each
metric with its unit, the failure count with its base, the CSV
byte-identity diagnostic and the machine record.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

WORK_DIR = os.path.join(ROOT, ".perfbench-work")
MIN_CHILDREN = 3          # untraced children per --trace 0 run
SETUP_ONLY_PER_ROUND = 2  # extra set-up samples per --trace 0 round
TIME_LIMIT_S = 170.0      # the whole run must end within 180 s

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))


def run_child(workload, seed, trace, deadline, spans=None,
              setup_only=False) -> dict:
    """Run one child to completion; returns its result, or a record of
    how it failed."""
    workdir = tempfile.mkdtemp(prefix="child-", dir=WORK_DIR)
    result_path = os.path.join(workdir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed), "--trace", str(trace),
           "--workdir", workdir, "--result", result_path]
    if spans:
        cmd += ["--spans", spans]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            return {"error": f"child exited {proc.returncode}: "
                    f"{proc.stderr.strip()[-2000:]}"}
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    except subprocess.TimeoutExpired:
        return {"error": "child timed out"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return result


def measure(args) -> tuple:
    """Run children until the measuring time is used; returns
    (untraced results, traced results, set-up-only times, failed
    children)."""
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    plain, traced, setups, broken = [], [], [], []
    spans = os.path.join(WORK_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    modes = (0, 1) if args.trace else (0,)
    minimum = 1 if args.trace else MIN_CHILDREN
    rounds, longest = 0, 0.0
    while True:
        elapsed = time.monotonic() - start
        if rounds >= minimum and elapsed >= args.seconds:
            break
        if rounds and elapsed + longest > TIME_LIMIT_S:
            break
        began = time.monotonic()
        for mode in modes:
            res = run_child(args.workload, args.seed, mode, deadline,
                            spans if mode else None)
            if "error" in res:
                broken.append(res["error"])
            else:
                (traced if mode else plain).append(res)
        for _ in range(0 if args.trace else SETUP_ONLY_PER_ROUND):
            res = run_child(args.workload, args.seed, 0, deadline,
                            setup_only=True)
            if "error" in res:
                broken.append(res["error"])
            else:
                setups.append(res["setup_s"])
        rounds += 1
        longest = max(longest, time.monotonic() - began)
        if broken and not (plain or traced):
            break
    return plain, traced, setups, broken


def median(results, key):
    return statistics.median(r[key] for r in results)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cglind", "__init__.py")):
        print(f"perfbench: no cglind sources under {os.path.join(ROOT, 'src')}; "
              "run from the root of a cglind checkout", file=sys.stderr)
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)

    plain, traced, setups, broken = measure(args)
    samples = {name: [r[name] for r in plain] for name, _ in END_TO_END}
    samples["setup_s"] += setups
    done = plain + traced
    if not plain or (args.trace and not traced):
        for err in broken:
            print(f"perfbench: {err}", file=sys.stderr)
        return 1

    per_child = workloads.op_count(args.workload)
    attempted = per_child * (len(done) + len(broken))
    failures = [(op, why) for r in done for op, why in r["ops"] if why]
    failed = len(failures) + per_child * len(broken)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"children {len(plain)} untraced, {len(traced)} traced")
    for name, unit in END_TO_END:
        values = samples[name]
        print(f"{name} = {statistics.median(values):.6g} {unit}  "
              f"(median of {len(values)}; "
              f"min {min(values):.6g}, max {max(values):.6g})")
    print(f"failed_frac = {failed}/{attempted} operations")
    for op, why in failures[:10]:
        print(f"  FAILED {op}: {why}")
    for err in broken:
        print(f"  FAILED child: {err}")
    diagnostics = {"untraced": plain[-1]["diagnostics"]}
    if traced:
        diagnostics["traced"] = traced[-1]["diagnostics"]
    print(json.dumps({"diagnostics": diagnostics,
                      "machine": plain[-1]["machine"]}, sort_keys=True))

    if args.trace:
        layers = tracing.median_summary([r["layers"] for r in traced])
        base = median(plain, "run_s")
        layers[tracing.OVERHEAD_METRIC] = (median(traced, "run_s") - base) / base
        units = {name: unit for name, unit, _ in tracing.metric_table()}
        metrics = {k: {"value": layers[k], "unit": units[k]} for k in units}
        print(f"spans written to {os.path.relpath(WORK_DIR, ROOT)}/")
    else:
        metrics = {name: {"value": statistics.median(samples[name]),
                          "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
