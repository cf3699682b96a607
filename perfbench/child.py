"""One measured execution of a workload, in a fresh process.

Started by run.py; writes one JSON result file.  Set-up time runs from
the top of this file to the first timed call, so it covers importing
cglind and writing or drawing the workload's inputs.  Only cglind from
the checkout's ``src`` directory is accepted.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, HERE]

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

REFERENCE_DIR = os.path.join(HERE, "reference")
BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_record() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def load_reference(name: str):
    path = os.path.join(REFERENCE_DIR, f"{name}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None,
                        help="write the traced run's spans here (JSON lines)")
    parser.add_argument("--dump", default=None,
                        help="write the reference tree of the outputs here")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up; the result holds setup_s")
    args = parser.parse_args(argv)

    wl = workloads.make(args.workload, args.seed, args.workdir)
    wl.setup()
    setup_s = time.perf_counter() - T0
    origin = os.path.dirname(os.path.abspath(sys.modules["cglind"].__file__))
    if os.path.commonpath([origin, SRC]) != SRC:
        print(f"cglind imported from {origin}, not from {SRC}",
              file=sys.stderr)
        return 3
    if args.setup_only:
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump({"setup_s": setup_s}, fh)
        return 0

    tracer = tracing.Tracer() if args.trace else None
    with tracer.installed() if tracer is not None else nullcontext():
        start = time.perf_counter()
        raw = wl.run(tracer)
        run_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.dump:
        with open(args.dump, "w", encoding="utf-8") as fh:
            json.dump(wl.outputs(raw), fh)
        return 0
    ops, diagnostics = wl.check(raw, load_reference(args.workload))
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": ops,
        "diagnostics": diagnostics,
        "machine": machine_record(),
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        if args.spans:
            tracer.write_spans(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
