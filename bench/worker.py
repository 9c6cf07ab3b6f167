"""Run one workload's ``hdcp`` calls in this fresh process and report them.

Usage: python3 bench/worker.py --root DIR --workload NAME --seed N
           --seconds S --trace 0|1 [--input FILE]

``hdcp`` must be importable from ``DIR/src`` (the runner sets PYTHONPATH).
The program is driven only through ``hdcp.cli.main``; its report goes to an
in-memory buffer. Calls repeat until S seconds have passed (at least one).
With ``--trace 1`` untraced and traced calls alternate, and each traced
call records spans through ``tracer.Tracer``.

The last line of standard output is one JSON object: per call the exit
code, wall seconds, whether it was traced and the SHA-256 of its report;
each distinct report once; per traced call its profile; the peak resident
memory of this process; and the numeric library environment.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

import numpy as np
import scipy

import hdcp
import hdcp.cli

from tracer import Tracer
from workloads import WORKLOADS


def _blas_threads():
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs",
                                  "libscipy_openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        fn = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def run_call(argv: list[str]) -> tuple[object, float, str]:
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = hdcp.cli.main(argv)
    except Exception:  # an escaped traceback is a failed call, not a crash
        traceback.print_exc()
        rc = "exception"
    return rc, time.perf_counter() - start, buf.getvalue()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--input", default=None)
    args = parser.parse_args()

    src = os.path.realpath(os.path.join(args.root, "src"))
    if os.path.commonpath([src, os.path.realpath(hdcp.__file__)]) != src:
        sys.exit(f"hdcp imported from {hdcp.__file__}, not from {src}")

    argv = WORKLOADS[args.workload].argv(args.root, args.seed, args.input)
    calls, reports, profiles = [], {}, []
    start = time.perf_counter()
    while True:
        for traced in ((False, True) if args.trace else (False,)):
            if traced:
                with Tracer() as tracer:
                    rc, seconds, text = run_call(argv)
                profiles.append(tracer.profile())
            else:
                rc, seconds, text = run_call(argv)
            digest = hashlib.sha256(text.encode()).hexdigest()
            reports.setdefault(digest, text)
            calls.append({"rc": rc, "s": seconds, "traced": traced, "digest": digest})
        if time.perf_counter() - start >= args.seconds:
            break

    result = {
        "hdcp_file": hdcp.__file__,
        "environment": environment(),
        "calls": calls,
        "reports": reports,
        "profiles": profiles,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
