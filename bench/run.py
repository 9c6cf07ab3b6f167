"""Benchmark of the ``hdcp`` command line: one workload per invocation.

Usage (from the repository root):

    python3 bench/run.py --workload detect_fixed|detect_auto|simulate_size
                         --seed N --seconds S --trace 0|1 [--record-reference]

Each invocation starts fresh processes, all inside this checkout:

1. for the detect workloads, ``gen_inputs.py`` writes the seed's input
   matrix into a temporary directory under ``.bench_tmp/``;
2. ``worker.py`` imports ``hdcp`` from ``src/`` and calls ``hdcp.cli.main``
   until S seconds have passed (``HDCP_WORKERS`` unset, default BLAS
   threads);
3. with ``--trace 0``, five bare interpreters time the import of ``hdcp.cli``
   (``setup_s``).

Every report is checked (see ``checks.py``); a call fails on a nonzero exit
code, a failed check, or a report that differs from the run's first one.
With ``--trace 0`` the result carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of the traced calls, whose call counts
must satisfy the coverage identities in ``identity_problems``.

Human-readable lines come first; the last line of standard output is the
JSON result. The exit code is 0 only when every call passed.
``--record-reference`` stores the run's report summary as the reference for
its workload and seed.
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
from pathlib import Path

import checks
from tracer import COMPUTED, SPAN_NAMES
from workloads import SIZE_CONFIG, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 5
DEADLINE_S = 170.0

SETUP_PROBE = (
    "import time\n"
    "import hdcp.cli\n"
    "t = time.time()\n"
    "print(hdcp.cli.__file__)\n"
    "print(repr(t))\n"
)


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(COMPUTED)
    for key in checks.SEGMENT_KEYS:
        units[f"inference.segments.{key}"] = "count"
    units["trace.call_s"] = "s"
    units["trace_overhead_frac"] = "ratio"
    return units


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("HDCP_WORKERS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_child(args: list[str], deadline: float) -> str:
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(), capture_output=True,
        text=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{Path(args[0]).name} exited with code {proc.returncode}")
    sys.stderr.write(proc.stderr)
    return proc.stdout


def measure_setup(deadline: float) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.time()
        path, stamp = run_child(["-c", SETUP_PROBE], deadline).split()
        if not Path(path).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"hdcp.cli imported from {path}, not from {ROOT / 'src'}")
        samples.append(float(stamp) - start)
    return samples


def l3_bytes():
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=10).stdout.strip()
        return int(out) if out.isdigit() else None
    except (OSError, subprocess.SubprocessError):
        return None


def parse_report(text: str) -> dict:
    try:
        return json.loads(text)
    except ValueError:
        return {}


def call_counts(profile: dict) -> dict:
    return {name: span["calls"] for name, span in profile["spans"].items()}


def identity_problems(workload: str, profile: dict, report: dict) -> list[str]:
    """Coverage identities between the traced call counts and the report."""
    calls = call_counts(profile)
    problems = []

    def expect(name: str, want: int) -> None:
        if calls[name] != want:
            problems.append(f"{name}.calls = {calls[name]}, expected {want}")

    if workload == "detect_fixed":
        seg = checks.segment_counts(report)
        # each tested segment, and each segment found infeasible while its
        # trace table was built, computed one Gram; cmd_detect and
        # test_global add one Gram, test_global one trace table
        reached = seg["tested"] + seg["skipped_infeasible"]
        expect("engine.compute_gram", 2 + reached)
        expect("engine.build_trace_table", 1 + reached)
    elif workload == "detect_auto":
        expect("engine.trace_product_estimate", len(report["elbow"]["h"]))
    else:
        reps = report["results"]["design"]["reps"]
        expect("simulator.generate_series", reps)
        expect("inference.test_global", reps)
    return problems


def layer_metrics(profiles: list[dict], traced_s: list[float], untraced_s: list[float],
                  report: dict) -> dict:
    first = profiles[0]
    values = {}
    for name in SPAN_NAMES:
        values[f"{name}.calls"] = first["spans"][name]["calls"]
        values[f"{name}.self_s"] = statistics.median(p["spans"][name]["self_s"] for p in profiles)
    values.update(first["counters"])
    for key, count in checks.segment_counts(report).items():
        values[f"inference.segments.{key}"] = count
    values["trace.call_s"] = statistics.median(traced_s)
    values["trace_overhead_frac"] = statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    units = per_layer_units()
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def collect(workload, args, deadline: float) -> tuple[dict, list[float], str]:
    """Generate the input, run the worker and time the imports."""
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=ROOT / ".bench_tmp"))
    try:
        input_args, input_desc = [], SIZE_CONFIG
        if workload.command == "detect":
            path = tmp / "input.csv"
            run_child([str(BENCH_DIR / "gen_inputs.py"), "--workload", workload.name,
                       "--seed", str(args.seed), "--out", str(path)], deadline)
            input_args = ["--input", str(path)]
            input_desc = (f"n={workload.n} p={workload.p} generator M={workload.m_true} "
                          f"change points {list(workload.change_points)}, "
                          f"input {path.stat().st_size / 1e6:.1f} MB")
        out = run_child([str(BENCH_DIR / "worker.py"), "--root", str(ROOT),
                         "--workload", workload.name, "--seed", str(args.seed),
                         "--seconds", str(args.seconds), "--trace", str(args.trace),
                         *input_args], deadline)
        result = json.loads(out.strip().splitlines()[-1])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            (ROOT / ".bench_tmp").rmdir()
        except OSError:
            pass
    # per-layer runs report no setup time
    setup = [] if args.trace else measure_setup(deadline)
    return result, setup, input_desc


def check_calls(workload: str, seed: int, result: dict) -> tuple[int, list[str], dict]:
    """Count the failed calls; return them with the problems and the first report."""
    reports = result["reports"]
    reference = checks.load_reference()
    report_problems = {d: checks.check_report(workload, seed, text, reference)
                       for d, text in reports.items()}
    calls = result["calls"]
    first_digest = calls[0]["digest"]
    first_report = parse_report(reports[first_digest])
    profiles = iter(result["profiles"])
    first_counts = call_counts(result["profiles"][0]) if result["profiles"] else None
    failed, found = 0, set()
    for call in calls:
        problems = list(report_problems[call["digest"]])
        if call["rc"] != 0:
            problems.append(f"exit code {call['rc']}")
        if call["digest"] != first_digest:
            problems.append("report differs from the run's first report")
        if call["traced"]:
            profile = next(profiles)
            try:
                problems += identity_problems(workload, profile, first_report)
            except (KeyError, TypeError) as exc:
                problems.append(f"report lacks a field the identities need: {exc!r}")
            if call_counts(profile) != first_counts:
                problems.append("call counts differ between traced calls")
        failed += bool(problems)
        found.update(problems)
    return failed, sorted(found), first_report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()

    missing = [p for p in ("src/hdcp/cli.py", SIZE_CONFIG) if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {ROOT} lacks {', '.join(missing)}; run from an hdcp checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    result, setup, input_desc = collect(workload, args, time.monotonic() + DEADLINE_S)
    failed, problems, first_report = check_calls(workload.name, args.seed, result)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    calls = result["calls"]
    correct = failed == 0

    env = result["environment"]
    l3 = l3_bytes()
    print(f"workload {workload.name}, seed {args.seed}: {input_desc}")
    print(f"environment: nproc {len(os.sched_getaffinity(0))}, BLAS threads "
          f"{env['blas_threads']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"{env['blas']}, L3 {'unknown' if l3 is None else f'{l3 / 2**20:.0f} MiB'}")

    untraced_s = [c["s"] for c in calls if not c["traced"]]
    if args.trace:
        traced_s = [c["s"] for c in calls if c["traced"]]
        metrics = layer_metrics(result["profiles"], traced_s, untraced_s, first_report)
    else:
        reps = first_report.get("results", {}).get("design", {}).get("reps", 1)
        metrics = {
            "detect_s": {"value": statistics.median(untraced_s), "unit": "s"},
            "reps_per_s": {"value": statistics.median(reps / s for s in untraced_s), "unit": "1/s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    notes = {"detect_s": f"median of {len(untraced_s)} calls",
             "reps_per_s": f"median of {len(untraced_s)} calls",
             "setup_s": f"median of {len(setup)} imports"}
    notes.update(dict.fromkeys(COMPUTED, "computed, not measured"))
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>12.6g} {m['unit']:<6} {notes.get(name, '')}")
    print(f"  {'failed_frac':<40} {failed / len(calls):>12.6g} ratio  "
          f"{failed} of {len(calls)} calls failed")

    if args.record_reference and correct:
        stored = checks.load_reference()
        stored[workload.name] = {"seed": args.seed,
                                 "summary": checks.summarize(workload.name, first_report)}
        checks.REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")

    print(json.dumps({"correct": correct, "attempted": len(calls), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
