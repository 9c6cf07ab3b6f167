"""Output checks for the benchmark workloads.

Every report is checked against invariants that hold for any seed:

- ``detect_fixed``: each planted change point (200, 500) has an estimate
  within ``CP_TOLERANCE`` time points. Binary segmentation may add further
  points; they do not fail the check.
- ``detect_auto``: the elbow picks ``m_used == 2`` (the generator order).
- ``simulate_size``: the rejection rate lies in a binomial band around the
  nominal 0.05, from 0.05 - 3 se to 0.05 + 6 se with se = sqrt(0.05 * 0.95 /
  reps) (about [0.021, 0.109] at 500 reps). The upper side is wider because
  the global test over-rejects at n = 100 (the mean rate over seeds 1-8 is
  about 0.068; the acceptance test AC04 gates this design at 0.09).

For the seed recorded in ``reference.json`` the report's summary must also
match the reference: discrete fields (change points, ``m_used``, segment
statuses, reject flags, rejection rate, degenerate count) exactly; float
fields within ``REL_TOL`` times the largest magnitude in the same field.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import WORKLOADS

REFERENCE = Path(__file__).with_name("reference.json")
REL_TOL = 1e-6
CP_TOLERANCE = 20
NOMINAL_SIZE = 0.05
SEGMENT_KEYS = ("tested", "skipped_short", "skipped_infeasible", "degenerate")


def size_band(reps: int) -> tuple[float, float]:
    se = math.sqrt(NOMINAL_SIZE * (1.0 - NOMINAL_SIZE) / reps)
    return NOMINAL_SIZE - 3.0 * se, NOMINAL_SIZE + 6.0 * se


def summarize(workload: str, report: dict) -> dict:
    """Fields of a report that are compared against the reference.

    ``exact`` holds the discrete fields, ``floats`` lists of floats.
    """
    if workload == "simulate_size":
        res = report["results"]
        return {
            "exact": {"rejection_rate": res["rejection_rate"],
                      "degenerate_count": res["degenerate_count"],
                      "reps": res["design"]["reps"]},
            "floats": {"std_error": [res["std_error"]]},
        }
    tested = [s for s in report["segments"] if s["outcome"] is not None]
    elbow = report["elbow"]
    return {
        "exact": {
            "change_points": report["change_points"],
            "m_used": report["settings"]["m_used"],
            "global_reject": report["global_test"]["reject"],
            "segments": [[s["lo"], s["hi"], s["status"], s["argmax"]]
                         for s in report["segments"]],
            "segment_rejects": [s["outcome"]["reject"] for s in tested],
            "saturated": None if elbow is None else elbow["saturated"],
        },
        "floats": {
            "global_zscore": [report["global_test"]["zscore"]],
            "global_variance": [report["global_test"]["variance"]],
            "segment_zscores": [s["outcome"]["zscore"] for s in tested],
            "l_trace": report["l_trace"],
            "w_hat": [] if elbow is None else elbow["w_hat"],
        },
    }


def segment_counts(report: dict) -> dict:
    """Segment records of a detect report by outcome class."""
    segments = report.get("segments", [])
    counts = {"tested": sum(s["outcome"] is not None for s in segments)}
    counts.update({key: sum(s["status"] == key for s in segments) for key in SEGMENT_KEYS[1:]})
    return counts


def _invariant_problems(workload: str, report: dict) -> list[str]:
    if workload == "detect_fixed":
        found = report["change_points"]
        return [
            f"planted change point {cp} not recovered within {CP_TOLERANCE}: {found}"
            for cp in WORKLOADS[workload].change_points
            if not any(abs(est - cp) <= CP_TOLERANCE for est in found)
        ]
    if workload == "detect_auto":
        m_used, m_true = report["settings"]["m_used"], WORKLOADS[workload].m_true
        return [] if m_used == m_true else [f"elbow picked m_used={m_used}, expected {m_true}"]
    res = report["results"]
    lo, hi = size_band(res["design"]["reps"])
    rate = res["rejection_rate"]
    return [] if lo <= rate <= hi else [f"size {rate} outside [{lo:.4f}, {hi:.4f}]"]


def _reference_problems(summary: dict, ref: dict) -> list[str]:
    problems = [
        f"{key}: {summary['exact'][key]!r} != reference {value!r}"
        for key, value in ref["exact"].items()
        if summary["exact"][key] != value
    ]
    for key, ref_values in ref["floats"].items():
        got = summary["floats"][key]
        scale = max((abs(v) for v in ref_values), default=0.0)
        if len(got) != len(ref_values) or any(
            abs(g - r) > REL_TOL * scale for g, r in zip(got, ref_values)
        ):
            problems.append(f"{key} differs from the reference beyond {REL_TOL:g} relative")
    return problems


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def check_report(workload: str, seed: int, text: str, reference: dict) -> list[str]:
    """Problems found in one report text; empty when it passes."""
    try:
        report = json.loads(text)
        problems = _invariant_problems(workload, report)
        ref = reference.get(workload)
        if ref is not None and ref["seed"] == seed:
            problems += _reference_problems(summarize(workload, report), ref["summary"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]
    return problems
