"""Workload definitions shared by the input generator, the worker and the runner.

Each workload names the ``hdcp`` command line it drives and, for the detect
workloads, the synthetic series generated from the benchmark seed with
``hdcp.generate_series``. Importing this module imports nothing heavy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

SIZE_CONFIG = "configs/table1_size_m2.cfg"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                        # "detect" or "simulate"
    m_arg: Optional[str] = None         # value of ``hdcp detect --m``
    n: int = 0
    p: int = 0
    m_true: int = 0
    change_points: tuple[int, ...] = ()
    deltas: tuple[float, ...] = (0.0,)

    def argv(self, root: str, seed: int, input_path: Optional[str]) -> list[str]:
        """Arguments for ``hdcp.cli.main`` on this workload."""
        if self.command == "detect":
            return ["detect", "--m", self.m_arg, "--input", input_path]
        return ["simulate", "--config", f"{root}/{SIZE_CONFIG}", "--seed", str(seed)]


WORKLOADS = {
    w.name: w
    for w in (
        # p >> n: the Gram pass, text parsing and the per-segment trace
        # tables of binary segmentation; the elbow is not used.
        Workload("detect_fixed", "detect", m_arg="2", n=800, p=1600, m_true=2,
                 change_points=(200, 500), deltas=(0.0, 1.0, 0.0)),
        # small p, constant mean: the elbow (h_max = 10) dominates.
        Workload("detect_auto", "detect", m_arg="auto", n=800, p=100, m_true=2),
        # paper Table 1 (n=100, p=200, M=2, 500 reps): many small calls.
        Workload("simulate_size", "simulate"),
    )
}
