"""Write the input matrix of a detect workload for one seed.

Usage: python3 bench/gen_inputs.py --workload NAME --seed N --out FILE

The series comes from ``hdcp.generate_series`` (the package is found on
PYTHONPATH). Values are written as shortest round-trip decimals, one time
point per comma-separated row, so ``hdcp detect`` parses them back exactly.
"""

from __future__ import annotations

import argparse

from hdcp import LinearProcessSpec, MeanProfile, generate_series

from workloads import WORKLOADS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    w = WORKLOADS[args.workload]
    spec = LinearProcessSpec(n=w.n, p=w.p, m_true=w.m_true, seed=args.seed)
    profile = MeanProfile(w.change_points, w.deltas, sign_seed=args.seed)
    series = generate_series(spec, profile)
    with open(args.out, "w") as fh:
        for row in series.values.tolist():
            fh.write(",".join(map(repr, row)))
            fh.write("\n")


if __name__ == "__main__":
    main()
