#!/usr/bin/env python3
"""Paper-scale serving benchmark: one command, one workload per run.

Usage, from the repository root::

    python3 perfbench/run.py --workload plan-cold --seed 1 --seconds 20 --trace 0

Prints human-readable report lines, then, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics, or with ``--trace 1`` the per-layer ones).  Exits 1 when a plan
disagrees with the scalar-dp oracle, and 2 when the program's source
(``src/repro``) is missing.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: the program's source is missing ({src}/repro)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]
    from perfbench import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(bench.WORKLOADS))
    return bench.run(args.workload, args.seed, args.seconds,
                     bool(args.trace), ROOT)


if __name__ == "__main__":
    sys.exit(main())
