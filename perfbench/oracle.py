"""The correctness oracle: fresh scalar-dp plans, computed in a worker.

``python3 -m perfbench.oracle ROOT`` (run from ROOT with ``src`` on
``PYTHONPATH``) reads a pickled list of ``(spec, served)`` jobs on stdin,
where ``served`` is a pickled plan tree or ``None``.  For each job it plans
the spec afresh with :class:`repro.core.planner.Planner`,
``AccParScheme(backend="dp")``, a freshly parsed array and the spec's
profile, in a process that never served a request, and writes back the
oracle's root-level cost and the :func:`repro.plan.plan_diff` lines
between the served plan and the oracle's (pickled, in job order).
"""

from __future__ import annotations

import os
import pickle
import sys
from typing import List, Optional, Tuple

from perfbench import workloads
from perfbench.workloads import Spec


def oracle_plan(root: str, spec: Spec):
    """A fresh scalar-dp plan tree of ``spec``."""
    from repro.cli import parse_array
    from repro.core.planner import AccParScheme, Planner
    from repro.hardware.profile import load_profile
    from repro.models.registry import build_model

    profile = (load_profile(os.path.join(root, workloads.PROFILE_PATH))
               if spec.profiled else None)
    planner = Planner(parse_array(spec.array),
                      AccParScheme(backend="dp", profile=profile))
    return planner.plan(build_model(spec.model), spec.batch).plan


def check(root: str, spec: Spec,
          served: Optional[bytes]) -> Tuple[float, List[str]]:
    """The oracle's root cost, and its differences from ``served``."""
    from repro.plan import plan_diff

    oracle = oracle_plan(root, spec)
    diffs = [] if served is None else [
        str(d) for d in plan_diff(pickle.loads(served), oracle)]
    return oracle.level_plan.cost, diffs


def main() -> None:
    root = sys.argv[1]
    jobs = pickle.load(sys.stdin.buffer)
    results = [check(root, spec, served) for spec, served in jobs]
    pickle.dump(results, sys.stdout.buffer, protocol=pickle.HIGHEST_PROTOCOL)


if __name__ == "__main__":
    main()
