"""Count the deterministic work of a workload's inputs, to screen seeds.

The input-seed pools in ``expected.json`` hold seeds whose workloads
make about the same number of Python function calls.  This script
prints that count (``sys.setprofile`` "call" events) per seed, the way
the pools were screened: ``table2``/``fig6`` count the whole artifact
(``Study(plan, workers=1).run().format()``), ``campaign`` counts
``run_spec`` over its 500 specs.  Counts do not depend on the host.

Usage, from the root of a checkout (slow: profiling costs about 4x)::

    python3 perfbench/screen.py --workload fig6 --seeds 0 13 845
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def _job(workload: str, seed: int):
    """A zero-argument callable that runs the workload's inputs."""
    from repro.campaign.runner import run_spec

    from tracer import Tracer
    from workload import StudyWorkload, campaign_specs

    if workload == "campaign":
        specs = campaign_specs(seed)
        return lambda: [run_spec(spec) for spec in specs]
    study = StudyWorkload(workload, seed, False, HERE)
    study.setup(Tracer())
    return lambda: study.study.run().format()


def count_calls(workload: str, seed: int) -> int:
    job = _job(workload, seed)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        job()
    finally:
        sys.setprofile(None)
    return calls


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=("table2", "fig6", "campaign"))
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)
    for seed in args.seeds:
        calls = count_calls(args.workload, seed)
        print(json.dumps({"seed": seed, "calls": calls}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
