"""Where a vector batch starts to beat the scalar loop.

Runs the same periodic scenario specs two ways — each through
:func:`~repro.campaign.runner.run_spec`, and in slices of W specs
through :func:`~repro.campaign.runner.run_scenario_batch` — and prints
the batch's CPU time relative to the scalar loop for each width W
(``time.process_time``, median of ``--reps`` alternating repetitions,
so other processes on a shared host matter less).  A ratio below 1
means the batch is faster.  The campaign runner's
``runner.MIN_LANES`` is set from this crossover.

Spec families (``--specs``):

* ``table2`` — ``table2_plan(n_sets=10)``, 50 specs;
* ``fig6`` — ``fig6_plan()``, 75 specs, 15 of them near-optimal
  references;
* ``campaign`` — 20 seeds x the five paper schemes, n_graphs=2,
  u=0.7, kibam, as the ``campaign`` CLI builds them.

Run::

    PYTHONPATH=src python benchmarks/bench_lanes.py --specs table2 \\
        --widths 10,16,20,25,50
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # allow standalone runs without PYTHONPATH
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.api.plans import PAPER_SCHEME_NAMES, fig6_plan, table2_plan
from repro.campaign.runner import run_scenario_batch, run_spec
from repro.campaign.spec import ScenarioSpec, spawn_seeds


def family(name):
    if name == "table2":
        return table2_plan(n_sets=10).sweep.expand_with_meta()[0]
    if name == "fig6":
        return fig6_plan().sweep.expand_with_meta()[0]
    return [
        ScenarioSpec(
            scheme=scheme, n_graphs=2, utilization=0.7, battery="kibam",
            on_miss="record", seed=seed,
        )
        for seed in spawn_seeds(7, 20)
        for scheme in PAPER_SCHEME_NAMES
    ]


def cpu_s(fn):
    t0 = time.process_time()
    fn()
    return time.process_time() - t0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--specs", choices=("table2", "fig6", "campaign"),
                    default="table2")
    ap.add_argument("--widths", default="2,5,10,20,50")
    ap.add_argument("--reps", type=int, default=3)
    args = ap.parse_args(argv)
    specs = family(args.specs)
    run_scenario_batch(list(enumerate(specs[:2])))  # warm imports
    for width in (int(w) for w in args.widths.split(",")):
        n = len(specs) // width * width
        sub = list(enumerate(specs[:n]))
        ratios = []
        for _ in range(args.reps):
            scalar = cpu_s(lambda: [run_spec(s) for _, s in sub])
            vector = cpu_s(lambda: [
                run_scenario_batch(sub[k:k + width])
                for k in range(0, n, width)
            ])
            ratios.append(vector / scalar)
        print(
            f"{args.specs} W={width:3d} n={n:3d} batch/scalar "
            f"{statistics.median(ratios):.2f} "
            f"[{min(ratios):.2f}-{max(ratios):.2f}]",
            flush=True,
        )


if __name__ == "__main__":
    main()
