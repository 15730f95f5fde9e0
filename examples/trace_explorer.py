#!/usr/bin/env python
"""Trace explorer: watch the feasibility check reorder execution.

Reproduces the paper's Figure 5 walkthrough and renders both schedules
as ASCII timelines: canonical EDF on the left of time, and the
pUBS-preferred order guarded by the Algorithm 2 feasibility check.
Then it stress-tests the guard: the same greedy ordering *without* the
check starts missing deadlines once utilization climbs.

Run:  python examples/trace_explorer.py
"""

from repro import (
    CcEDF,
    LaEDF,
    PUBS,
    ALL_RELEASED,
    HistoryEstimator,
    SchedulingPolicy,
    Simulator,
    paper_processor,
    paper_task_set,
)
from repro.api.plans import fig5
from repro.workloads import UniformActuals


def figure5() -> None:
    result = fig5()
    print("=" * 72)
    print("Figure 5 — the paper's own trace example (fref = 0.5 fmax)")
    print("=" * 72)
    print(result.format())


def guard_stress() -> None:
    print()
    print("=" * 72)
    print("Why the feasibility check exists (greedy order, U = 0.92,")
    print("actuals 60-100% of WCET)")
    print("=" * 72)
    proc = paper_processor()
    for guarded in (True, False):
        misses = 0
        for seed in range(6):
            task_set = paper_task_set(4, utilization=0.92, seed=seed)
            actuals = UniformActuals(low=0.6, high=1.0, seed=seed)
            sim = Simulator(
                task_set,
                proc,
                LaEDF(),
                SchedulingPolicy(
                    PUBS(HistoryEstimator()),
                    ALL_RELEASED,
                    enforce_feasibility=guarded,
                ),
                actuals=actuals,
                on_miss="record",
            )
            misses += len(sim.run(task_set.hyperperiod()).misses)
        label = "with feasibility check" if guarded else "without"
        print(f"  {label:24s} -> {misses} deadline misses over 6 sets")


def main() -> None:
    figure5()
    guard_stress()


if __name__ == "__main__":
    main()
