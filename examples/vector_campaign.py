#!/usr/bin/env python
"""The struct-of-arrays vector engine on a 256-scenario sweep.

A campaign of many small simulations is the repo's hot loop: Table 2
runs hundreds of scenarios per scheme.  This example times the same
five-scheme sweep two ways —

* scalar: every scenario through its own ``Simulator.run`` event
  loop;
* vector: one ``VectorEngine(...).run()``, which advances all
  scenarios lock-step as struct-of-arrays numpy state —

then proves the point of the design: the outcomes are *bit-identical*,
the vector engine is just faster.  The whole Table 2 grid is eligible
— EDF through BAS-2, stochastic 20-100% actuals included — so the
sweep runs with zero fallbacks.  It also shows the per-scenario
fallback that remains for genuinely inexpressible scenarios: a
custom actuals provider quietly takes the scalar path
(`unsupported_reason` names why) and still matches.

Run:  PYTHONPATH=src python examples/vector_campaign.py

Set ``REPRO_EXAMPLE_SCALE=smoke`` to shrink the sweep (CI runs every
example that way).
"""

import os
import time

import numpy as np

from repro.campaign import ScenarioSpec
from repro.campaign.runner import _build_scenario_sim
from repro.sim.vector import VectorEngine, unsupported_reason

SMOKE = os.environ.get("REPRO_EXAMPLE_SCALE") == "smoke"
N_SCENARIOS = 16 if SMOKE else 256
HYPERPERIODS = 2 if SMOKE else 4
SCHEMES = ("EDF", "ccEDF", "laEDF", "BAS-1", "BAS-2")


def build_scenarios():
    """Round-robin over all five Table 2 schemes with the paper's
    stochastic 20-100% actuals (hash-keyed per job, so the vector
    engine can pre-draw them)."""
    scenarios = []
    for k in range(N_SCENARIOS):
        spec = ScenarioSpec(
            scheme=SCHEMES[k % len(SCHEMES)],
            n_graphs=2,
            utilization=0.7,
            seed=k,
            on_miss="record",
        )
        sim, _ = _build_scenario_sim(spec)
        horizon = HYPERPERIODS * sim.task_set.hyperperiod()
        scenarios.append((sim, horizon))
    return scenarios


def main() -> None:
    print(f"sweep: {N_SCENARIOS} scenarios "
          f"({'/'.join(SCHEMES)} round-robin, stochastic actuals), "
          f"{HYPERPERIODS} hyperperiods each\n")

    # Eligibility first: every scheme row compiles to array form.
    for sim, horizon in build_scenarios()[:len(SCHEMES)]:
        assert unsupported_reason(sim, horizon) is None
    print("eligibility: all five Table 2 schemes vectorize "
          "(zero fallbacks)\n")

    t0 = time.perf_counter()
    scalar = [sim.run(horizon) for sim, horizon in build_scenarios()]
    t_scalar = time.perf_counter() - t0

    t0 = time.perf_counter()
    vector = VectorEngine(build_scenarios()).run()
    t_vector = time.perf_counter() - t0

    print(f"scalar engine: {t_scalar:7.3f} s")
    print(f"vector engine: {t_vector:7.3f} s "
          f"({t_scalar / t_vector:.2f}x)\n")

    # Identical means identical: every trace column, byte for byte.
    for s, v in zip(scalar, vector):
        ts, tv = s.trace, v.trace
        assert len(ts) == len(tv)
        for col in ("starts", "durations", "speeds", "currents"):
            assert np.array_equal(getattr(ts, col), getattr(tv, col))
        assert s.misses == v.misses
    print(f"checked: all {N_SCENARIOS} scenario traces bit-identical\n")

    # The fallback contract: anything the engine cannot express in
    # array form runs through the scalar engine inside the same batch.
    # Pre-drawing actuals is only legal for providers that are pure in
    # (graph, node, job) — a call-order-dependent one must fall back.
    def odd_sim():
        class EveryOtherCall:
            def __init__(self):
                self.calls = 0

            def __call__(self, graph, node, job_index, wc):
                self.calls += 1
                return wc if self.calls % 2 else 0.5 * wc

        sim, _ = _build_scenario_sim(
            ScenarioSpec(scheme="BAS-2", n_graphs=2, utilization=0.7,
                         seed=0)
        )
        sim.actuals = EveryOtherCall()
        return sim

    horizon = HYPERPERIODS * odd_sim().task_set.hyperperiod()
    reason = unsupported_reason(odd_sim(), horizon)
    print(f"call-order-dependent provider falls back: {reason!r}")
    mixed = VectorEngine(
        build_scenarios()[:2] + [(odd_sim(), horizon)]
    ).run()
    solo = odd_sim().run(horizon)
    assert mixed[2].completed_jobs == solo.completed_jobs
    assert mixed[2].charge == solo.charge
    print("mixed batch: fallback scenario matches its solo run")


if __name__ == "__main__":
    main()
