"""Campaign engine — sequential vs parallel wall-clock, identical results.

Runs one seeded 20-scenario campaign (4 schemes x 5 workloads,
battery-evaluated) twice: sequentially and across a worker pool, then
reports both wall-clocks and verifies the result frames are
bit-identical — the campaign engine's core guarantee.  Speedup tracks
the machine's core count (a single-core container shows parallel
*overhead*, not gain; the determinism check is meaningful
everywhere).

Also runnable standalone (the CI smoke test)::

    PYTHONPATH=src python benchmarks/bench_campaign.py \\
        --scenarios 8 --workers 2
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # allow standalone runs without PYTHONPATH
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.api import ResultFrame
from repro.campaign import (
    CampaignResult,
    CampaignRunner,
    ScenarioSpec,
    spawn_seeds,
)

SCHEMES = ("EDF", "ccEDF", "laEDF", "BAS-2")


def build_specs(n_scenarios: int, *, seed: int = 0, n_graphs: int = 3):
    """One battery-evaluated spec per (seeded workload, scheme)."""
    seeds = spawn_seeds(seed, n_scenarios)
    return [
        ScenarioSpec(
            scheme=scheme,
            n_graphs=n_graphs,
            seed=s,
            battery="stochastic",
        )
        for s in seeds
        for scheme in SCHEMES
    ]


def run_campaign(specs, n_workers: int, cache=None) -> CampaignResult:
    return CampaignRunner(n_workers, cache=cache).run(specs)


def frame_csv(campaign: CampaignResult) -> str:
    """The campaign's result frame as CSV: every float, exact."""
    return ResultFrame.from_results(campaign.results).to_csv()


def compare(n_scenarios: int, n_workers: int, *, seed: int = 0) -> str:
    specs = build_specs(n_scenarios, seed=seed)
    seq = run_campaign(specs, 1)
    par = run_campaign(specs, n_workers)
    if frame_csv(seq) != frame_csv(par):
        raise AssertionError(
            "sequential and parallel campaigns disagree — determinism "
            "guarantee broken"
        )
    speedup = seq.wall_time_s / par.wall_time_s if par.wall_time_s else 0.0
    return (
        f"campaign: {len(specs)} scenarios "
        f"({n_scenarios} workloads x {len(SCHEMES)} schemes)\n"
        f"sequential: {seq.wall_time_s:8.2f}s  (1 worker)\n"
        f"parallel:   {par.wall_time_s:8.2f}s  ({n_workers} workers, "
        f"{os.cpu_count()} cpu(s) visible)\n"
        f"speedup:    {speedup:8.2f}x\n"
        f"result frames bit-identical: yes"
    )


def test_campaign_parallel_identical(benchmark, results_dir):
    text = benchmark.pedantic(
        lambda: compare(5, 2), rounds=1, iterations=1
    )
    from conftest import publish

    publish(results_dir, "campaign", text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenarios", type=int, default=5)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    print(compare(args.scenarios, args.workers, seed=args.seed))
    print(f"total bench time: {time.perf_counter() - start:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
