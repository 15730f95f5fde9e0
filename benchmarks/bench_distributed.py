"""Distributed campaign backend — worker-count scaling, identical results.

Runs one seeded battery-evaluated campaign three ways: sequentially in
process, distributed over 1 spawned worker, and distributed over
``--workers`` spawned workers (shared-directory transport, the same
path a multi-host fleet uses), then verifies all three produce
bit-identical result frames before reporting wall-clocks.  On a
single-core container the distributed rows mostly measure transport
overhead (subprocess boot + file polling); the determinism check is
the part that is meaningful everywhere.

Also runnable standalone (the CI smoke test)::

    PYTHONPATH=src python benchmarks/bench_distributed.py \
        --scenarios 4 --workers 2
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from pathlib import Path

if __name__ == "__main__":  # allow standalone runs without PYTHONPATH
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.campaign import CampaignResult, CampaignRunner
from repro.campaign.distributed import DistributedRunner

from bench_campaign import build_specs, frame_csv

RESULT_TIMEOUT = 300.0


def run_distributed(specs, n_workers: int) -> CampaignResult:
    with tempfile.TemporaryDirectory(prefix="repro-dist-bench-") as queue:
        with DistributedRunner(
            workdir=queue,
            n_local_workers=n_workers,
            poll=0.02,
            result_timeout=RESULT_TIMEOUT,
        ) as runner:
            return runner.run(specs)


def _assert_identical(reference: CampaignResult, other: CampaignResult):
    if frame_csv(reference) != frame_csv(other):
        raise AssertionError(
            "distributed campaign disagrees with the sequential runner "
            "— determinism guarantee broken"
        )


def compare(n_scenarios: int, n_workers: int, *, seed: int = 0) -> str:
    specs = build_specs(n_scenarios, seed=seed)
    seq = CampaignRunner(1).run(specs)
    dist_one = run_distributed(specs, 1)
    dist_many = run_distributed(specs, n_workers)
    _assert_identical(seq, dist_one)
    _assert_identical(seq, dist_many)
    scaling = (
        dist_one.wall_time_s / dist_many.wall_time_s
        if dist_many.wall_time_s
        else 0.0
    )
    return (
        f"distributed campaign: {len(specs)} work units "
        f"({n_scenarios} workloads x {len(specs) // n_scenarios} "
        f"schemes), shared-directory transport\n"
        f"sequential in-process: {seq.wall_time_s:8.2f}s\n"
        f"1 spawned worker:      {dist_one.wall_time_s:8.2f}s  "
        f"(transport overhead)\n"
        f"{n_workers} spawned workers:     {dist_many.wall_time_s:8.2f}s  "
        f"({os.cpu_count()} cpu(s) visible)\n"
        f"worker scaling:        {scaling:8.2f}x\n"
        f"results bit-identical across all three: yes"
    )


def test_distributed_identical(benchmark, results_dir):
    text = benchmark.pedantic(lambda: compare(2, 2), rounds=1, iterations=1)
    from conftest import publish

    publish(results_dir, "distributed", text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenarios", type=int, default=4)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    print(compare(args.scenarios, args.workers, seed=args.seed))
    print(f"total bench time: {time.perf_counter() - start:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
