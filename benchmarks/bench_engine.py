"""Simulator fast-forward + batched scenarios — wall-clock and speedup.

Times the engine's three execution modes on deterministic Table 2-style
scenarios (paper task sets, worst-case-fraction actuals, BAS schemes,
many hyperperiods):

* ``naive`` — the per-event loop over the whole horizon;
* ``fast``  — ``Simulator.run(fast=True)``: the per-event loop runs
  until the dispatch cycle converges at a hyperperiod boundary, then
  the remaining cycles are tiled from the converged cycle's columnar
  trace;
* ``batched`` — many scenarios through
  ``ScenarioBatch(...).run(fast=True)``, which advances them lock-step
  on the vector engine with the fast path and hands all current
  profiles to the vectorized battery kernels in one pass.

Every timed pair is verified equivalent first (counts and misses
exactly equal, charge/energy to relative 1e-9) — a speedup over a
wrong answer is worthless.  Results are written machine-readable to
``BENCH_engine.json`` at the repo root.

Also runnable standalone (the CI smoke test)::

    PYTHONPATH=src python benchmarks/bench_engine.py \\
        --hyperperiods 30 --min-fast-speedup 10
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # allow standalone runs without PYTHONPATH
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.campaign import (
    ScenarioSpec,
    build_scheme,
    resolve_estimator,
    resolve_processor,
    run_spec,
)
from repro.campaign.runner import (
    _build_scenario_sim,
    _scenario_battery,
    _scenario_metrics,
)
from repro.sim.batch import BatchItem, ScenarioBatch
from repro.sim.engine import Simulator
from repro.workloads.generator import UniformActuals, paper_task_set

REPO_ROOT = Path(__file__).resolve().parents[1]

#: The deterministic Table 2 rows: PUBS priorities, no RNG in the
#: dispatch loop, so the cycle fingerprint converges and tiles.  The
#: randomized baseline rows (EDF/ccEDF/laEDF over RandomPriority)
#: deliberately never converge — the fast path falls back to naive for
#: them, so there is nothing to time.
SCHEMES = ("BAS-1", "BAS-2")

#: Deterministic actual demand as a fraction of WCET; any fixed
#: fraction makes the workload job-invariant (fast-path eligible).
ACTUAL_FRACTION = 0.6


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _build_sim(scheme, n_graphs, seed):
    """A registry-built scheme over a paper task set (the spec shape
    ``run_spec`` executes, built directly so tiled_cycles is visible)."""
    task_set = paper_task_set(n_graphs, utilization=0.7, seed=seed)
    dvs, policy = build_scheme(
        scheme, resolve_estimator("worst-case")
    ).instantiate()
    actuals = UniformActuals(
        low=ACTUAL_FRACTION, high=ACTUAL_FRACTION, seed=seed
    )
    sim = Simulator(
        task_set, resolve_processor("paper"), dvs, policy,
        actuals=actuals, on_miss="record",
    )
    return sim, task_set.hyperperiod()


def _assert_equivalent(fast, naive, context):
    assert fast.released_jobs == naive.released_jobs, context
    assert fast.completed_jobs == naive.completed_jobs, context
    assert fast.completed_nodes == naive.completed_nodes, context
    assert fast.misses == naive.misses, context
    for name in ("charge", "energy"):
        f, n = getattr(fast, name), getattr(naive, name)
        assert abs(f - n) <= 1e-9 * max(1.0, abs(n)), (
            f"{context}: {name} diverged: fast={f!r} naive={n!r}"
        )


def bench_fast_forward(scheme, n_graphs, seed, hyperperiods):
    """One scheme's naive-vs-fast row at a many-hyperperiod horizon."""
    sim_naive, hyper = _build_sim(scheme, n_graphs, seed)
    sim_fast, _ = _build_sim(scheme, n_graphs, seed)
    horizon = hyperperiods * hyper
    naive, t_naive = _timed(lambda: sim_naive.run(horizon))
    fast, t_fast = _timed(lambda: sim_fast.run(horizon, fast=True))
    _assert_equivalent(fast, naive, scheme)
    assert fast.fast_forwarded, (
        f"{scheme}: fast path did not engage at {hyperperiods} "
        f"hyperperiods — nothing was measured"
    )
    return {
        "scheme": scheme,
        "hyperperiod_s": hyper,
        "horizon_s": horizon,
        "tiled_cycles": int(fast.tiled_cycles),
        "segments": len(fast.trace),
        "naive_s": t_naive,
        "fast_s": t_fast,
        "speedup": t_naive / t_fast if t_fast > 0 else float("inf"),
    }


def _fast_batch_metrics(specs):
    """Scenario metrics of ``specs`` run as one fast-forward batch."""
    items = [
        BatchItem(
            *_build_scenario_sim(spec),
            battery=_scenario_battery(spec),
            rebin=spec.rebin,
        )
        for spec in specs
    ]
    outcomes = ScenarioBatch(items).run(fast=True)
    return [
        _scenario_metrics(spec, out.result, out.profile, out.battery_run)
        for spec, out in zip(specs, outcomes)
    ]


def bench_batched(n_graphs, hyperperiods, n_seeds):
    """Batched fast campaign vs the per-spec naive loop."""
    _, hyper = _build_sim(SCHEMES[0], n_graphs, 0)
    specs = [
        ScenarioSpec(
            scheme=scheme,
            n_graphs=n_graphs,
            seed=seed,
            horizon=hyperperiods * hyper,
            battery="kibam",
            actual_low=ACTUAL_FRACTION,
            actual_high=ACTUAL_FRACTION,
            on_miss="record",
        )
        for scheme in SCHEMES
        for seed in range(n_seeds)
    ]
    naive, t_naive = _timed(lambda: [run_spec(s) for s in specs])
    batched, t_batch = _timed(lambda: _fast_batch_metrics(specs))
    for ref, got in zip(naive, batched):
        assert set(ref.metrics) == set(got)
        for key, val in ref.metrics.items():
            tol = 0.0 if key in (
                "misses", "released_jobs", "completed_jobs",
                "completed_nodes",
            ) else 1e-9 * max(1.0, abs(val))
            assert abs(got[key] - val) <= tol, (
                f"{ref.spec.scheme}/seed{ref.spec.seed}: {key} diverged"
            )
    return {
        "scenarios": len(specs),
        "hyperperiods": hyperperiods,
        "naive_s": t_naive,
        "batched_s": t_batch,
        "speedup": t_naive / t_batch if t_batch > 0 else float("inf"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--hyperperiods", type=int, default=100,
        help="horizon in hyperperiods for the fast-forward rows "
        "(default: 100, the steady-state regime)",
    )
    ap.add_argument(
        "--batch-hyperperiods", type=int, default=20,
        help="horizon in hyperperiods for the batched campaign rows",
    )
    ap.add_argument("--n-graphs", type=int, default=2)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument(
        "--batch-seeds", type=int, default=3,
        help="seeds per scheme in the batched campaign",
    )
    ap.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_engine.json",
        help="machine-readable results path (repo root by default)",
    )
    ap.add_argument(
        "--min-fast-speedup", type=float, default=None,
        help="fail (exit 1) if any scheme's fast-forward speedup is "
        "below this floor — the CI smoke threshold",
    )
    args = ap.parse_args(argv)

    rows = []
    for scheme in SCHEMES:
        row = bench_fast_forward(
            scheme, args.n_graphs, args.seed, args.hyperperiods
        )
        rows.append(row)
        print(
            f"{scheme:>6}: naive {row['naive_s']:8.3f}s -> fast "
            f"{row['fast_s']:8.4f}s ({row['speedup']:6.1f}x, "
            f"{row['tiled_cycles']} of {args.hyperperiods} cycles tiled)"
        )

    batch = bench_batched(
        args.n_graphs, args.batch_hyperperiods, args.batch_seeds
    )
    print(
        f"batched: {batch['scenarios']} scenarios, naive "
        f"{batch['naive_s']:8.3f}s -> batched {batch['batched_s']:8.4f}s "
        f"({batch['speedup']:6.1f}x)"
    )

    payload = {
        "bench": "engine",
        "hyperperiods": args.hyperperiods,
        "n_graphs": args.n_graphs,
        "seed": args.seed,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "fast_forward": rows,
        "batched": batch,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")

    if args.min_fast_speedup is not None:
        worst = min(rows, key=lambda r: r["speedup"])
        if worst["speedup"] < args.min_fast_speedup:
            print(
                f"FAIL: {worst['scheme']} speedup "
                f"{worst['speedup']:.1f}x below floor "
                f"{args.min_fast_speedup:.1f}x"
            )
            return 1
        print(
            f"ok: every scheme >= {args.min_fast_speedup:.1f}x floor "
            f"(worst: {worst['scheme']} at {worst['speedup']:.1f}x)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
