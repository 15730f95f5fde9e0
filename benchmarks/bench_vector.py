"""Struct-of-arrays vector engine vs a per-scenario scalar loop.

Times a 256-scenario EDF/ccEDF campaign (paper task sets, fixed
worst-case-fraction actuals so the workload is job-invariant) through
two engines that produce bit-identical results:

* ``scalar`` — every scenario through its own ``Simulator.run``,
  the scalar reference engine;
* ``vector`` — the same scenarios through one
  :class:`repro.sim.vector.VectorEngine`, which advances all
  array-expressible scenarios lock-step in struct-of-arrays form.

Three rows are reported: the pure simulation phase on the EDF/ccEDF
sweep (engine vs engine, the number the ``--min-speedup`` floor
applies to), a *mixed* Table 2 campaign — all five scheme rows, EDF
through BAS-2, with the paper's stochastic 20-100% actuals — through
the same pure simulation phase (the ``--min-mixed-speedup`` floor),
and the end-to-end :class:`~repro.sim.batch.ScenarioBatch` pipeline
against the scalar loop plus the same per-scenario profile reduction
(which the two share, diluting the ratio).  Every timed pair is
verified equivalent first — counts and misses exactly, charge/energy
to relative 1e-9 — and each vector row must have vectorized every
scenario (zero fallbacks), otherwise the benchmark would partly time
the scalar engine against itself.
Each row times the two engines in :data:`PAIRS` alternating pairs
(scalar, vector, scalar, vector, ...) on freshly built scenarios and
reports the median pair's ratio, which the floors gate on: one slow
run on a shared host moves a single pair, not the verdict.
Results are written machine-readable to ``BENCH_vector.json`` at the
repo root.

Also runnable standalone (the CI smoke test)::

    PYTHONPATH=src python benchmarks/bench_vector.py \\
        --scenarios 64 --min-speedup 3 --min-mixed-speedup 1
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # allow standalone runs without PYTHONPATH
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.campaign.runner import _build_scenario_sim
from repro.campaign.spec import ScenarioSpec
from repro.sim.batch import BatchItem, ScenarioBatch
from repro.sim.vector import VectorEngine

REPO_ROOT = Path(__file__).resolve().parents[1]

#: The narrow baseline rows (most-imminent ready list, no lookahead):
#: the engine's cheapest array path, timed as the headline row.
SCHEMES = ("EDF", "ccEDF")

#: The full Table 2 grid, in the paper's row order.  The laEDF and
#: BAS-* rows exercise the wide dispatch path (batched reverse-EDF
#: lookahead, pUBS scoring, the ALL_RELEASED feasibility guard).
SCHEMES_MIXED = ("EDF", "ccEDF", "laEDF", "BAS-1", "BAS-2")

#: Deterministic actual demand as a fraction of WCET for the baseline
#: rows; the mixed row instead uses the paper's stochastic 20-100%
#: draws (hash-keyed per job, so the engine pre-draws them).
ACTUAL_FRACTION = 0.6

#: Alternating scalar/vector timing pairs per row.
PAIRS = 5


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _build_scenarios(n_scenarios, n_graphs, hyperperiods, seed,
                     schemes=SCHEMES, stochastic=False):
    """Round-robin scenarios over ``schemes`` as ``(Simulator, horizon)``."""
    scens = []
    for k in range(n_scenarios):
        spec = ScenarioSpec(
            scheme=schemes[k % len(schemes)],
            n_graphs=n_graphs,
            utilization=0.7,
            actual_low=0.2 if stochastic else ACTUAL_FRACTION,
            actual_high=1.0 if stochastic else ACTUAL_FRACTION,
            seed=seed + k,
            on_miss="record",
        )
        sim, _ = _build_scenario_sim(spec)
        scens.append((sim, hyperperiods * sim.task_set.hyperperiod()))
    return scens


def _assert_equivalent(vec, scalar, context):
    assert vec.released_jobs == scalar.released_jobs, context
    assert vec.completed_jobs == scalar.completed_jobs, context
    assert vec.completed_nodes == scalar.completed_nodes, context
    assert vec.misses == scalar.misses, context
    for name in ("charge", "energy"):
        v, s = getattr(vec, name), getattr(scalar, name)
        assert abs(v - s) <= 1e-9 * max(1.0, abs(s)), (
            f"{context}: {name} diverged: vector={v!r} scalar={s!r}"
        )


def _paired(build, run_scalar, run_vector, check, n_scenarios,
            hyperperiods, vet=lambda vect: None):
    """Time ``run_scalar`` and ``run_vector`` in :data:`PAIRS`
    alternating pairs, each pair on two fresh ``build()`` scenario
    lists; ``vet(vector_in)`` runs untimed before each pair and
    ``check(vector_out, scalar_out)`` verifies it.  The row's
    ``speedup`` is the median pair's ratio."""
    pairs = []
    for _ in range(PAIRS):
        scal, vect = build(), build()
        vet(vect)
        sres, t_scalar = _timed(lambda: run_scalar(scal))
        vres, t_vector = _timed(lambda: run_vector(vect))
        check(vres, sres)
        pairs.append((t_scalar, t_vector))
    speedups = [s / v if v > 0 else float("inf") for s, v in pairs]
    return {
        "scenarios": n_scenarios,
        "hyperperiods": hyperperiods,
        "pairs": PAIRS,
        "scalar_s": statistics.median(s for s, _ in pairs),
        "vector_s": statistics.median(v for _, v in pairs),
        "speedups": speedups,
        "speedup": statistics.median(speedups),
    }


def bench_sim(n_scenarios, n_graphs, hyperperiods, seed,
              schemes=SCHEMES, stochastic=False):
    """Pure simulation phase: the vector engine vs the scalar loop."""
    def build():
        return _build_scenarios(n_scenarios, n_graphs, hyperperiods,
                                seed, schemes, stochastic)

    def vet(vect):
        fallbacks = [
            r for r in VectorEngine(vect).fallback_reasons if r is not None
        ]
        assert not fallbacks, (
            f"{len(fallbacks)} of {n_scenarios} scenarios fell back to "
            f"the scalar engine (first: {fallbacks[0]!r}) — the timing "
            "would be scalar-vs-scalar"
        )

    def check(vres, sres):
        for k, (v, s) in enumerate(zip(vres, sres)):
            _assert_equivalent(v, s, f"scenario {k}")

    return _paired(
        build,
        lambda scal: [sim.run(h) for sim, h in scal],
        lambda vect: VectorEngine(vect).run(),
        check,
        n_scenarios,
        hyperperiods,
        vet,
    )


def _scalar_loop(scenarios):
    """Each scenario alone: ``Simulator.run`` plus the
    profile reduction a batch performs."""
    out = []
    for sim, h in scenarios:
        res = sim.run(h)
        res.profile()
        out.append(res)
    return out


def bench_batch(n_scenarios, n_graphs, hyperperiods, seed):
    """End-to-end ScenarioBatch vs a per-scenario Simulator.run loop."""
    def check(vout, sres):
        for k, (v, s) in enumerate(zip(vout, sres)):
            _assert_equivalent(v.result, s, f"scenario {k}")

    return _paired(
        lambda: _build_scenarios(n_scenarios, n_graphs, hyperperiods,
                                 seed),
        _scalar_loop,
        lambda vect: ScenarioBatch(
            [BatchItem(sim, h) for sim, h in vect]
        ).run(),
        check,
        n_scenarios,
        hyperperiods,
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--scenarios", type=int, default=256,
        help="campaign size (default: 256 — the amortization regime)",
    )
    ap.add_argument(
        "--hyperperiods", type=int, default=4,
        help="horizon in hyperperiods per scenario (default: 4)",
    )
    ap.add_argument("--n-graphs", type=int, default=2)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_vector.json",
        help="machine-readable results path (repo root by default)",
    )
    ap.add_argument(
        "--min-speedup", type=float, default=None,
        help="fail (exit 1) if the simulation-phase speedup is below "
        "this floor — the CI smoke threshold",
    )
    ap.add_argument(
        "--min-mixed-speedup", type=float, default=None,
        help="fail (exit 1) if the mixed Table 2 campaign's speedup is "
        "below this floor (the wide-dispatch path is dearer per round, "
        "so this floor sits below --min-speedup)",
    )
    args = ap.parse_args(argv)

    sim_row = bench_sim(
        args.scenarios, args.n_graphs, args.hyperperiods, args.seed
    )
    print(
        f"    sim: {sim_row['scenarios']} scenarios, scalar "
        f"{sim_row['scalar_s']:8.3f}s -> vector "
        f"{sim_row['vector_s']:8.4f}s ({sim_row['speedup']:6.2f}x, "
        f"median of {PAIRS} pairs)"
    )
    mixed_row = bench_sim(
        args.scenarios, args.n_graphs, args.hyperperiods, args.seed,
        schemes=SCHEMES_MIXED, stochastic=True,
    )
    print(
        f"  mixed: {mixed_row['scenarios']} scenarios, scalar "
        f"{mixed_row['scalar_s']:8.3f}s -> vector "
        f"{mixed_row['vector_s']:8.4f}s ({mixed_row['speedup']:6.2f}x, "
        f"median of {PAIRS} pairs)"
    )
    batch_row = bench_batch(
        args.scenarios, args.n_graphs, args.hyperperiods, args.seed
    )
    print(
        f"  batch: {batch_row['scenarios']} scenarios, scalar "
        f"{batch_row['scalar_s']:8.3f}s -> vector "
        f"{batch_row['vector_s']:8.4f}s ({batch_row['speedup']:6.2f}x, "
        f"median of {PAIRS} pairs)"
    )

    payload = {
        "bench": "vector",
        "schemes": list(SCHEMES),
        "schemes_mixed": list(SCHEMES_MIXED),
        "actual_fraction": ACTUAL_FRACTION,
        "n_graphs": args.n_graphs,
        "seed": args.seed,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "simulation": sim_row,
        "simulation_mixed": mixed_row,
        "scenario_batch": batch_row,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")

    failed = False
    if args.min_speedup is not None:
        if sim_row["speedup"] < args.min_speedup:
            print(
                f"FAIL: simulation speedup {sim_row['speedup']:.2f}x "
                f"below floor {args.min_speedup:.2f}x"
            )
            failed = True
        else:
            print(
                f"ok: simulation speedup {sim_row['speedup']:.2f}x >= "
                f"{args.min_speedup:.2f}x floor"
            )
    if args.min_mixed_speedup is not None:
        if mixed_row["speedup"] < args.min_mixed_speedup:
            print(
                f"FAIL: mixed-campaign speedup "
                f"{mixed_row['speedup']:.2f}x below floor "
                f"{args.min_mixed_speedup:.2f}x"
            )
            failed = True
        else:
            print(
                f"ok: mixed-campaign speedup "
                f"{mixed_row['speedup']:.2f}x >= "
                f"{args.min_mixed_speedup:.2f}x floor"
            )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
