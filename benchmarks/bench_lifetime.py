"""Lifetime kernels — scalar vs vectorized wall-clock and speedup.

Times the two code paths of the single hottest operation in the
reproduction — tiling a hyperperiod current profile through a battery
model until the cell dies (``run_profile(repeat=None)``, what
``evaluate_lifetime`` runs for every Table 2 cell) and the guideline-1
survival bisection (``survival_scale``) — across every battery model.
The vectorized path uses the closed-form period kernels of
``repro.battery.kernels``; ``fast=False`` forces the per-segment
scalar reference loop.  Results are verified equivalent (relative
1e-9) before speedups are reported, and written machine-readable to
``BENCH_lifetime.json`` at the repo root.

The stochastic model has no kernel (the order of its draws within one
cell *is* its semantics); its fast path is the block-drawn slot walk,
which must match the per-slot reference bit for bit, so each path gets
a fresh cell with the same seed and the row asserts exact equality.

Also runnable standalone (the CI smoke test)::

    PYTHONPATH=src python benchmarks/bench_lifetime.py \\
        --segments 200 --min-diffusion-speedup 10 \\
        --min-stochastic-speedup 2
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # allow standalone runs without PYTHONPATH
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.analysis.lifetime import evaluate_lifetime, survival_scale
from repro.battery import (
    paper_cell_diffusion,
    paper_cell_kibam,
    paper_cell_stochastic,
    PeukertBattery,
)
from repro.sim.profile import CurrentProfile

REPO_ROOT = Path(__file__).resolve().parents[1]


def _models():
    """Cell factories by name: every timed path gets a fresh cell."""
    kib = paper_cell_kibam()
    return {
        "diffusion": paper_cell_diffusion,
        "kibam": paper_cell_kibam,
        "peukert": lambda: PeukertBattery(
            kib.capacity, exponent=1.2, i_ref=2.0
        ),
        "stochastic": lambda: paper_cell_stochastic(seed=0),
    }


def _schedule_profile(n: int, seg_s: float, seed: int) -> CurrentProfile:
    """A schedule-shaped profile: busy staircases with idle valleys."""
    rng = np.random.default_rng(seed)
    durations = rng.uniform(0.5 * seg_s, 1.5 * seg_s, n)
    levels = np.array([0.03, 0.45, 0.8, 1.25, 2.0, 2.8])
    currents = levels[rng.integers(0, levels.size, n)]
    return CurrentProfile(durations, currents)


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def bench_model(name, make_cell, n_segments, seed):
    """One model's run_profile + survival_scale scalar-vs-fast row."""
    # Tiled-to-death lifetime: short segments so the hyperperiod tiles
    # through many periods before exhaustion (the Table 2 shape).
    life_prof = _schedule_profile(n_segments, 0.1, seed)
    fast_cell, scalar_cell = make_cell(), make_cell()
    fast_report, t_fast = _timed(
        lambda: evaluate_lifetime(life_prof, fast_cell, max_time=1e7)
    )
    scalar_report, t_scalar = _timed(
        lambda: evaluate_lifetime(
            life_prof, scalar_cell, max_time=1e7, fast=False
        )
    )
    f_run, s_run = fast_report.run, scalar_report.run
    if name == "stochastic":  # an exact walk, not a closed form
        assert s_run == f_run, (s_run, f_run)
    else:
        assert s_run.died == f_run.died
        assert abs(s_run.lifetime - f_run.lifetime) <= (
            1e-9 * max(1.0, s_run.lifetime)
        ), (s_run, f_run)
        assert abs(s_run.delivered_charge - f_run.delivered_charge) <= (
            1e-9 * max(1.0, s_run.delivered_charge)
        ), (s_run, f_run)

    # Survival bisection: one long pass whose death scale sits inside
    # the default (0.1, 10) bracket.
    surv_prof = _schedule_profile(
        n_segments, 6000.0 / n_segments, seed + 1
    )
    fast_cell, scalar_cell = make_cell(), make_cell()
    scale_fast, ts_fast = _timed(
        lambda: survival_scale(fast_cell, surv_prof)
    )
    scale_scalar, ts_scalar = _timed(
        lambda: survival_scale(scalar_cell, surv_prof, fast=False)
    )
    if name == "stochastic":
        assert scale_fast == scale_scalar, (scale_fast, scale_scalar)
    else:
        assert abs(scale_fast - scale_scalar) <= 1e-6 * scale_scalar, (
            scale_fast, scale_scalar,
        )

    return {
        "model": name,
        "segments": int(n_segments),
        "run_profile": {
            "lifetime_s": float(f_run.lifetime),
            "tiled_periods": float(
                f_run.lifetime / life_prof.total_time
            ),
            "scalar_s": t_scalar,
            "fast_s": t_fast,
            "speedup": t_scalar / t_fast if t_fast > 0 else float("inf"),
        },
        "survival_scale": {
            "scale": float(scale_fast),
            "scalar_s": ts_scalar,
            "fast_s": ts_fast,
            "speedup": (
                ts_scalar / ts_fast if ts_fast > 0 else float("inf")
            ),
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--segments", type=int, default=1000,
        help="profile segments per period (default: paper scale 1000)",
    )
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_lifetime.json",
        help="machine-readable results path (repo root by default)",
    )
    ap.add_argument(
        "--min-diffusion-speedup", type=float, default=None,
        help="fail (exit 1) if the diffusion run_profile speedup is "
        "below this floor — the CI smoke threshold",
    )
    ap.add_argument(
        "--min-stochastic-speedup", type=float, default=None,
        help="fail (exit 1) if the stochastic run_profile speedup is "
        "below this floor — the CI smoke threshold",
    )
    ap.add_argument(
        "--skip", nargs="*", default=(),
        help="model names to skip (e.g. stochastic on slow machines)",
    )
    args = ap.parse_args(argv)

    results = []
    for name, make_cell in _models().items():
        if name in args.skip:
            continue
        # Both stochastic paths walk every 1 s slot of the cell's life;
        # cap the profile so the smoke stays fast.
        n = args.segments if name != "stochastic" else min(
            args.segments, 200
        )
        row = bench_model(name, make_cell, n, args.seed)
        results.append(row)
        rp, sv = row["run_profile"], row["survival_scale"]
        print(
            f"{name:>10}: run_profile {rp['scalar_s']:8.3f}s -> "
            f"{rp['fast_s']:8.4f}s ({rp['speedup']:7.1f}x, "
            f"{rp['tiled_periods']:.0f} periods) | survival "
            f"{sv['scalar_s']:8.3f}s -> {sv['fast_s']:8.4f}s "
            f"({sv['speedup']:6.1f}x)"
        )

    payload = {
        "bench": "lifetime",
        "segments": args.segments,
        "seed": args.seed,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "results": results,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")

    floors = (
        ("diffusion", args.min_diffusion_speedup),
        ("stochastic", args.min_stochastic_speedup),
    )
    for model, floor in floors:
        if floor is None:
            continue
        rows = [r for r in results if r["model"] == model]
        if not rows:
            print(f"{model} row missing; cannot enforce threshold")
            return 1
        speedup = rows[0]["run_profile"]["speedup"]
        if speedup < floor:
            print(
                f"FAIL: {model} speedup {speedup:.1f}x below floor "
                f"{floor:.1f}x"
            )
            return 1
        print(f"ok: {model} speedup {speedup:.1f}x >= {floor:.1f}x floor")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
