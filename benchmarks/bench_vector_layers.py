"""Inclusive seconds of the vector engine's hot layers per artifact.

Wraps four functions of :mod:`repro.sim.vector` with wall-clock
accumulators — ``_classify`` (the compile-time actuals pre-draw and
eligibility checks), ``_VectorRun._round`` (one lock-step event of
every live lane), ``_VectorRun._pubs_score`` (pUBS scoring) and
``_la_pass`` (the reverse-EDF lookahead pass shared by laEDF's speed
setting and pUBS's hypothetical speeds, one call per round) — then
runs one workload in this process on one worker and prints each
layer's seconds and call count beside the total, plus the seconds per
round.  Times are inclusive, so ``_round`` contains the other layers
except ``_classify``.  The wrapped names are private: renaming one
makes this script fail, which is why CI runs it.

Workloads (``--workload``):

* ``table2`` — ``python -m repro table2`` at CLI defaults;
* ``fig6`` — ``python -m repro fig6`` at CLI defaults;
* ``campaign`` — 100 ``spawn_seeds(7, 100)`` scenarios x the five
  paper schemes, n_graphs=2, u=0.7, kibam, no cache (the perfbench
  campaign list, run once on one worker).

Run from the root of a checkout (point ``--src`` at another checkout's
``src`` to time it with the same script; its private names must
match)::

    python benchmarks/bench_vector_layers.py --workload fig6
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from pathlib import Path

LAYERS = (
    "_classify", "_VectorRun._round", "_VectorRun._pubs_score", "_la_pass",
)


def _wrap(owner, name, acc):
    inner = getattr(owner, name)

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            acc[0] += time.perf_counter() - t0
            acc[1] += 1

    setattr(owner, name, timed)


def _campaign():
    from repro.api.plans import PAPER_SCHEME_NAMES
    from repro.campaign import CampaignRunner, ScenarioSpec, spawn_seeds

    specs = [
        ScenarioSpec(
            scheme=scheme, n_graphs=2, utilization=0.7, seed=s,
            battery="kibam", on_miss="record",
        )
        for s in spawn_seeds(7, 100)
        for scheme in PAPER_SCHEME_NAMES
    ]
    CampaignRunner(1).run(specs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--workload", choices=("table2", "fig6", "campaign"),
        default="table2",
    )
    ap.add_argument(
        "--src", default=str(Path(__file__).resolve().parents[1] / "src"),
        help="source tree to import repro from",
    )
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)

    import repro.sim.vector as vector

    accs = {name: [0.0, 0] for name in LAYERS}
    for name in LAYERS:
        owner, _, attr = name.rpartition(".")
        _wrap(getattr(vector, owner) if owner else vector, attr, accs[name])

    t0 = time.perf_counter()
    if args.workload == "campaign":
        _campaign()
    else:
        from repro.__main__ import main as cli

        with contextlib.redirect_stdout(io.StringIO()):
            cli([args.workload, "--workers", "1"])
    total = time.perf_counter() - t0
    rounds = accs["_VectorRun._round"]
    print(json.dumps({
        "workload": args.workload,
        "total_s": total,
        **{f"{name}_s": acc[0] for name, acc in accs.items()},
        **{f"{name}_calls": acc[1] for name, acc in accs.items()},
        "s_per_round": rounds[0] / max(rounds[1], 1),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
