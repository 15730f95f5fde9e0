"""Batched multi-scenario simulation with one-pass battery hand-off.

A campaign evaluates thousands of small independent scenarios, each of
which is "simulate a schedule, reduce its trace to a current profile,
tile that profile through a battery model".  :class:`ScenarioBatch`
drives that pipeline for many scenarios at once:

* the scenarios advance lock-step on the struct-of-arrays
  :class:`~repro.sim.vector.VectorEngine`, which falls back one
  scenario at a time to :meth:`repro.sim.engine.Simulator.run` for
  anything it cannot express;
* the resulting columnar :class:`~repro.sim.trace.ExecutionTrace`
  profiles are reduced and handed to the vectorized battery kernels in
  a single call
  (:func:`repro.battery.kernels.run_profile_batch`), keeping the
  battery side a few large vector ops per scenario instead of a
  per-segment scalar walk.

The batch is *semantics-preserving*: by default each scenario's
outcome is bit-identical to running it alone (the vector engine
replays the scalar engine's arithmetic; the battery hand-off is
bit-identical to the per-scenario call).  ``run(fast=True)`` opts into
the engine's steady-state fast-forward, which keeps counts and labels
exact but charge and energy only float-dust-equal.  The campaign layer
(:class:`repro.campaign.runner.CampaignRunner`, through
:func:`repro.campaign.runner.run_scenario_batch`) batches the periodic
scenarios of each work unit; this module stays campaign-agnostic so
studies can drive it directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..battery.base import BatteryModel, BatteryRun
from ..battery.kernels import run_profile_batch
from ..errors import SchedulingError
from .engine import SimulationResult, Simulator
from .profile import CurrentProfile
from .vector import VectorEngine

__all__ = ["BatchItem", "BatchOutcome", "ScenarioBatch"]


@dataclass
class BatchItem:
    """One scenario of a batch.

    ``battery`` (optional) is tiled with the scenario's merged —
    optionally ``rebin``-ned — current profile until the cell dies,
    mirroring :func:`repro.analysis.lifetime.evaluate_lifetime`.
    """

    simulator: Simulator
    horizon: float
    battery: Optional[BatteryModel] = None
    rebin: Optional[float] = None


@dataclass
class BatchOutcome:
    """What one scenario produced.

    ``profile`` is the merged (un-rebinned) current profile of the
    trace — the object scenario metrics (peak current) are read from;
    ``battery_run`` is present iff the item carried a battery model.
    """

    result: SimulationResult
    profile: CurrentProfile
    battery_run: Optional[BatteryRun]


class ScenarioBatch:
    """Advance many independent scenarios and evaluate them together.

    Parameters
    ----------
    items:
        The scenarios; at least one is required (the battery hand-off
        needs a non-empty batch — for a pure simulation sweep that may
        be empty, call :func:`repro.sim.vector.run_vectorized`).

    The vector engine advances every array-expressible scenario — the
    full Table 2 grid, stochastic hash-keyed actuals included — and
    falls back per scenario to the scalar engine for anything it
    cannot express (phases, call-order-dependent providers,
    subclassed components); results are identical either way.
    """

    def __init__(self, items: Sequence[BatchItem]) -> None:
        self.items: List[BatchItem] = list(items)
        if not self.items:
            raise SchedulingError("a scenario batch needs >= 1 item")
        #: Telemetry from the most recent :meth:`run`:
        #: ``numeric_demotions`` counts scenarios (or battery loads)
        #: whose fast-path output contained NaN/inf and was recomputed
        #: through the scalar path; ``vector_fallbacks`` counts
        #: scenarios the vector engine handed to the scalar engine for
        #: any reason.  Empty until :meth:`run` is called.
        self.last_stats: Dict[str, int] = {}

    def run(
        self,
        *,
        fast: bool = False,
        max_time: float = 1e7,
        battery_fast: bool = True,
    ) -> List[BatchOutcome]:
        """Run every scenario; outcomes come back in item order.

        ``fast`` opts into the engine's steady-state fast-forward
        (counts and labels exact, charge and energy float-dust-equal;
        see :meth:`Simulator.run`).  ``max_time`` and
        ``battery_fast`` are forwarded to the battery evaluation and
        match :func:`~repro.analysis.lifetime.evaluate_lifetime`
        defaults.
        """
        stats: Dict[str, int] = {
            "numeric_demotions": 0,
            "vector_fallbacks": 0,
        }
        vec = VectorEngine(
            [(item.simulator, item.horizon) for item in self.items]
        )
        results = vec.run(fast=fast)
        stats["numeric_demotions"] += vec.numeric_demotions
        stats["vector_fallbacks"] = vec.n_fallback
        profiles = [res.profile() for res in results]
        loads = []
        load_pos: List[int] = []
        for k, (item, prof) in enumerate(zip(self.items, profiles)):
            if item.battery is None:
                continue
            p = prof.rebinned(item.rebin) if item.rebin is not None else prof
            loads.append((item.battery, p.durations, p.currents))
            load_pos.append(k)
        runs = run_profile_batch(
            loads,
            repeat=None,
            max_time=max_time,
            fast=battery_fast,
            stats=stats,
        )
        self.last_stats = stats
        by_item = dict(zip(load_pos, runs))
        return [
            BatchOutcome(res, prof, by_item.get(k))
            for k, (res, prof) in enumerate(zip(results, profiles))
        ]
