"""Near-optimal bounds via precedence relaxation (Figure 6's normalizer).

The paper normalizes its periodic multi-graph results "with respect to
near optimal schedule obtained by removing precedence constraints
within the taskgraphs": with the edges gone every task is independent,
and pUBS with accurate estimates over the all-released ready list is
known to be within 1 % of optimal (Gruian), so that run serves as the
near-optimal reference energy.
"""

from __future__ import annotations

from typing import Optional

from ..core.estimator import OracleEstimator
from ..core.methodology import SchedulingPolicy
from ..core.priority import PUBS
from ..core.ready_list import ALL_RELEASED
from ..dvs.laedf import LaEDF
from ..processor.platform import Processor
from ..sim.engine import ActualsProvider, SimulationResult, Simulator
from ..taskgraph.graph import TaskGraph
from ..taskgraph.periodic import PeriodicTaskGraph, TaskGraphSet

__all__ = [
    "relax_precedence", "relax_set", "near_optimal_sim", "near_optimal_run"
]


def relax_precedence(graph: TaskGraph) -> TaskGraph:
    """The same tasks with every precedence edge removed."""
    return TaskGraph(graph.name, list(graph), [])


def relax_set(task_set: TaskGraphSet) -> TaskGraphSet:
    """Precedence-relax every graph of a periodic set (periods kept)."""
    return TaskGraphSet(
        PeriodicTaskGraph(relax_precedence(g.graph), g.period, g.phase)
        for g in task_set
    )


def near_optimal_sim(
    task_set: TaskGraphSet,
    processor: Processor,
    *,
    actuals: Optional[ActualsProvider] = None,
    on_miss: str = "raise",
) -> Simulator:
    """The simulator of the near-optimal reference for ``task_set``.

    Precedence-relaxed tasks scheduled by laEDF + pUBS with *oracle*
    estimates over the all-released ready list.  Uses the same actuals
    provider as the run under evaluation so the comparison sees
    identical workloads.  Every part is one the vector engine
    compiles, so the reference can ride in a
    :class:`~repro.sim.batch.ScenarioBatch` like any other scheme.
    """
    return Simulator(
        relax_set(task_set),
        processor,
        LaEDF(),
        SchedulingPolicy(PUBS(OracleEstimator()), ALL_RELEASED),
        actuals=actuals,
        on_miss=on_miss,
    )


def near_optimal_run(
    task_set: TaskGraphSet,
    processor: Processor,
    horizon: float,
    *,
    actuals: Optional[ActualsProvider] = None,
    on_miss: str = "raise",
) -> SimulationResult:
    """The near-optimal reference execution: :func:`near_optimal_sim`
    run to ``horizon``."""
    return near_optimal_sim(
        task_set, processor, actuals=actuals, on_miss=on_miss
    ).run(horizon)
