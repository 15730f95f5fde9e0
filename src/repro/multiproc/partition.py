"""Partitioned multiprocessor scheduling (extension).

The paper's related work ([1] Chowdhury & Chakrabarti, [15] Chai et
al.) extends battery-aware DVS scheduling to multiprocessor platforms
sharing one battery.  This module builds that extension on top of the
single-processor methodology: task graphs are *partitioned* across
processors (each graph runs wholly on one core — precedence edges
never cross cores, the standard partitioned model), each core runs an
independent BAS instance, and the shared battery sees the *sum* of the
per-core current profiles.

Partitioning heuristics are the classic utilization bin-packers:

* ``worst-fit`` (default) — balance load across cores, which both
  maximizes per-core slack for DVS and flattens the summed current,
  exactly what the battery guidelines favour;
* ``first-fit`` / ``best-fit`` — the consolidating packers, kept for
  the ablation that shows why balancing wins on a shared battery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.methodology import Scheme, run_scheme
from ..errors import SchedulingError
from ..processor.platform import Processor
from ..sim.engine import ActualsProvider, SimulationResult
from ..sim.profile import CurrentProfile
from ..taskgraph.periodic import PeriodicTaskGraph, TaskGraphSet

__all__ = ["partition_task_set", "run_partitioned", "MultiprocResult"]

_STRATEGIES = ("worst-fit", "first-fit", "best-fit")


def partition_task_set(
    task_set: TaskGraphSet,
    n_processors: int,
    *,
    strategy: str = "worst-fit",
) -> Tuple[TaskGraphSet, ...]:
    """Split a periodic set across ``n_processors`` by utilization.

    Graphs are placed in decreasing-utilization order (the standard
    "decreasing" variants of the packers).  Raises if any graph cannot
    fit on any core without exceeding utilization 1 — partitioned EDF's
    schedulability limit per core.  Cores a consolidating strategy
    leaves unused appear as ``None`` in the returned tuple.
    """
    if n_processors < 1:
        raise SchedulingError(
            f"n_processors must be >= 1, got {n_processors}"
        )
    if strategy not in _STRATEGIES:
        raise SchedulingError(
            f"strategy must be one of {_STRATEGIES}, got {strategy!r}"
        )
    bins: List[List[PeriodicTaskGraph]] = [[] for _ in range(n_processors)]
    loads = [0.0] * n_processors
    for g in sorted(task_set, key=lambda p: -p.utilization):
        candidates = [
            k for k in range(n_processors) if loads[k] + g.utilization <= 1.0
        ]
        if not candidates:
            raise SchedulingError(
                f"graph {g.name!r} (u={g.utilization:.3f}) fits on no core "
                f"(loads={['%.3f' % l for l in loads]})"
            )
        if strategy == "worst-fit":
            k = min(candidates, key=lambda i: loads[i])
        elif strategy == "best-fit":
            k = max(candidates, key=lambda i: loads[i])
        else:  # first-fit
            k = candidates[0]
        bins[k].append(g)
        loads[k] += g.utilization
    # Consolidating strategies may leave cores empty — a fully idle
    # core is legitimate (it still draws idle current from the shared
    # battery); represented as None.
    return tuple(TaskGraphSet(b) if b else None for b in bins)


@dataclass
class MultiprocResult:
    """Outcome of a partitioned multiprocessor run.

    ``per_core[i]`` is ``None`` for cores the partitioner left idle;
    their idle-current draw (``idle_currents[i]``) still reaches the
    shared battery via :meth:`combined_profile`.
    """

    per_core: Tuple[Optional[SimulationResult], ...]
    partitions: Tuple[Optional[TaskGraphSet], ...]
    idle_currents: Tuple[float, ...]
    horizon: float

    def active(self) -> Tuple[SimulationResult, ...]:
        return tuple(r for r in self.per_core if r is not None)

    @property
    def energy(self) -> float:
        # repro: noqa[DET004] -- per_core results are ordered by core
        # index; addition order is fixed
        return sum(r.energy for r in self.active())

    @property
    def misses(self) -> int:
        return sum(len(r.misses) for r in self.active())

    def combined_profile(self) -> CurrentProfile:
        """The shared battery's view: the sum of all core currents."""
        import numpy as np

        profile: Optional[CurrentProfile] = None
        idle_total = 0.0
        for res, idle in zip(self.per_core, self.idle_currents):
            if res is None:
                idle_total += idle
                continue
            p = res.profile()
            profile = p if profile is None else profile.add(p)
        if profile is None:
            raise SchedulingError("no active core in multiproc result")
        if idle_total > 0:
            flat = CurrentProfile(
                np.array([profile.total_time]), np.array([idle_total])
            )
            profile = profile.add(flat)
        return profile.merged()

    @property
    def mean_current(self) -> float:
        return self.combined_profile().mean_current

    def core_utilizations(self) -> Tuple[float, ...]:
        return tuple(
            p.utilization if p is not None else 0.0 for p in self.partitions
        )


def run_partitioned(
    task_set: TaskGraphSet,
    processors: Sequence[Processor],
    scheme: Scheme,
    horizon: float,
    *,
    actuals: Optional[ActualsProvider] = None,
    strategy: str = "worst-fit",
    on_miss: str = "raise",
) -> MultiprocResult:
    """Partition ``task_set`` over ``processors`` and run one scheme
    instance per core for ``horizon`` seconds.

    Every core gets a *fresh* DVS/policy instance (they are stateful),
    and all cores share the actuals provider, so a graph's actual
    demands do not depend on where it was placed.
    """
    if not processors:
        raise SchedulingError("need at least one processor")
    partitions = partition_task_set(
        task_set, len(processors), strategy=strategy
    )
    results: List[Optional[SimulationResult]] = []
    for proc, part in zip(processors, partitions):
        if part is None:
            results.append(None)
            continue
        results.append(
            run_scheme(
                scheme, part, proc, actuals, horizon, on_miss=on_miss
            )
        )
    return MultiprocResult(
        per_core=tuple(results),
        partitions=partitions,
        idle_currents=tuple(p.idle_current() for p in processors),
        horizon=horizon,
    )
