"""Parallel, cached, deterministic execution of scenario campaigns.

:func:`run_spec` executes one spec in the calling process;
:class:`CampaignRunner` maps a spec list across a ``multiprocessing``
pool (or runs sequentially for ``n_workers=1``), consulting an optional
:class:`~repro.campaign.cache.ResultCache` first and streaming each
result to an ``on_result`` callback as workers finish.

Determinism
-----------
Every spec carries its own seed (assigned by the caller, typically via
:func:`~repro.campaign.spec.spawn_seeds`), every executor derives all
randomness from that seed alone, and the returned result list is in
spec order regardless of completion order — so a campaign's results,
and every :class:`~repro.api.frame.ResultFrame` built from them, are
bit-identical between sequential and parallel execution, across any
worker count.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import sys
import time
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

import numpy as np

from .. import faults
from ..analysis.lifetime import evaluate_lifetime, survival_scale
from ..core.oneshot import run_one_shot
from ..core.priority import LTF, PUBS, RandomPriority
from ..errors import SchedulingError
from ..exact.bounds import near_optimal_run, near_optimal_sim
from ..exact.bruteforce import count_linear_extensions, optimal_one_shot
from ..processor.platform import Processor
from ..sim.batch import BatchItem, ScenarioBatch
from ..sim.engine import SimulationResult, Simulator
from ..sim.profile import CurrentProfile
from ..taskgraph.graph import TaskGraph
from ..taskgraph.periodic import TaskGraphSet
from ..taskgraph.tgff import random_dag
from ..workloads.generator import UniformActuals, paper_task_set
from .cache import ResultCache
from .failures import (
    EXHAUSTED,
    RETRY,
    FailureInfo,
    FailureReport,
    RetryBudget,
    spec_deadline,
)
from .registry import (
    NEAR_OPTIMAL,
    build_scheme,
    install_plugins,
    plugin_snapshot,
    resolve_battery,
    resolve_estimator,
    resolve_processor,
)
from .spec import (
    ConstantLoadSpec,
    OneShotSpec,
    ScenarioResult,
    ScenarioSpec,
    Spec,
    SurvivalSpec,
    content_hash,  # noqa: F401 - perfbench's tracer patches this binding
)

__all__ = [
    "run_spec",
    "run_scenario_batch",
    "CampaignRunner",
    "CampaignResult",
    "SpecRunner",
    "sample_bounded_dag",
    "OracleEstimator",
]

from ..core.estimator import OracleEstimator  # re-export for one-shot users


# ----------------------------------------------------------------------
# Executors (one per spec kind) — pure functions of the spec
# ----------------------------------------------------------------------
class _Scenario(NamedTuple):
    """The workload a scenario spec describes, before any scheme."""

    processor: Processor
    task_set: TaskGraphSet
    actuals: UniformActuals
    horizon: float


def _scenario(spec: ScenarioSpec) -> _Scenario:
    processor = resolve_processor(spec.processor)
    task_set = paper_task_set(
        spec.n_graphs,
        utilization=spec.utilization,
        n_tasks_range=spec.n_tasks_range,
        edge_prob=spec.edge_prob,
        wcet_range=spec.wcet_range,
        seed=spec.seed,
    )
    actuals = UniformActuals(
        low=spec.actual_low, high=spec.actual_high, seed=spec.seed
    )
    horizon = (
        spec.horizon if spec.horizon is not None else task_set.hyperperiod()
    )
    return _Scenario(processor, task_set, actuals, horizon)


def _build_scenario_sim(spec: ScenarioSpec) -> Tuple[Simulator, float]:
    """The simulator + horizon a scenario spec describes."""
    sc = _scenario(spec)
    if spec.scheme == NEAR_OPTIMAL:
        sim = near_optimal_sim(
            sc.task_set, sc.processor,
            actuals=sc.actuals, on_miss=spec.on_miss,
        )
    else:
        scheme = build_scheme(spec.scheme, resolve_estimator(spec.estimator))
        dvs, policy = scheme.instantiate()
        sim = Simulator(
            sc.task_set, sc.processor, dvs, policy,
            actuals=sc.actuals, on_miss=spec.on_miss,
        )
    return sim, sc.horizon


def _simulate(spec: ScenarioSpec) -> SimulationResult:
    if spec.scheme == NEAR_OPTIMAL:
        sc = _scenario(spec)
        return near_optimal_run(
            sc.task_set, sc.processor, sc.horizon,
            actuals=sc.actuals, on_miss=spec.on_miss,
        )
    sim, horizon = _build_scenario_sim(spec)
    return sim.run(horizon)


def _scenario_battery(spec: ScenarioSpec):
    """The battery cell a scenario spec asks for, or ``None``."""
    if spec.battery is None:
        return None
    seed = spec.battery_seed if spec.battery_seed is not None else spec.seed
    return resolve_battery(spec.battery, seed)


def _scenario_metrics(
    spec: ScenarioSpec,
    res: SimulationResult,
    profile: CurrentProfile,
    battery_run,
) -> Dict[str, float]:
    metrics: Dict[str, float] = {
        "energy_j": float(res.energy),
        "charge_c": float(res.charge),
        "mean_current_a": float(res.mean_current),
        "peak_current_a": float(profile.peak_current),
        "busy_s": float(res.trace.busy_time()),
        "misses": float(len(res.misses)),
        "released_jobs": float(res.released_jobs),
        "completed_jobs": float(res.completed_jobs),
        "completed_nodes": float(res.completed_nodes),
    }
    if battery_run is not None:
        metrics["lifetime_min"] = float(battery_run.lifetime_minutes)
        metrics["delivered_mah"] = float(battery_run.delivered_mah)
    return metrics


def _run_periodic(spec: ScenarioSpec) -> ScenarioResult:
    res = _simulate(spec)
    profile = res.profile()
    cell = _scenario_battery(spec)
    battery_run, demoted = None, 0
    if cell is not None:
        report = evaluate_lifetime(res, cell, rebin=spec.rebin)
        battery_run, demoted = report.run, report.demoted
    return ScenarioResult(
        spec=spec,
        metrics=_scenario_metrics(spec, res, profile, battery_run),
        demoted=demoted,
    )


def run_scenario_batch(
    items: Sequence[Tuple[int, ScenarioSpec]],
    *,
    stats: Optional[Dict[str, int]] = None,
) -> List[Tuple[int, ScenarioResult]]:
    """Execute several scenario specs through one :class:`ScenarioBatch`.

    Bit-identical to running each spec through :func:`run_spec`: the
    batch advances every array-expressible scenario lock-step on the
    vector engine (:class:`~repro.sim.vector.VectorEngine`), falls
    back per scenario to :meth:`Simulator.run` otherwise, and hands
    the traces to the battery kernels in one pass — it only changes
    *how* the work is driven, never what a scenario computes.

    ``stats``, when given a dict, receives the batch's
    :attr:`ScenarioBatch.last_stats` (``numeric_demotions`` and
    ``vector_fallbacks``).
    """
    batch = ScenarioBatch(
        [
            BatchItem(
                *_build_scenario_sim(spec),
                battery=_scenario_battery(spec),
                rebin=spec.rebin,
            )
            for _, spec in items
        ]
    )
    outcomes = batch.run()
    if stats is not None:
        stats.update(batch.last_stats)
    return [
        (
            index,
            ScenarioResult(
                spec=spec,
                metrics=_scenario_metrics(
                    spec, out.result, out.profile, out.battery_run
                ),
            ),
        )
        for (index, spec), out in zip(items, outcomes)
    ]


def sample_bounded_dag(
    n: int,
    rng: np.random.Generator,
    *,
    edge_prob: float,
    max_extensions: int,
    attempts: int = 50,
) -> TaskGraph:
    """A random DAG whose linear-extension count stays searchable."""
    for _ in range(attempts):
        g = random_dag(n, edge_prob=edge_prob, rng=rng)
        extensions = count_linear_extensions(g, limit=max_extensions + 1)
        if extensions <= max_extensions:
            return g
        # Densify: more edges => fewer linear extensions.
        edge_prob = min(1.0, edge_prob + 0.1)
    raise SchedulingError(
        f"could not sample a {n}-task DAG with <= {max_extensions} "
        f"linear extensions in {attempts} attempts"
    )


def _run_oneshot(spec: OneShotSpec) -> ScenarioResult:
    processor = resolve_processor(spec.processor)
    rng = np.random.default_rng(spec.seed)
    graph = sample_bounded_dag(
        spec.n_tasks,
        rng,
        edge_prob=spec.edge_prob,
        max_extensions=spec.max_extensions,
    )
    actual = {
        node.name: node.wcet * rng.uniform(spec.actual_low, spec.actual_high)
        for node in graph
    }
    deadline = graph.total_wcet / spec.utilization
    opt = optimal_one_shot(
        graph, deadline, processor, actual,
        max_extensions=spec.max_extensions,
    )
    if opt.energy <= 0:
        raise SchedulingError("optimal energy must be positive")
    random_energy = float(
        np.mean(
            [
                run_one_shot(
                    graph, deadline, processor,
                    RandomPriority(int(rng.integers(1 << 31))), actual,
                ).energy
                for _ in range(spec.n_random)
            ]
        )
    )
    ltf_energy = run_one_shot(graph, deadline, processor, LTF(), actual).energy
    pubs_energy = run_one_shot(
        graph, deadline, processor, PUBS(OracleEstimator()), actual
    ).energy
    return ScenarioResult(
        spec=spec,
        metrics={
            "random": random_energy / opt.energy,
            "ltf": ltf_energy / opt.energy,
            "pubs": pubs_energy / opt.energy,
            "optimal_energy_j": float(opt.energy),
        },
    )


def _run_survival(spec: SurvivalSpec) -> ScenarioResult:
    cell = resolve_battery(spec.battery, spec.battery_seed)
    profile = CurrentProfile(
        np.asarray(spec.durations, dtype=float),
        np.asarray(spec.currents, dtype=float),
    )
    scale = survival_scale(
        cell, profile, lo=spec.lo, hi=spec.hi, iters=spec.iters
    )
    return ScenarioResult(spec=spec, metrics={"survival_scale": float(scale)})


def _run_constant(spec: ConstantLoadSpec) -> ScenarioResult:
    cell = resolve_battery(spec.battery, spec.battery_seed)
    run = cell.lifetime_constant(
        float(spec.current), max_time=spec.max_time
    )
    return ScenarioResult(
        spec=spec,
        metrics={
            "delivered_c": float(run.delivered_charge),
            "lifetime_s": float(run.lifetime),
        },
    )


def run_spec(spec: Spec) -> ScenarioResult:
    """Execute one spec in the calling process.

    The scalar reference: periodic scenarios run through
    :meth:`Simulator.run` on the naive event loop, and every other
    execution path (vector batches, pools, distributed fleets) must
    reproduce its result bit for bit.
    """
    if isinstance(spec, ScenarioSpec):
        return _run_periodic(spec)
    if isinstance(spec, OneShotSpec):
        return _run_oneshot(spec)
    if isinstance(spec, SurvivalSpec):
        return _run_survival(spec)
    if isinstance(spec, ConstantLoadSpec):
        return _run_constant(spec)
    raise SchedulingError(f"unknown spec type {type(spec).__name__}")


#: Fewest scenarios per worker for a vector batch.  Lock-step lanes
#: share the vector engine's fixed per-event cost, which a narrow
#: batch cannot pay back: against the scalar loop on the same specs a
#: W-lane batch took 1.70x the CPU time at W=2, 1.02x at W=3, 1.12x
#: at W=4 and 0.67x at W=5 on Table 2 specs, the smallest width that
#: costs no more than the scalar loop (``benchmarks/bench_lanes.py``;
#: short two-graph campaign specs: 1.11x at W=5, 0.87x at W=10).  A
#: smaller share runs scalar, one spec per unit.
MIN_LANES = 5

#: Most specs in one unit.  Every trace of a vector batch stays alive
#: until the batch's battery pass, and a unit's results reach the cache
#: only when the whole unit is done, so a paper-scale campaign on few
#: workers is cut into several units rather than one.
MAX_UNIT = 256


class _Unit(NamedTuple):
    """One pool task: ``(index, spec)`` pairs.

    A unit of several specs is a vector batch of periodic scenarios;
    every other spec is a unit of its own.  ``contain`` marks a
    one-spec unit of a fault-contained run: its failure comes back as
    a :class:`FailureInfo` instead of raising, it runs under the
    ``timeout`` watchdog, and a retry sleeps out its backoff ``delay``
    first, so waits from different specs overlap instead of
    serializing in the parent.
    """

    items: Tuple[Tuple[int, Spec], ...]
    contain: bool = False
    timeout: Optional[float] = None
    delay: float = 0.0


#: What a unit returns: ``(index, result, failure)`` per spec, exactly
#: one of ``result``/``failure`` set, plus the unit's numeric demotions.
_UnitOutcome = Tuple[
    List[Tuple[int, Optional[ScenarioResult], Optional[FailureInfo]]], int
]


def _vectorizable(spec: Spec) -> bool:
    return isinstance(spec, ScenarioSpec)


def _run_unit(unit: _Unit) -> _UnitOutcome:
    """The one pool worker: a multi-spec unit runs as one vector
    batch through :func:`run_scenario_batch`, a one-spec unit through
    :func:`run_spec`."""
    if not unit.contain:
        return _execute_unit(unit.items)
    ((index, _spec),) = unit.items
    if unit.delay > 0:
        time.sleep(unit.delay)
    try:
        with spec_deadline(unit.timeout, what=f"spec {index}"):
            faults.fire("spec.execute", index)
            return _execute_unit(unit.items)
    except Exception as exc:  # noqa: BLE001 - containment boundary
        return [(index, None, FailureInfo.from_exception(exc))], 0


def _execute_unit(items: Tuple[Tuple[int, Spec], ...]) -> _UnitOutcome:
    if len(items) == 1:
        ((index, spec),) = items
        result = run_spec(spec)
        return [(index, result, None)], result.demoted
    stats: Dict[str, int] = {}
    batched = run_scenario_batch(items, stats=stats)
    outcomes = [(index, result, None) for index, result in batched]
    return outcomes, int(stats.get("numeric_demotions", 0))


def _pool_init(snapshot, fault_plan_json: Optional[str]) -> None:
    """Pool initializer: replay plugins and arm the fault plan."""
    install_plugins(snapshot)
    if fault_plan_json:
        plan = faults.FaultPlan.from_json(json.loads(fault_plan_json))
        faults.install(plan)


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
@dataclass
class CampaignResult:
    """Results of one campaign run, in spec order.

    ``cache_hits`` counts results served from the on-disk cache;
    ``executed`` counts specs actually run (by a pool worker, the
    calling process, or a distributed fleet).  The two sum to the
    number of specs, so a larger rerun on the same cache (the way to
    grow a campaign) reads its cached prefix as ``cache_hits`` and its
    new suffix as ``executed``.

    ``requeued`` is distributed-backend fault telemetry: work units
    returned to the queue after a lease expired or a worker connection
    died.  It is zero on the local runner.

    ``retried`` counts re-executions charged against per-spec retry
    budgets; ``quarantined`` counts specs abandoned after exhausting
    theirs (details in ``failures``, a
    :class:`~repro.campaign.failures.FailureReport` when any fault
    containment happened, ``None`` on a clean default run);
    ``demoted`` counts scenarios the numeric guardrails demoted from
    the vector engine to the scalar path.  Quarantined specs are
    absent from ``results``, so under quarantine
    ``len(results) + quarantined == scenarios + quarantined`` holds
    and per-metric columns align with the surviving specs only.
    """

    results: List[ScenarioResult]
    wall_time_s: float
    n_workers: int
    cache_hits: int
    executed: int = 0
    requeued: int = 0
    retried: int = 0
    quarantined: int = 0
    demoted: int = 0
    failures: Optional[FailureReport] = None

    def __len__(self) -> int:
        return len(self.results)

    @property
    def telemetry(self) -> Dict[str, int]:
        """Structured execution counters (JSON-ready)."""
        return {
            "scenarios": len(self.results),
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "requeued": self.requeued,
            "retried": self.retried,
            "quarantined": self.quarantined,
            "demoted": self.demoted,
        }

    def metrics(self, name: str) -> Tuple[float, ...]:
        """One metric across all scenarios, in spec order."""
        return tuple(r.metrics[name] for r in self.results)


OnResult = Callable[[int, ScenarioResult], None]

#: What a runner's executor reports besides its results: the failure
#: report and its own :class:`CampaignResult` counters.
Executed = Tuple[FailureReport, Dict[str, int]]


class SpecRunner(Protocol):
    """Anything that can execute a spec list campaign-style.

    Satisfied by :class:`CampaignRunner` and
    :class:`~repro.campaign.distributed.DistributedRunner`;
    :class:`~repro.api.study.Study` accepts any of these via its
    ``runner`` parameter.
    """

    def run(
        self,
        specs: Sequence[Spec],
        *,
        on_result: Optional[OnResult] = None,
    ) -> CampaignResult: ...  # pragma: no cover - protocol


def cached_run(
    runner, specs: Sequence[Spec], on_result: Optional[OnResult]
) -> CampaignResult:
    """The one runner front end: cache, execute, cache, result.

    Serves every cached spec from ``runner.cache``, hands the rest to
    ``runner._execute(specs, pending, absorb)`` — the runner's own
    executor, which feeds each fresh ``(index, result)`` to ``absorb``
    and returns :data:`Executed` — stores each fresh result back and
    streams every result to ``on_result`` (cache hits first, then in
    arrival order).  A fresh result reaches the cache before
    ``on_result`` sees it, so a run cut short (a crash, or an
    ``on_result`` that raises) reruns on the same cache from where it
    stopped.
    """
    # repro: noqa[DET002] -- wall-time telemetry bracket; the
    # value lands only in CampaignResult.wall_time_s
    start = time.perf_counter()
    cache = runner.cache
    results: List[Optional[ScenarioResult]] = [None] * len(specs)
    cache_hits = 0

    def emit(index: int, result: ScenarioResult) -> None:
        results[index] = result
        if on_result is not None:
            on_result(index, result)

    pending: List[int] = []
    for index, spec in enumerate(specs):
        hit = cache.get(spec) if cache is not None else None
        if hit is not None:
            cache_hits += 1
            emit(index, hit)
        else:
            pending.append(index)

    def absorb(index: int, result: ScenarioResult) -> None:
        if cache is not None:
            cache.put(result)
        emit(index, result)

    report, counters = runner._execute(specs, pending, absorb)
    return CampaignResult(
        results=[r for r in results if r is not None],
        # repro: noqa[DET002] -- telemetry field only
        wall_time_s=time.perf_counter() - start,
        n_workers=runner.n_workers,
        cache_hits=cache_hits,
        executed=len(pending),
        retried=report.retries,
        quarantined=len(report.quarantined),
        failures=report if report else None,
        **counters,
    )


class CampaignRunner:
    """Executes spec lists, optionally in parallel and cached.

    One execution pipeline: :meth:`run` cuts the pending (uncached)
    specs into units and maps them over one pool.  Periodic scenarios
    run lock-step on the vector engine through
    :func:`run_scenario_batch` (falling back per scenario to the scalar
    engine), one batch per worker of at most :data:`MAX_UNIT`
    scenarios, when each worker's share reaches :data:`MIN_LANES`.
    Every other spec is a unit of its own, run through
    :func:`run_spec` and scheduled dynamically.  Either way the results
    are bit-identical to ``[run_spec(s) for s in specs]``.  A unit's
    results reach the cache and ``on_result`` when the whole unit is
    done.

    Parameters
    ----------
    n_workers:
        1 runs in-process; >1 uses a ``multiprocessing`` pool (``fork``
        start method where available, so live-callable registry
        entries are inherited by workers).
    cache:
        Optional :class:`ResultCache`; hits skip execution entirely and
        fresh results are stored back.
    start_method:
        Explicit ``multiprocessing`` start method (``"fork"``,
        ``"spawn"``, ``"forkserver"``); ``None`` keeps the platform
        preference (fork on Linux).  Declaratively-registered plugins
        (:func:`repro.campaign.registry.register_plugin`) work under
        every start method — the pool initializer replays the plugin
        snapshot in each worker — while live-callable entries still
        need ``fork`` to be inherited.
    max_retries / spec_timeout / on_error:
        The :class:`~repro.campaign.failures.RetryBudget`: failed specs
        are re-executed up to ``max_retries`` times after deterministic
        seeded backoff delays; ``spec_timeout`` seconds arm a
        worker-side watchdog that interrupts a spec with a retryable
        :class:`~repro.errors.SpecTimeout`; a spec that exhausts its
        budget raises (``"raise"``, the default) or is quarantined into
        the result's :class:`~repro.campaign.failures.FailureReport`
        (``"quarantine"``) so the campaign completes with partial
        results.

    Fault containment (any of the above knobs non-default, or a
    :mod:`repro.faults` plan armed) cuts one spec per unit, so
    failures come back structured and attributed to their spec
    instead of poisoning the pool; retry rounds reuse the run's pool.
    That changes throughput, never results.
    """

    def __init__(
        self,
        n_workers: int = 1,
        *,
        cache: Optional[ResultCache] = None,
        start_method: Optional[str] = None,
        max_retries: int = 0,
        spec_timeout: Optional[float] = None,
        on_error: str = "raise",
    ) -> None:
        if n_workers < 1:
            raise SchedulingError(f"n_workers must be >= 1, got {n_workers}")
        self.budget = RetryBudget(max_retries, spec_timeout, on_error)
        if start_method is not None:
            known = multiprocessing.get_all_start_methods()
            if start_method not in known:
                raise SchedulingError(
                    f"start_method {start_method!r} unavailable on this "
                    f"platform; known: {known}"
                )
        self.n_workers = int(n_workers)
        self.cache = cache
        self.start_method = start_method

    # ------------------------------------------------------------------
    def run(
        self,
        specs: Sequence[Spec],
        *,
        on_result: Optional[OnResult] = None,
    ) -> CampaignResult:
        """Execute ``specs``; results come back in spec order.

        ``on_result`` is fed each ``(index, result)`` as it becomes
        available (cache hits first, then units in completion order);
        reduce the returned, spec-ordered ``results`` rather than the
        arrival order.
        """
        return cached_run(self, specs, on_result)

    def _units(self, specs: Sequence[Spec], pending: List[int]) -> List[_Unit]:
        """Cut ``pending`` into units, vector batches first.

        Vectorizable scenarios form vector batches when each worker's
        share reaches :data:`MIN_LANES`: ``max(n_workers, ceil(n /
        MAX_UNIT))`` batches, batch ``j`` taking every such scenario
        ``j, j + n_batches, ...`` so cost-ordered sweeps split evenly.
        Every other spec, and every spec of a contained run, is a unit
        of its own and is scheduled dynamically.
        """
        contain = (
            self.budget.contained or faults.active_plan() is not None
        )
        vector = [i for i in pending if _vectorizable(specs[i])]
        if contain or -(-len(vector) // self.n_workers) < MIN_LANES:
            vector = []
        n_batches = max(self.n_workers, -(-len(vector) // MAX_UNIT))
        batches = [
            _Unit(tuple((i, specs[i]) for i in vector[j::n_batches]))
            for j in range(min(n_batches, len(vector)))
        ]
        batched = set(vector)
        return batches + [
            _Unit(((i, specs[i]),), contain, self.budget.spec_timeout)
            for i in pending
            if i not in batched
        ]

    def _execute(
        self,
        specs: Sequence[Spec],
        pending: List[int],
        absorb: Callable[[int, ScenarioResult], None],
    ) -> Executed:
        """Run ``pending`` in pool rounds; the executor of
        :func:`cached_run`.

        Only contained runs have failures to charge: each goes to the
        :class:`RetryBudget`, specs granted a retry come back as the
        next round (in index order, each unit sleeping out its backoff
        delay), and an exhausted budget raises the spec's
        :class:`~repro.errors.SpecFailure`.  Default units raise
        straight through instead.
        """
        report = FailureReport()
        demoted = 0
        attempts: Dict[int, int] = {}
        units = self._units(specs, pending)
        timeout = self.budget.spec_timeout
        with self._pool(len(units)) as imap:
            while units:
                retry: List[Tuple[int, float]] = []
                for outcomes, demotions in imap(units):
                    demoted += demotions
                    for index, result, failure in outcomes:
                        if failure is None:
                            absorb(index, result)
                            continue
                        verdict = self.budget.charge(
                            report, attempts, index, specs[index], failure
                        )
                        if verdict.kind == RETRY:
                            retry.append((index, verdict.delay))
                        elif verdict.kind == EXHAUSTED:
                            raise failure.to_exception()
                units = [
                    _Unit(((i, specs[i]),), True, timeout, delay)
                    for i, delay in sorted(retry)
                ]
        return report, {"demoted": demoted}

    @contextlib.contextmanager
    def _pool(self, n_units: int) -> Iterator[Callable]:
        """An ``imap(units)`` over this run's one pool (or in-process
        when there is one worker or one unit)."""
        if self.n_workers == 1 or n_units <= 1:
            yield lambda units: map(_run_unit, units)
            return
        if self.start_method is not None:
            ctx = multiprocessing.get_context(self.start_method)
        else:
            # Prefer fork only on Linux: it is the platform default
            # there and lets workers inherit live-callable registry
            # entries.  macOS has fork available but deliberately defaults to
            # spawn (fork is unsafe with threaded frameworks), so
            # respect the platform default elsewhere.
            methods = multiprocessing.get_all_start_methods()
            use_fork = sys.platform.startswith("linux") and "fork" in methods
            ctx = multiprocessing.get_context("fork" if use_fork else None)
        # Replaying the declarative-plugin snapshot in every worker
        # makes custom registered entries visible under spawn (and
        # forkserver), not just fork inheritance.
        with ctx.Pool(
            processes=min(self.n_workers, n_units),
            initializer=_pool_init,
            initargs=(plugin_snapshot(), faults.plan_snapshot()),
        ) as pool:
            yield lambda units: pool.imap_unordered(_run_unit, units)
