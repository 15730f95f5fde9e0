"""In-memory span tracer that instruments ``repro`` from the outside.

Nothing under ``src/`` knows about this module.  :class:`Tracer`
records nested spans and counters; :class:`Probes` wraps the public
callables of each layer (class methods, and the names that
``repro.campaign.runner`` and friends bind with ``from ... import``)
so every call opens a span, and restores the originals on exit.

A span's *self* time is its duration minus the time covered by its
child spans, so the self times of every span beneath a root plus the
root's own (unattributed) time add up to the root's wall time exactly.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = ["Span", "Tracer", "Probes", "PATH_CODES", "layer_metrics"]

#: One letter per engine path, used in the per-scenario path string.
PATH_CODES = {
    "scalar": "S",
    "tiled": "T",
    "vector": "V",
    "fallback": "F",
    "demoted": "D",
}


@dataclass
class Span:
    name: str
    start: float
    parent: Optional[int]
    end: float = 0.0
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Spans, per-name totals and free-form counters, all in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._active: Counter = Counter()

    # ------------------------------------------------------------------
    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.clock(), parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._active[name] += 1
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        index = self._stack.pop()
        if self.spans[index] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        self._active[span.name] -= 1
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration
        self.self_s[span.name] += span.self_s
        if not self._active[span.name]:
            # Outermost span of this name: recursion is not re-counted.
            self.incl_s[span.name] += span.duration

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is currently open."""
        return self._active[name] > 0

    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable[..., None]] = None,
        context: Optional[Callable[..., Any]] = None,
    ) -> Callable:
        """``fn`` timed as span ``name``.

        ``context(args, kwargs)``, when given, returns a context
        manager entered inside the span around the call.  ``after(span,
        args, kwargs, result)`` runs once the span is closed (so it sees
        final self time), and only when ``fn`` returns.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                if context is None:
                    result = fn(*args, **kwargs)
                else:
                    with context(args, kwargs):
                        result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return traced

    def subtree(self, root: Span) -> List[Span]:
        """``root`` and every span opened beneath it."""
        start = next(k for k, s in enumerate(self.spans) if s is root)
        members = {start}
        out = [root]
        for k in range(start + 1, len(self.spans)):
            span = self.spans[k]
            if span.parent in members:
                members.add(k)
                out.append(span)
        return out


# ----------------------------------------------------------------------
# Probes: which public callables are wrapped, and what each one counts
# ----------------------------------------------------------------------
def _resolve(module: str, attr: str):
    """``(owner, name, raw attribute)`` or ``None`` when absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        raw = owner.__dict__.get(name)
    else:
        raw = getattr(owner, name, None)
    if raw is None:
        return None
    return owner, name, raw


class Probes:
    """Installs layer probes on ``repro`` for the life of a ``with``.

    ``spec_index`` maps specs to their position in the workload's spec
    list, so each scenario's engine path is recorded by index.
    """

    def __init__(self, tracer: Tracer, spec_index: Dict[Any, int]) -> None:
        self.tracer = tracer
        self.spec_index = spec_index
        #: Engine path per spec index (letters of :data:`PATH_CODES`).
        self.paths: Dict[int, str] = {}
        #: ``module:attr`` of each probe target that does not exist.
        self.missing: List[str] = []
        self._current: List[Optional[int]] = []
        self._batch: List[List[int]] = []
        self._saved: List[tuple] = []

    # -- hooks ---------------------------------------------------------
    def _record_path(self, kind: str, index: Optional[int] = None) -> None:
        if index is None:
            index = self._current[-1] if self._current else None
        self.tracer.counts[f"sim.path.{kind}"] += 1
        if index is not None:
            self.paths[index] = PATH_CODES[kind]

    @contextlib.contextmanager
    def _in_spec(self, args, kwargs):
        spec = args[0] if args else kwargs.get("spec")
        try:
            index = self.spec_index.get(spec)
        except TypeError:  # an unhashable spec cannot be indexed
            index = None
        self._current.append(index)
        try:
            yield
        finally:
            self._current.pop()

    def _spec_after(self, span, args, kwargs, result) -> None:
        self.tracer.samples["campaign.runner.spec_ms"].append(
            span.duration * 1e3
        )

    @contextlib.contextmanager
    def _in_batch(self, args, kwargs):
        items = args[0] if args else kwargs.get("items", ())
        self._batch.append([int(i) for i, _spec in items])
        try:
            yield
        finally:
            self._batch.pop()

    def _engine_after(self, span, args, kwargs, result) -> None:
        t, c = self.tracer, self.tracer.counts
        c["sim.engine.calls"] += 1
        c["sim.engine.segments"] += len(result.trace)
        c["sim.engine.jobs"] += int(result.released_jobs)
        c["sim.engine.tiled_cycles"] += int(result.tiled_cycles)
        sim = args[0]
        if type(sim.dvs).__name__ == "LaEDF":
            t.self_s["sim.engine.laedf"] += span.self_s
        if t.inside("exact.nearopt"):
            t.self_s["sim.engine.nearopt"] += span.self_s
        if t.inside("sim.vector.run"):
            return  # the vector engine's hook records this scenario
        self._record_path("tiled" if result.tiled_cycles else "scalar")

    def _vector_after(self, span, args, kwargs, result) -> None:
        engine = args[0]
        c = self.tracer.counts
        reasons = list(getattr(engine, "fallback_reasons", ()))
        c["sim.vector.scenarios"] += sum(1 for r in reasons if r is None)
        c["sim.vector.fallbacks"] += sum(1 for r in reasons if r is not None)
        nonfinite = getattr(
            importlib.import_module("repro.sim.vector"),
            "_NONFINITE_REASON",
            None,
        )
        batch = self._batch[-1] if self._batch else []
        for k, reason in enumerate(reasons):
            if reason is None:
                kind = "vector"
            elif reason == nonfinite:
                kind = "demoted"
            else:
                kind = "fallback"
            self._record_path(kind, batch[k] if k < len(batch) else None)

    def _nearopt_after(self, span, args, kwargs, result) -> None:
        self.tracer.counts["exact.nearopt_calls"] += 1

    def _taskset_after(self, span, args, kwargs, result) -> None:
        c = self.tracer.counts
        c["workloads.tasksets"] += 1
        c["workloads.nodes"] += sum(len(g.graph) for g in result)

    def _reduce_after(self, span, args, kwargs, result) -> None:
        c = self.tracer.counts
        c["sim.profile.segments_in"] += len(args[0].trace)
        c["sim.profile.segments_out"] += len(result.durations)

    def _battery_after(self, span, args, kwargs, result) -> None:
        model = args[0]
        t, c = self.tracer, self.tracer.counts
        c["battery.loads"] += 1
        if type(model).__name__ == "StochasticKiBaM":
            t.self_s["battery.stochastic"] += span.self_s
            t.samples["battery.slots"].append(
                float(result.lifetime) / float(model.dt)
            )
        else:
            t.self_s["battery.kernel"] += span.self_s

    def _campaign_after(self, span, args, kwargs, result) -> None:
        c = self.tracer.counts
        c["campaign.runner.executed"] += int(result.executed)
        c["sim.vector.demotions"] += int(getattr(result, "demoted", 0))

    def _get_after(self, span, args, kwargs, result) -> None:
        c = self.tracer.counts
        c["campaign.cache.gets"] += 1
        if result is not None:
            c["campaign.cache.hits"] += 1

    def _put_after(self, span, args, kwargs, result) -> None:
        self.tracer.counts["campaign.cache.puts"] += 1

    def _hash_after(self, span, args, kwargs, result) -> None:
        self.tracer.counts["campaign.spec.hashes"] += 1

    # -- the probe table -----------------------------------------------
    def table(self):
        """``(module, attribute, span name, after, context)`` per probe."""
        return [
            ("repro.api.sweep", "Sweep.expand_with_meta", "api.sweep.expand",
             None, None),
            ("repro.campaign.runner", "paper_task_set", "workloads.taskset",
             self._taskset_after, None),
            ("repro.sim.engine", "Simulator.run", "sim.engine.run",
             self._engine_after, None),
            ("repro.campaign.runner", "near_optimal_run", "exact.nearopt",
             self._nearopt_after, None),
            ("repro.campaign.runner", "run_scenario_batch",
             "campaign.runner.batch", None, self._in_batch),
            ("repro.sim.batch", "ScenarioBatch.run", "sim.batch.run",
             None, None),
            ("repro.sim.vector", "VectorEngine.run", "sim.vector.run",
             self._vector_after, None),
            ("repro.sim.engine", "SimulationResult.profile",
             "sim.profile.reduce", self._reduce_after, None),
            ("repro.sim.profile", "CurrentProfile.rebinned",
             "sim.profile.rebin", None, None),
            ("repro.battery.base", "BatteryModel.run_profile",
             "battery.run_profile", self._battery_after, None),
            ("repro.sim.batch", "run_profile_batch", "battery.batch",
             None, None),
            ("repro.campaign.runner", "evaluate_lifetime",
             "analysis.lifetime", None, None),
            ("repro.campaign.runner", "CampaignRunner.run",
             "campaign.runner.run", self._campaign_after, None),
            ("repro.campaign.runner", "run_spec", "campaign.runner.spec",
             self._spec_after, self._in_spec),
            ("repro.campaign.cache", "ResultCache.get", "campaign.cache.get",
             self._get_after, None),
            ("repro.campaign.cache", "ResultCache.put", "campaign.cache.put",
             self._put_after, None),
            ("repro.campaign.cache", "content_hash", "campaign.spec.hash",
             self._hash_after, None),
            ("repro.campaign.spec", "content_hash", "campaign.spec.hash",
             self._hash_after, None),
            ("repro.campaign.runner", "content_hash", "campaign.spec.hash",
             self._hash_after, None),
            ("repro.api.frame", "ResultFrame.from_results", "api.frame.build",
             None, None),
            ("repro.api.frame", "ResultFrame.normalize", "api.frame.build",
             None, None),
            ("repro.api.frame", "ResultFrame.filter", "api.frame.build",
             None, None),
            ("repro.api.frame", "ResultFrame.exclude", "api.frame.build",
             None, None),
            ("repro.api.frame", "ResultFrame.group_by", "api.frame.build",
             None, None),
            ("repro.api.study", "StudyResult.format", "api.frame.build",
             None, None),
        ]

    # -- install / restore ---------------------------------------------
    def __enter__(self) -> "Probes":
        for module, attr, name, after, context in self.table():
            found = _resolve(module, attr)
            if found is None:
                self.missing.append(f"{module}:{attr}")
                continue
            owner, key, raw = found
            if isinstance(raw, classmethod):
                fn = self.tracer.wrap(name, raw.__func__, after, context)
                new = classmethod(fn)
            else:
                new = self.tracer.wrap(name, raw, after, context)
            self._saved.append((owner, key, raw))
            setattr(owner, key, new)
        return self

    def __exit__(self, *exc) -> None:
        for owner, key, raw in reversed(self._saved):
            setattr(owner, key, raw)
        self._saved.clear()


# ----------------------------------------------------------------------
# Per-layer metrics of one traced repetition
# ----------------------------------------------------------------------
def _quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def layer_metrics(tracer: Tracer, root: Span) -> Dict[str, float]:
    """Per-layer metrics from the spans and counters of one traced run.

    ``*_s`` metrics are self times (the layer's own work, excluding
    wrapped layers it calls), except the envelopes
    ``campaign.runner.run_s``, ``sim.batch.run_s`` and
    ``exact.nearopt_s``, which are inclusive.  ``root`` is the span
    around the timed region; its self time is the unattributed rest.
    Every probe span but the set-up sweep expansion lies beneath
    ``root``, so ``api.sweep.expand_s`` alone also counts set-up time
    (the expansion before the runner is ready, plus any inside it).
    """
    own, incl, c = tracer.self_s, tracer.incl_s, tracer.counts
    engine_s = own["sim.engine.run"]
    stochastic_s = own["battery.stochastic"]
    slots = sum(tracer.samples["battery.slots"])
    spec_ms = tracer.samples["campaign.runner.spec_ms"]
    return {
        "api.sweep.expand_s": own["api.sweep.expand"],
        "workloads.taskset_s": own["workloads.taskset"],
        "workloads.tasksets": c["workloads.tasksets"],
        "workloads.nodes": c["workloads.nodes"],
        "sim.engine.run_s": engine_s,
        "sim.engine.calls": c["sim.engine.calls"],
        "sim.engine.segments": c["sim.engine.segments"],
        "sim.engine.jobs": c["sim.engine.jobs"],
        "sim.engine.segments_per_s": (
            c["sim.engine.segments"] / engine_s if engine_s else 0.0
        ),
        "sim.engine.tiled_cycles": c["sim.engine.tiled_cycles"],
        "sim.engine.laedf_s": own["sim.engine.laedf"],
        "sim.engine.nearopt_s": own["sim.engine.nearopt"],
        "exact.nearopt_s": incl["exact.nearopt"],
        "exact.nearopt_calls": c["exact.nearopt_calls"],
        "sim.batch.run_s": incl["sim.batch.run"],
        "sim.vector.run_s": own["sim.vector.run"],
        "sim.vector.scenarios": c["sim.vector.scenarios"],
        "sim.vector.fallbacks": c["sim.vector.fallbacks"],
        "sim.vector.demotions": c["sim.vector.demotions"],
        **{f"sim.path.{kind}": c[f"sim.path.{kind}"] for kind in PATH_CODES},
        "sim.profile.reduce_s": own["sim.profile.reduce"],
        "sim.profile.rebin_s": own["sim.profile.rebin"],
        "sim.profile.segments_in": c["sim.profile.segments_in"],
        "sim.profile.segments_out": c["sim.profile.segments_out"],
        "battery.run_s": (
            own["battery.run_profile"]
            + own["battery.batch"]
            + own["analysis.lifetime"]
        ),
        "battery.stochastic_s": stochastic_s,
        "battery.kernel_s": own["battery.kernel"],
        "battery.loads": c["battery.loads"],
        "battery.slots": slots,
        "battery.slots_per_s": slots / stochastic_s if stochastic_s else 0.0,
        "campaign.runner.run_s": incl["campaign.runner.run"],
        "campaign.runner.self_s": (
            own["campaign.runner.run"]
            + own["campaign.runner.spec"]
            + own["campaign.runner.batch"]
        ),
        "campaign.runner.spec_p50_ms": _quantile(spec_ms, 0.5),
        "campaign.runner.spec_p90_ms": _quantile(spec_ms, 0.9),
        "campaign.runner.spec_max_ms": max(spec_ms, default=0.0),
        "campaign.runner.executed": c["campaign.runner.executed"],
        "campaign.cache.get_s": own["campaign.cache.get"],
        "campaign.cache.gets": c["campaign.cache.gets"],
        "campaign.cache.hits": c["campaign.cache.hits"],
        "campaign.cache.put_s": own["campaign.cache.put"],
        "campaign.cache.puts": c["campaign.cache.puts"],
        "campaign.spec.hash_s": own["campaign.spec.hash"],
        "campaign.spec.hashes": c["campaign.spec.hashes"],
        "api.frame.build_s": own["api.frame.build"],
        "trace.wall_s": root.duration,
        "trace.unattributed_s": root.self_s,
    }
