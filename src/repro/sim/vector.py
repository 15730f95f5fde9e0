"""Struct-of-arrays vector engine: N scenarios per numpy pass.

:class:`VectorEngine` runs many *independent* scenarios lock-step: all
per-scenario scheduler state (release clocks, job progress, DVS
budgets, frequency tables) lives in ``(N, ...)`` numpy arrays, and one
"round" of the engine advances every live scenario to its own next
event with a fixed sequence of vectorized passes — releases, deadline
checks, speed selection, the two-adjacent-level mix, candidate
selection and dispatch.  Scenarios are independent, so no cross-
scenario event ordering is needed; *within* a scenario every float is
produced by the same IEEE-754 expression tree as the scalar event loop
in :mod:`repro.sim.engine`, which makes the vector results bit-
identical to ``Simulator.run`` (counts, labels, misses, release
clocks; trace columns bitwise).

Supported configurations (everything expressible as array ops):

* DVS: ``NoDVS``, ``StaticUtilization``, ``CcEDF``, ``LaEDF`` (the
  lookahead runs as a batched reverse-EDF reduction; both
  granularities each)
* priority: ``RandomPriority`` (exact RNG replay), ``LTF``, ``STF``,
  ``PUBS`` with any registry estimator (worst-case, scaled, history,
  oracle)
* ready list: ``MOST_IMMINENT`` or ``ALL_RELEASED``, with or without
  the Algorithm 2 feasibility guard (a vectorized prefix-scan over the
  EDF-ordered active jobs)
* processor: plain :class:`~repro.processor.platform.Processor` with a
  pure :class:`~repro.processor.power.PowerModel` (``mix`` or
  ``quantize`` speed policy)
* actuals providers declaring ``job_invariant`` (constant per node) or
  ``job_keyed`` (each draw a pure hash-keyed function of
  ``(graph, node, job_index)``, e.g.
  :class:`~repro.workloads.generator.UniformActuals` — per-job tables
  are pre-drawn at compile time); all phases zero

Anything else — subclassed components, custom power models or
estimators, non-zero phases, actuals providers with call-order state —
falls back *per scenario* to the scalar engine, so requesting the
vector engine is always safe.
A scenario may also be demoted mid-run (e.g. a deadline miss under
``on_miss='raise'``); demoted scenarios are re-run scalar from scratch
in item order, so exceptions propagate exactly as a scalar batch would
raise them.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .engine import _EPS, DeadlineMiss, SimulationResult, Simulator
from .trace import IDLE, ExecutionTrace

__all__ = ["VectorEngine", "unsupported_reason"]

# DVS kind codes (per-scenario dispatch without isinstance per round).
_DVS_NODVS = 0
_DVS_STATIC = 1
_DVS_CCEDF_NODE = 2
_DVS_CCEDF_GRAPH = 3
_DVS_LAEDF_NODE = 4
_DVS_LAEDF_GRAPH = 5

# Priority kind codes.
_PRIO_RANDOM = 0
_PRIO_LTF = 1
_PRIO_STF = 2
_PRIO_PUBS = 3

# Estimator kind codes (PUBS rows only).
_EST_WORST = 0
_EST_SCALED = 1
_EST_HISTORY = 2
_EST_ORACLE = 3

#: Matches ``bisect_left(freqs, target * (1 - 1e-12))`` in the scalar
#: frequency table.
_ONE_MINUS = 1.0 - 1e-12

#: ``repro.dvs.laedf._EPS`` == ``repro.core.priority._EPS``.
_LA_EPS = 1e-12
#: ``repro.core.estimator._EPS``.
_EST_EPS = 1e-9
#: ``repro.core.feasibility._ATOL``.
_FEAS_ATOL = 1e-9

#: Ceiling on pre-drawn per-job actuals (total draws per scenario) —
#: beyond this the compile-time table would dwarf the simulation state.
_MAX_PREDRAW = 4_000_000

_BIG_RANK = np.iinfo(np.int64).max

#: An empty set of flat candidate lanes.
_NO_ROWS = np.empty(0, dtype=np.intp)

#: Demotion reason for the numeric guardrail: a vectorized scenario
#: whose materialized trace contains NaN/inf is re-run scalar rather
#: than silently returned (the scalar engine either produces finite
#: values or raises a diagnosable error).
_NONFINITE_REASON = "non-finite value in vectorized trace"


def _la_pass(d, c, util, present, u):
    """Reverse-EDF half of :meth:`LaEDF._lookahead`, one row per lane.

    ``d``/``c``/``util``/``present`` are ``(P, G)`` arrays with the
    graph axis last; ``u`` is each row's ``sum(u_i)`` in task order (a
    fresh ``(P,)`` array, updated in place).  Returns ``(s, d_n,
    has)``: the un-deferrable work ``s``, the earliest pending deadline
    ``d_n`` and whether any work is pending.  The scalar loop never
    reads the clock — only the final ``horizon = d_n - t`` does — so
    the speed-setting rows and pUBS's hypothetical rows share this pass
    and each row then finishes with its own clock in :func:`_la_finish`.

    Every float op replays the scalar loop's expression order: the
    reverse-EDF traversal is a stable argsort on ``-d`` (absent graphs
    sort last), and ``u``/``s`` advance position by position exactly
    like the Python ``for`` loop.  Absent positions carry ``u_i = 0``
    and ``x = c_i = 0``, so ``u - 0.0`` and ``s + 0.0`` leave the
    accumulators bitwise unchanged (``s`` starts at ``+0.0`` and only
    grows).  Callers run under ``np.errstate(divide/invalid="ignore")``:
    masked-out lanes still flow through the arithmetic.
    """
    P, G = d.shape
    order = np.argsort(np.where(present, -d, np.inf), axis=1, kind="stable")
    # One flat gather per column up front, position-major, so each
    # position's lanes are one contiguous row (and the reductions run
    # over the short position axis).
    flat = (order + (np.arange(P) * G)[:, None]).T.ravel()
    pres_s = present.ravel()[flat].reshape(G, P)
    c_s = np.where(pres_s, c.ravel()[flat].reshape(G, P), 0.0)
    d_s = d.ravel()[flat].reshape(G, P)
    pend = c_s > _LA_EPS
    has = pend.any(axis=0)
    d_n = np.where(pend, d_s, np.inf).min(axis=0)
    u_s = np.where(pres_s, util.ravel()[flat].reshape(G, P), 0.0)
    span = d_s - d_n
    small = (span <= _LA_EPS) | ~pres_s
    defer = ~small
    s = np.zeros(P)
    y = np.empty(P)
    for p in range(G):
        c_i = c_s[p]
        span_i = span[p]
        np.subtract(u, u_s[p], out=u)
        # x = c_i if small else max(0, c_i - (1 - u) * span)
        np.subtract(1.0, u, out=y)
        np.multiply(y, span_i, out=y)
        np.subtract(c_i, y, out=y)
        x = np.maximum(0.0, y)
        np.copyto(x, c_i, where=small[p])
        # u += (c_i - x) / span where deferrable
        np.subtract(c_i, x, out=y)
        np.divide(y, span_i, out=y)
        np.add(u, y, out=u, where=defer[p])
        np.add(s, x, out=s)
    return s, d_n, has


def _la_finish(s, d_n, has, t):
    """The clock-dependent tail of :meth:`LaEDF._lookahead`: ``s /
    (d_n - t)``, 1.0 at or past ``d_n``, 0.0 with no pending work."""
    horizon = d_n - t
    return np.where(
        has, np.where(horizon <= _LA_EPS, 1.0, s / horizon), 0.0
    )


def unsupported_reason(
    simulator: Simulator, horizon: float
) -> Optional[str]:
    """Why this scenario cannot be vectorized (``None`` = it can).

    The checks are deliberately exact-type checks: a subclass could
    override any hook, and the vector engine replicates the *stock*
    semantics only.
    """
    return _classify(simulator, horizon)[0]


def _classify(
    simulator: Simulator, horizon: float
) -> Tuple[Optional[str], Optional[List[np.ndarray]]]:
    """(reason, actuals) — one ``(nodes, jobs)`` array per graph when
    vectorizable.

    Validating the actuals means drawing them, and providers can be
    expensive per call (hash-keyed RNG draws); returning the validated
    values lets compilation reuse them instead of drawing twice.  For
    ``job_invariant`` providers the job axis has length 1; for
    ``job_keyed`` providers every job the horizon can release is
    pre-drawn — legal because such draws are a pure function of the
    ``(graph, node, job_index)`` key, never of interleaving order.
    The stock :class:`~repro.workloads.generator.UniformActuals`
    draws the scenario's whole table in one keyed
    :meth:`~repro.workloads.generator.UniformActuals.draw_keyed` call,
    which is then validated at once and split per graph; any other
    provider is called once per ``(graph, node, job_index)``.
    """
    # Imported lazily: core imports sim.state, so a module-level import
    # here would complete a core<->sim cycle.
    from ..core.estimator import (
        HistoryEstimator,
        OracleEstimator,
        ScaledEstimator,
        WorstCaseEstimator,
    )
    from ..core.methodology import SchedulingPolicy
    from ..core.priority import LTF, PUBS, STF, RandomPriority
    from ..core.ready_list import ALL_RELEASED, MOST_IMMINENT
    from ..dvs.ccedf import CcEDF
    from ..dvs.laedf import LaEDF
    from ..dvs.nodvs import NoDVS
    from ..dvs.static import StaticUtilization
    from ..processor.dvfs import FrequencyTable
    from ..processor.platform import Processor
    from ..processor.power import PowerModel
    from ..workloads.generator import UniformActuals
    from .state import _actual_tol

    if type(simulator) is not Simulator:
        return "subclassed Simulator", None
    try:
        h = float(horizon)
    except (TypeError, ValueError):
        return "non-numeric horizon", None
    if not (h > 0):
        return "non-positive horizon", None
    proc = simulator.processor
    if type(proc) is not Processor:
        return "subclassed Processor", None
    if type(proc.table) is not FrequencyTable:
        return "subclassed FrequencyTable", None
    if type(proc.power) is not PowerModel:
        return "custom power model", None
    if proc.speed_policy not in ("mix", "quantize"):
        return f"speed policy {proc.speed_policy!r}", None
    policy = simulator.policy
    if type(policy) is not SchedulingPolicy:
        return "subclassed SchedulingPolicy", None
    if policy.ready_list not in (MOST_IMMINENT, ALL_RELEASED):
        return f"ready list {policy.ready_list.name!r}", None
    prio = policy.priority
    if type(prio) not in (RandomPriority, LTF, STF, PUBS):
        return f"priority function {prio.name!r}", None
    if type(prio) is PUBS:
        est = prio.estimator
        if type(est) not in (
            WorstCaseEstimator,
            ScaledEstimator,
            HistoryEstimator,
            OracleEstimator,
        ):
            return f"pUBS estimator {est.name!r}", None
        if type(est) is HistoryEstimator and est._hist:
            return "pre-seeded history estimator", None
    if type(simulator.dvs) not in (
        NoDVS, StaticUtilization, CcEDF, LaEDF,
    ):
        return f"DVS algorithm {simulator.dvs.name!r}", None
    invariant = bool(getattr(simulator.actuals, "job_invariant", False))
    keyed = bool(getattr(simulator.actuals, "job_keyed", False))
    if not (invariant or keyed):
        return "actuals neither job-invariant nor job-keyed", None
    if any(g.phase != 0.0 for g in simulator.task_set):
        return "non-zero release phases", None
    if len(simulator.task_set) == 0:
        return "empty task set", None
    eps = simulator._time_eps()
    graphs = list(simulator.task_set)
    # Job-table widths, graph by graph, up to the first graph that
    # takes the table past the pre-draw ceiling: the graphs before it
    # are still drawn and validated first, so an invalid actual there
    # reports as such.
    widths: List[int] = []
    actuals: List[np.ndarray] = []
    try:
        total_draws = 0
        for g in graphs:
            if invariant:
                jg = 1
            else:
                # Releases happen strictly before the horizon (with eps
                # slack), so job indices stay below (h + eps) / period.
                jg = int(np.floor((h + eps) / g.period)) + 1
            total_draws += len(g.graph) * jg
            if total_draws > _MAX_PREDRAW:
                break
            widths.append(jg)
        drawn = graphs[: len(widths)]
        if type(simulator.actuals) is UniformActuals:
            # The stock provider draws the whole table in one keyed
            # call, bit-identical to its per-call path.
            rows = [
                (g.name, node.name, jg, node.wcet)
                for g, jg in zip(drawn, widths)
                for node in g.graph
            ]
            vals = simulator.actuals.draw_keyed(rows)
            # Mirrors JobState validation; an invalid actual must raise
            # from the scalar engine, not from array code.
            bound = np.repeat(
                [wc + _actual_tol(wc) for _, _, _, wc in rows],
                [jg for _, _, jg, _ in rows],
            )
            if not ((vals > 0).all() and (vals <= bound).all()):
                return "actuals outside (0, wcet]", None
            start = 0
            for g, jg in zip(drawn, widths):
                stop = start + len(g.graph) * jg
                actuals.append(vals[start:stop].reshape(len(g.graph), jg))
                start = stop
        else:
            for g, jg in zip(drawn, widths):
                rows_g = np.empty((len(g.graph), jg))
                for m, node in enumerate(g.graph):
                    wc = node.wcet
                    tol = _actual_tol(wc)
                    for j in range(jg):
                        ac = float(
                            simulator.actuals(g.name, node.name, j, wc)
                        )
                        if not (0 < ac <= wc + tol):
                            return "actuals outside (0, wcet]", None
                        rows_g[m, j] = ac
                actuals.append(rows_g)
    except Exception:
        return "actuals provider raised", None
    if len(widths) < len(graphs):
        return "per-job actuals table too large", None
    return None, actuals


class _Columns:
    """Append-only global trace buffer shared by all vector scenarios.

    One row per recorded segment; ``scen`` says which scenario owns the
    row, ``key`` encodes ``graph_index * (M + 1) + node_index`` (or the
    per-scenario idle sentinel), and ``vals`` holds the float columns
    ``start, dur, speed, volt, cur``.  Rows are appended in per-scenario
    chronological order, so a stable argsort by ``scen`` recovers each
    scenario's trace.
    """

    def __init__(self, cap: int = 1024) -> None:
        self.n = 0
        self.scen = np.empty(cap, dtype=np.intp)
        self.key = np.empty(cap, dtype=np.intp)
        self.vals = np.empty((5, cap))

    def append(
        self, scen: np.ndarray, key: np.ndarray, vals: np.ndarray
    ) -> None:
        # The scalar trace drops zero-length dispatches at record time;
        # dropping here keeps per-scenario row counts aligned with the
        # segments the scalar engine would have kept.
        keep = vals[1] > 0
        m = int(np.count_nonzero(keep))
        if m == 0:
            return
        n = self.n
        need = n + m
        if need > self.scen.size:
            cap = self.scen.size
            while cap < need:
                cap *= 2
            for name in ("scen", "key"):
                new = np.empty(cap, dtype=np.intp)
                new[:n] = getattr(self, name)[:n]
                setattr(self, name, new)
            new = np.empty((5, cap))
            new[:, :n] = self.vals[:, :n]
            self.vals = new
        self.scen[n:need] = scen[keep]
        self.key[n:need] = key[keep]
        self.vals[:, n:need] = vals[:, keep]
        self.n = need


class VectorEngine:
    """Run N ``(Simulator, horizon)`` scenarios in lock-step SoA form.

    Parameters
    ----------
    scenarios:
        ``(simulator, horizon)`` pairs.  Each simulator must be fresh
        (never run), exactly like items handed to a scalar batch.

    After :meth:`run`, :attr:`fallback_reasons` holds one entry per
    scenario: ``None`` for scenarios computed by the vector engine, or
    a short human-readable reason for those that fell back to (or were
    demoted to) the scalar engine.  :attr:`numeric_demotions` counts
    the subset of demotions caused by the numeric guardrail (NaN/inf
    detected in a vectorized scenario's trace).
    """

    def __init__(
        self, scenarios: Sequence[Tuple[Simulator, float]]
    ) -> None:
        self.numeric_demotions = 0
        self.scenarios: List[Tuple[Simulator, float]] = [
            (sim, horizon) for sim, horizon in scenarios
        ]
        classified = [
            _classify(sim, horizon) for sim, horizon in self.scenarios
        ]
        self.fallback_reasons: List[Optional[str]] = [
            reason for reason, _ in classified
        ]
        self._actuals: List[Optional[List[np.ndarray]]] = [
            actuals for _, actuals in classified
        ]

    # ------------------------------------------------------------------
    @property
    def n_vectorized(self) -> int:
        return sum(1 for r in self.fallback_reasons if r is None)

    @property
    def n_fallback(self) -> int:
        return len(self.fallback_reasons) - self.n_vectorized

    def run(self) -> List[SimulationResult]:
        """Simulate every scenario; returns results in item order.

        Fallback scenarios run the scalar engine in item order, so any
        exception (e.g. ``DeadlineMissError`` under ``on_miss='raise'``)
        surfaces exactly as a scalar loop over the items would raise it.
        """
        n = len(self.scenarios)
        results: List[Optional[SimulationResult]] = [None] * n
        reasons = list(self.fallback_reasons)
        vec_ids = [i for i in range(n) if reasons[i] is None]
        if vec_ids:
            vrun = _VectorRun(self.scenarios, vec_ids, self._actuals)
            vec_results, demoted = vrun.execute()
            for i, res in vec_results.items():
                results[i] = res
            for i, why in demoted.items():
                reasons[i] = why
                if why == _NONFINITE_REASON:
                    self.numeric_demotions += 1
        self.fallback_reasons = reasons
        for i in range(n):
            if results[i] is None:
                sim, horizon = self.scenarios[i]
                results[i] = sim.run(horizon)
        return results  # type: ignore[return-value]


#: Per-lane arrays (first axis = live lane position).  Retiring or
#: demoting lanes compacts every one of them, so a round reads whole
#: arrays instead of gathering its live rows.
_LANE_FIELDS = (
    "lane_id",
    # static per scenario
    "present", "period", "total_wcet", "util", "u_sum", "name_rank",
    "n_nodes",
    "wcet", "exists", "node_rank", "gm_rank", "n_preds", "succ",
    "freqs", "levels", "n_levels", "f_max", "fmin_ratio", "quantize",
    "idle_cur", "dvs_kind", "static_u", "prio_kind", "rl_all",
    "feas_on", "est_kind", "est_factor", "est_window", "stoch",
    "on_raise", "eps", "horizon", "t_stop",
    # mutable lock-step state
    "actual", "hist", "hist_len", "t", "next_release", "job_counter",
    "in_jobs", "job_index", "job_deadline", "executed", "done",
    "n_done", "n_wait", "budget", "acc", "completed_jobs",
    "completed_nodes",
)


def _rows(mask: np.ndarray):
    """Positions of ``mask``: a slice when they are contiguous (indexing
    by it is a view), else an index array; ``None`` when empty."""
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return None
    lo, hi = int(idx[0]), int(idx[-1]) + 1
    if hi - lo == idx.size:
        return slice(lo, hi)
    return idx


def _edf(dl: np.ndarray, name_rank: np.ndarray):
    """``active_jobs()`` order per row: sorted by (deadline, name).

    Returns the EDF graph order, its flat index into the row-major
    ``(rows, G)`` layout, and each graph's EDF position.
    """
    k, G = dl.shape
    # lexsort's last key is primary; ties fall to the name rank.
    order = np.lexsort((name_rank, dl), axis=-1)
    flat = order + (np.arange(k) * G)[:, None]
    return order, flat, order.argsort(axis=1)


class _VectorRun:
    """One lock-step execution over the vectorizable scenario subset.

    Lanes are sorted once at compile time so that the row groups the
    round treats differently are contiguous: wide rows (``ALL_RELEASED``
    or pUBS) first, pUBS before the other wide rows, laEDF first within
    each group, feasibility rows, then random rows.  Wide rows are
    therefore always the prefix ``[0, n_wide)`` and pUBS rows the
    prefix ``[0, n_pubs)``.  Lanes that reach their horizon or are
    demoted are compacted away (order preserved), so every per-lane
    array holds live lanes only; ``lane_id`` maps a position back to
    its compile index for the logs, RNGs, job tables and demotions.
    """

    def __init__(
        self,
        scenarios: Sequence[Tuple[Simulator, float]],
        vec_ids: List[int],
        actuals: Sequence[Optional[List[np.ndarray]]],
    ) -> None:
        self.items = scenarios
        self.vec_ids = vec_ids
        self.actuals_cache = actuals
        self.demoted: Dict[int, str] = {}  # item index -> reason
        self._compile()

    # -- compilation ---------------------------------------------------
    def _compile(self) -> None:
        from ..core.estimator import (
            HistoryEstimator,
            ScaledEstimator,
            WorstCaseEstimator,
        )
        from ..core.priority import LTF, PUBS, RandomPriority, STF
        from ..core.ready_list import ALL_RELEASED
        from ..dvs.ccedf import CcEDF
        from ..dvs.laedf import LaEDF
        from ..dvs.nodvs import NoDVS
        from ..dvs.static import StaticUtilization

        V = len(self.vec_ids)
        sims = [self.items[i][0] for i in self.vec_ids]
        G = max(len(s.task_set) for s in sims)
        M = max(
            len(g.graph) for s in sims for g in s.task_set
        )
        L = max(len(s.processor.table) for s in sims)
        self.V, self.G, self.M, self.L = V, G, M, L

        self.present = np.zeros((V, G), dtype=bool)
        self.period = np.ones((V, G))
        self.total_wcet = np.zeros((V, G))
        self.util = np.zeros((V, G))
        self.name_rank = np.full((V, G), _BIG_RANK, dtype=np.int64)
        self.n_nodes = np.zeros((V, G), dtype=np.int64)
        self.wcet = np.zeros((V, G, M))
        self.actual = np.ones((V, G, M))
        self.exists = np.zeros((V, G, M), dtype=bool)
        self.node_rank = np.full((V, G, M), _BIG_RANK, dtype=np.int64)
        # succ[v, g, m, s]: node s of graph g waits on node m.
        self.succ = np.zeros((V, G, M, M), dtype=bool)
        self.freqs = np.full((V, L), np.inf)
        volts = np.zeros((V, L))
        currents = np.zeros((V, L))
        self.n_levels = np.ones(V, dtype=np.int64)
        self.f_max = np.ones(V)
        self.fmin_ratio = np.zeros(V)
        self.quantize = np.zeros(V, dtype=bool)
        self.idle_cur = np.zeros(V)
        self.dvs_kind = np.zeros(V, dtype=np.int64)
        self.static_u = np.zeros(V)
        self.prio_kind = np.zeros(V, dtype=np.int64)
        self.rl_all = np.zeros(V, dtype=bool)
        self.feas_on = np.zeros(V, dtype=bool)
        self.est_kind = np.zeros(V, dtype=np.int64)
        self.est_factor = np.zeros(V)
        self.est_window = np.ones(V, dtype=np.int64)
        self.stoch = np.zeros(V, dtype=bool)
        self._jobact: List[Dict[int, np.ndarray]] = [
            {} for _ in range(V)
        ]
        self.on_raise = np.zeros(V, dtype=bool)
        self.eps = np.zeros(V)
        self.horizon = np.zeros(V)
        self._rngs: List[Optional[np.random.Generator]] = [None] * V
        self._graph_names: List[List[str]] = []
        self._node_names: List[List[List[str]]] = []

        for v, i in enumerate(self.vec_ids):
            sim, horizon = self.items[i]
            drawn = self.actuals_cache[i]
            assert drawn is not None
            ts, proc = sim.task_set, sim.processor
            names = [g.name for g in ts]
            order = {n: r for r, n in enumerate(sorted(names))}
            self._graph_names.append(names)
            node_lists: List[List[str]] = []
            for g_idx, g in enumerate(ts):
                self.present[v, g_idx] = True
                self.period[v, g_idx] = g.period
                self.total_wcet[v, g_idx] = g.graph.total_wcet
                # The scalar laEDF reads the precomputed utilization
                # property per round; the value is a plain float.
                self.util[v, g_idx] = float(g.utilization)
                self.name_rank[v, g_idx] = order[g.name]
                nnames = list(g.graph.node_names)
                node_lists.append(nnames)
                self.n_nodes[v, g_idx] = len(nnames)
                nrank = {n: r for r, n in enumerate(sorted(nnames))}
                pos = {n: m for m, n in enumerate(nnames)}
                for m, nn in enumerate(nnames):
                    wc = g.graph.wcet(nn)
                    self.wcet[v, g_idx, m] = wc
                    # JobState stores min(actual, wcet) after its
                    # validation pass (the draw came from _classify).
                    self.actual[v, g_idx, m] = min(
                        float(drawn[g_idx][m, 0]), wc
                    )
                    self.exists[v, g_idx, m] = True
                    self.node_rank[v, g_idx, m] = nrank[nn]
                    for p in g.graph.predecessors(nn):
                        self.succ[v, g_idx, pos[p], m] = True
                if drawn[g_idx].shape[1] > 1:
                    # Job-dependent actuals: the per-job table, min'd
                    # against each node's WCET exactly as JobState
                    # stores draws at release time.
                    wc_col = self.wcet[v, g_idx, : len(nnames)]
                    self._jobact[v][g_idx] = np.minimum(
                        drawn[g_idx], wc_col[:, None]
                    )
                    self.stoch[v] = True
            self._node_names.append(node_lists)
            table = proc.table
            nl = len(table)
            self.n_levels[v] = nl
            for li, point in enumerate(table.points):
                self.freqs[v, li] = point.frequency
                volts[v, li] = point.voltage
                currents[v, li] = proc.power.battery_current(point)
            self.f_max[v] = table.f_max
            self.fmin_ratio[v] = table.f_min / table.f_max
            self.quantize[v] = proc.speed_policy == "quantize"
            self.idle_cur[v] = proc.idle_current()
            dvs = sim.dvs
            if type(dvs) is NoDVS:
                self.dvs_kind[v] = _DVS_NODVS
            elif type(dvs) is StaticUtilization:
                self.dvs_kind[v] = _DVS_STATIC
                self.static_u[v] = float(ts.utilization)
            elif type(dvs) is CcEDF:
                self.dvs_kind[v] = (
                    _DVS_CCEDF_NODE
                    if dvs.granularity == "node"
                    else _DVS_CCEDF_GRAPH
                )
            else:
                assert type(dvs) is LaEDF
                self.dvs_kind[v] = (
                    _DVS_LAEDF_NODE
                    if dvs.granularity == "node"
                    else _DVS_LAEDF_GRAPH
                )
            prio = sim.policy.priority
            if type(prio) is RandomPriority:
                self.prio_kind[v] = _PRIO_RANDOM
                gen = prio._rng
                bit = type(gen.bit_generator)()
                bit.state = copy.deepcopy(gen.bit_generator.state)
                self._rngs[v] = np.random.Generator(bit)
            elif type(prio) is LTF:
                self.prio_kind[v] = _PRIO_LTF
            elif type(prio) is STF:
                self.prio_kind[v] = _PRIO_STF
            else:
                assert type(prio) is PUBS
                self.prio_kind[v] = _PRIO_PUBS
                est = prio.estimator
                if type(est) is WorstCaseEstimator:
                    self.est_kind[v] = _EST_WORST
                elif type(est) is ScaledEstimator:
                    self.est_kind[v] = _EST_SCALED
                    self.est_factor[v] = est.factor
                elif type(est) is HistoryEstimator:
                    self.est_kind[v] = _EST_HISTORY
                    self.est_factor[v] = est.default_factor
                    self.est_window[v] = est.window
                else:
                    self.est_kind[v] = _EST_ORACLE
            self.rl_all[v] = sim.policy.ready_list is ALL_RELEASED
            self.feas_on[v] = bool(sim.policy.enforce_feasibility)
            self.on_raise[v] = sim.on_miss == "raise"
            self.eps[v] = sim._time_eps()
            self.horizon[v] = float(horizon)

        # Derived static tables ---------------------------------------
        # Per level: frequency, speed (frequency / f_max, the division
        # the scalar mix performs), voltage, battery current.
        self.levels = np.stack(
            (self.freqs, self.freqs / self.f_max[:, None], volts, currents),
            axis=2,
        )
        # (graph name, node name) order as one integer per slot.
        gm_rank = np.full((V, G, M), _BIG_RANK, dtype=np.int64)
        gm_rank[self.exists] = (
            np.broadcast_to(self.name_rank[:, :, None], (V, G, M))[
                self.exists
            ] * M
            + self.node_rank[self.exists]
        )
        self.gm_rank = gm_rank.reshape(V, G * M)
        # laEDF's sum(u_i) in task order (cumsum is sequential; + 0.0
        # matches the scalar sum's +0 start).
        self.u_sum = np.cumsum(
            np.where(self.present, self.util, 0.0), axis=1
        )[:, -1] + 0.0
        # The live test `t < horizon - eps`, with the subtraction done
        # once.
        self.t_stop = self.horizon - self.eps
        pubs = self.prio_kind == _PRIO_PUBS
        hist_rows = pubs & (self.est_kind == _EST_HISTORY)
        w_max = int(self.est_window[hist_rows].max()) if hist_rows.any() else 1
        # Per-(scenario, node) completion history for PUBS + history
        # estimator rows: entries [0:len) oldest-first, exactly the
        # deque's summation order.
        self.hist = np.zeros((V, G, M, w_max))
        self.hist_len = np.zeros((V, G, M), dtype=np.int64)

        # Mutable lock-step state ------------------------------------
        self.lane_id = np.arange(V)
        self.t = np.zeros(V)
        self.active = np.ones(V, dtype=bool)  # by lane id, not position
        # next_release starts at release_time(0) = phase + 0*period = 0
        # (phases are zero by eligibility).
        self.next_release = np.where(self.present, 0.0, np.inf)
        self.job_counter = np.zeros((V, G), dtype=np.int64)
        self.in_jobs = np.zeros((V, G), dtype=bool)
        self.job_index = np.zeros((V, G), dtype=np.int64)
        self.job_deadline = np.zeros((V, G))
        self.executed = np.zeros((V, G, M))
        self.done = np.zeros((V, G, M), dtype=bool)
        # Exact integer bookkeeping beside `done`: completed nodes per
        # job and unfinished predecessors per node (a node is unblocked
        # at zero), reset at each release.
        self.n_preds = self.succ.sum(axis=2)
        self.n_done = np.zeros((V, G), dtype=np.int64)
        self.n_wait = self.n_preds.copy()
        # CcEDF.on_sim_start budgets everyone at worst case.
        self.budget = self.total_wcet.copy()
        self.acc = np.zeros((V, G))
        self.completed_jobs = np.zeros(V, dtype=np.int64)
        self.completed_nodes = np.zeros(V, dtype=np.int64)
        # Retired lanes' counters, by lane id.
        self.out_jobs = np.zeros(V, dtype=np.int64)
        self.out_nodes = np.zeros(V, dtype=np.int64)
        self._demoted_now = False

        self.cols = _Columns()
        self._miss_log: List[tuple] = []  # (scen, g, jidx, time, det)
        self._rel_log: List[tuple] = []  # (scen, time)

        is_la = (self.dvs_kind == _DVS_LAEDF_NODE) | (
            self.dvs_kind == _DVS_LAEDF_GRAPH
        )
        wide = self.rl_all | pubs
        self._keep(np.lexsort((
            self.prio_kind != _PRIO_RANDOM,
            ~(self.feas_on & self.rl_all),
            ~is_la,
            ~pubs,
            ~wide,
        )))

    def _keep(self, rows: np.ndarray) -> None:
        """Keep (and order) the lanes at ``rows`` in every per-lane
        array, then rebuild the row groups."""
        for name in _LANE_FIELDS:
            setattr(self, name, getattr(self, name)[rows])
        self._index()

    def _index(self) -> None:
        """Row groups, masks and flat views of the current lanes."""
        n = self.n = self.lane_id.size
        G, M, L = self.G, self.M, self.L
        ar = np.arange(n)
        self._ar = ar
        self._row_g = ar * G
        self._row_l = ar * L
        self._scen2 = np.concatenate((self.lane_id, self.lane_id))
        # Flat views: one (lane, graph[, node]) index addresses them.
        self._executed_f = self.executed.reshape(-1)
        self._actual_f = self.actual.reshape(-1)
        self._wcet_f = self.wcet.reshape(-1)
        self._done_f = self.done.reshape(-1)
        self._in_jobs_f = self.in_jobs.reshape(-1)
        self._budget_f = self.budget.reshape(-1)
        self._acc_f = self.acc.reshape(-1)
        self._n_nodes_f = self.n_nodes.reshape(-1)
        self._n_done_f = self.n_done.reshape(-1)
        self._n_wait2 = self.n_wait.reshape(n * G, M)
        self._succ2 = self.succ.reshape(n * G * M, M)
        self._node_rank2 = self.node_rank.reshape(n * G, M)
        self._levels2 = self.levels.reshape(n * L, 4)
        self._top = self.n_levels - 1
        self._ftol = 1e-9 * self.f_max

        kind, prio = self.dvs_kind, self.prio_kind
        is_la = (kind == _DVS_LAEDF_NODE) | (kind == _DVS_LAEDF_GRAPH)
        self._is_cc = (kind == _DVS_CCEDF_NODE) | (kind == _DVS_CCEDF_GRAPH)
        self._any_cc = bool(self._is_cc.any())
        self._ccn = kind == _DVS_CCEDF_NODE
        self._ccg = kind == _DVS_CCEDF_GRAPH
        self._la_rows = _rows(is_la)
        self._n_la = int(np.count_nonzero(is_la))
        self._la_node = (kind == _DVS_LAEDF_NODE)[:, None]
        self._any_la_graph = bool((kind == _DVS_LAEDF_GRAPH).any())
        # Speed of the rows whose speed is a per-scenario constant.
        self._s_const = np.where(
            kind == _DVS_NODVS,
            1.0,
            np.where(kind == _DVS_STATIC, self.static_u, 0.0),
        )
        # LTF ranks by -wrem: -1.0 * x is exactly -x.
        self._sign = np.where(prio == _PRIO_LTF, -1.0, 1.0)
        pubs = prio == _PRIO_PUBS
        wide = self.rl_all | pubs
        nw = self.n_wide = int(np.count_nonzero(wide))
        npb = self.n_pubs = int(np.count_nonzero(pubs))
        self.n_pl = int(np.count_nonzero(pubs & is_la))
        self._rand_narrow = (prio == _PRIO_RANDOM) & ~wide
        self._any_rand_narrow = bool(self._rand_narrow.any())
        # Groups inside the wide prefix (positions are global).
        self._imm_rows = _rows(~self.rl_all[:nw])
        self._f_rows = _rows((self.feas_on & self.rl_all)[:nw])
        self._rnd_w = prio[:nw] == _PRIO_RANDOM
        self._any_rnd_w = bool(self._rnd_w.any())
        # Groups inside the pUBS prefix.
        kp = kind[:npb]
        self._st_p = kp == _DVS_STATIC
        self._any_st_p = bool(self._st_p.any())
        self._cc_p = self._is_cc[:npb]
        self._any_cc_p = bool(self._cc_p.any())
        self._est_kinds = sorted(set(self.est_kind[:npb].tolist()))
        self._hist_rows = pubs & (self.est_kind == _EST_HISTORY)
        self._any_hist = bool(self._hist_rows.any())
        self._any_stoch = bool(self.stoch.any())
        self._g_ar = np.arange(G)
        self._w_ar = np.arange(self.hist.shape[3])

    def _retire(self, live: np.ndarray) -> None:
        """Drop the lanes outside ``live``: record their counters, then
        compact every per-lane array."""
        gone = ~live
        lid = self.lane_id[gone]
        self.out_jobs[lid] = self.completed_jobs[gone]
        self.out_nodes[lid] = self.completed_nodes[gone]
        self._keep(live)

    # -- logging -------------------------------------------------------
    def _demote(self, pos: np.ndarray, why: str) -> None:
        for v in self.lane_id[pos].tolist():
            self.active[v] = False
            self.demoted[self.vec_ids[v]] = why
        self._demoted_now = True

    # -- the lock-step loop --------------------------------------------
    def execute(self) -> Tuple[Dict[int, SimulationResult], Dict[int, str]]:
        with np.errstate(divide="ignore", invalid="ignore"):
            while True:
                live = self.t < self.t_stop
                if self._demoted_now:
                    live &= self.active[self.lane_id]
                    self._demoted_now = False
                if not live.all():
                    self._retire(live)
                if not self.n:
                    break
                self._round()
        results = self._materialize()
        return results, self.demoted

    def _release(self, due: np.ndarray, t: np.ndarray,
                 t_plus: np.ndarray) -> Optional[np.ndarray]:
        """Due releases of every graph at once.

        A pass releases one job of every due ``(lane, graph)``; another
        pass follows while a lane still has a release of some graph due
        (a catch-up).  Graphs are independent, so this is the scalar
        loop's per-graph ``while`` run side by side; its log order —
        graph by graph, each graph's catch-ups before the next graph —
        is restored by sorting the round's log chunks on (graph, pass)
        when more than one pass ran.  Returns the mask of lanes still
        alive when a release demoted some (``on_miss='raise'``), else
        ``None``.
        """
        G = self.G
        alive: Optional[np.ndarray] = None
        rel: List[tuple] = []
        miss: List[tuple] = []
        k = 0
        while True:
            have = due & self.in_jobs
            if have.any():
                raising = have.any(axis=1) & self.on_raise
                if raising.any():
                    self._demote(
                        np.flatnonzero(raising),
                        "deadline miss with on_miss='raise'",
                    )
                    keep = ~raising
                    alive = keep if alive is None else alive & keep
                    have &= keep[:, None]
                    due = due & keep[:, None]
                fh = np.flatnonzero(have)
                if fh.size:
                    lanes = fh // G
                    ix = (lanes, fh - lanes * G)
                    miss.append((ix[1], k, (
                        self.lane_id[lanes], ix[1], self.job_index[ix],
                        self.job_deadline[ix], t[lanes],
                    )))
                    self.in_jobs[ix] = False  # abandon late job
            fd = np.flatnonzero(due)
            if fd.size == 0:
                break
            lanes = fd // G
            ix = (lanes, fd - lanes * G)
            j = self.job_counter[ix]
            self.job_counter[ix] = j + 1
            relv = self.next_release[ix]
            per = self.period[ix]
            self.job_index[ix] = j
            self.job_deadline[ix] = relv + per
            self.executed[ix] = 0.0
            self.done[ix] = False
            self.n_done[ix] = 0
            self.n_wait[ix] = self.n_preds[ix]
            self.in_jobs[ix] = True
            rel.append((ix[1], k, (self.lane_id[lanes], relv)))
            self.next_release[ix] = (j + 1) * per
            if self._any_stoch:
                # Job-dependent actuals: gather this job's column from
                # the pre-drawn table (JobState would draw the identical
                # values at this release).
                sd = self.stoch[lanes]
                if sd.any():
                    for p, g, v, jv in zip(
                        lanes[sd].tolist(),
                        ix[1][sd].tolist(),
                        self.lane_id[lanes[sd]].tolist(),
                        j[sd].tolist(),
                    ):
                        cols = self._jobact[v].get(g)
                        if cols is not None:
                            self.actual[p, g, : cols.shape[0]] = cols[:, jv]
            if self._any_cc:
                # dvs.on_release: CcEDF restores the full worst case.
                cc = self._is_cc[lanes]
                if cc.any():
                    icc = (lanes[cc], ix[1][cc])
                    self.budget[icc] = self.total_wcet[icc]
                    self.acc[icc] = 0.0
            due = self.next_release <= t_plus[:, None]
            if alive is not None:
                due &= alive[:, None]
            if not due.any():
                break
            k += 1
        # Each part is (graph, pass, log chunk).
        for log, parts in ((self._rel_log, rel), (self._miss_log, miss)):
            if len(parts) == 1:
                log.append(parts[0][2])
            elif parts:
                order = np.lexsort((
                    np.concatenate([np.full(g.size, k) for g, k, _ in parts]),
                    np.concatenate([g for g, _, _ in parts]),
                ))
                log.append(tuple(
                    np.concatenate(col)[order]
                    for col in zip(*(chunk for _, _, chunk in parts))
                ))
        return alive

    def _round(self) -> None:
        """Advance every live lane by exactly one event."""
        t = self.t
        t_plus = t + self.eps

        # --- 1. due releases ------------------------------------------
        # Absent graphs keep next_release == inf, so one (n, G) compare
        # finds every graph with any due release this round.
        due = self.next_release <= t_plus[:, None]
        if due.any():
            alive = self._release(due, t, t_plus)
            if alive is not None:
                self._retire(alive)
                if not self.n:
                    return
                t = self.t
        n, G, M = self.n, self.G, self.M

        # next_release is inf for absent graphs, so no masking needed.
        t_next = np.minimum(self.next_release.min(axis=1), self.horizon)

        # --- 2. pending work and node readiness -----------------------
        in_jobs = self.in_jobs
        done = self.done
        schedulable = in_jobs & (self.n_done != self.n_nodes)
        pending = schedulable.any(axis=1)
        wrem = np.maximum(0.0, self.wcet - self.executed)
        open_ = self.exists & ~done
        ready3 = open_ & (self.n_wait == 0)

        # Per-graph deadline/remaining-work geometry, shared between the
        # laEDF lookahead and wide (ALL_RELEASED / pUBS) selection.
        nw = self.n_wide
        d_eff = node_cl = cl = None
        if self._n_la or nw:
            # GraphStatus.effective_deadline: the job's deadline, or the
            # *next* job's when idle (implicit deadline == period).
            d_eff = np.where(
                in_jobs, self.job_deadline, self.next_release + self.period
            )
            # JobState.remaining_wc(): node-granular, sequential sum in
            # node order (cumsum is sequential; + 0.0 matches the loop's
            # +0.0 start).
            node_cl = np.where(
                in_jobs,
                np.cumsum(np.where(open_, wrem, 0.0), axis=2)[:, :, -1]
                + 0.0,
                0.0,
            )
        if self._n_la:
            cl = node_cl
            if self._any_la_graph:
                # JobState.remaining_wc_coarse(): WCET sum minus the
                # sequential executed sum, zero once the job completed.
                exec_sum = np.cumsum(self.executed, axis=2)[:, :, -1] + 0.0
                graph_cl = np.where(
                    schedulable,
                    np.maximum(0.0, self.total_wcet - exec_sum),
                    0.0,
                )
                cl = np.where(self._la_node, node_cl, graph_cl)

        # --- 3. most-imminent job (speed-independent) -----------------
        dl = np.where(schedulable, self.job_deadline, np.inf)
        dmin = dl.min(axis=1)
        gsel = np.where(
            dl == dmin[:, None], self.name_rank, _BIG_RANK
        ).argmin(axis=1)
        fg = self._row_g + gsel
        ready = ready3.reshape(n * G, M)[fg]
        has_ready = ready.any(axis=1)
        prim = np.where(
            ready,
            self._sign[:, None] * wrem.reshape(n * G, M)[fg],
            np.inf,
        )
        msel = np.where(
            prim == prim.min(axis=1)[:, None],
            self._node_rank2[fg],
            _BIG_RANK,
        ).argmin(axis=1)

        # Wide candidates, their estimates and pUBS-over-laEDF's
        # hypothetical rows do not depend on the speed either, so the
        # hypotheticals share the speed-setting lookahead pass.  Every
        # candidate is scored (a superset of the feasible ones the
        # selection reads).
        cand = est = None
        hyp = _NO_ROWS
        if nw:
            cand = ready3[:nw] & schedulable[:nw, :, None]
            imm = self._imm_rows
            if imm is not None:
                # pUBS over MOST_IMMINENT: only the earliest-deadline
                # job's candidates.
                cand[imm] &= (self._g_ar == gsel[imm][:, None])[:, :, None]
            if self.n_pubs:
                est = self._pubs_estimate(wrem)
            if self.n_pl:
                hyp = np.flatnonzero(cand[: self.n_pl])

        # --- 4. speed selection ---------------------------------------
        s_raw = np.where(pending, self._s_const, 0.0)
        u_cc = None
        if self._any_cc:
            # Sequential left-to-right accumulation in task-set order —
            # the same float sum the scalar ccEDF computes.  u_cc stays
            # in scope: the pUBS hypothetical for ccEDF rows reuses it.
            u_cc = np.cumsum(
                np.where(self.present, self.budget / self.period, 0.0),
                axis=1,
            )[:, -1] + 0.0
            s_raw = np.where(self._is_cc & pending, u_cc, s_raw)
        s_hyp = None
        if self._n_la:
            la, nl = self._la_rows, self._n_la
            # LaEDF.hypothetical_speed: the candidate graph's c_left
            # shed by its wrem, one row per candidate after the
            # speed-setting rows.
            r = hyp // (G * M)
            rows = np.concatenate((self._ar[la], r))
            c = cl[rows]
            ci = (nl + np.arange(hyp.size)) * G + hyp // M - r * G
            cf = c.reshape(-1)
            cf[ci] = np.maximum(0.0, cf[ci] - wrem.reshape(-1)[hyp])
            s_acc, d_n, has = _la_pass(
                d_eff[rows], c, self.util[rows], self.present[rows],
                self.u_sum[rows],
            )
            s_raw[la] = _la_finish(s_acc[:nl], d_n[:nl], has[:nl], t[la])
            if hyp.size:
                # ... evaluated at t + est/s_now.
                s_p = s_raw[r]
                e_p = est.reshape(-1)[hyp]
                dt = np.where(s_p > _LA_EPS, e_p / s_p, 0.0)
                s_hyp = _la_finish(
                    s_acc[nl:], d_n[nl:], has[nl:], t[r] + dt
                )

        # --- 5. the two-adjacent-level mix ----------------------------
        dispatch = pending & (s_raw > 0)
        fmax = self.f_max
        s = np.minimum(1.0, np.maximum(s_raw, self.fmin_ratio))
        target = s * fmax
        lt = (self.freqs < (target * _ONE_MINUS)[:, None]).sum(axis=1)
        pos = np.minimum(lt, self._top)
        fl = self._row_l + pos
        # (frequency, speed, voltage, current) of both levels.
        hi = self._levels2[fl]
        lo = self._levels2[np.maximum(fl - 1, self._row_l)]
        hi_f = hi[:, 0]
        lo_f = lo[:, 0]
        single = (
            (pos == 0) | (np.abs(hi_f - target) <= self._ftol)
            | self.quantize
        )
        x = (target - lo_f) / (hi_f - lo_f)
        x = np.where(single, 1.0, np.minimum(1.0, np.maximum(0.0, x)))
        frac1 = np.where(single, 0.0, 1.0 - x)
        speed0 = hi[:, 1]
        speed1 = lo[:, 1]
        s_eff = np.where(single, speed0, speed0 * x + speed1 * frac1)

        # --- 6. candidate selection -----------------------------------
        weird = dispatch & ~has_ready
        if weird.any():  # cannot occur for a well-formed DAG job
            self._demote(
                np.flatnonzero(weird), "no ready candidate with pending work"
            )
        dispatch &= has_ready
        if self._any_rand_narrow:
            rand_rows = np.flatnonzero(dispatch & self._rand_narrow)
            if rand_rows.size:
                # One nonzero pass for all random rows: row-major order
                # yields each row's candidates as a contiguous ascending
                # run, exactly the order candidates_of() builds.
                rr, cand_cols = np.nonzero(ready[rand_rows])
                counts = np.bincount(rr, minlength=rand_rows.size)
                offs = np.zeros(rand_rows.size + 1, dtype=np.int64)
                np.cumsum(counts, out=offs[1:])
                rngs = self._rngs
                counts_py = counts.tolist()
                offs_py = offs.tolist()
                cand_py = cand_cols.tolist()
                sel_py = []
                for i, v in enumerate(self.lane_id[rand_rows].tolist()):
                    # Identical draw consumption to shuffling the
                    # Candidate list: numpy's sequence shuffle depends
                    # only on len().
                    perm = list(range(counts_py[i]))
                    rngs[v].shuffle(perm)
                    sel_py.append(cand_py[offs_py[i] + perm[0]])
                msel[rand_rows] = sel_py
        if nw and dispatch[:nw].any():
            self._select_wide(
                t, dispatch, gsel, msel, schedulable, cand, wrem, est,
                s_raw, s_eff, node_cl, u_cc, hyp, s_hyp,
            )
            fg = self._row_g + gsel

        # --- 7. dispatch ----------------------------------------------
        f = fg * M + msel
        window = t_next - t
        e_cur = self._executed_f[f]
        a_cur = self._actual_f[f]
        rem = np.maximum(0.0, a_cur - e_cur)
        t_complete = rem / s_eff
        finished = dispatch & (t_complete <= window + _EPS)
        span = np.minimum(t_complete, window)
        dur0 = span * x  # x == 1.0 on single-level rows (span*1.0==span)
        dur1 = span * frac1
        p0 = dispatch & (x > 0)
        p1 = dispatch & ~single & (frac1 > 0)
        c0 = np.where(finished & p0 & ~p1, rem, speed0 * dur0)
        c1 = np.where(
            finished & p1, rem - np.where(p0, c0, 0.0), speed1 * dur1
        )

        # One trace append per round: each lane's first chunk (or its
        # idle gap) then its second chunk; zero-length rows drop out.
        key = gsel * (M + 1) + msel
        t0c = t + dur0
        vals = np.empty((5, 2, n))
        vals[:, 0] = (
            t,
            np.where(dispatch, dur0, window),
            np.where(dispatch, speed0, 0.0),
            np.where(dispatch, hi[:, 2], 0.0),
            np.where(dispatch, hi[:, 3], self.idle_cur),
        )
        vals[:, 1] = (
            t0c, np.where(p1, dur1, 0.0), speed1, lo[:, 2], lo[:, 3]
        )
        self.cols.append(
            self._scen2,
            np.concatenate((np.where(dispatch, key, G * (M + 1)), key)),
            vals.reshape(5, 2 * n),
        )

        # advance the selected node, chunk by chunk (clamp per chunk,
        # exactly like JobState.advance_node)
        lim = a_cur - 1e-9
        e1 = e_cur + c0
        cl0 = p0 & (e1 >= lim)
        e_mid = np.where(cl0, a_cur, np.where(p0, e1, e_cur))
        # A second chunk landing on a node the first chunk already
        # clamped complete raises in the scalar engine.
        bad = p1 & cl0
        if bad.any():
            self._demote(
                np.flatnonzero(bad),
                "mid-dispatch node completion (scalar raises)",
            )
            p1 &= ~bad
            finished &= ~bad
        e2 = e_mid + c1
        cl1 = p1 & (e2 >= lim)
        self._executed_f[f] = np.where(
            cl1, a_cur, np.where(p1, e2, e_mid)
        )
        newly = cl0 | cl1
        if newly.any():
            self._done_f[f] |= newly
            self._n_done_f[fg] += newly
            # The completed node no longer blocks its successors.
            self._n_wait2[fg] -= self._succ2[f] & newly[:, None]

        # --- 8. completion bookkeeping --------------------------------
        if finished.any():
            self.completed_nodes += finished
            if self._any_cc:
                ccn = finished & self._ccn
                if ccn.any():
                    fb = fg[ccn]
                    self._budget_f[fb] = self._budget_f[fb] + (
                        a_cur[ccn] - self._wcet_f[f[ccn]]
                    )
            # is the whole job complete now?
            jc = finished & (self._n_done_f[fg] == self._n_nodes_f[fg])
            if self._any_cc:
                ccg = finished & self._ccg
                if ccg.any():
                    fb = fg[ccg]
                    self._acc_f[fb] = self._acc_f[fb] + a_cur[ccg]
                    both = ccg & jc
                    if both.any():
                        fb = fg[both]
                        self._budget_f[fb] = self._acc_f[fb]
            if jc.any():
                self.completed_jobs += jc
                self._in_jobs_f[fg[jc]] = False
            # policy.observe_completion -> HistoryEstimator.observe:
            # append the node's *full* actual to its per-node window.
            if self._any_hist:
                hs = finished & self._hist_rows
                if hs.any():
                    gi = np.flatnonzero(hs)
                    gs = gsel[hs]
                    ms = msel[hs]
                    acv = a_cur[hs]
                    wv = self.est_window[gi]
                    ln = self.hist_len[gi, gs, ms]
                    notfull = ln < wv
                    if notfull.any():
                        a_, b_, c_ = gi[notfull], gs[notfull], ms[notfull]
                        self.hist[a_, b_, c_, ln[notfull]] = acv[notfull]
                        self.hist_len[a_, b_, c_] = ln[notfull] + 1
                    fullw = ~notfull
                    if fullw.any():
                        a_, b_, c_ = gi[fullw], gs[fullw], ms[fullw]
                        sub = self.hist[a_, b_, c_]
                        # deque(maxlen=w): drop the oldest, append at
                        # w-1.  Lanes >= w hold garbage but every read
                        # is masked by hist_len.
                        sub[:, :-1] = sub[:, 1:]
                        sub[np.arange(a_.size), wv[fullw] - 1] = acv[fullw]
                        self.hist[a_, b_, c_] = sub

        # --- 9. clock update ------------------------------------------
        # Finished rows advance chunk by chunk (t (+dur0) (+dur1), the
        # scalar per-chunk clock); everything else jumps to t_next.
        # dur0 is +0.0 on chunkless rows, so the trailing adds are
        # bitwise no-ops there; demoted rows get t_next but are dead.
        self.t = np.where(
            finished, np.where(p1, t0c + dur1, t0c), t_next
        )

    # -- wide candidate selection (ALL_RELEASED and/or pUBS) -----------
    def _select_wide(
        self,
        t: np.ndarray,
        dispatch: np.ndarray,
        gsel: np.ndarray,
        msel: np.ndarray,
        schedulable: np.ndarray,
        cand: np.ndarray,
        wrem: np.ndarray,
        est: Optional[np.ndarray],
        s_raw: np.ndarray,
        s_eff: np.ndarray,
        node_cl: np.ndarray,
        u_cc: Optional[np.ndarray],
        hyp: np.ndarray,
        s_hyp: Optional[np.ndarray],
    ) -> None:
        """Replay ``SchedulingPolicy.select`` for the wide prefix.

        Candidates are every ready node of every active job (EDF job
        order, topo node order), ordered by the scalar key tuple
        ``(primary, estimate, graph name, node name)`` and filtered by
        the feasibility walk — all with the scalar stack's exact float
        expressions.  Every wide row is evaluated; only dispatching
        rows are read.  Updates ``gsel``/``msel``/``dispatch`` in place;
        rows whose scalar twin would raise ``SchedulingError`` are
        demoted.
        """
        nw, npb = self.n_wide, self.n_pubs
        G, M = self.G, self.M
        dw = dispatch[:nw]
        wrem = wrem[:nw]

        # Feasibility walk: candidate at EDF position r survives iff
        # for every position p < r, cum_wc(p) + wrem_cand stays within
        # s_eff * (d_p - t) + atol.  cumsum replays the sequential
        # prefix sum; MOST_IMMINENT rows skip the check like the
        # scalar ready list (needs_feasibility_check is False).
        ok = cand
        fr = self._f_rows
        if fr is not None:
            sched = schedulable[fr]
            dl = np.where(sched, self.job_deadline[fr], np.inf)
            _, flat, rank = _edf(dl, self.name_rank[fr])
            cum = np.cumsum(
                np.where(sched, node_cl[fr], 0.0).ravel()[flat], axis=1
            )
            bud = (
                s_eff[fr][:, None] * (dl.ravel()[flat] - t[fr][:, None])
                + _FEAS_ATOL
            )
            # (rows, p, g, m): candidate (g, m) dies at EDF position p.
            kill = (
                (rank[:, None, :] > self._g_ar[None, :, None])[..., None]
                & (
                    cum[:, :, None, None] + wrem[fr][:, None]
                    > bud[:, :, None, None]
                )
            ).any(axis=1)
            ok = cand.copy()
            ok[fr] &= ~kill

        # First feasible candidate in key order == the feasible
        # candidate minimizing the full tuple; resolve level by level.
        if npb == nw:
            k1 = self._pubs_score(s_raw, est, wrem, u_cc, hyp, s_hyp)
        else:
            k1 = self._sign[:nw, None, None] * wrem
            if npb:
                k1[:npb] = self._pubs_score(
                    s_raw, est, wrem, u_cc, hyp, s_hyp
                )
        okf = ok.reshape(nw, G * M)
        ok_any = okf.any(axis=1)
        k1f = np.where(okf, k1.reshape(nw, G * M), np.inf)
        tie = okf & (k1f == k1f.min(axis=1)[:, None])
        if npb:
            k2m = np.where(tie[:npb], est.reshape(npb, G * M), np.inf)
            tie[:npb] &= k2m == k2m.min(axis=1)[:, None]
        # (graph name, node name) is unique per candidate.
        sel = np.where(tie, self.gm_rank[:nw], _BIG_RANK).argmin(axis=1)
        gsel_w = sel // M
        msel_w = sel - gsel_w * M

        bad = dw & ~ok_any
        if self._any_rnd_w:
            # RandomPriority over ALL_RELEASED: shuffle the EDF-then-
            # topo candidate list (draw depends only on its length),
            # then take the first feasible in shuffled order.
            rows = np.flatnonzero(self._rnd_w & dw & ok_any)
            if rows.size:
                k = rows.size
                sched = schedulable[rows]
                order, flat, _ = _edf(
                    np.where(sched, self.job_deadline[rows], np.inf),
                    self.name_rank[rows],
                )
                cand_s = cand[rows].reshape(k * G, M)[flat]
                ok_s = ok[rows].reshape(k * G, M)[flat]
                rngs = self._rngs
                for i, v in enumerate(self.lane_id[rows].tolist()):
                    cols = np.flatnonzero(cand_s[i].reshape(-1))
                    perm = list(range(cols.size))
                    rngs[v].shuffle(perm)
                    ff = ok_s[i].reshape(-1)
                    chosen = -1
                    for p in perm:
                        if ff[cols[p]]:
                            chosen = cols[p]
                            break
                    if chosen < 0:
                        bad[rows[i]] = True
                        continue
                    pos, mm = divmod(int(chosen), M)
                    gsel_w[rows[i]] = order[i, pos]
                    msel_w[rows[i]] = mm

        if bad.any():
            self._demote(
                np.flatnonzero(bad), "no feasible candidate (scalar raises)"
            )
            dw &= ~bad
        gsel[:nw] = gsel_w
        msel[:nw] = msel_w

    def _pubs_estimate(self, wrem: np.ndarray) -> np.ndarray:
        """``estimator.estimate`` for every lane of the pUBS rows.

        All four registry estimators are pure functions of simulation
        state, so estimating every lane (twice, in the scalar: score
        and order key) costs nothing in draws.  Only the estimator
        kinds present are evaluated; each lane takes its own kind's
        value, so the result per lane does not depend on its
        neighbours.
        """
        npb = self.n_pubs
        lo = np.maximum(wrem[:npb], _EST_EPS)  # WorstCase == the clamp cap
        ek = self.est_kind[:npb, None, None]
        execd = self.executed[:npb]
        raw = None
        for kind in self._est_kinds:
            if kind == _EST_WORST:
                continue
            if kind == _EST_ORACLE:
                val = np.maximum(0.0, self.actual[:npb] - execd)
            else:
                base = self.est_factor[:npb, None, None] * self.wcet[:npb]
                if kind == _EST_HISTORY:
                    ln = self.hist_len[:npb]
                    # The deque's oldest-first sum, sequential.
                    acc = np.cumsum(
                        np.where(
                            self._w_ar < ln[..., None], self.hist[:npb], 0.0
                        ),
                        axis=3,
                    )[..., -1] + 0.0
                    base = np.where(ln > 0, acc / np.maximum(ln, 1), base)
                val = base - execd  # ScaledEstimator / history mean
            raw = val if raw is None else np.where(ek == kind, val, raw)
        if raw is None:
            return lo
        clamped = np.minimum(np.maximum(raw, _EST_EPS), lo)
        if _EST_WORST in self._est_kinds:
            return np.where(ek == _EST_WORST, lo, clamped)
        return clamped

    def _pubs_score(
        self,
        s_raw: np.ndarray,
        est: np.ndarray,
        wrem: np.ndarray,
        u_cc: Optional[np.ndarray],
        hyp: np.ndarray,
        s_hyp: Optional[np.ndarray],
    ) -> np.ndarray:
        """``PUBS.score`` over the pUBS rows: est / (s_now^2 -
        s_after^2), inf when the denominator is (numerically)
        non-positive.

        ``s_after`` is the DVS algorithm's hypothetical speed were the
        candidate to finish with ``est`` actual cycles.  For laEDF rows
        it comes from the round's lookahead pass (``s_hyp`` at the flat
        candidate lanes ``hyp``); every other lane of those rows holds
        a value no caller reads.
        """
        npb = self.n_pubs
        s_o = s_raw[:npb, None, None]
        s_ok = np.ones((npb, self.G, self.M))
        if self._any_st_p:
            s_ok = np.where(
                self._st_p[:, None, None],
                self.static_u[:npb, None, None],
                s_ok,
            )
        if self._any_cc_p:
            delta = (est - wrem[:npb]) / self.period[:npb, :, None]
            s_ok = np.where(
                self._cc_p[:, None, None],
                u_cc[:npb, None, None] + delta,
                s_ok,
            )
        if hyp.size:
            s_ok.reshape(-1)[hyp] = s_hyp
        denom = s_o * s_o - s_ok * s_ok
        small = denom <= _LA_EPS
        return np.where(small, np.inf, est / np.where(small, 1.0, denom))

    # -- materialization -----------------------------------------------
    def _materialize(self) -> Dict[int, SimulationResult]:
        cols = self.cols
        scen = cols.scen[: cols.n]
        order = np.argsort(scen, kind="stable")
        counts = np.bincount(scen, minlength=self.V)
        offsets = np.zeros(self.V + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])

        miss_by_scen = self._distribute(self._miss_log, 5)
        rel_by_scen = self._distribute(self._rel_log, 2)

        results: Dict[int, SimulationResult] = {}
        for v in range(self.V):
            if not self.active[v]:
                continue  # demoted: scalar re-run owns this item
            sel = order[offsets[v]:offsets[v + 1]]
            vals = cols.vals[:, sel]
            # Numeric guardrail: a NaN/inf anywhere in the trace means
            # some upstream arithmetic went off the rails for this
            # scenario (bad power-model inputs, degenerate frequency
            # tables, ...).  Demote it to the scalar engine, which
            # either produces finite values or raises a diagnosable
            # error — never silently return poisoned columns.
            if not np.isfinite(vals).all():
                self.demoted[self.vec_ids[v]] = _NONFINITE_REASON
                continue
            starts, durs, speeds, volts, curs = vals
            trace = ExecutionTrace()
            trace.extend_columns(
                starts, durs, speeds, volts, curs, cols.key[sel],
                self._key_names(v),
            )
            misses = self._misses_for(v, miss_by_scen[v])
            releases = tuple(float(r) for r in rel_by_scen[v][0])
            sim, horizon = self.items[self.vec_ids[v]]
            results[self.vec_ids[v]] = SimulationResult(
                trace=trace,
                horizon=float(horizon),
                misses=misses,
                released_jobs=len(releases),
                completed_jobs=int(self.out_jobs[v]),
                completed_nodes=int(self.out_nodes[v]),
                task_set=sim.task_set,
                processor=sim.processor,
                release_times=releases,
            )
        return results

    def _distribute(self, log: List[tuple], width: int) -> List[tuple]:
        """Split chronological (scen, field...) chunks per scenario."""
        if not log:
            empty = tuple(np.empty(0) for _ in range(width - 1))
            return [empty] * self.V
        cat = [
            np.concatenate([chunk[f] for chunk in log])
            for f in range(width)
        ]
        scen = cat[0].astype(np.intp, copy=False)
        order = np.argsort(scen, kind="stable")
        counts = np.bincount(scen, minlength=self.V)
        offsets = np.zeros(self.V + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        out = []
        for v in range(self.V):
            sel = order[offsets[v]:offsets[v + 1]]
            out.append(tuple(col[sel] for col in cat[1:]))
        return out

    def _key_names(self, v: int) -> List[Tuple[str, str]]:
        names: List[Tuple[str, str]] = []
        gnames = self._graph_names[v]
        nnames = self._node_names[v]
        for g in range(self.G):
            for m in range(self.M + 1):
                if (
                    g < len(gnames)
                    and m < len(nnames[g])
                ):
                    names.append((gnames[g], nnames[g][m]))
                else:
                    names.append(("", ""))
        names.append((IDLE, ""))  # key G*(M+1): the idle sentinel
        return names

    def _misses_for(self, v: int, cols: tuple) -> Tuple[DeadlineMiss, ...]:
        g_arr, j_arr, t_arr, d_arr = cols
        gnames = self._graph_names[v]
        return tuple(
            DeadlineMiss(
                gnames[int(g)], int(j), float(tt), float(dd)
            )
            for g, j, tt, dd in zip(g_arr, j_arr, t_arr, d_arr)
        )
