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

#: Demotion reason for the numeric guardrail: a vectorized scenario
#: whose materialized trace contains NaN/inf is re-run scalar rather
#: than silently returned (the scalar engine either produces finite
#: values or raises a diagnosable error).
_NONFINITE_REASON = "non-finite value in vectorized trace"


def _la_lookahead(d, c, util, present, t):
    """Bitwise replica of :meth:`LaEDF._lookahead` over leading axes.

    ``d``/``c``/``util``/``present`` are broadcast-compatible arrays
    with the graph axis last; ``t`` matches the leading shape.  Every
    float op replays the scalar loop's expression order: the reverse-
    EDF traversal is a stable argsort on ``-d`` (absent graphs sort
    last and are masked out of every update), and the ``u``/``s``
    accumulators advance position by position exactly like the Python
    ``for`` loop, so results are bit-identical per scenario.
    """
    d, c, util, present = np.broadcast_arrays(d, c, util, present)
    lead = d.shape[:-1]
    t = np.broadcast_to(t, lead)
    G = d.shape[-1]
    # Masked-out lanes still flow through the arithmetic (inf - inf,
    # x / 0); their results are discarded, so silence the FP warnings.
    with np.errstate(divide="ignore", invalid="ignore"):
        pend = present & (c > _LA_EPS)
        has = pend.any(axis=-1)
        d_n = np.where(pend, d, np.inf).min(axis=-1)
        horizon = d_n - t
        full = horizon <= _LA_EPS
        u = np.zeros(lead)
        for g in range(G):
            u = u + np.where(present[..., g], util[..., g], 0.0)
        order = np.argsort(
            np.where(present, -d, np.inf), axis=-1, kind="stable"
        )
        # One gather up front, then cheap views per position — the
        # per-position take_along_axis calls dominated this kernel.
        pres_s = np.take_along_axis(present, order, -1)
        d_s = np.take_along_axis(d, order, -1)
        c_s = np.take_along_axis(c, order, -1)
        u_s = np.take_along_axis(util, order, -1)
        s = np.zeros(lead)
        for p in range(G):
            act = pres_s[..., p]
            d_i = d_s[..., p]
            c_i = c_s[..., p]
            u_i = u_s[..., p]
            u = np.where(act, u - u_i, u)
            span = d_i - d_n
            small = span <= _LA_EPS
            x = np.where(
                small, c_i, np.maximum(0.0, c_i - (1.0 - u) * span)
            )
            u = np.where(act & ~small, u + (c_i - x) / span, u)
            s = np.where(act, s + x, s)
        return np.where(has, np.where(full, 1.0, s / horizon), 0.0)


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
    # The stock provider exposes a batched draw path whose values are
    # pinned bit-identical to its per-call path; pre-drawing through it
    # keeps compile time off the profile for large stochastic tables.
    batched = type(simulator.actuals) is UniformActuals
    actuals: List[np.ndarray] = []
    total_draws = 0
    try:
        for g in simulator.task_set:
            if invariant:
                jg = 1
            else:
                # Releases happen strictly before the horizon (with eps
                # slack), so job indices stay below (h + eps) / period.
                jg = int(np.floor((h + eps) / g.period)) + 1
            total_draws += len(g.graph) * jg
            if total_draws > _MAX_PREDRAW:
                return "per-job actuals table too large", None
            rows = np.empty((len(g.graph), jg))
            for m, node in enumerate(g.graph):
                wc = node.wcet
                tol = _actual_tol(wc)
                if batched:
                    vals = simulator.actuals.draw_jobs(
                        g.name, node.name, jg, wc
                    )
                    # Mirrors JobState validation; an invalid actual
                    # must raise from the scalar engine, not from
                    # array code.
                    if not ((vals > 0).all() and (vals <= wc + tol).all()):
                        return "actuals outside (0, wcet]", None
                    rows[m] = vals
                    continue
                for j in range(jg):
                    ac = float(
                        simulator.actuals(g.name, node.name, j, wc)
                    )
                    if not (0 < ac <= wc + tol):
                        return "actuals outside (0, wcet]", None
                    rows[m, j] = ac
            actuals.append(rows)
    except Exception:
        return "actuals provider raised", None
    return None, actuals


class _Columns:
    """Append-only global trace buffer shared by all vector scenarios.

    One row per recorded segment; ``scen`` says which scenario owns the
    row, ``key`` encodes ``graph_index * (M + 1) + node_index`` (or the
    per-scenario idle sentinel).  Rows are appended in per-scenario
    chronological order, so a stable argsort by ``scen`` recovers each
    scenario's trace.
    """

    def __init__(self, cap: int = 1024) -> None:
        self.n = 0
        self.scen = np.empty(cap, dtype=np.intp)
        self.key = np.empty(cap, dtype=np.intp)
        self.start = np.empty(cap)
        self.dur = np.empty(cap)
        self.speed = np.empty(cap)
        self.volt = np.empty(cap)
        self.cur = np.empty(cap)

    def append(
        self,
        scen: np.ndarray,
        key: np.ndarray,
        start: np.ndarray,
        dur: np.ndarray,
        speed: np.ndarray,
        volt: np.ndarray,
        cur: np.ndarray,
    ) -> None:
        # The scalar trace drops zero-length dispatches at record time;
        # dropping here keeps per-scenario row counts aligned with the
        # segments the scalar engine would have kept.
        keep = dur > 0
        if not keep.all():
            scen, key = scen[keep], key[keep]
            start, dur = start[keep], dur[keep]
            speed, volt, cur = speed[keep], volt[keep], cur[keep]
        m = scen.size
        if m == 0:
            return
        need = self.n + m
        if need > self.scen.size:
            cap = self.scen.size
            while cap < need:
                cap *= 2
            for name in (
                "scen", "key", "start", "dur", "speed", "volt", "cur",
            ):
                old = getattr(self, name)
                new = np.empty(cap, dtype=old.dtype)
                new[: self.n] = old[: self.n]
                setattr(self, name, new)
        n = self.n
        self.scen[n:need] = scen
        self.key[n:need] = key
        self.start[n:need] = start
        self.dur[n:need] = dur
        self.speed[n:need] = speed
        self.volt[n:need] = volt
        self.cur[n:need] = cur
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


class _VectorRun:
    """One lock-step execution over the vectorizable scenario subset."""

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
        self.pred = np.zeros((V, G, M, M), dtype=bool)
        self.freqs = np.full((V, L), np.inf)
        self.volts = np.zeros((V, L))
        self.currents = np.zeros((V, L))
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
                        self.pred[v, g_idx, m, pos[p]] = True
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
                self.volts[v, li] = point.voltage
                self.currents[v, li] = proc.power.battery_current(point)
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

        # Derived per-scenario masks ---------------------------------
        self.is_cc = (self.dvs_kind == _DVS_CCEDF_NODE) | (
            self.dvs_kind == _DVS_CCEDF_GRAPH
        )
        self.is_la = (self.dvs_kind == _DVS_LAEDF_NODE) | (
            self.dvs_kind == _DVS_LAEDF_GRAPH
        )
        # "Wide" rows need the generalized candidate machinery (EDF job
        # ordering, feasibility prefix-scan, pUBS scoring); everything
        # else keeps the cheap most-imminent path.
        self.wide = self.rl_all | (self.prio_kind == _PRIO_PUBS)
        self._any_wide = bool(self.wide.any())
        self._any_la = bool(self.is_la.any())
        self._any_stoch = bool(self.stoch.any())
        self.hist_rows = (self.prio_kind == _PRIO_PUBS) & (
            self.est_kind == _EST_HISTORY
        )
        self._any_hist = bool(self.hist_rows.any())
        w_max = (
            int(self.est_window[self.hist_rows].max())
            if self._any_hist
            else 1
        )
        # Per-(scenario, node) completion history for PUBS + history
        # estimator rows: entries [0:len) oldest-first, exactly the
        # deque's summation order.
        self.hist = np.zeros((V, G, M, w_max))
        self.hist_len = np.zeros((V, G, M), dtype=np.int64)

        # Mutable lock-step state ------------------------------------
        self.t = np.zeros(V)
        self.active = np.ones(V, dtype=bool)
        # next_release starts at release_time(0) = phase + 0*period = 0
        # (phases are zero by eligibility).
        self.next_release = np.where(self.present, 0.0, np.inf)
        self.job_counter = np.zeros((V, G), dtype=np.int64)
        self.in_jobs = np.zeros((V, G), dtype=bool)
        self.job_index = np.zeros((V, G), dtype=np.int64)
        self.job_release = np.zeros((V, G))
        self.job_deadline = np.zeros((V, G))
        self.executed = np.zeros((V, G, M))
        self.done = np.zeros((V, G, M), dtype=bool)
        # CcEDF.on_sim_start budgets everyone at worst case.
        self.budget = self.total_wcet.copy()
        self.acc = np.zeros((V, G))
        self.released = np.zeros(V, dtype=np.int64)
        self.completed_jobs = np.zeros(V, dtype=np.int64)
        self.completed_nodes = np.zeros(V, dtype=np.int64)

        self.cols = _Columns()
        self._miss_log: List[tuple] = []  # (scen, g, jidx, time, det)
        self._rel_log: List[tuple] = []  # (scen, time)

    # -- logging -------------------------------------------------------
    def _demote(self, vs: np.ndarray, why: str) -> None:
        for v in np.atleast_1d(vs):
            v = int(v)
            self.active[v] = False
            self.demoted[self.vec_ids[v]] = why

    # -- the lock-step loop --------------------------------------------
    def execute(self) -> Tuple[Dict[int, SimulationResult], Dict[int, str]]:
        with np.errstate(divide="ignore", invalid="ignore"):
            while True:
                live = self.active & (self.t < self.horizon - self.eps)
                idx = np.flatnonzero(live)
                if idx.size == 0:
                    break
                self._round(idx)
        results = self._materialize()
        return results, self.demoted

    def _round(self, idx: np.ndarray) -> None:
        """Advance every scenario in ``idx`` by exactly one event."""
        n = idx.size
        t = self.t[idx]
        eps = self.eps[idx]
        alive: Optional[np.ndarray] = None  # all-True until a demotion

        # --- 1. due releases (graph by graph, like the scalar loop) ---
        t_plus = t + eps
        # Absent graphs keep next_release == inf, so one (n, G) compare
        # finds every graph with any due release this round.
        due_now = self.next_release[idx] <= t_plus[:, None]
        due_graphs = np.flatnonzero(due_now.any(axis=0))
        for g in due_graphs:
            pres = self.present[idx, g]
            while True:
                due = pres & (self.next_release[idx, g] <= t_plus)
                if alive is not None:
                    due &= alive
                if not due.any():
                    break
                have = due & self.in_jobs[idx, g]
                if have.any():
                    raising = have & self.on_raise[idx]
                    if raising.any():
                        self._demote(
                            idx[raising],
                            "deadline miss with on_miss='raise'",
                        )
                        if alive is None:
                            alive = ~raising
                        else:
                            alive &= ~raising
                        have &= ~raising
                        due &= ~raising
                    if have.any():
                        gi = idx[have]
                        self._miss_log.append(
                            (
                                gi.copy(),
                                np.full(gi.size, g, dtype=np.int64),
                                self.job_index[gi, g].copy(),
                                self.job_deadline[gi, g].copy(),
                                t[have].copy(),
                            )
                        )
                        self.in_jobs[gi, g] = False  # abandon late job
                if not due.any():
                    continue
                gi = idx[due]
                j = self.job_counter[gi, g]
                self.job_counter[gi, g] = j + 1
                relv = self.next_release[gi, g]
                self.job_index[gi, g] = j
                self.job_release[gi, g] = relv
                self.job_deadline[gi, g] = relv + self.period[gi, g]
                self.executed[gi, g, :] = 0.0
                self.done[gi, g, :] = False
                self.in_jobs[gi, g] = True
                self._rel_log.append((gi.copy(), relv.copy()))
                self.released[gi] += 1
                self.next_release[gi, g] = (j + 1) * self.period[gi, g]
                if self._any_stoch:
                    # Job-dependent actuals: gather this job's column
                    # from the pre-drawn table (JobState would draw
                    # the identical values at this release).
                    sd = self.stoch[gi]
                    if sd.any():
                        for vv, jv in zip(
                            gi[sd].tolist(), j[sd].tolist()
                        ):
                            cols = self._jobact[vv].get(g)
                            if cols is not None:
                                self.actual[vv, g, : cols.shape[0]] = (
                                    cols[:, jv]
                                )
                # dvs.on_release: CcEDF restores the full worst case.
                cc = due & self.is_cc[idx]
                if cc.any():
                    gcc = idx[cc]
                    self.budget[gcc, g] = self.total_wcet[gcc, g]
                    self.acc[gcc, g] = 0.0
        if alive is not None:
            idx = idx[alive]
            if idx.size == 0:
                return
            n = idx.size
            t = self.t[idx]
            eps = self.eps[idx]
            t_plus = t + eps

        pres = self.present[idx]  # (n, G)
        # next_release is inf for absent graphs, so no masking needed.
        t_next = np.minimum(
            self.next_release[idx].min(axis=1), self.horizon[idx]
        )

        # --- 2. pending work, speed selection, the two-level mix ------
        in_jobs = self.in_jobs[idx]
        # done is only ever set on existing nodes, so the raw count is
        # the completed-node count.
        done_cnt = self.done[idx].sum(axis=2)
        complete = done_cnt == self.n_nodes[idx]
        schedulable = in_jobs & ~complete
        pending = schedulable.any(axis=1)

        kind = self.dvs_kind[idx]
        period = self.period[idx]
        s_raw = np.zeros(n)
        s_raw[(kind == _DVS_NODVS) & pending] = 1.0
        st_mask = (kind == _DVS_STATIC) & pending
        if st_mask.any():
            s_raw[st_mask] = self.static_u[idx][st_mask]
        u_cc = np.zeros(n)
        cc_mask = self.is_cc[idx] & pending
        if cc_mask.any():
            # Sequential left-to-right accumulation in task-set order —
            # the same float sum the scalar ccEDF computes.  u_cc stays
            # in scope: the pUBS hypothetical for ccEDF rows reuses it.
            budget = self.budget[idx]
            for g in range(self.G):
                u_cc = u_cc + np.where(
                    pres[:, g], budget[:, g] / period[:, g], 0.0
                )
            s_raw[cc_mask] = u_cc[cc_mask]

        # Per-graph deadline/remaining-work geometry, shared between the
        # laEDF lookahead and wide (ALL_RELEASED / pUBS) selection.
        d_eff = node_cl = cl = None
        if self._any_la or self._any_wide:
            # GraphStatus.effective_deadline: the job's deadline, or the
            # *next* job's when idle (implicit deadline == period).
            d_eff = np.where(
                in_jobs, self.job_deadline[idx],
                self.next_release[idx] + period,
            )
            wc3 = self.wcet[idx]
            ex3 = self.executed[idx]
            live3 = self.exists[idx] & ~self.done[idx]
            # JobState.remaining_wc(): node-granular, sequential sum in
            # node order (+0.0 padding on absent/complete lanes is a
            # bitwise no-op for the non-negative accumulator).
            node_cl = np.zeros((n, self.G))
            for m in range(self.M):
                node_cl = node_cl + np.where(
                    live3[:, :, m],
                    np.maximum(0.0, wc3[:, :, m] - ex3[:, :, m]),
                    0.0,
                )
            node_cl = np.where(in_jobs, node_cl, 0.0)
        if self._any_la:
            # JobState.remaining_wc_coarse(): WCET sum minus the
            # sequential executed sum, zero once the job completed.
            exec_sum = np.zeros((n, self.G))
            for m in range(self.M):
                exec_sum = exec_sum + ex3[:, :, m]
            graph_cl = np.where(
                complete,
                0.0,
                np.maximum(0.0, self.total_wcet[idx] - exec_sum),
            )
            graph_cl = np.where(in_jobs, graph_cl, 0.0)
            la_node = (kind == _DVS_LAEDF_NODE)[:, None]
            cl = np.where(la_node, node_cl, graph_cl)
            la_mask = self.is_la[idx] & pending
            if la_mask.any():
                s_la = _la_lookahead(d_eff, cl, self.util[idx], pres, t)
                s_raw[la_mask] = s_la[la_mask]

        dispatch = pending & (s_raw > 0)
        fmax = self.f_max[idx]
        s = np.minimum(1.0, np.maximum(s_raw, self.fmin_ratio[idx]))
        target = s * fmax
        lt = (self.freqs[idx] < (target * _ONE_MINUS)[:, None]).sum(axis=1)
        pos = np.minimum(lt, self.n_levels[idx] - 1)
        hi_f = self.freqs[idx, pos]
        single = (
            (pos == 0)
            | (np.abs(hi_f - target) <= 1e-9 * fmax)
            | self.quantize[idx]
        )
        lo_pos = np.maximum(pos - 1, 0)
        lo_f = self.freqs[idx, lo_pos]
        x = (target - lo_f) / (hi_f - lo_f)
        x = np.minimum(1.0, np.maximum(0.0, x))
        x = np.where(single, 1.0, x)
        frac1 = np.where(single, 0.0, 1.0 - x)
        speed0 = hi_f / fmax
        speed1 = lo_f / fmax
        s_eff = np.where(single, speed0, speed0 * x + speed1 * frac1)
        volt0 = self.volts[idx, pos]
        cur0 = self.currents[idx, pos]
        volt1 = self.volts[idx, lo_pos]
        cur1 = self.currents[idx, lo_pos]

        # --- 3. candidate selection (most-imminent job, then node) ----
        dl = np.where(schedulable, self.job_deadline[idx], np.inf)
        dmin = dl.min(axis=1)
        grank = np.where(
            dl == dmin[:, None], self.name_rank[idx], _BIG_RANK
        )
        gsel = grank.argmin(axis=1)

        ex = self.exists[idx, gsel]  # (n, M)
        dn = self.done[idx, gsel]
        blocked = (self.pred[idx, gsel] & ~dn[:, None, :]).any(axis=2)
        ready = ex & ~dn & ~blocked
        has_ready = ready.any(axis=1)
        weird = dispatch & ~has_ready
        if weird.any():  # cannot occur for a well-formed DAG job
            self._demote(idx[weird], "no ready candidate with pending work")
            dispatch &= ~weird
        dispatch &= has_ready

        wrem = np.maximum(
            0.0, self.wcet[idx, gsel] - self.executed[idx, gsel]
        )
        prio = self.prio_kind[idx]
        prim = np.where(
            ready,
            np.where((prio == _PRIO_LTF)[:, None], -wrem, wrem),
            np.inf,
        )
        pmin = prim.min(axis=1)
        nrank = np.where(
            prim == pmin[:, None], self.node_rank[idx, gsel], _BIG_RANK
        )
        msel = nrank.argmin(axis=1)
        wide = (
            dispatch & self.wide[idx] if self._any_wide
            else np.zeros(n, dtype=bool)
        )
        rand_rows = np.flatnonzero(
            dispatch & (prio == _PRIO_RANDOM) & ~wide
        )
        if rand_rows.size:
            # One nonzero pass for all random rows: row-major order
            # yields each row's candidates as a contiguous ascending
            # run, exactly the order candidates_of() builds.
            rr, cand_cols = np.nonzero(ready[rand_rows])
            counts = np.bincount(rr, minlength=rand_rows.size)
            offs = np.zeros(rand_rows.size + 1, dtype=np.int64)
            np.cumsum(counts, out=offs[1:])
            rngs = self._rngs
            rows_py = idx[rand_rows].tolist()
            counts_py = counts.tolist()
            offs_py = offs.tolist()
            cand_py = cand_cols.tolist()
            sel_py = []
            for i, gv in enumerate(rows_py):
                # Identical draw consumption to shuffling the Candidate
                # list: numpy's sequence shuffle depends only on len().
                perm = list(range(counts_py[i]))
                rngs[gv].shuffle(perm)
                sel_py.append(cand_py[offs_py[i] + perm[0]])
            msel[rand_rows] = sel_py
        if wide.any():
            dispatch = self._select_wide(
                idx, t, dispatch, wide, gsel, msel, schedulable,
                s_raw, s_eff, d_eff, node_cl, cl, u_cc,
            )

        # --- 4. dispatch ----------------------------------------------
        window = t_next - t
        rem = np.maximum(
            0.0,
            self.actual[idx, gsel, msel] - self.executed[idx, gsel, msel],
        )
        t_complete = rem / s_eff
        finished = dispatch & (t_complete <= window + _EPS)
        span = np.minimum(t_complete, window)
        dur0 = span * x  # x == 1.0 on single-level rows (span*1.0==span)
        dur1 = span * frac1
        p0 = dispatch & (x > 0)
        p1 = dispatch & ~single & (frac1 > 0)
        last0 = p0 & ~p1
        c0 = np.where(finished & last0, rem, speed0 * dur0)
        exec_acc = np.where(p0, c0, 0.0)
        c1 = np.where(finished & p1, rem - exec_acc, speed1 * dur1)

        idle = ~dispatch
        idle_rows = np.flatnonzero(idle)
        if idle_rows.size:
            gi = idx[idle_rows]
            idle_key = (
                np.full(gi.size, self.G * (self.M + 1), dtype=np.intp)
            )
            zeros = np.zeros(gi.size)
            self.cols.append(
                gi, idle_key, t[idle_rows], window[idle_rows],
                zeros, zeros, self.idle_cur[gi],
            )

        key = gsel * (self.M + 1) + msel
        if p0.any():
            gi = idx[p0]
            self.cols.append(
                gi, key[p0], t[p0], dur0[p0],
                speed0[p0], volt0[p0], cur0[p0],
            )
        if p1.any():
            gi = idx[p1]
            start1 = t + dur0
            self.cols.append(
                gi, key[p1], start1[p1], dur1[p1],
                speed1[p1], volt1[p1], cur1[p1],
            )

        # advance the selected node, chunk by chunk (clamp per chunk,
        # exactly like JobState.advance_node)
        if p0.any():
            gi = idx[p0]
            gs, ms = gsel[p0], msel[p0]
            e = self.executed[gi, gs, ms] + c0[p0]
            a = self.actual[gi, gs, ms]
            clamped = e >= a - 1e-9
            self.executed[gi, gs, ms] = np.where(clamped, a, e)
            self.done[gi, gs, ms] |= clamped
            # A second chunk landing on a node the first chunk already
            # clamped complete raises in the scalar engine.
            clamped_full = np.zeros(n, dtype=bool)
            clamped_full[p0] = clamped
            bad = p1 & clamped_full
            if bad.any():
                self._demote(
                    idx[bad], "mid-dispatch node completion (scalar raises)"
                )
                p1 &= ~bad
                finished &= ~bad
                dispatch &= ~bad
        if p1.any():
            gi = idx[p1]
            gs, ms = gsel[p1], msel[p1]
            e = self.executed[gi, gs, ms] + c1[p1]
            a = self.actual[gi, gs, ms]
            clamped = e >= a - 1e-9
            self.executed[gi, gs, ms] = np.where(clamped, a, e)
            self.done[gi, gs, ms] |= clamped

        # --- 5. completion bookkeeping --------------------------------
        if finished.any():
            fi = idx[finished]
            self.completed_nodes[fi] += 1
            ac = self.actual[idx, gsel, msel]
            wc = self.wcet[idx, gsel, msel]
            ccn = finished & (kind == _DVS_CCEDF_NODE)
            if ccn.any():
                gi = idx[ccn]
                gs = gsel[ccn]
                self.budget[gi, gs] = self.budget[gi, gs] + (
                    ac[ccn] - wc[ccn]
                )
            # is the whole job complete now?
            jc = finished & (
                self.done[idx, gsel].sum(axis=1)
                == self.n_nodes[idx, gsel]
            )
            ccg = finished & (kind == _DVS_CCEDF_GRAPH)
            if ccg.any():
                gi = idx[ccg]
                gs = gsel[ccg]
                self.acc[gi, gs] = self.acc[gi, gs] + ac[ccg]
                both = ccg & jc
                if both.any():
                    gi = idx[both]
                    gs = gsel[both]
                    self.budget[gi, gs] = self.acc[gi, gs]
            if jc.any():
                gi = idx[jc]
                self.completed_jobs[gi] += 1
                self.in_jobs[gi, gsel[jc]] = False
            # policy.observe_completion -> HistoryEstimator.observe:
            # append the node's *full* actual to its per-node window.
            if self._any_hist:
                hs = finished & self.hist_rows[idx]
                if hs.any():
                    gi = idx[hs]
                    gs = gsel[hs]
                    ms = msel[hs]
                    acv = ac[hs]
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

        # --- 6. clock update ------------------------------------------
        # Finished rows advance chunk by chunk (t (+dur0) (+dur1), the
        # scalar per-chunk clock); everything else jumps to t_next.
        # dur0 is +0.0 on chunkless rows, so the trailing adds are
        # bitwise no-ops there; demoted rows get t_next but are dead.
        t0c = t + dur0
        self.t[idx] = np.where(
            finished, np.where(p1, t0c + dur1, t0c), t_next
        )

    # -- wide candidate selection (ALL_RELEASED and/or pUBS) -----------
    def _select_wide(
        self,
        idx: np.ndarray,
        t: np.ndarray,
        dispatch: np.ndarray,
        wide: np.ndarray,
        gsel: np.ndarray,
        msel: np.ndarray,
        schedulable: np.ndarray,
        s_raw: np.ndarray,
        s_eff: np.ndarray,
        d_eff: np.ndarray,
        node_cl: np.ndarray,
        cl: Optional[np.ndarray],
        u_cc: np.ndarray,
    ) -> np.ndarray:
        """Replay ``SchedulingPolicy.select`` for the wide rows.

        Candidates are every ready node of every active job (EDF job
        order, topo node order), ordered by the scalar key tuple
        ``(primary, estimate, graph name, node name)`` and filtered by
        the feasibility walk — all with the scalar stack's exact float
        expressions.  Updates ``gsel``/``msel`` in place and returns
        the (possibly reduced) dispatch mask; rows whose scalar twin
        would raise ``SchedulingError`` are demoted.
        """
        w = np.flatnonzero(wide)
        gv = idx[w]
        nw = w.size
        G, M = self.G, self.M

        sched = schedulable[w]
        dl = np.where(sched, self.job_deadline[gv], np.inf)
        # active_jobs(): sorted by (abs_deadline, name); lexsort's last
        # key is primary, ties fall to the name rank.
        edf_order = np.lexsort((self.name_rank[gv], dl), axis=-1)
        rank = np.empty((nw, G), dtype=np.int64)
        np.put_along_axis(
            rank,
            edf_order,
            np.broadcast_to(np.arange(G, dtype=np.int64), (nw, G)),
            axis=1,
        )

        dn3 = self.done[gv]
        blocked = (self.pred[gv] & ~dn3[:, :, None, :]).any(axis=3)
        cand = self.exists[gv] & ~dn3 & ~blocked & sched[:, :, None]
        imm = ~self.rl_all[gv]
        if imm.any():
            # pUBS over MOST_IMMINENT: only the earliest-deadline
            # job's candidates (gsel from the narrow path).
            same_g = np.arange(G)[None, :] == gsel[w][:, None]
            cand &= ~(imm[:, None, None] & ~same_g[:, :, None])

        wrem = np.maximum(0.0, self.wcet[gv] - self.executed[gv])

        # Feasibility walk: candidate at EDF position r survives iff
        # for every position p < r, cum_wc(p) + wrem_cand stays within
        # s_eff * (d_p - t) + atol.  cumsum replays the sequential
        # prefix sum; MOST_IMMINENT rows skip the check like the
        # scalar ready list (needs_feasibility_check is False).
        feas = np.ones((nw, G, M), dtype=bool)
        fmask = self.feas_on[gv] & self.rl_all[gv]
        if fmask.any():
            rwc = np.where(sched, node_cl[w], 0.0)
            rwc_s = np.take_along_axis(rwc, edf_order, axis=1)
            cum = np.cumsum(rwc_s, axis=1)
            dl_s = np.take_along_axis(dl, edf_order, axis=1)
            bud = s_eff[w][:, None] * (dl_s - t[w][:, None]) + _FEAS_ATOL
            for p in range(G):
                kill = (
                    fmask[:, None, None]
                    & (rank > p)[:, :, None]
                    & (
                        cum[:, p][:, None, None] + wrem
                        > bud[:, p][:, None, None]
                    )
                )
                feas &= ~kill

        prio = self.prio_kind[gv]
        is_pubs = prio == _PRIO_PUBS
        k1 = np.where((prio == _PRIO_LTF)[:, None, None], -wrem, wrem)
        est = None
        if is_pubs.any():
            est = self._pubs_estimate(gv, wrem)
            score = self._pubs_score(
                w, gv, t, s_raw, est, wrem, d_eff, cl, u_cc
            )
            k1 = np.where(is_pubs[:, None, None], score, k1)

        # First feasible candidate in key order == the feasible
        # candidate minimizing the full tuple; resolve level by level.
        ok = (cand & feas).reshape(nw, G * M)
        ok_any = ok.any(axis=1)
        k1f = np.where(ok, k1.reshape(nw, G * M), np.inf)
        m1 = k1f.min(axis=1)
        tie = ok & (k1f == m1[:, None])
        if is_pubs.any():
            k2m = np.where(
                tie & is_pubs[:, None], est.reshape(nw, G * M), np.inf
            )
            m2 = k2m.min(axis=1)
            tie = np.where(
                is_pubs[:, None], tie & (k2m == m2[:, None]), tie
            )
        nrk = np.broadcast_to(
            self.name_rank[gv][:, :, None], (nw, G, M)
        ).reshape(nw, G * M)
        r3 = np.where(tie, nrk, _BIG_RANK)
        tie &= r3 == r3.min(axis=1)[:, None]
        r4 = np.where(tie, self.node_rank[gv].reshape(nw, G * M), _BIG_RANK)
        tie &= r4 == r4.min(axis=1)[:, None]
        sel = tie.argmax(axis=1)
        gsel_w = sel // M
        msel_w = sel % M

        bad = ~ok_any
        rnd = prio == _PRIO_RANDOM
        if rnd.any():
            # RandomPriority over ALL_RELEASED: shuffle the EDF-then-
            # topo candidate list (draw depends only on its length),
            # then take the first feasible in shuffled order.
            cand_s = np.take_along_axis(cand, edf_order[:, :, None], 1)
            feas_s = np.take_along_axis(feas, edf_order[:, :, None], 1)
            rngs = self._rngs
            for i in np.flatnonzero(rnd & ok_any):
                cols = np.flatnonzero(cand_s[i].reshape(-1))
                perm = list(range(cols.size))
                rngs[gv[i]].shuffle(perm)
                ff = feas_s[i].reshape(-1)
                chosen = -1
                for p in perm:
                    if ff[cols[p]]:
                        chosen = cols[p]
                        break
                if chosen < 0:
                    bad[i] = True
                    continue
                pos, mm = divmod(int(chosen), M)
                gsel_w[i] = edf_order[i, pos]
                msel_w[i] = mm

        if bad.any():
            self._demote(
                idx[w[bad]], "no feasible candidate (scalar raises)"
            )
            dispatch[w[bad]] = False
        good = ~bad
        gsel[w[good]] = gsel_w[good]
        msel[w[good]] = msel_w[good]
        return dispatch

    def _pubs_estimate(
        self, gv: np.ndarray, wrem: np.ndarray
    ) -> np.ndarray:
        """``estimator.estimate`` for every candidate lane.

        All four registry estimators are pure functions of simulation
        state, so estimating every lane (twice, in the scalar: score
        and order key) costs nothing in draws.  Non-pUBS rows get
        garbage lanes that are never read.
        """
        ek = self.est_kind[gv][:, None, None]
        wcet = self.wcet[gv]
        execd = self.executed[gv]
        lo = np.maximum(wrem, _EST_EPS)  # WorstCase == the clamp cap
        factor = self.est_factor[gv][:, None, None]
        raw = factor * wcet - execd  # ScaledEstimator
        if (self.est_kind[gv] == _EST_HISTORY).any():
            hist = self.hist[gv]
            ln = self.hist_len[gv]
            acc = np.zeros(ln.shape)
            for k in range(hist.shape[3]):
                acc = acc + np.where(k < ln, hist[:, :, :, k], 0.0)
            total = np.where(
                ln > 0, acc / np.maximum(ln, 1), factor * wcet
            )
            raw = np.where(ek == _EST_HISTORY, total - execd, raw)
        raw = np.where(
            ek == _EST_ORACLE,
            np.maximum(0.0, self.actual[gv] - execd),
            raw,
        )
        clamped = np.minimum(np.maximum(raw, _EST_EPS), lo)
        return np.where(ek == _EST_WORST, lo, clamped)

    def _pubs_score(
        self,
        w: np.ndarray,
        gv: np.ndarray,
        t: np.ndarray,
        s_raw: np.ndarray,
        est: np.ndarray,
        wrem: np.ndarray,
        d_eff: np.ndarray,
        cl: Optional[np.ndarray],
        u_cc: np.ndarray,
    ) -> np.ndarray:
        """``PUBS.score``: est / (s_now^2 - s_after^2), inf when the
        denominator is (numerically) non-positive.

        ``s_after`` is the DVS algorithm's hypothetical speed were the
        candidate to finish with ``est`` actual cycles.
        """
        nw = gv.size
        kindw = self.dvs_kind[gv]
        s_o = s_raw[w][:, None, None]
        s_ok = np.ones((nw, self.G, self.M))
        st = kindw == _DVS_STATIC
        if st.any():
            s_ok = np.where(
                st[:, None, None],
                self.static_u[gv][:, None, None],
                s_ok,
            )
        cc = self.is_cc[gv]
        if cc.any():
            delta = (est - wrem) / self.period[gv][:, :, None]
            s_ok = np.where(
                cc[:, None, None], u_cc[w][:, None, None] + delta, s_ok
            )
        la = self.is_la[gv]
        if la.any():
            # LaEDF.hypothetical_speed: lookahead at t + est/s_now with
            # the candidate graph's c_left shed by its wrem.
            dt = np.where(s_o > _LA_EPS, est / s_o, 0.0)
            t2 = t[w][:, None, None] + dt
            clw = cl[w]
            c4 = np.broadcast_to(
                clw[:, None, None, :], (nw, self.G, self.M, self.G)
            ).copy()
            for g in range(self.G):
                c4[:, g, :, g] = np.maximum(
                    0.0, clw[:, g, None] - wrem[:, g, :]
                )
            s_la = _la_lookahead(
                d_eff[w][:, None, None, :],
                c4,
                self.util[gv][:, None, None, :],
                self.present[gv][:, None, None, :],
                t2,
            )
            s_ok = np.where(la[:, None, None], s_la, s_ok)
        denom = s_o * s_o - s_ok * s_ok
        small = denom <= _LA_EPS
        return np.where(small, np.inf, est / np.where(small, 1.0, denom))

    # -- materialization -----------------------------------------------
    def _materialize(self) -> Dict[int, SimulationResult]:
        cols = self.cols
        order = np.argsort(cols.scen[: cols.n], kind="stable")
        counts = np.bincount(
            cols.scen[: cols.n], minlength=self.V
        )
        offsets = np.zeros(self.V + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])

        miss_by_scen = self._distribute(self._miss_log, 5)
        rel_by_scen = self._distribute(self._rel_log, 2)

        results: Dict[int, SimulationResult] = {}
        for v in range(self.V):
            if not self.active[v]:
                continue  # demoted: scalar re-run owns this item
            sel = order[offsets[v]:offsets[v + 1]]
            starts = cols.start[sel]
            durs = cols.dur[sel]
            speeds = cols.speed[sel]
            volts = cols.volt[sel]
            curs = cols.cur[sel]
            # Numeric guardrail: a NaN/inf anywhere in the trace means
            # some upstream arithmetic went off the rails for this
            # scenario (bad power-model inputs, degenerate frequency
            # tables, ...).  Demote it to the scalar engine, which
            # either produces finite values or raises a diagnosable
            # error — never silently return poisoned columns.
            finite = True
            for col in (starts, durs, speeds, volts, curs):
                if not np.isfinite(col).all():
                    finite = False
                    break
            if not finite:
                self.demoted[self.vec_ids[v]] = _NONFINITE_REASON
                continue
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
                released_jobs=int(self.released[v]),
                completed_jobs=int(self.completed_jobs[v]),
                completed_nodes=int(self.completed_nodes[v]),
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
