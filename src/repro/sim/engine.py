"""Event-driven single-processor simulator for periodic task graphs.

The engine realizes the paper's execution model:

* task graphs release periodically (deadline = period);
* at every *release* and every *node end* the DVS algorithm recomputes
  the reference frequency and the scheduling policy picks the next task
  from the ready list (releases preempt the running node, which returns
  to the ready list with its remaining cycles — preemptive EDF);
* a fractional reference frequency is realized as the optimal
  two-adjacent-level mix, executed high-level-first so the current is
  locally non-increasing inside every dispatch interval;
* every dispatched slice is recorded in an :class:`ExecutionTrace`,
  whose :class:`~repro.sim.profile.CurrentProfile` is what the battery
  models consume.

Actual (as opposed to worst-case) cycle demands come from an
*actuals provider* ``(graph, node, job_index, wcet) -> cycles``,
defaulting to worst case; the paper's 20-100 % uniform workload lives
in :mod:`repro.workloads`.

Steady-state fast-forward
-------------------------
Periodic task sets repeat: once the scheduler state at a hyperperiod
boundary equals the state one hyperperiod earlier *and* the two
hyperperiods dispatched the same cycle, every later hyperperiod is that
same cycle time-shifted.  ``run(horizon, fast=True)`` detects this by
fingerprinting the scheduler stack (per-graph job progress, DVS
internal state, priority/estimator state) at each boundary and, on
convergence, synthesizes the remaining full hyperperiods by tiling the
detected cycle's columnar trace segments instead of re-simulating them
— the same steady-state insight :mod:`repro.battery.kernels` exploits
for the battery ODEs, applied to the schedule itself.  The fast path
silently falls back to the naive event loop whenever it cannot be
exact: stochastic (job-dependent) actuals, non-zero phases, a
hyperperiod that floats cannot tile exactly, or fingerprints that never
converge (e.g. random priorities whose RNG state advances forever).
"""

from __future__ import annotations

import types
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # import only for annotations; avoids a core<->sim cycle
    from ..core.methodology import SchedulingPolicy

from ..dvs.base import FrequencySetter
from ..errors import DeadlineMissError, SchedulingError
from ..processor.platform import Processor
from ..taskgraph.periodic import TaskGraphSet
from .profile import CurrentProfile
from .state import Candidate, GraphStatus, JobState, SchedulerView
from .trace import IDLE, ExecutionTrace

__all__ = [
    "Simulator",
    "SimulationResult",
    "ActualsProvider",
    "worst_case_actuals",
]

#: Relative tolerance unit for time comparisons.  The engine scales it
#: by the task set's time scale (largest ``|phase| + period``), so the
#: horizon/release guards behave identically for a task set quoted in
#: seconds and the same set quoted in microseconds or hours.
_EPS = 1e-9

#: How many hyperperiods ``run(fast=True)`` simulates while probing for
#: a steady state before giving up and finishing naively.
_DETECT_LIMIT = 64

ActualsProvider = Callable[[str, str, int, float], float]
"""``(graph, node, job_index, wcet) -> cycles``.

Providers may additionally expose a ``job_invariant`` attribute
(truthy when the returned cycles do not depend on ``job_index``); the
steady-state fast path is only eligible when the provider declares it,
since tiling a detected cycle replays its per-job actuals verbatim.

A second opt-in, ``job_keyed``, declares that each draw is a pure
function of the ``(graph, node, job_index, wcet)`` key — independent
of call order or interleaving.  The vector engine uses it to pre-draw
whole per-job actuals tables at compile time for genuinely stochastic
workloads (:class:`repro.workloads.generator.UniformActuals` qualifies:
its draws are hash-keyed).  ``job_invariant`` implies the same
property trivially; providers with hidden call-order state must
declare neither.
"""


def worst_case_actuals(
    graph: str, node: str, job_index: int, wc: float
) -> float:
    """Default provider: every node takes its full worst case."""
    return wc


#: Worst-case demands are the same for every job of a node, so the
#: steady-state fast path may tile them.
worst_case_actuals.job_invariant = True


@dataclass(frozen=True)
class DeadlineMiss:
    """A recorded deadline violation (only with ``on_miss='record'``).

    ``time`` is the *missed absolute deadline* of the late job —
    matching what the ``on_miss='raise'`` path reports — while
    ``detected`` is the release instant at which the engine noticed the
    overrun and abandoned the job (the two coincide for deadline =
    period task sets with aligned releases, but ``detected`` can be
    later when another graph's release triggers the check first).
    """

    graph: str
    job_index: int
    time: float
    detected: float


@dataclass
class SimulationResult:
    """Everything a simulation run produced."""

    trace: ExecutionTrace
    horizon: float
    misses: Tuple[DeadlineMiss, ...]
    released_jobs: int
    completed_jobs: int
    completed_nodes: int
    task_set: TaskGraphSet
    processor: Processor
    release_times: Tuple[float, ...]
    #: Hyperperiods synthesized by the steady-state fast path (0 when
    #: the run was fully simulated).
    tiled_cycles: int = 0

    @property
    def fast_forwarded(self) -> bool:
        """True when part of the horizon was tiled, not simulated."""
        return self.tiled_cycles > 0

    def profile(self, *, merge: bool = True) -> CurrentProfile:
        return self.trace.to_profile(merge=merge)

    @property
    def charge(self) -> float:
        """Battery charge drawn over the horizon (coulombs)."""
        return self.trace.charge()

    @property
    def energy(self) -> float:
        """Battery-side energy over the horizon (joules)."""
        return self.trace.energy(self.processor.power.v_bat)

    @property
    def mean_current(self) -> float:
        return self.charge / self.horizon

    def guideline1_holds(self, atol: float = 1e-9) -> bool:
        """Locally non-increasing reference current between releases.

        Evaluated on per-dispatch *mean* currents (label runs): the
        two-adjacent-level mix that realizes a fractional reference
        frequency toggles the instantaneous current inside a dispatch,
        but guideline 1 constrains the reference-frequency staircase,
        which the run means track.  Idle runs are exempt (an idle dip
        never hurts the battery and does not license a later step-up).

        Runs are coalesced columnar (same label *and* same release
        epoch — a node resuming after a release may legitimately
        continue at a higher frequency); only the staircase walk over
        the far-fewer runs stays scalar.
        """
        tr = self.trace
        n = len(tr)
        if n == 0:
            return True
        marks = np.asarray(
            sorted(set(float(t) for t in self.release_times))
        )
        starts = tr.starts
        # Number of marks at or before each segment start (within atol)
        # — the release epoch the segment belongs to.
        epoch = np.searchsorted(marks, starts + atol, side="right")
        ids = tr.label_ids
        head = np.empty(n, dtype=bool)
        head[0] = True
        head[1:] = (ids[1:] != ids[:-1]) | (epoch[1:] != epoch[:-1])
        head_idx = np.flatnonzero(head)
        run_start = starts[head_idx]
        run_dur = np.add.reduceat(tr.durations, head_idx)
        run_charge = np.add.reduceat(
            tr.durations * tr.currents, head_idx
        )
        run_idle = tr.idle[head_idx]

        mark_list = marks.tolist()
        mark_idx = 0
        ceiling = float("inf")
        for start, dur, charge, is_idle in zip(
            run_start.tolist(),
            run_dur.tolist(),
            run_charge.tolist(),
            run_idle.tolist(),
        ):
            while (
                mark_idx < len(mark_list)
                and mark_list[mark_idx] <= start + atol
            ):
                ceiling = float("inf")
                mark_idx += 1
            if is_idle or dur <= 0:
                continue
            mean_i = charge / dur
            if mean_i > ceiling + atol:
                return False
            ceiling = min(ceiling, mean_i)
        return True


class _DVSOracle:
    """Speed oracle backed by the run's live DVS algorithm."""

    def __init__(
        self, dvs: FrequencySetter, view: SchedulerView, s_now: float
    ) -> None:
        self._dvs = dvs
        self._view = view
        self._s_now = s_now

    def speed_now(self) -> float:
        return self._s_now

    def speed_after(self, cand: Candidate, estimate: float) -> float:
        return self._dvs.hypothetical_speed(self._view, cand, estimate)


def _freeze(obj: object, depth: int = 0) -> object:
    """Deterministic snapshot of scheduler-stack state for equality.

    Recursively converts the mutable containers the DVS algorithms,
    priority functions and estimators actually hold (dicts, deques,
    numpy arrays, ``Generator`` bit states, plain attribute objects)
    into comparable tuples.  Anything it cannot faithfully freeze maps
    to a fresh sentinel that never compares equal — which makes the
    fast path *fall back to the naive loop* rather than tile a cycle
    whose state it could not verify.
    """
    if depth > 10:
        return object()  # too deep to verify: never equal
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return obj
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.shape, obj.dtype.str, obj.tobytes())
    if isinstance(obj, np.random.Generator):
        return ("rng", _freeze(obj.bit_generator.state, depth + 1))
    if isinstance(obj, dict):
        return (
            "dict",
            tuple(
                (repr(k), _freeze(v, depth + 1))
                for k, v in sorted(obj.items(), key=lambda kv: repr(kv[0]))
            ),
        )
    if isinstance(obj, (list, tuple, deque)):
        return ("seq", tuple(_freeze(v, depth + 1) for v in obj))
    if isinstance(obj, (set, frozenset)):
        return (
            "set",
            tuple(sorted(repr(_freeze(v, depth + 1)) for v in obj)),
        )
    if isinstance(
        obj,
        (types.FunctionType, types.BuiltinFunctionType, types.MethodType),
    ):
        return ("fn", getattr(obj, "__module__", ""), obj.__qualname__)
    if isinstance(obj, type):
        return ("type", obj.__module__, obj.__qualname__)
    attrs = getattr(obj, "__dict__", None)
    if attrs is not None:
        return (
            type(obj).__module__,
            type(obj).__qualname__,
            _freeze(attrs, depth + 1),
        )
    return object()  # opaque (e.g. __slots__) state: never equal


@dataclass
class _RunState:
    """Mutable state of one run, shared by the naive event loop, the
    steady-state detector and the tiling fast-forward."""

    t: float
    eps: float
    trace: ExecutionTrace
    next_release: Dict[str, float]
    job_counter: Dict[str, int]
    jobs: Dict[str, JobState]
    misses: List[DeadlineMiss] = field(default_factory=list)
    release_times: List[float] = field(default_factory=list)
    released: int = 0
    completed_jobs: int = 0
    completed_nodes: int = 0


class Simulator:
    """One run = one task set × one processor × one scheme instance.

    Parameters
    ----------
    task_set:
        The periodic task graphs to schedule.
    processor:
        The DVS platform (frequency table + power model).
    dvs:
        A *fresh* frequency setter (stateful across the run).
    policy:
        A *fresh* scheduling policy (priority function + ready list).
    actuals:
        Actual-cycles provider; defaults to worst case.
    on_miss:
        ``"raise"`` (default) raises :class:`DeadlineMissError`;
        ``"record"`` logs the miss, abandons the late job and goes on —
        used by the ablation that removes the feasibility check.
    """

    def __init__(
        self,
        task_set: TaskGraphSet,
        processor: Processor,
        dvs: FrequencySetter,
        policy: "SchedulingPolicy",
        *,
        actuals: Optional[ActualsProvider] = None,
        on_miss: str = "raise",
    ) -> None:
        if on_miss not in ("raise", "record"):
            raise SchedulingError(
                f"on_miss must be 'raise' or 'record', got {on_miss!r}"
            )
        self.task_set = task_set
        self.processor = processor
        self.dvs = dvs
        self.policy = policy
        self.actuals: ActualsProvider = (
            actuals if actuals is not None else worst_case_actuals
        )
        self.on_miss = on_miss

    # ------------------------------------------------------------------
    def _time_eps(self) -> float:
        """Comparison tolerance relative to the task set's time scale.

        An absolute ``1e-9`` is six orders too tight for a task set
        quoted with periods around ``1e5`` (a release landing one ulp
        past its exact instant would be missed for a full loop turn)
        and six orders too loose for one quoted in microseconds.
        """
        scale = max(
            (abs(g.phase) + g.period for g in self.task_set),
            default=1.0,
        )
        return _EPS * max(1.0, scale)

    def _view(self, st: _RunState, t: float) -> SchedulerView:
        statuses = []
        for g in self.task_set:
            job = st.jobs.get(g.name)
            if job is not None and job.is_complete():
                job = None  # finished instances are no longer schedulable
            statuses.append(
                GraphStatus(g, job, st.next_release[g.name])
            )
        return SchedulerView(self.task_set, t, statuses)

    # ------------------------------------------------------------------
    def run(
        self,
        horizon: float,
        *,
        fast: bool = False,
        detect_limit: int = _DETECT_LIMIT,
    ) -> SimulationResult:
        """Simulate ``[0, horizon)``.

        Parameters
        ----------
        horizon:
            Simulated time span; must be ``> 0``.  Releases due
            exactly at the horizon are not released.
        fast:
            Look for a steady-state dispatch cycle at hyperperiod
            boundaries and tile it across the remaining horizon (see
            the module docstring).  The fast path is opportunistic:
            it requires job-invariant actuals, zero phases and a
            converging state fingerprint, and degrades to the plain
            event loop whenever it cannot guarantee equivalence — so
            ``fast=True`` is always safe to request.
        detect_limit:
            How many hyperperiods are probed for convergence before
            the fast path gives up (``< 2`` disables it).

        Returns
        -------
        SimulationResult
            The columnar trace plus counts, misses, release instants
            and derived charge/energy; ``fast_forwarded`` and
            ``tiled_cycles`` report whether/how much the fast path
            engaged.

        For many independent scenarios, consider the lock-step
        struct-of-arrays engine (:func:`repro.sim.vector.
        run_vectorized` / :class:`~repro.sim.batch.ScenarioBatch`), which
        produces bit-identical results per scenario.
        """
        if not (horizon > 0):
            raise SchedulingError(f"horizon must be > 0, got {horizon}")
        horizon = float(horizon)
        st = _RunState(
            t=0.0,
            eps=self._time_eps(),
            trace=ExecutionTrace(),
            next_release={
                g.name: g.release_time(0) for g in self.task_set
            },
            job_counter={g.name: 0 for g in self.task_set},
            jobs={},
        )
        self.dvs.on_sim_start(self._view(st, 0.0))
        tiled = (
            self._fast_forward(st, horizon, detect_limit) if fast else 0
        )
        self._advance(st, horizon)
        return SimulationResult(
            trace=st.trace,
            horizon=horizon,
            misses=tuple(st.misses),
            released_jobs=st.released,
            completed_jobs=st.completed_jobs,
            completed_nodes=st.completed_nodes,
            task_set=self.task_set,
            processor=self.processor,
            release_times=tuple(st.release_times),
            tiled_cycles=tiled,
        )

    # ------------------------------------------------------------------
    def _advance(self, st: _RunState, until: float) -> None:
        """The event loop: simulate from ``st.t`` up to ``until``."""
        while st.t < until - st.eps:
            # --- 1. process due releases --------------------------------
            newly: List[str] = []
            for g in self.task_set:
                name = g.name
                while st.next_release[name] <= st.t + st.eps:
                    job = st.jobs.get(name)
                    if job is not None:
                        if self.on_miss == "raise":
                            raise DeadlineMissError(
                                name, job.abs_deadline, st.t
                            )
                        st.misses.append(
                            DeadlineMiss(
                                name,
                                job.job_index,
                                job.abs_deadline,
                                st.t,
                            )
                        )
                        del st.jobs[name]  # abandon the late job
                    idx = st.job_counter[name]
                    st.job_counter[name] = idx + 1
                    actual = {
                        node.name: self.actuals(
                            name, node.name, idx, node.wcet
                        )
                        for node in g.graph
                    }
                    st.jobs[name] = JobState(
                        g, idx, st.next_release[name], actual
                    )
                    st.release_times.append(st.next_release[name])
                    # Exact release clock: the k-th release is
                    # phase + k·period, not an accumulated sum (which
                    # drifts by an ulp per period and eventually
                    # detaches releases from hyperperiod boundaries).
                    st.next_release[name] = g.release_time(idx + 1)
                    st.released += 1
                    newly.append(name)
            view = self._view(st, st.t)
            for name in newly:
                status = next(s for s in view.graphs if s.name == name)
                self.dvs.on_release(view, status)

            t_next = min(min(st.next_release.values()), until)

            # --- 2. frequency setting and task selection ---------------
            s_raw = self.dvs.select_speed(view)
            oracle = _DVSOracle(self.dvs, view, s_raw)
            mix = self.processor.resolve(s_raw) if s_raw > 0 else None
            s_eff = (
                mix.average_speed(self.processor.f_max) if mix else 0.0
            )
            cand = (
                self.policy.select(view, s_eff, oracle)
                if s_eff > 0
                else None
            )

            if cand is None:
                # Idle until the next release (or the horizon).
                st.trace.record(
                    start=st.t,
                    duration=t_next - st.t,
                    graph=IDLE,
                    node="",
                    speed=0.0,
                    voltage=0.0,
                    current=self.processor.idle_current(),
                )
                st.t = t_next
                continue

            # --- 3. dispatch until completion or the next event --------
            # The two-level mix is laid over the *execution interval*
            # (to completion, or to the next release if that comes
            # first), so every dispatch's mean speed equals the
            # reference frequency exactly — this is what keeps the
            # per-dispatch current staircase faithful to f_ref.
            window = t_next - st.t
            remaining = cand.job.remaining_ac_node(cand.node)
            t_complete = remaining / s_eff
            finished = t_complete <= window + _EPS
            span = min(t_complete, window)
            chunks = self.processor.run_segments(s_raw, span)
            executed = 0.0
            for k, (dur, point, current) in enumerate(chunks):
                speed = point.frequency / self.processor.f_max
                if finished and k == len(chunks) - 1:
                    # Absorb float residue: the last chunk completes the
                    # node exactly.
                    cycles = remaining - executed
                else:
                    cycles = speed * dur
                st.trace.record(
                    st.t, dur, cand.graph_name, cand.node,
                    speed, point.voltage, current,
                )
                cand.job.advance_node(cand.node, cycles)
                executed += cycles
                st.t += dur

            if finished:
                st.completed_nodes += 1
                wc = cand.wc_full
                ac = cand.job.actual[cand.node]
                view = self._view(st, st.t)
                self.dvs.on_node_end(
                    view, cand.graph_name, cand.node, wc, ac,
                    cand.job.is_complete(),
                )
                self.policy.observe_completion(
                    cand.graph_name, cand.node, wc, ac
                )
                if cand.job.is_complete():
                    st.completed_jobs += 1
                    del st.jobs[cand.graph_name]
            else:
                # Window exhausted: land exactly on the event boundary to
                # avoid drift.
                st.t = t_next

    # -- steady-state fast-forward -------------------------------------
    def _fast_eligible(
        self, horizon: float
    ) -> Optional[Tuple[float, Dict[str, int]]]:
        """The (hyperperiod, releases-per-cycle) pair, or ``None``.

        Tiling is exact only when (a) actuals declare themselves
        job-invariant, (b) all phases are zero so every hyperperiod
        boundary is a release instant for every graph (the event loop
        then never splits a segment at a boundary), and (c) each
        period tiles the hyperperiod exactly in float arithmetic, so
        shifted release instants stay bit-identical to the naive
        release clock.
        """
        if not getattr(self.actuals, "job_invariant", False):
            return None
        if any(g.phase != 0.0 for g in self.task_set):
            return None
        hyper = float(self.task_set.hyperperiod())
        if not (np.isfinite(hyper) and hyper > 0):
            return None
        per_cycle: Dict[str, int] = {}
        for g in self.task_set:
            k = int(round(hyper / g.period))
            if k < 1 or k * g.period != hyper:
                return None
            per_cycle[g.name] = k
        if horizon < 3.0 * hyper:
            return None  # nothing to gain: detect needs 2, tile needs 1
        return hyper, per_cycle

    def _fingerprint(
        self, st: _RunState, boundary: float
    ) -> Tuple[object, ...]:
        """Scheduler-stack state at ``boundary``, time-shifted to it."""
        releases = tuple(
            (name, st.next_release[name] - boundary)
            for name in sorted(st.next_release)
        )
        jobs = tuple(
            (
                name,
                st.jobs[name].job_index - st.job_counter[name],
                st.jobs[name].release - boundary,
                st.jobs[name].abs_deadline - boundary,
                _freeze(st.jobs[name].executed),
                _freeze(st.jobs[name].completed),
                _freeze(st.jobs[name].actual),
            )
            for name in sorted(st.jobs)
        )
        return (
            releases,
            jobs,
            _freeze(self.dvs),
            _freeze(self.policy),
        )

    @staticmethod
    def _cycles_match(
        trace: ExecutionTrace,
        prev: Tuple[int, int],
        cur: Tuple[int, int],
        eps: float,
    ) -> bool:
        """Did two consecutive hyperperiods dispatch the same cycle?

        Labels, speeds, operating points and currents must match
        bitwise; starts (relative to the cycle) and durations are
        allowed ulp-level dust, because the same subtraction
        ``t_next - t`` rounds differently at different absolute times.
        """
        a0, a1 = prev
        b0, b1 = cur
        if a1 - a0 != b1 - b0 or a1 == a0:
            return False
        ids = trace.label_ids
        if not np.array_equal(ids[a0:a1], ids[b0:b1]):
            return False
        for col in (trace.speeds, trace.voltages, trace.currents):
            if not np.array_equal(col[a0:a1], col[b0:b1]):
                return False
        da, db = trace.durations[a0:a1], trace.durations[b0:b1]
        if not np.allclose(da, db, rtol=1e-9, atol=eps):
            return False
        sa, sb = trace.starts[a0:a1], trace.starts[b0:b1]
        return bool(
            np.allclose(sa - sa[0], sb - sb[0], rtol=1e-9, atol=eps)
        )

    def _fast_forward(
        self, st: _RunState, horizon: float, detect_limit: int
    ) -> int:
        """Detect a steady-state hyperperiod and tile it; returns the
        number of hyperperiods synthesized (0 = fell back to naive)."""
        if detect_limit < 2:
            return 0  # convergence needs at least two observed cycles
        eligible = self._fast_eligible(horizon)
        if eligible is None:
            return 0
        hyper, per_cycle = eligible
        prev_fp: Optional[Tuple[object, ...]] = None
        prev_seg: Optional[Tuple[int, int]] = None
        for k in range(1, detect_limit + 1):
            boundary = k * hyper
            if boundary > horizon - hyper + st.eps:
                return 0  # no full hyperperiod left to tile
            marks = (
                len(st.trace),
                len(st.misses),
                len(st.release_times),
                st.released,
                st.completed_jobs,
                st.completed_nodes,
            )
            self._advance(st, boundary)
            if abs(st.t - boundary) > st.eps:
                # The event loop stopped well short of the boundary
                # (it only ever does within tolerance); cycle cuts are
                # not aligned here, so restart detection.
                prev_fp = prev_seg = None
                continue
            seg = (marks[0], len(st.trace))
            fp = self._fingerprint(st, boundary)
            if (
                prev_fp is not None
                and prev_seg is not None
                and fp == prev_fp
                and self._cycles_match(st.trace, prev_seg, seg, st.eps)
            ):
                copies = int((horizon - boundary) / hyper)
                while boundary + (copies + 1) * hyper <= horizon:
                    copies += 1
                while copies > 0 and boundary + copies * hyper > horizon:
                    copies -= 1
                if copies < 1:
                    return 0
                self._tile(st, boundary, copies, hyper, per_cycle, marks)
                return copies
            prev_fp, prev_seg = fp, seg
        return 0

    def _tile(
        self,
        st: _RunState,
        boundary: float,
        copies: int,
        hyper: float,
        per_cycle: Dict[str, int],
        marks: Tuple[int, int, int, int, int, int],
    ) -> None:
        """Replay the detected cycle ``copies`` times by bookkeeping."""
        seg0, miss0, rel0, released0, cjobs0, cnodes0 = marks
        st.trace.extend_tiled(seg0, copies, hyper)
        cycle_misses = st.misses[miss0:]
        cycle_releases = st.release_times[rel0:]
        for m in range(1, copies + 1):
            shift = m * hyper
            st.misses.extend(
                DeadlineMiss(
                    x.graph,
                    x.job_index + m * per_cycle[x.graph],
                    x.time + shift,
                    x.detected + shift,
                )
                for x in cycle_misses
            )
            st.release_times.extend(r + shift for r in cycle_releases)
        st.released += copies * (st.released - released0)
        st.completed_jobs += copies * (st.completed_jobs - cjobs0)
        st.completed_nodes += copies * (st.completed_nodes - cnodes0)
        # In-flight jobs and release clocks jump forward by whole
        # cycles; recomputing from the exact release formula keeps them
        # bit-identical to what the naive loop would hold here.
        for name, job in st.jobs.items():
            job.job_index += copies * per_cycle[name]
            job.release = job.ptg.release_time(job.job_index)
            job.abs_deadline = job.release + job.ptg.deadline
        for g in self.task_set:
            st.job_counter[g.name] += copies * per_cycle[g.name]
            st.next_release[g.name] = g.release_time(
                st.job_counter[g.name]
            )
        st.t = boundary + copies * hyper
