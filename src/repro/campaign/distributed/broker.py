"""Broker side of the distributed campaign backends.

A broker owns one campaign at a time: :meth:`Broker.submit` publishes
the ``(index, spec)`` work units, :meth:`Broker.outcomes` blocks
yielding ``(index, ScenarioResult)`` pairs as workers finish —
deduplicated by index, with lost leases requeued — until every unit
is resolved.  By default a worker-reported execution error fails the
campaign immediately; with a retry budget (``max_retries``) the spec
is republished after a deterministic backoff, and under
``on_error="quarantine"`` a spec that exhausts its budget is recorded
in the broker's :class:`~repro.campaign.failures.FailureReport` and
the campaign completes without it.

Fault tolerance:

* **Heartbeat leases** — workers renew their lease while executing
  (in-payload stamps over the directory, ``heartbeat`` messages over
  TCP), so a lease expiring really means a dead worker, and requeue
  timeouts can stay short even with hour-long scenarios.
* **Crash recovery through the result cache** — the broker keeps no
  journal of its own: the runner front end
  (:func:`~repro.campaign.runner.cached_run`) stores each accepted
  result in the runner's :class:`~repro.campaign.cache.ResultCache`
  (fsynced), so rerunning a crashed campaign on the same cache submits
  only the uncached complement to a fresh broker.
* **Chunked leases** — ``chunk_size > 1`` leases index-contiguous
  runs of tasks.  The holder runs its chunk until it finishes, the
  lease expires, the spec-deadline backstop takes it back, or the
  worker hands the rest back at its ``max_tasks``.
* **Worker health scoring** — every worker token accumulates a score
  (error outcome +1, crash/stale lease +2, corrupt payload +2); at
  ``health_threshold`` the broker *retires* the worker — blacklists
  its token so it stops winning leases — instead of letting one bad
  host grind a campaign down via its retry budgets.
* **Spec deadlines** — ``spec_timeout`` travels inside task payloads
  (workers arm a watchdog) and is backstopped broker-side: a unit that
  stays the active task of one lease for well past the deadline is
  charged as a timeout even if the worker keeps heartbeating through
  the hang.

:class:`Broker` holds all of that policy in one state machine driven
by a single heap of timers.  It reads no clock: :meth:`Broker.step`
takes the broker time ``now`` as an argument, and only the
:meth:`Broker.outcomes` loop reads this host's monotonic clock.  Two
transports supply the mechanics: :class:`DirectoryBroker` over a
shared filesystem (see :mod:`~repro.campaign.distributed.workdir`)
and :class:`TCPBroker` over line-delimited JSON sockets.
"""

from __future__ import annotations

import collections
import dataclasses
import heapq
import itertools
import queue
import socketserver
import threading
import time
import uuid
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from ...errors import SchedulingError, SpecTimeout
from ...locks import assert_held, contract_lock
from ..failures import (
    QUARANTINED,
    RETRY,
    FailureInfo,
    FailureReport,
    RetryBudget,
)
from ..spec import ScenarioResult, Spec
from .protocol import (
    PROTOCOL_VERSION,
    outcome_worker,
    parse_outcome,
    recv_msg,
    send_msg,
    task_payload,
)
from .workdir import WorkDir

__all__ = ["Broker", "DirectoryBroker", "TCPBroker"]

#: Order in which timers due at the same instant fire.
_PRIORITY = {
    "retry": 0,
    "expire": 1,
    "overdue": 2,
    "scan": 3,
    "stall": 4,
}
#: Timer kinds that act on leases: the leases are listed afresh first.
_LEASE_KINDS = frozenset({"expire", "overdue", "scan"})

#: ``(key, worker, remaining indices with the active one first,
#: renewal nonce)``; a ``None`` nonce means the holder is known gone.
LeaseInfo = Tuple[object, str, List[int], object]


def _fresh_job_id() -> str:
    return uuid.uuid4().hex[:12]


def _outcome_index(payload) -> Optional[int]:
    """The index an outcome payload claims, or ``None`` if it has none."""
    try:
        return int(payload["index"])
    except (KeyError, TypeError, ValueError):
        return None


def _outcome_demoted(payload) -> int:
    """The numeric demotions a result outcome reports (0 if none)."""
    try:
        return max(0, int(payload.get("demoted", 0)))
    except (TypeError, ValueError):
        return 0


@dataclasses.dataclass
class _Lease:
    """What the broker last observed of one outstanding lease."""

    worker: str = ""
    remaining: List[int] = dataclasses.field(default_factory=list)
    nonce: object = None
    #: Broker time at which the lease expires unless its nonce changes.
    expires: Optional[float] = None
    active: Optional[int] = None
    #: Broker time at which the active index becomes overdue.
    overdue: Optional[float] = None


class Broker:
    """Every broker policy decision, independent of the transport.

    Retry backoff, lease expiry, the spec-deadline backstop and the
    ``result_timeout`` stall guard are timers
    ``(due, priority, seq, kind, key)`` on one heap, fired by
    :meth:`step` in due order.  A lease expires by one rule on every
    transport: its renewal nonce has not changed for
    ``lease_timeout`` of broker time.  The spec-deadline backstop
    times a unit from the moment it became its lease's active task.

    ``transport`` supplies the mechanics — a :class:`WorkDir`, the TCP
    server's shared state, or a test's in-memory fake — through the
    operations :class:`WorkDir` documents: ``publish`` (start a job)
    and ``enqueue`` chunks, list ``leases`` as :data:`LeaseInfo`,
    ``reclaim`` a lease, ``retire`` a worker, and ``pop_outcomes``.
    """

    def __init__(
        self,
        transport,
        *,
        poll: float = 0.05,
        lease_timeout: float = 60.0,
        result_timeout: Optional[float] = None,
        chunk_size: int = 1,
        max_retries: int = 0,
        on_error: str = "raise",
        spec_timeout: Optional[float] = None,
        health_threshold: Optional[int] = None,
    ) -> None:
        if poll <= 0:
            raise SchedulingError(f"poll must be > 0, got {poll}")
        if lease_timeout <= 0:
            raise SchedulingError(
                f"lease_timeout must be > 0, got {lease_timeout}"
            )
        if chunk_size < 1:
            raise SchedulingError(f"chunk_size must be >= 1, got {chunk_size}")
        if health_threshold is not None and health_threshold < 1:
            raise SchedulingError(
                f"health_threshold must be >= 1, got {health_threshold}"
            )
        self.budget = RetryBudget(max_retries, spec_timeout, on_error)
        self._transport = transport
        self.poll = float(poll)
        self.lease_timeout = float(lease_timeout)
        self.result_timeout = result_timeout
        self.chunk_size = int(chunk_size)
        self.health_threshold = health_threshold
        # Listing leases reads every claimed chunk on a shared
        # filesystem, and expiry only needs a fraction of the lease
        # timeout's resolution: scan at most once a second.
        self.scan_interval = min(1.0, self.lease_timeout / 4.0)
        #: Backstop delay after a unit becomes active.  The worker-side
        #: watchdog fires at exactly the deadline; the backstop waits
        #: twice that plus a second, so it only acts where the watchdog
        #: could not (worker thread, non-POSIX host, wedged C code).
        self._grace: Optional[float] = None
        if self.budget.spec_timeout is not None:
            self.scan_interval = min(
                self.scan_interval, self.budget.spec_timeout / 2.0
            )
            self._grace = 2.0 * self.budget.spec_timeout + 1.0
        self._reset()

    def _reset(self) -> None:
        """Forget every trace of the previous job."""
        self.job: Optional[str] = None
        self.requeued_total = 0
        self.failure_report = FailureReport()
        self.retired_workers: Set[str] = set()
        self._expected: Set[int] = set()
        self._resolved: Set[int] = set()
        self._items: Dict[int, Spec] = {}
        self._attempts: Dict[int, int] = {}
        self._health: Dict[str, int] = {}
        self._demoted = 0
        self._timers: List[Tuple[float, int, int, str, object]] = []
        self._seq = itertools.count()
        self._seen: Dict[object, _Lease] = {}
        self._retries_pending = 0
        #: Broker time of the last accepted outcome; ``None`` until the
        #: first :meth:`step` of the job arms the periodic timers.
        self._progress: Optional[float] = None

    def submit(self, items: List[Tuple[int, Spec]]) -> None:
        """Start a job and publish its ``(index, spec)`` work units."""
        if self._expected - self._resolved:
            raise SchedulingError(
                "broker already has an unfinished campaign"
            )
        self._reset()
        self.job = _fresh_job_id()
        self._expected = {index for index, _spec in items}
        self._items = {int(i): spec for i, spec in items}
        self._transport.publish(
            self.job,
            items,
            chunk_size=self.chunk_size,
            timeout=self.budget.spec_timeout,
        )

    @property
    def telemetry(self) -> Dict[str, int]:
        """Fault counters for the current campaign.

        ``requeued`` counts work units returned to the queue (expired
        leases, dead connections, the rest of a backstopped lease);
        ``retried`` counts re-executions charged to retry budgets;
        ``quarantined`` counts specs abandoned after exhausting theirs;
        ``retired`` counts workers blacklisted by health scoring;
        ``demoted`` sums the numeric demotions the accepted outcomes
        report.
        """
        return {
            "requeued": self.requeued_total,
            "retried": self.failure_report.retries,
            "quarantined": len(self.failure_report.quarantined),
            "retired": len(self.retired_workers),
            "demoted": self._demoted,
        }

    @property
    def worker_health(self) -> Dict[str, int]:
        """Current per-worker failure scores (telemetry snapshot)."""
        return dict(self._health)

    @property
    def done(self) -> bool:
        return self._expected == self._resolved

    @property
    def remaining(self) -> int:
        """Unresolved work units (drives the runner's autoscaler)."""
        return len(self._expected - self._resolved)

    # ------------------------------------------------------------------
    # The state machine
    # ------------------------------------------------------------------
    def outcomes(self) -> Iterator[Tuple[int, ScenarioResult]]:
        """Yield ``(index, result)`` until every unit is resolved.

        One :meth:`step` per ``poll`` seconds of this host's monotonic
        clock, the only clock the broker reads.
        """
        while not self.done:
            idle = True
            for accepted in self.step(time.monotonic()):
                idle = False
                yield accepted
            if idle:
                time.sleep(self.poll)

    def step(self, now: float) -> Iterator[Tuple[int, ScenarioResult]]:
        """Advance to broker time ``now``.

        Yields each polled outcome the broker accepts, then fires every
        timer due by ``now``.  Outcomes are polled one at a time, so a
        consumer that stops early leaves the rest with the transport.
        """
        if self._progress is None:
            self._progress = now
            self._arm(now, "scan")
            if self.result_timeout is not None:
                self._arm(now + self.result_timeout, "stall")
        for payload in self._transport.pop_outcomes(self.job):
            accepted = self._accept(payload, now)
            if accepted is not None:
                self._progress = now
                yield accepted
        listed = False
        while self._timers and self._timers[0][0] <= now:
            _due, _priority, _seq, kind, key = heapq.heappop(self._timers)
            if kind in ("expire", "overdue") and not self._lapsed(key, now):
                continue  # renewed, or a later task became active
            if kind in _LEASE_KINDS and not listed:
                self._observe(now)
                listed = True
            getattr(self, f"_on_{kind}")(now, key)

    def _lapsed(self, key: object, now: float) -> bool:
        """Has lease ``key`` expired or gone overdue, as last observed?
        Only then is it worth listing the leases afresh to confirm."""
        lease = self._seen.get(key)
        return lease is not None and (
            now >= lease.expires
            or (lease.overdue is not None and now >= lease.overdue)
        )

    def _arm(self, due: float, kind: str, key: object = None) -> None:
        heapq.heappush(
            self._timers, (due, _PRIORITY[kind], next(self._seq), kind, key)
        )

    def _observe(self, now: float) -> None:
        """List the leases: arm expiry on every new renewal nonce and
        the spec-deadline backstop on every new active index."""
        seen: Dict[object, _Lease] = {}
        for key, worker, remaining, nonce in self._transport.leases(
            self.job
        ):
            lease = self._seen.get(key) or _Lease()
            lease.worker, lease.remaining = worker, remaining
            if lease.expires is None or lease.nonce != nonce:
                lease.nonce = nonce
                # A holder known to be gone expires at once.
                lease.expires = now + (
                    0.0 if nonce is None else self.lease_timeout
                )
                self._arm(lease.expires, "expire", key)
            active = remaining[0] if remaining else None
            if self._grace is not None and (
                lease.overdue is None or lease.active != active
            ):
                lease.active, lease.overdue = active, now + self._grace
                self._arm(lease.overdue, "overdue", key)
            seen[key] = lease
        self._seen = seen

    def _on_retry(self, now: float, index: int) -> None:
        self._retries_pending -= 1
        if index not in self._resolved:
            self._requeue(index)

    def _requeue(self, index: int) -> None:
        self._transport.enqueue(
            self.job,
            [(index, self._items[index])],
            chunk_size=1,
            timeout=self.budget.spec_timeout,
        )

    def _on_expire(self, now: float, key: object) -> None:
        lease = self._seen.get(key)
        if lease is None or now < lease.expires:
            return  # renewed since this timer was armed
        del self._seen[key]
        requeued = self._transport.reclaim(key)
        self.requeued_total += requeued
        if requeued:
            self._note_worker(lease.worker, 2)

    def _on_overdue(self, now: float, key: object) -> None:
        lease = self._seen.get(key)
        if lease is None or now < lease.overdue:
            return  # a later task became active since
        index = lease.active
        if index in self._resolved or index not in self._expected:
            return
        # The hung worker keeps heartbeating, so its lease never
        # expires: take the rest of the lease back as well.
        del self._seen[key]
        self.requeued_total += self._transport.reclaim(key, skip=index)
        self._spec_failed(
            index,
            SpecTimeout(
                f"spec {index} exceeded its {self.budget.spec_timeout:.3g}s "
                "deadline (broker backstop; worker still holds the "
                "lease)",
                exc_type="SpecTimeout",
            ),
            now,
            lease.worker,
        )

    def _on_scan(self, now: float, _key: object) -> None:
        self._arm(now + self.scan_interval, "scan")

    def _on_stall(self, now: float, _key: object) -> None:
        if self._retries_pending:
            self._progress = now  # waiting out a backoff is no stall
        if now < self._progress + self.result_timeout:
            self._arm(self._progress + self.result_timeout, "stall")
            return
        missing = sorted(self._expected - self._resolved)
        raise SchedulingError(
            f"no worker progress in {self.result_timeout:.0f}s; "
            f"{len(missing)} unit(s) unresolved (first: "
            f"{missing[:5]}) — are any workers attached?"
        )

    # ------------------------------------------------------------------
    def _accept(
        self, payload: object, now: float
    ) -> Optional[Tuple[int, ScenarioResult]]:
        """Validate one outcome payload; ``None`` if stale/duplicate.

        Error outcomes flow into the retry/quarantine machinery; a
        *corrupt* payload (unparseable at all) charges the sending
        worker's health score and requeues the index it claimed.
        """
        try:
            job, index, outcome = parse_outcome(payload)
        except SchedulingError:
            self._note_worker(outcome_worker(payload), 2)
            index = _outcome_index(payload)
            if (
                index is not None
                and payload.get("job") == self.job
                and index in self._expected
                and index not in self._resolved
            ):
                self.requeued_total += 1
                self._requeue(index)
            return None
        if job != self.job or index not in self._expected:
            return None  # another campaign's straggler
        if index in self._resolved:
            return None  # duplicate after a lease requeue
        if isinstance(outcome, SchedulingError):
            self._spec_failed(index, outcome, now, outcome_worker(payload))
            return None
        self._resolved.add(index)
        self._demoted += _outcome_demoted(payload)
        return index, outcome

    def _spec_failed(
        self, index: int, exc: SchedulingError, now: float, worker: str = ""
    ) -> None:
        """Charge one failed execution to the :class:`RetryBudget`.

        A granted retry becomes a timer at its backoff delay; a
        quarantine resolves the unit without a result; an exhausted
        budget raises (the default — same first-failure abort as before
        this layer, down to the message the pinned tests match).
        """
        self._note_worker(worker, 1)
        verdict = self.budget.charge(
            self.failure_report,
            self._attempts,
            index,
            self._items.get(index),
            FailureInfo.from_exception(exc),
        )
        if verdict.kind == RETRY:
            self._retries_pending += 1
            self._arm(now + verdict.delay, "retry", index)
        elif verdict.kind == QUARANTINED:
            # Quarantine resolves the unit (without a result) so the
            # campaign can finish; it is never cached, so a rerun gets
            # a fresh chance at the spec.
            self._resolved.add(index)
        else:
            raise SchedulingError(
                f"worker failed executing scenario {index}: {exc}"
            )

    def _note_worker(self, worker: str, weight: int) -> None:
        """Add ``weight`` to a worker's failure score; retire at the
        threshold (error outcome +1, crash/stale lease +2, corrupt
        payload +2)."""
        if not worker:
            return
        self._health[worker] = self._health.get(worker, 0) + weight
        if (
            self.health_threshold is not None
            and worker not in self.retired_workers
            and self._health[worker] >= self.health_threshold
        ):
            self.retired_workers.add(worker)
            self._transport.retire(worker)


# ----------------------------------------------------------------------
# Shared-directory transport
# ----------------------------------------------------------------------
class DirectoryBroker(Broker):
    """Serve a campaign out of a shared work directory.

    ``options`` are :class:`Broker`'s.  A lease is a claimed
    chunk file; its renewal nonce is the lease stamp inside the payload
    (the file's mtime when the payload carries none), so worker clocks
    never enter an expiry decision.
    """

    def __init__(self, root: Union[str, Path], **options) -> None:
        self.workdir = WorkDir(root)
        super().__init__(self.workdir, **options)
        self.workdir.ensure_layout()

    def close(self) -> None:
        """Tell idle workers to exit (the shutdown marker persists)."""
        self.workdir.shutdown()

    def abort(self) -> None:
        """Stop serving without telling workers to exit.

        The directory broker holds no live resources — workers keep
        polling the directory and will serve whichever broker
        publishes next.  Exists for interface symmetry
        with :meth:`TCPBroker.abort` (crash simulation in tests,
        emergency preemption).
        """


# ----------------------------------------------------------------------
# TCP transport
# ----------------------------------------------------------------------
class _TCPState:
    """Queue state shared between the server threads and the broker,
    and the TCP transport the :class:`Broker` drives.

    ``pending`` holds chunks (lists of task payloads); ``owner`` maps
    every leased task index to the session that holds it, ``sessions``
    the reverse.  ``beats`` counts each connected session's requests —
    the renewal nonce of its lease; a closed session has no entry.
    """

    def __init__(self, poll: float) -> None:
        # A contract lock (plain Lock unless REPRO_CONTRACT_LOCKS is
        # set): the transport methods take it, and the helpers the
        # connection threads call run with it held and declare so via
        # assert_held — statically checked by RACE001, verified at
        # runtime in assertion mode.
        self.lock = contract_lock("tcp-state")
        self.poll = poll
        self.job: Optional[str] = None
        self.pending: collections.deque = collections.deque()
        self.tasks: Dict[int, Dict] = {}
        self.owner: Dict[int, str] = {}
        self.sessions: Dict[str, Set[int]] = {}
        self.beats: Dict[str, int] = {}
        self.conns: Dict[str, object] = {}
        self.outcomes: "queue.Queue[object]" = queue.Queue()
        self.closing = False
        #: Session -> self-reported worker token, and the retired
        #: (blacklisted) tokens.
        self.worker_by_session: Dict[str, str] = {}
        self.retired: Set[str] = set()

    # -- the transport (see Broker) --------------------------------------
    def publish(
        self,
        job: str,
        items: List[Tuple[int, Spec]],
        *,
        chunk_size: int,
        timeout: Optional[float],
    ) -> None:
        with self.lock:
            self.job = job
            for table in (
                self.pending,
                self.tasks,
                self.owner,
                self.sessions,
                self.retired,
            ):
                table.clear()
        self.enqueue(job, items, chunk_size=chunk_size, timeout=timeout)

    def enqueue(
        self,
        job: str,
        items: List[Tuple[int, Spec]],
        *,
        chunk_size: int,
        timeout: Optional[float],
    ) -> None:
        chunks = [
            [
                task_payload(job, i, spec, timeout=timeout)
                for i, spec in items[lo : lo + chunk_size]
            ]
            for lo in range(0, len(items), chunk_size)
        ]
        with self.lock:
            self.pending.extend(chunks)

    def leases(self, job: str) -> List[LeaseInfo]:
        with self.lock:
            return [
                (
                    session_id,
                    self.worker_by_session.get(session_id, ""),
                    sorted(indices),
                    self.beats.get(session_id),
                )
                for session_id, indices in self.sessions.items()
                if indices
            ]

    def reclaim(self, session_id: str, *, skip: Optional[int] = None) -> int:
        with self.lock:
            indices = sorted(self.sessions.pop(session_id, ()))
            chunk = []
            for index in indices:
                self.owner.pop(index, None)
                task = self.tasks.pop(index, None)
                if task is not None and index != skip:
                    chunk.append(task)
            if session_id not in self.beats:  # the session is closed
                self.worker_by_session.pop(session_id, None)
            if chunk:
                self.pending.appendleft(chunk)
            return len(chunk)

    def retire(self, worker: str) -> None:
        with self.lock:
            self.retired.add(worker)

    def pop_outcomes(self, job: str) -> Iterator[object]:
        while not self.outcomes.empty():  # the broker is the only reader
            yield self.outcomes.get_nowait()

    # -- connection-thread helpers: the caller holds ``self.lock`` -------
    def lease_to(self, session_id: str, chunk: List[Dict]) -> None:
        assert_held(self.lock)
        for task in chunk:
            index = int(task["index"])
            self.tasks[index] = task
            self.owner[index] = session_id
            self.sessions.setdefault(session_id, set()).add(index)

    def release(self, index: int) -> None:
        assert_held(self.lock)
        self.tasks.pop(index, None)
        session_id = self.owner.pop(index, None)
        if session_id is not None:
            self.sessions.get(session_id, set()).discard(index)


class _WorkerConnection(socketserver.StreamRequestHandler):
    """One worker's session: hello, then lease/heartbeat/outcome."""

    def handle(self) -> None:  # noqa: D102 - socketserver hook
        state: _TCPState = self.server.state  # type: ignore[attr-defined]
        session_id = uuid.uuid4().hex
        worker_token = ""
        with state.lock:
            state.conns[session_id] = self.connection
            state.beats[session_id] = 0
        try:
            while True:
                msg = recv_msg(self.rfile)
                if msg is None:
                    break
                op = msg.get("op")
                with state.lock:
                    state.beats[session_id] += 1
                if op == "hello":
                    if msg.get("version") != PROTOCOL_VERSION:
                        send_msg(
                            self.wfile,
                            {
                                "op": "reject",
                                "reason": (
                                    "protocol version mismatch: broker "
                                    f"speaks {PROTOCOL_VERSION}"
                                ),
                            },
                        )
                        break
                    worker_token = str(msg.get("worker") or "")
                    with state.lock:
                        if worker_token:
                            state.worker_by_session[session_id] = (
                                worker_token
                            )
                    send_msg(self.wfile, {"op": "welcome"})
                elif op == "lease":
                    with state.lock:
                        if state.closing or (
                            worker_token
                            and worker_token in state.retired
                        ):
                            reply = {"op": "shutdown"}
                        elif state.pending:
                            chunk = state.pending.popleft()
                            state.lease_to(session_id, chunk)
                            reply = {"op": "task", "tasks": chunk}
                        else:
                            reply = {"op": "wait", "poll": state.poll}
                    send_msg(self.wfile, reply)
                elif op == "heartbeat":
                    send_msg(self.wfile, {"op": "ok"})
                elif op == "outcome":
                    payload = msg.get("outcome")
                    index = _outcome_index(payload)
                    with state.lock:
                        # Only the live campaign's outcomes release a
                        # lease: a straggler from a previous job would
                        # be dropped by the broker's job filter, and
                        # disowning the current holder's lease here
                        # would leave the index unrecoverable if that
                        # holder later dies.  Malformed payloads are
                        # the broker's to judge, like any other.
                        if index is not None and (
                            payload.get("job") == state.job
                        ):
                            state.release(index)
                        # Whether the rest of this session's lease is
                        # still its own: a taken-back lease stops the
                        # worker at this ack.
                        held = bool(state.sessions.get(session_id))
                    state.outcomes.put(payload)
                    send_msg(self.wfile, {"op": "ok", "held": held})
                else:
                    break
        except (OSError, ValueError):
            pass  # connection died; the broker reclaims its lease
        finally:
            with state.lock:
                state.conns.pop(session_id, None)
                state.beats.pop(session_id, None)
                if not state.sessions.get(session_id):
                    state.sessions.pop(session_id, None)
                    state.worker_by_session.pop(session_id, None)


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class TCPBroker(Broker):
    """Serve a campaign over a listening TCP socket.

    ``options`` are :class:`Broker`'s.  Binding happens in the
    constructor, so ``address`` (useful with port 0 for an ephemeral
    port) is known before any worker starts.  The accept loop runs in a
    daemon thread.  A lease belongs to one worker session; its renewal
    nonce counts the session's requests (leases, heartbeats,
    outcomes), so a connected but silent worker — e.g. hung
    mid-scenario — loses its lease after ``lease_timeout``, and a
    closed connection loses it at the broker's next scan.
    """

    def __init__(
        self, host: str = "127.0.0.1", port: int = 0, **options
    ) -> None:
        self._state = _TCPState(poll=0.0)
        super().__init__(self._state, **options)
        self._state.poll = self.poll  # validated by Broker
        self._server = _TCPServer((host, port), _WorkerConnection)
        self._server.state = self._state  # type: ignore[attr-defined]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-campaign-broker",
            daemon=True,
        )
        self._thread.start()

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    def close(self) -> None:
        with self._state.lock:
            self._state.closing = True
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)

    def abort(self) -> None:
        """Stop serving abruptly, *without* telling workers to exit.

        Severs the listening socket and every live worker connection,
        as a crashing broker would.  Workers started with a
        ``reconnect_grace`` keep retrying and rejoin a broker
        restarted on the same port (crash
        simulation in tests, emergency preemption in production).
        """
        self._server.shutdown()
        self._server.server_close()
        with self._state.lock:
            conns = list(self._state.conns.values())
        for conn in conns:
            try:
                conn.shutdown(2)  # socket.SHUT_RDWR
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        self._thread.join(timeout=5.0)
