"""Worker side: lease work chunks, execute them, stream outcomes back.

A worker is stateless and interchangeable: every task carries its spec
and its :func:`~repro.campaign.spec.spawn_seeds`-derived seed, so any
worker executing any unit produces the bit-identical result the local
sequential runner would.  Run one per core per host via the CLI::

    python -m repro campaign-worker --dir /shared/campaign-queue
    python -m repro campaign-worker --connect broker-host:7777

Both transports run one loop, :func:`_serve`: lease a chunk, execute
its tasks in index order, submit each outcome, repeat.  A small
worker-side *link* supplies the mechanics — :class:`_DirectoryLink`
over a :class:`~.workdir.WorkDir`, :class:`_TCPLink` over a
:class:`_BrokerSession` — so idle and shutdown handling, heartbeats,
``max_tasks`` and the ``transport.result`` fault point live in the
loop alone.  A leased chunk is run by its holder until it finishes,
the broker takes it back (lease expiry or the spec-deadline
backstop), or the worker hands the rest back at ``max_tasks``.

While a scenario executes, a background *heartbeat* thread renews the
worker's lease (rewriting the lease stamp in the directory transport,
sending ``heartbeat`` messages over TCP) so long scenarios are never
falsely requeued however short the broker's lease timeout is.

Execution errors are reported back as outcome payloads (the broker
fails the campaign); infrastructure errors (broker not up yet, broken
connection, a restarting broker within ``reconnect_grace``) are
retried until ``idle_timeout`` expires.
"""

from __future__ import annotations

import socket
import threading
import time
import uuid
from pathlib import Path
from typing import Dict, List, Optional, Union

from ... import faults
from ...errors import SchedulingError
from ..failures import FailureInfo
from ..runner import _run_unit, _Unit
from .protocol import (
    PROTOCOL_VERSION,
    error_payload,
    parse_task,
    recv_msg,
    result_payload,
    send_msg,
    task_timeout,
)
from .workdir import WorkDir

__all__ = ["execute_payload", "run_directory_worker", "run_tcp_worker"]


def execute_payload(payload: Dict, *, worker: str = "") -> Dict:
    """Run one task payload, capturing execution errors as data.

    A malformed payload (schema drift, a spec kind this worker's
    version doesn't know) is reported like any execution error rather
    than raised — otherwise one poison-pill task would serially crash
    every worker that leases it.  Errors travel structured (exception
    class, message, traceback text) so the broker can charge retry
    budgets and quarantine with provenance.  A parsed task runs as a
    contained one-spec unit of the local runner's worker: under the
    task's ``timeout`` watchdog, behind the ``spec.execute`` fault
    point.  ``worker`` stamps outcomes for broker health scoring, and
    a result outcome names the battery pass's numeric demotions, when
    there were any, under ``demoted``.
    """
    job = str(payload.get("job", ""))
    try:
        index = int(payload.get("index", -1))
    except (TypeError, ValueError):
        index = -1
    try:
        job, index, spec = parse_task(payload)
        unit = _Unit(((index, spec),), True, task_timeout(payload))
    except Exception as exc:  # malformed payload: report, don't die
        return error_payload(
            job, index, FailureInfo.from_exception(exc), worker=worker
        )
    ((_index, result, failure),), demoted = _run_unit(unit)
    if failure is not None:
        return error_payload(job, index, failure, worker=worker)
    payload = result_payload(job, index, result, worker=worker)
    if demoted:  # optional: a missing key reads as 0
        payload["demoted"] = demoted
    return payload


class _IdleClock:
    """Tracks how long a worker has gone without finding work."""

    def __init__(self, idle_timeout: Optional[float]) -> None:
        self.idle_timeout = idle_timeout
        self._idle_since: Optional[float] = None

    def worked(self) -> None:
        self._idle_since = None

    def expired(self) -> bool:
        if self.idle_timeout is None:
            return False
        if self._idle_since is None:
            self._idle_since = time.monotonic()
        return time.monotonic() - self._idle_since > self.idle_timeout


class _Heartbeat:
    """Periodically runs ``renew`` on a thread until stopped."""

    def __init__(self, interval: Optional[float], renew) -> None:
        self._interval = interval
        self._renew = renew
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> "_Heartbeat":
        if self._interval is not None and self._interval > 0:
            self._thread = threading.Thread(
                target=self._loop, name="repro-worker-heartbeat", daemon=True
            )
            self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                if not self._renew():
                    return  # lease gone; nothing left to keep alive
            except (OSError, ValueError):
                return

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)


# ----------------------------------------------------------------------
# The one worker loop
# ----------------------------------------------------------------------
class _Link:
    """A worker's side of one transport, as :func:`_serve` drives it.

    ``lease`` returns the next chunk's tasks, ``[]`` while there is
    nothing to do, or ``None`` once the worker should stop.  The
    current lease is then worked through ``start`` (``task`` becomes
    the active one, ``rest`` is not started yet; ``False`` if the
    broker took the lease back), ``renew`` (the heartbeat), ``submit``
    (one outcome; ``False`` once the rest of the lease is no longer
    ours), and ends in ``release`` (finished), ``give_back`` (hand the
    unstarted rest back now) or ``drop`` (forget it without a word:
    the broker recovers it).  Transport trouble raises ``OSError`` or
    ``ValueError``.
    """

    def __init__(self, poll: float) -> None:
        #: Seconds to wait before asking again when there is no work.
        self.poll = poll
        #: This worker's token: stamps its leases and outcomes.
        self.worker = uuid.uuid4().hex[:12]

    def start(self, task: Dict, rest: List[Dict]) -> bool:
        return True

    def release(self) -> None:
        pass

    def give_back(self) -> None:
        self.drop()

    def drop(self) -> None:
        pass


def _serve(
    link: _Link,
    *,
    max_tasks: Optional[int],
    idle_timeout: Optional[float],
    heartbeat: Optional[float],
) -> int:
    """Lease, execute and submit over ``link`` until told to stop;
    return the number of units executed."""
    clock = _IdleClock(idle_timeout)
    executed = 0
    try:
        while max_tasks is None or executed < max_tasks:
            try:
                tasks = link.lease()
                if tasks is None:
                    break  # shutdown, retired, or the broker is gone
                if not tasks:
                    if clock.expired():
                        break
                    time.sleep(link.poll)
                    continue
                clock.worked()
                with _Heartbeat(heartbeat, link.renew):
                    while tasks:
                        if max_tasks is not None and executed >= max_tasks:
                            # Hand the rest back now rather than after
                            # a lease expiry, so the fleet picks it up
                            # at once.
                            link.give_back()
                            break
                        task = tasks.pop(0)
                        if not link.start(task, tasks):
                            break  # the broker took the lease back
                        outcome = execute_payload(task, worker=link.worker)
                        if (
                            faults.fire("transport.result", outcome["index"])
                            == "drop"
                        ):
                            # The outcome is lost as if this worker died
                            # between executing and publishing: the
                            # broker recovers every unfinished task.
                            link.drop()
                            break
                        held = link.submit(outcome)
                        executed += 1
                        if not held:
                            break
                    else:
                        link.release()
            except (OSError, ValueError):
                link.drop()  # the broker requeues what we held
                if clock.expired():
                    break
                time.sleep(link.poll)
    finally:
        link.drop()
    return executed


# ----------------------------------------------------------------------
# Shared-directory link
# ----------------------------------------------------------------------
class _DirectoryLink(_Link):
    """The loop's link over a shared queue directory.

    The claimed chunk file is the lease: the worker rewrites it as each
    task becomes active, and a missing file means the broker took the
    lease back.  The lock keeps the heartbeat's rewrites from racing
    the loop's.  A dropped lease is left to expire.
    """

    def __init__(self, root: Union[str, Path], *, poll: float) -> None:
        super().__init__(poll)
        self.workdir = WorkDir(root)
        self._lock = threading.Lock()
        self._chunk = ""
        self._live = False

    def lease(self) -> Optional[List[Dict]]:
        with self._lock:
            if self.workdir.is_retired(self.worker):
                return None  # the broker blacklisted this worker
            payload = self.workdir.claim(self.worker)
            if payload is not None:
                self._chunk, self._live = str(payload["chunk"]), True
                return list(payload.get("tasks") or ())
            # The shutdown marker counts only once this worker has seen
            # the queue live: the marker a finished broker leaves must
            # not send home a worker started for the next run.
            if not self.workdir.is_shutdown():
                self._live = True
            elif self._live:
                return None
            return []

    def start(self, task: Dict, rest: List[Dict]) -> bool:
        with self._lock:
            current = self.workdir.refresh(self._chunk)
            if current is None:
                return False
            current["active"], current["tasks"] = task, rest
            self.workdir.update(current)
            return True

    def renew(self) -> bool:
        with self._lock:
            return self.workdir.renew(self._chunk)

    def submit(self, outcome: Dict) -> bool:
        with self._lock:
            self.workdir.submit(outcome)
            current = self.workdir.refresh(self._chunk)
            if current is None:
                return False
            current["active"] = None
            self.workdir.update(current)
            return True

    def release(self) -> None:
        with self._lock:
            self.workdir.release(self._chunk)

    def give_back(self) -> None:
        with self._lock:
            self.workdir.reclaim(self._chunk)


def run_directory_worker(
    root: Union[str, Path],
    *,
    poll: float = 0.05,
    max_tasks: Optional[int] = None,
    idle_timeout: Optional[float] = None,
    heartbeat: Optional[float] = 15.0,
) -> int:
    """Serve a shared-directory queue until told to stop.

    Exits when the broker writes the shutdown marker (once this worker
    has seen the queue live, so a marker left by a finished broker does
    not stop a worker started for the next run), after ``max_tasks``
    executed units, or after ``idle_timeout`` seconds without work.
    ``heartbeat`` seconds between lease renewals keeps long scenarios
    from being requeued however short the broker's lease timeout — the
    default matches the CLI's 15 s; ``None`` renews only between tasks.
    Returns the number of units executed.
    """
    return _serve(
        _DirectoryLink(root, poll=poll),
        max_tasks=max_tasks,
        idle_timeout=idle_timeout,
        heartbeat=heartbeat,
    )


# ----------------------------------------------------------------------
# TCP link
# ----------------------------------------------------------------------
class _BrokerSession:
    """One connected, version-checked session with a TCP broker.

    ``request`` is serialized by a lock so the heartbeat thread and
    the main loop can share the connection without interleaving their
    request/response pairs.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 10.0,
        worker: str = "",
    ) -> None:
        self._lock = threading.Lock()
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.rfile = self.sock.makefile("rb")
        self.wfile = self.sock.makefile("wb")
        hello = {"op": "hello", "version": PROTOCOL_VERSION}
        if worker:
            hello["worker"] = worker
        reply = self.request(hello)
        if reply is None or reply.get("op") != "welcome":
            reason = (reply or {}).get("reason", "no welcome from broker")
            self.close()
            raise SchedulingError(f"broker rejected worker: {reason}")

    def request(self, msg: Dict) -> Optional[Dict]:
        with self._lock:
            send_msg(self.wfile, msg)
            return recv_msg(self.rfile)

    def close(self) -> None:
        for closer in (self.rfile.close, self.wfile.close, self.sock.close):
            try:
                closer()
            except OSError:
                pass


class _TCPLink(_Link):
    """The loop's link over a TCP broker.

    A lease belongs to the session, so dropping it ends the session and
    the broker requeues the rest once it sees the session end; the next
    ``lease`` reconnects.  Connection failures count as idle time, so
    workers may start before the broker.  After the broker was reached
    once, a refused connection means it finished, unless
    ``reconnect_grace`` seconds are granted for a restarted broker.
    """

    def __init__(
        self, host: str, port: int, *, poll: float, reconnect_grace: float
    ) -> None:
        super().__init__(poll)
        self.address = (host, port)
        self.reconnect_grace = reconnect_grace
        self._session: Optional[_BrokerSession] = None
        self._reached = False
        self._refused_since: Optional[float] = None

    def _request(self, msg: Dict) -> Dict:
        reply = self._session.request(msg)
        if reply is None:
            raise OSError("broker closed the connection")
        return reply

    def lease(self) -> Optional[List[Dict]]:
        if self._session is None:
            try:
                self._session = _BrokerSession(
                    *self.address, worker=self.worker
                )
            except ConnectionRefusedError:
                if not self._reached:
                    return []
                if self._refused_since is None:
                    self._refused_since = time.monotonic()
                waited = time.monotonic() - self._refused_since
                return None if waited >= self.reconnect_grace else []
            except OSError:
                return []
            self._reached, self._refused_since = True, None
        reply = self._request({"op": "lease"})
        op = reply.get("op")
        if op == "shutdown":
            return None
        if op == "wait":
            self.poll = float(reply.get("poll", self.poll))
            return []
        if op != "task":
            raise OSError(f"unexpected broker reply {op!r}")
        return list(reply.get("tasks") or ())

    def renew(self) -> bool:
        session = self._session
        if session is None:
            return False
        reply = session.request({"op": "heartbeat"})
        return reply is not None and reply.get("op") == "ok"

    def submit(self, outcome: Dict) -> bool:
        ack = self._request({"op": "outcome", "outcome": outcome})
        if ack.get("op") != "ok":
            raise OSError("broker did not acknowledge outcome")
        if faults.fire("transport.ack", outcome["index"]) == "drop":
            # Ack lost: the broker has the outcome but this worker
            # behaves as if it never heard back — reconnect, let the
            # broker requeue the lease remainder, dedup by index.
            raise OSError("injected ack drop")
        return bool(ack.get("held"))

    def drop(self) -> None:
        if self._session is not None:
            self._session.close()
            self._session = None


def run_tcp_worker(
    host: str,
    port: int,
    *,
    poll: float = 0.05,
    max_tasks: Optional[int] = None,
    idle_timeout: Optional[float] = None,
    heartbeat: Optional[float] = 15.0,
    reconnect_grace: float = 0.0,
) -> int:
    """Serve a TCP broker until shutdown; returns units executed.

    Connection failures (broker not yet listening, broker restarted)
    count as idle time and are retried, so workers may be started
    before the broker.  After a broker was reached once, a refused
    connection normally means it finished and exits the worker —
    unless ``reconnect_grace`` seconds are granted for a restarting
    broker to come back.  ``heartbeat`` seconds between ``heartbeat``
    messages keeps leases alive during long scenarios (default matches
    the CLI's 15 s; the broker's heartbeat-based lease timeout assumes
    attached workers do heartbeat).
    """
    return _serve(
        _TCPLink(host, port, poll=poll, reconnect_grace=reconnect_grace),
        max_tasks=max_tasks,
        idle_timeout=idle_timeout,
        heartbeat=heartbeat,
    )
