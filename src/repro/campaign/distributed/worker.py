"""Worker side: lease work chunks, execute them, stream outcomes back.

A worker is stateless and interchangeable: every task carries its spec
and its :func:`~repro.campaign.spec.spawn_seeds`-derived seed, so any
worker executing any unit produces the bit-identical result the local
sequential runner would.  Run one per core per host via the CLI::

    python -m repro campaign-worker --dir /shared/campaign-queue
    python -m repro campaign-worker --connect broker-host:7777

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
from typing import Dict, Optional, Set, Union

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


def _serve_chunk(
    workdir: WorkDir,
    payload: Dict,
    *,
    heartbeat: Optional[float],
    executed: int,
    max_tasks: Optional[int],
    worker: str = "",
) -> int:
    """Execute a claimed chunk task-by-task; return new executed count.

    The claimed file is the source of truth for what is still ours:
    before every task it is re-read, so a broker split (work stealing)
    or a wholesale requeue shrinks or ends the chunk mid-flight.  The
    lease stamp is renewed by the heartbeat thread during execution
    and implicitly by every state rewrite.
    """
    chunk = str(payload["chunk"])
    lock = threading.Lock()

    def renew() -> bool:
        with lock:
            return workdir.renew(chunk)

    with _Heartbeat(heartbeat, renew):
        while True:
            with lock:
                current = workdir.refresh(chunk)
                if current is None:
                    return executed  # stolen or requeued wholesale
                if max_tasks is not None and executed >= max_tasks:
                    # Hand the rest back now rather than after a lease
                    # expiry, so the fleet picks it up immediately.
                    workdir.reclaim(chunk)
                    return executed
                task = current.get("active")
                if not isinstance(task, dict):
                    tasks = current.get("tasks") or []
                    if not tasks:
                        workdir.release(chunk)
                        return executed
                    task = tasks.pop(0)
                    current["active"] = task
                    current["tasks"] = tasks
                workdir.update(current)
            outcome = execute_payload(task, worker=worker)
            try:
                task_index = int(task.get("index", -1))
            except (TypeError, ValueError):
                task_index = -1
            if faults.fire("transport.result", task_index) == "drop":
                # The outcome is lost as if this worker died between
                # executing and publishing: abandon the chunk without
                # submitting or releasing, so the broker's lease
                # expiry recovers every unfinished task.
                return executed
            with lock:
                workdir.submit(outcome)
                executed += 1
                current = workdir.refresh(chunk)
                if current is None:
                    return executed
                current["active"] = None
                workdir.update(current)


def run_directory_worker(
    root: Union[str, Path],
    *,
    poll: float = 0.05,
    max_tasks: Optional[int] = None,
    idle_timeout: Optional[float] = None,
    heartbeat: Optional[float] = 15.0,
) -> int:
    """Serve a shared-directory queue until told to stop.

    Exits when the broker writes the shutdown marker, after
    ``max_tasks`` executed units, or after ``idle_timeout`` seconds
    without work.  ``heartbeat`` seconds between lease renewals keeps
    long scenarios from being requeued however short the broker's
    lease timeout — the default matches the CLI's 15 s; ``None``
    renews only between tasks.  Returns the number of units executed.
    """
    workdir = WorkDir(root)
    clock = _IdleClock(idle_timeout)
    token = uuid.uuid4().hex[:12]
    executed = 0
    #: Touch the demand marker well inside the broker's 2 s freshness
    #: window, but nowhere near every poll tick — an idle fleet's
    #: markers would otherwise be a metadata write storm on NFS.
    mark_interval = 0.5
    last_mark = -mark_interval
    try:
        while max_tasks is None or executed < max_tasks:
            if workdir.is_retired(token):
                break  # broker blacklisted this worker; stop leasing
            payload = workdir.claim(token)
            if payload is None:
                if workdir.is_shutdown() or clock.expired():
                    break
                # Signal demand so the broker splits a busy worker's
                # chunk for us (work stealing).
                if time.monotonic() - last_mark >= mark_interval:
                    last_mark = time.monotonic()
                    workdir.mark_starving(token)
                time.sleep(poll)
                continue
            workdir.clear_starving(token)
            clock.worked()
            executed = _serve_chunk(
                workdir,
                payload,
                heartbeat=heartbeat,
                executed=executed,
                max_tasks=max_tasks,
                worker=token,
            )
    finally:
        workdir.clear_starving(token)
    return executed


# ----------------------------------------------------------------------
# TCP client
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


def _tcp_heartbeat_renew(session: "_BrokerSession") -> bool:
    reply = session.request({"op": "heartbeat"})
    return reply is not None and reply.get("op") == "ok"


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
    (resumable) broker to come back.  ``heartbeat`` seconds between
    ``heartbeat`` messages keeps leases alive during long scenarios
    (default matches the CLI's 15 s; the broker's heartbeat-based
    lease timeout assumes attached workers do heartbeat).
    """
    clock = _IdleClock(idle_timeout)
    token = uuid.uuid4().hex[:12]
    executed = 0
    session: Optional[_BrokerSession] = None
    refused_since: Optional[float] = None
    ever_connected = False

    def lease_once() -> Optional[Dict]:
        reply = session.request({"op": "lease"})
        if reply is None:
            raise OSError("broker closed the connection")
        return reply

    try:
        while max_tasks is None or executed < max_tasks:
            if session is None:
                try:
                    session = _BrokerSession(host, port, worker=token)
                    ever_connected = True
                    refused_since = None
                except ConnectionRefusedError:
                    if ever_connected:
                        if refused_since is None:
                            refused_since = time.monotonic()
                        grace_left = reconnect_grace - (
                            time.monotonic() - refused_since
                        )
                        if grace_left <= 0:
                            break  # broker gone for good: job done
                    if clock.expired():
                        break
                    time.sleep(poll)
                    continue
                except OSError:
                    if clock.expired():
                        break
                    time.sleep(poll)
                    continue
            try:
                reply = lease_once()
                op = reply.get("op")
                if op == "shutdown":
                    break
                if op == "wait":
                    if clock.expired():
                        break
                    time.sleep(float(reply.get("poll", poll)))
                    continue
                if op != "task":
                    raise OSError(f"unexpected broker reply {op!r}")
                clock.worked()
                tasks = list(reply.get("tasks") or ())
                stolen: Set[int] = set()
                with _Heartbeat(
                    heartbeat, lambda: _tcp_heartbeat_renew(session)
                ):
                    while tasks:
                        task = tasks.pop(0)
                        try:
                            if int(task.get("index", -1)) in stolen:
                                continue
                        except (TypeError, ValueError):
                            pass
                        outcome = execute_payload(task, worker=token)
                        try:
                            task_index = int(task.get("index", -1))
                        except (TypeError, ValueError):
                            task_index = -1
                        if (
                            faults.fire("transport.result", task_index)
                            == "drop"
                        ):
                            # Result lost in flight: sever the session
                            # without sending; the broker requeues the
                            # rest of this lease.
                            raise OSError("injected result drop")
                        ack = session.request(
                            {"op": "outcome", "outcome": outcome}
                        )
                        if ack is None or ack.get("op") != "ok":
                            raise OSError(
                                "broker did not acknowledge outcome"
                            )
                        if (
                            faults.fire("transport.ack", task_index)
                            == "drop"
                        ):
                            # Ack lost: the broker has the outcome but
                            # this worker behaves as if it never heard
                            # back — reconnect, let the broker requeue
                            # the lease remainder, dedup by index.
                            raise OSError("injected ack drop")
                        executed += 1
                        stolen.update(
                            int(i) for i in ack.get("stolen", ())
                        )
                        if (
                            max_tasks is not None
                            and executed >= max_tasks
                        ):
                            break
            except (OSError, ValueError):
                session.close()
                session = None  # reconnect; broker requeues our lease
                if clock.expired():
                    break
                time.sleep(poll)
    finally:
        if session is not None:
            session.close()
    return executed
