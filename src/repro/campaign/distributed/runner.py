"""Drop-in distributed campaign runner (broker side).

:class:`DistributedRunner` shares the
:class:`~repro.campaign.runner.CampaignRunner` front end —
:func:`~repro.campaign.runner.cached_run` serves ``run`` (optional
result cache, the streaming ``on_result`` callback, the one
:class:`~repro.campaign.runner.CampaignResult` assembly) — and
differs only in its executor: specs run on a fleet of worker processes
attached over one of two transports:

``workdir=PATH``
    A shared directory (local disk, NFS, …); see
    :mod:`~repro.campaign.distributed.workdir`.
``listen=(host, port)``
    A TCP endpoint (port 0 picks an ephemeral port; read it back from
    :attr:`address`).

Workers join with ``python -m repro campaign-worker``; for same-host
fleets ``n_local_workers=K`` spawns (and on :meth:`close` reaps) K
worker subprocesses automatically, while ``autoscale=(lo, hi)`` grows
and shrinks the local fleet with the observed backlog instead.

Fault tolerance: worker heartbeats renew leases during long scenarios
(``heartbeat``), crashed workers' chunks are requeued after
``lease_timeout``, and ``chunk_size > 1`` leases short scenarios in
chunks.  A crashed broker loses no finished
work the ``cache`` holds: every accepted result is stored there as it
arrives, so rerunning the same campaign on the same cache (on this
host, or on another one when the cache sits on shared storage)
submits only the scenarios it does not hold yet.  A larger campaign
grows the same way: its cached prefix is served, only the new suffix
runs.

Determinism: specs carry their own ``SeedSequence``-derived seeds and
results are streamed back index-tagged, so results and aggregates are
bit-identical to the sequential local runner, regardless of fleet
size, scheduling, lease requeues, or broker restarts.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple, Union

from ... import faults
from ...errors import SchedulingError
from ..cache import ResultCache
from ..failures import FailureReport
from ..registry import PLUGINS_ENV, plugin_snapshot
from ..runner import CampaignResult, Executed, OnResult, cached_run
from ..spec import ScenarioResult, Spec
from .broker import DirectoryBroker, TCPBroker

__all__ = ["DistributedRunner"]

#: Seconds between the autoscaler's backlog checks.
AUTOSCALE_INTERVAL = 0.5

#: ``--idle-timeout`` of autoscaled workers: how long a surplus worker
#: waits on an empty queue before it retires.
AUTOSCALE_IDLE = 5.0


def _repro_src_dir() -> str:
    """The directory to put on a worker subprocess's PYTHONPATH."""
    import repro

    return str(Path(repro.__file__).resolve().parents[1])


class DistributedRunner:
    """Execute spec lists on external workers; aggregate broker-side.

    Parameters
    ----------
    workdir / listen:
        Exactly one transport: a shared queue directory, or a
        ``(host, port)`` TCP endpoint to listen on.
    cache:
        Optional :class:`ResultCache`, consulted and filled broker-side
        (workers never touch it).  It is also the crash-recovery
        store: a rerun on the same cache skips every result a previous
        broker accepted.
    n_local_workers:
        Worker subprocesses to spawn on this host (0 = the fleet is
        attached externally).  Ignored when ``autoscale`` is given.
    autoscale:
        ``(lo, hi)`` bounds for an adaptive local fleet: while a
        campaign runs, a supervisor thread keeps
        ``clamp(unresolved_units, lo, hi)`` workers alive, checked
        every :data:`AUTOSCALE_INTERVAL` seconds — spawning
        replacements for crashed ones, and letting surplus workers
        retire after :data:`AUTOSCALE_IDLE` idle seconds as the queue
        drains.
    lease_timeout:
        Seconds without lease renewal before an unfinished claim is
        assumed dead and requeued.  With heartbeats (below) this may
        be much shorter than the slowest scenario.
    heartbeat:
        Interval at which spawned workers renew their leases while
        executing; passed to ``campaign-worker --heartbeat``.
    chunk_size:
        Tasks per lease.  >1 amortizes per-claim overhead for very
        short scenarios; a chunk's holder runs all of it unless the
        broker takes the lease back.
    result_timeout:
        Fail the campaign if no outcome arrives for this many seconds
        (``None`` waits forever) — the guard against running
        broker-only with no fleet attached.
    max_retries / on_error / spec_timeout:
        The broker's :class:`~repro.campaign.failures.RetryBudget`, the
        same policy :class:`~repro.campaign.runner.CampaignRunner`
        applies: failed specs are retried up to ``max_retries`` times
        with deterministic seeded backoff; a spec exhausting its budget
        is quarantined into the result's FailureReport
        (``on_error="quarantine"``) or aborts the campaign
        (``"raise"``, the default); ``spec_timeout`` rides inside task
        payloads so workers arm an execution watchdog, backstopped by
        the broker's lease clock.
    health_threshold:
        Retire (blacklist) a worker whose failure score — error
        outcome +1, crash or stale lease +2, corrupt payload +2 —
        reaches this value (``None`` disables health-based
        retirement).
    """

    def __init__(
        self,
        *,
        workdir: Union[str, Path, None] = None,
        listen: Optional[Tuple[str, int]] = None,
        cache: Optional[ResultCache] = None,
        n_local_workers: int = 0,
        autoscale: Optional[Tuple[int, int]] = None,
        poll: float = 0.05,
        lease_timeout: float = 60.0,
        heartbeat: Optional[float] = 15.0,
        chunk_size: int = 1,
        result_timeout: Optional[float] = None,
        max_retries: int = 0,
        on_error: str = "raise",
        spec_timeout: Optional[float] = None,
        health_threshold: Optional[int] = None,
    ) -> None:
        if (workdir is None) == (listen is None):
            raise SchedulingError(
                "exactly one of workdir= or listen= must be given"
            )
        if n_local_workers < 0:
            raise SchedulingError(
                f"n_local_workers must be >= 0, got {n_local_workers}"
            )
        if autoscale is not None:
            lo, hi = autoscale
            if not (0 <= lo <= hi) or hi < 1:
                raise SchedulingError(
                    "autoscale must be 0 <= lo <= hi, hi >= 1, "
                    f"got {autoscale}"
                )
        self.cache = cache
        self.n_local_workers = int(n_local_workers)
        self.autoscale = autoscale
        self.heartbeat = heartbeat
        self.poll = float(poll)
        self._procs: List[subprocess.Popen] = []
        self._procs_lock = threading.Lock()
        self._peak_workers = 0
        self._scaler_stop: Optional[threading.Event] = None
        self._scaler: Optional[threading.Thread] = None
        self._closed = False
        options = dict(
            poll=poll,
            lease_timeout=lease_timeout,
            result_timeout=result_timeout,
            chunk_size=chunk_size,
            max_retries=max_retries,
            on_error=on_error,
            spec_timeout=spec_timeout,
            health_threshold=health_threshold,
        )
        if workdir is not None:
            self._broker = DirectoryBroker(workdir, **options)
            self._worker_args = ["--dir", str(workdir)]
        else:
            host, port = listen
            self._broker = TCPBroker(host, int(port), **options)
            bound_host, bound_port = self._broker.address
            self._worker_args = ["--connect", f"{bound_host}:{bound_port}"]

    # ------------------------------------------------------------------
    @property
    def address(self) -> Optional[Tuple[str, int]]:
        """The bound TCP endpoint (``None`` for the directory transport)."""
        broker = self._broker
        return broker.address if isinstance(broker, TCPBroker) else None

    @property
    def n_workers(self) -> int:
        if self.autoscale is not None:
            # repro: noqa[RACE001] -- reporting read of a monotonic
            # peak; every write happens under _procs_lock in _scale_to
            return self._peak_workers
        return self.n_local_workers

    # ------------------------------------------------------------------
    def run(
        self,
        specs: Sequence[Spec],
        *,
        on_result: Optional[OnResult] = None,
    ) -> CampaignResult:
        """Execute ``specs`` on the fleet; results in spec order."""
        # repro: noqa[RACE001] -- usage guard; run()/close() are
        # same-thread by API contract (the scaler never touches it)
        if self._closed:
            raise SchedulingError("runner is closed")
        return cached_run(self, specs, on_result)

    def _execute(
        self,
        specs: Sequence[Spec],
        pending: List[int],
        absorb: Callable[[int, ScenarioResult], None],
    ) -> Executed:
        """Submit ``pending`` to the broker and absorb its outcomes;
        the executor of :func:`~repro.campaign.runner.cached_run`."""
        if not pending:
            return FailureReport(), {}
        self._broker.submit([(index, specs[index]) for index in pending])
        self._start_fleet()
        try:
            for index, result in self._broker.outcomes():
                absorb(index, result)
        finally:
            self._stop_autoscaler()
        counters = self._broker.telemetry
        return self._broker.failure_report, {
            "requeued": counters["requeued"],
            "demoted": counters["demoted"],
        }

    # ------------------------------------------------------------------
    # repro: noqa[RACE001] -- scaler handle rebinding is confined to
    # the submitting thread: start happens before the thread spawns
    def _start_fleet(self) -> None:
        if self.autoscale is None:
            self._scale_to(self.n_local_workers)
            return
        lo, hi = self.autoscale
        self._scale_to(
            max(lo, min(hi, self._broker.remaining)),
            idle_timeout=AUTOSCALE_IDLE,
        )
        self._scaler_stop = threading.Event()
        self._scaler = threading.Thread(
            target=self._autoscale_loop,
            name="repro-campaign-autoscaler",
            daemon=True,
        )
        self._scaler.start()

    def _autoscale_loop(self) -> None:
        lo, hi = self.autoscale
        # repro: noqa[RACE001] -- read once at thread start; the
        # handle is rebound only after this thread is joined
        stop = self._scaler_stop
        while not stop.wait(AUTOSCALE_INTERVAL):
            remaining = self._broker.remaining
            if remaining == 0:
                continue  # campaign finishing; let workers retire
            target = max(lo, min(hi, remaining))
            try:
                self._scale_to(target, idle_timeout=AUTOSCALE_IDLE)
            except OSError:
                continue  # spawn hiccup; retry next tick

    # repro: noqa[RACE001] -- set-join-then-clear on the submitting
    # thread; the scaler is dead before the handles are rebound
    def _stop_autoscaler(self) -> None:
        if self._scaler_stop is not None:
            self._scaler_stop.set()
        if self._scaler is not None:
            self._scaler.join(timeout=5.0)
        self._scaler = None
        self._scaler_stop = None

    def _scale_to(
        self, target: int, *, idle_timeout: Optional[float] = None
    ) -> None:
        """Top the local fleet up to ``target`` live workers.

        Scale-*down* is deliberately passive: surplus workers exit on
        their own ``--idle-timeout`` once the queue no longer feeds
        them, so no task is ever interrupted to shed capacity.
        """
        with self._procs_lock:
            if self._closed:
                return
            self._procs = [p for p in self._procs if p.poll() is None]
            missing = target - len(self._procs)
            if missing <= 0:
                return
            cmd = [
                sys.executable,
                "-m",
                "repro",
                "campaign-worker",
                *self._worker_args,
                "--poll",
                str(self.poll),
            ]
            if self.heartbeat is not None:
                cmd += ["--heartbeat", str(self.heartbeat)]
            if idle_timeout is not None:
                cmd += ["--idle-timeout", str(idle_timeout)]
            env = os.environ.copy()
            src = _repro_src_dir()
            existing = env.get("PYTHONPATH")
            env["PYTHONPATH"] = (
                src if not existing else src + os.pathsep + existing
            )
            # Ship declaratively-registered plugins to the fleet: the
            # worker CLI replays $REPRO_PLUGINS at startup, so custom
            # schemes/batteries resolve on spawned workers too.
            snapshot = plugin_snapshot()
            if snapshot:
                env[PLUGINS_ENV] = json.dumps(snapshot)
            # Likewise ship the armed fault plan (if any) so spawned
            # workers inject the same seeded faults as the broker.
            fault_snapshot = faults.plan_snapshot()
            if fault_snapshot:
                env[faults.FAULTS_ENV] = fault_snapshot
            for _ in range(missing):
                self._procs.append(
                    subprocess.Popen(
                        cmd,
                        env=env,
                        stdout=subprocess.DEVNULL,
                        stderr=subprocess.DEVNULL,
                    )
                )
            self._peak_workers = max(self._peak_workers, len(self._procs))

    def close(self) -> None:
        """Signal workers to exit and reap any spawned locally."""
        # repro: noqa[RACE001] -- double-close fast path; the
        # authoritative flag write below happens under the lock
        if self._closed:
            return
        self._stop_autoscaler()
        with self._procs_lock:
            self._closed = True
            procs = list(self._procs)
            self._procs = []
        self._broker.close()
        # repro: noqa[DET002] -- reap deadline for worker processes;
        # shutdown timing cannot affect completed results
        deadline = time.monotonic() + 5.0
        for proc in procs:
            # repro: noqa[DET002] -- same reap deadline as above
            timeout = max(0.1, deadline - time.monotonic())
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    proc.kill()

    def __enter__(self) -> "DistributedRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
