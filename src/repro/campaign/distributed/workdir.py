"""A shared-directory work queue (the filesystem transport).

Any directory both sides can see — local disk for same-host workers,
NFS or another shared mount for a multi-host fleet — becomes the
queue.  Layout under the root:

``pending/chunk-NNNNNN-<token>.json``
    Published work *chunks* (:func:`~.protocol.chunk_payload`): an
    index-contiguous run of tasks, named after the first index.
``claimed/chunk-NNNNNN-<token>.json``
    Chunks a worker has leased.  Claiming is a single ``os.rename``
    from ``pending/`` — atomic on POSIX, so exactly one worker wins a
    race.  The lease's renewal nonce is the ``lease`` stamp *inside*
    the payload (written at claim time, renewed by worker heartbeats);
    the file's mtime is only a fallback for stamp-less payloads,
    because mtime is coarse or skewed on some shared filesystems.
``results/<job>-NNNNNN.json``
    Per-task outcome payloads, written atomically; the broker consumes
    (and deletes) them as they appear, ignoring alien jobs.
``retired/<worker-token>``
    Health blacklist: the broker writes a worker's token here when its
    failure score crosses the retirement threshold; the worker checks
    before every claim and exits instead of leasing more work.
``shutdown``
    Marker telling idle workers to exit.  It stays until the next
    :meth:`WorkDir.publish`; a worker honours it only once it has seen
    the queue live, so a marker left by a finished broker does not
    stop a worker started for the next run.

A chunk's holder runs it to the end unless the broker takes it back
(:meth:`WorkDir.reclaim`: the lease expired or the spec-deadline
backstop fired) or the worker hands the rest back at its
``max_tasks``.  Duplicate execution (a slow worker finishing after its
chunk was requeued) is harmless: execution is deterministic, outcomes
are deduplicated by index broker-side, and the job token keeps
campaigns in the same directory from cross-talking.
"""

from __future__ import annotations

import os
import uuid
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..spec import Spec
from .protocol import (
    atomic_write_json,
    chunk_payload,
    lease_stamp,
    read_json,
    stamp_lease,
    task_payload,
)

__all__ = ["WorkDir"]


def _chunk_name(first_index: int) -> str:
    return f"chunk-{first_index:06d}-{uuid.uuid4().hex[:8]}.json"


def _remaining_tasks(payload: Dict) -> List[Dict]:
    """Every unfinished task in a chunk, in index order (active first)."""
    tasks = list(payload.get("tasks") or ())
    active = payload.get("active")
    if isinstance(active, dict):
        tasks.insert(0, active)
    return tasks


class WorkDir:
    """Broker- and worker-side operations on one queue directory."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.pending = self.root / "pending"
        self.claimed = self.root / "claimed"
        self.results = self.root / "results"
        self.retired = self.root / "retired"
        self.shutdown_marker = self.root / "shutdown"

    def ensure_layout(self) -> None:
        for sub in (self.pending, self.claimed, self.results, self.retired):
            sub.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Broker side
    # ------------------------------------------------------------------
    def publish(
        self,
        job: str,
        items: List[Tuple[int, Spec]],
        *,
        chunk_size: int = 1,
        timeout: Optional[float] = None,
    ) -> None:
        """Begin a job: clear leftovers, enqueue ``items`` in chunks.

        Leftovers (chunks or results of a crashed or superseded
        campaign) are safe to drop: this broker is the only consumer
        of the directory, and stale workers' outcomes are filtered by
        job token anyway.  ``chunk_size`` tasks go into each
        index-contiguous chunk — 1 (the default) degenerates to one
        task per lease; larger sizes amortize claim overhead for very
        short scenarios.
        """
        self.ensure_layout()
        self.clear_shutdown()
        self.sweep_orphans()
        for sub in (self.pending, self.claimed, self.results):
            for path in sorted(sub.glob("*.json")):
                try:
                    path.unlink()
                except OSError:
                    pass
        self.enqueue(job, items, chunk_size=chunk_size, timeout=timeout)

    def sweep_orphans(self) -> int:
        """Remove crash debris: orphaned temp files and stale markers.

        A writer killed between ``mkstemp`` and ``os.replace`` leaves
        a ``.tmp-*.part`` file behind; a retired-worker marker from a
        previous campaign would blacklist an innocent reused token.
        Both are scoped to this broker's directory and safe to drop at
        campaign start: no live writer holds a temp file across a
        campaign boundary.  Returns the number of files removed.
        """
        removed = 0
        candidates: List[Path] = []
        for sub in (self.root, self.pending, self.claimed, self.results):
            if sub.is_dir():
                candidates.extend(sorted(sub.glob(".tmp-*")))
        if self.retired.is_dir():
            candidates.extend(sorted(self.retired.glob("*")))
        for path in candidates:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def enqueue(
        self,
        job: str,
        items: List[Tuple[int, Spec]],
        *,
        chunk_size: int = 1,
        timeout: Optional[float] = None,
    ) -> None:
        """Append ``items`` as new pending chunks (no cleanup).

        ``timeout`` rides inside every task payload as the per-spec
        execution deadline workers arm their watchdog with.
        """
        size = max(1, int(chunk_size))
        ordered = sorted(items, key=lambda pair: pair[0])
        for lo in range(0, len(ordered), size):
            batch = ordered[lo : lo + size]
            self._publish_chunk(
                job,
                [
                    task_payload(job, i, spec, timeout=timeout)
                    for i, spec in batch
                ],
            )

    def _publish_chunk(self, job: str, tasks: List[Dict]) -> int:
        """Write ``tasks`` as one fresh pending chunk; count tasks."""
        if not tasks:
            return 0
        name = _chunk_name(int(tasks[0].get("index", 0)))
        atomic_write_json(
            self.pending / name, chunk_payload(job, name, tasks)
        )
        return len(tasks)

    def leases(self, job: str) -> List[Tuple[str, str, List[int], float]]:
        """``job``'s claimed chunks as ``(name, worker, remaining indices
        with the active one first, renewal nonce)``.

        The nonce is the lease stamp inside the payload; the file's
        mtime stands in only when the payload carries no stamp (a
        worker that died between the claiming rename and the stamp
        write).  Unreadable chunks are left out: their tasks cannot be
        known, so they are never requeued, and the broker's stall
        guard names the unresolved indices instead.
        """
        found = []
        for path in sorted(self.claimed.glob("chunk-*.json")):
            payload = read_json(path)
            if payload is None or payload.get("job") != job:
                continue
            nonce = lease_stamp(payload)
            try:
                if nonce is None:
                    nonce = path.stat().st_mtime
                remaining = [
                    int(task["index"]) for task in _remaining_tasks(payload)
                ]
            except (OSError, KeyError, TypeError, ValueError):
                continue  # released mid-scan, or a mangled task
            worker = str(payload.get("worker") or "")
            found.append((path.name, worker, remaining, nonce))
        return found

    def reclaim(self, name: str, *, skip: Optional[int] = None) -> int:
        """Requeue a claimed chunk's unfinished tasks except ``skip``
        and drop the claim; count the tasks requeued.

        An unreadable chunk stays where it is: claim() deletes
        unreadable files, so routing it through ``pending/`` would lose
        its tasks for good.
        """
        path = self.claimed / name
        payload = read_json(path)
        if payload is None:
            return 0
        tasks = [
            task
            for task in _remaining_tasks(payload)
            if task.get("index") != skip
        ]
        requeued = self._publish_chunk(str(payload.get("job", "")), tasks)
        try:
            path.unlink()
        except OSError:
            pass
        return requeued

    def retire(self, token: str) -> None:
        """Broker-side: blacklist ``token`` (health score exceeded)."""
        try:
            self.retired.mkdir(parents=True, exist_ok=True)
            (self.retired / token).touch()
        except OSError:
            pass  # best-effort; the lease clock still bounds damage

    def is_retired(self, token: str) -> bool:
        """Worker-side: has the broker blacklisted this token?"""
        if not token:
            return False
        try:
            return (self.retired / token).exists()
        except OSError:
            return False

    def backlog(self) -> int:
        """Unfinished tasks visible in the queue (pending + claimed)."""
        count = 0
        for sub in (self.pending, self.claimed):
            for path in sorted(sub.glob("chunk-*.json")):
                payload = read_json(path)
                if payload is not None:
                    count += len(_remaining_tasks(payload))
        return count

    def pop_outcomes(self, job: str) -> Iterator[Dict]:
        """Consume result files, yielding payloads belonging to ``job``."""
        for path in sorted(self.results.glob("*.json")):
            payload = read_json(path)
            try:
                path.unlink()
            except OSError:
                continue  # another pass already consumed it
            if payload is not None and payload.get("job") == job:
                yield payload

    def shutdown(self) -> None:
        self.shutdown_marker.touch()

    def clear_shutdown(self) -> None:
        try:
            self.shutdown_marker.unlink()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def claim(self, worker: str = "") -> Optional[Dict]:
        """Lease one pending chunk; ``None`` if nothing is available.

        A retired ``worker`` token never wins a lease: the blacklist
        check happens before the rename race, so a misbehaving worker
        stops taking work one poll after the broker retires it.
        """
        if worker and self.is_retired(worker):
            return None
        if not self.pending.is_dir():
            return None
        for path in sorted(self.pending.glob("chunk-*.json")):
            target = self.claimed / path.name
            try:
                os.rename(path, target)
            except OSError:
                continue  # lost the race for this chunk
            payload = read_json(target)
            if payload is None:  # broker cleared the job mid-claim
                try:
                    target.unlink()
                except OSError:
                    pass
                continue
            payload["chunk"] = path.name
            if worker:
                payload["worker"] = worker
            # Start the lease clock now: the publish-time payload (and
            # the rename-preserved mtime) may already look expired.
            stamp_lease(payload)
            atomic_write_json(target, payload)
            return payload

        return None

    def refresh(self, chunk: str) -> Optional[Dict]:
        """Re-read a claimed chunk; ``None`` if it was requeued."""
        return read_json(self.claimed / chunk)

    def update(self, payload: Dict) -> None:
        """Persist a claimed chunk's state (renewing its lease)."""
        stamp_lease(payload, renew_only=True)
        atomic_write_json(self.claimed / str(payload["chunk"]), payload)

    def release(self, chunk: str) -> None:
        """Drop a finished chunk's lease file."""
        try:
            (self.claimed / chunk).unlink()
        except OSError:
            pass  # requeued while we finished

    def renew(self, chunk: str) -> bool:
        """Heartbeat: refresh a claimed chunk's lease stamp.

        Returns ``False`` when the chunk is no longer ours (requeued
        after an expiry the heartbeat lost a race with, or consumed),
        so the caller can stop renewing.
        """
        payload = self.refresh(chunk)
        if payload is not None:
            self.update(payload)
        return payload is not None

    def submit(self, payload: Dict) -> None:
        """Publish one task's outcome payload."""
        index = int(payload["index"])
        try:
            atomic_write_json(
                self.results / f"{payload['job']}-{index:06d}.json", payload
            )
        except OSError:
            # The queue root vanished: the broker is gone for good and
            # nobody can consume this outcome.  Dropping it is safe —
            # were the campaign still alive, the lease would requeue.
            return

    def is_shutdown(self) -> bool:
        return self.shutdown_marker.exists()
