"""Wire and file formats shared by the broker and its workers.

A *task* is one leased work unit — a spec plus its campaign-global
index; an *outcome* is a worker's answer — either the executed
:class:`~repro.campaign.spec.ScenarioResult` or a structured
:class:`~repro.campaign.failures.FailureInfo`.
Both are plain JSON dicts so the same payloads travel over every
transport (files in a shared directory, JSON-lines over TCP).

Every payload carries the broker's ``job`` id, a per-campaign token:
workers echo it back, and the broker silently drops outcomes from
other jobs (e.g. a straggler worker finishing a task leased by a
previous campaign in the same work directory).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

from ...errors import SchedulingError
from ..failures import FailureInfo
from ..spec import ScenarioResult, Spec, spec_from_json, spec_to_json

__all__ = [
    "PROTOCOL_VERSION",
    "task_payload",
    "parse_task",
    "task_timeout",
    "chunk_payload",
    "stamp_lease",
    "lease_stamp",
    "result_payload",
    "error_payload",
    "parse_outcome",
    "outcome_worker",
    "atomic_write_json",
    "read_json",
    "send_msg",
    "recv_msg",
]

#: Bumped on any incompatible change to the payloads below; brokers
#: refuse workers announcing a different version.
#: 2: tasks are leased in index-contiguous *chunks* ({"tasks": [...]})
#:    with in-payload lease timestamps and heartbeat renewal.
#: 3: error outcomes carry structured failures (exception class,
#:    message, traceback text, retryability) instead of bare strings;
#:    outcomes name the worker that produced them (health scoring);
#:    tasks may carry a per-spec execution ``timeout``.
#: 4: the bare-string error outcome of v2 is gone: a non-dict
#:    ``error`` is a malformed payload.
#: 5: chunks are never split: the TCP outcome ack says whether the
#:    session still ``held`` the rest of its lease, in place of v4's
#:    list of indices taken from it.
PROTOCOL_VERSION = 5


# ----------------------------------------------------------------------
# Payloads
# ----------------------------------------------------------------------
def task_payload(
    job: str, index: int, spec: Spec, *, timeout: Optional[float] = None
) -> Dict:
    payload = {"job": job, "index": int(index), "spec": spec_to_json(spec)}
    if timeout is not None:
        payload["timeout"] = float(timeout)
    return payload


def parse_task(payload: Dict) -> Tuple[str, int, Spec]:
    try:
        return (
            str(payload["job"]),
            int(payload["index"]),
            spec_from_json(payload["spec"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchedulingError(f"malformed task payload: {exc}") from exc


def task_timeout(payload: Dict) -> Optional[float]:
    """The per-spec execution deadline a task carries, if any."""
    try:
        timeout = payload.get("timeout")
        return float(timeout) if timeout is not None else None
    except (TypeError, ValueError, AttributeError):
        return None


def chunk_payload(job: str, name: str, tasks: list) -> Dict:
    """One leased work *chunk*: an index-contiguous run of tasks.

    ``active`` holds the task a worker is currently executing (so a
    crashed worker's in-flight unit is recoverable from the file
    alone); ``tasks`` holds the not-yet-started remainder.  ``lease``
    is the in-payload lease clock (see :func:`stamp_lease`).
    """
    return {
        "job": job,
        "chunk": str(name),
        "active": None,
        "tasks": list(tasks),
        "lease": None,
    }


def stamp_lease(payload: Dict, *, renew_only: bool = False) -> Dict:
    """Write the current wall-clock into ``payload``'s lease stamp.

    The stamp inside the payload — not the lease file's mtime — is the
    expiry authority: mtime is coarse or skewed on some shared
    filesystems (NFS attribute caching, FAT 2-second resolution), and
    a worker touching a file it re-wrote anyway adds nothing.  mtime
    remains a *fallback* for unreadable payloads.
    """
    # repro: noqa[DET002] -- the lease stamp IS wall-clock data by
    # design; it drives expiry only and never reaches results
    now = time.time()
    lease = payload.get("lease")
    if not isinstance(lease, dict) or not renew_only:
        lease = {"claimed_at": now}
    lease["renewed_at"] = now
    payload["lease"] = lease
    return payload


def lease_stamp(payload: Optional[Dict]) -> Optional[float]:
    """The authoritative lease time of ``payload``, if it carries one."""
    if not isinstance(payload, dict):
        return None
    lease = payload.get("lease")
    if not isinstance(lease, dict):
        return None
    stamp = lease.get("renewed_at", lease.get("claimed_at"))
    try:
        return float(stamp)
    except (TypeError, ValueError):
        return None


def result_payload(
    job: str,
    index: int,
    result: ScenarioResult,
    *,
    worker: Optional[str] = None,
) -> Dict:
    payload = {"job": job, "index": int(index), "result": result.to_json()}
    if worker:
        payload["worker"] = str(worker)
    return payload


def error_payload(
    job: str,
    index: int,
    failure: FailureInfo,
    *,
    worker: Optional[str] = None,
) -> Dict:
    """An error outcome carrying a structured ``failure``."""
    payload = {"job": job, "index": int(index), "error": failure.to_json()}
    if worker:
        payload["worker"] = str(worker)
    return payload


def parse_outcome(payload: Dict) -> Tuple[str, int, object]:
    """``(job, index, ScenarioResult | SchedulingError)`` from a dict.

    Execution errors come back as *values* (not raised) so the broker
    can decide how to fail the campaign: an error payload rehydrates
    as :class:`~repro.errors.SpecFailure` with the remote traceback
    attached.  A non-dict ``error`` is malformed.
    """
    try:
        job = str(payload["job"])
        index = int(payload["index"])
        if "error" in payload:
            error = payload["error"]
            if not isinstance(error, dict):
                raise TypeError(
                    f"error must be an object, got {type(error).__name__}"
                )
            return job, index, FailureInfo.from_json(error).to_exception()
        return job, index, ScenarioResult.from_json(payload["result"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SchedulingError(f"malformed outcome payload: {exc}") from exc


def outcome_worker(payload: Dict) -> str:
    """The worker token an outcome names, or ``""`` if it names none."""
    worker = payload.get("worker") if isinstance(payload, dict) else None
    return str(worker) if worker else ""


# ----------------------------------------------------------------------
# Shared-directory primitives
# ----------------------------------------------------------------------
def atomic_write_json(path: Path, payload: Dict) -> None:
    """Write ``payload`` so readers never observe a partial file.

    The temp file must never match the ``*.json`` globs consumers
    scan: ``pathlib.glob`` matches dotfiles, so a ``.tmp-*.json``
    sibling could be read half-written and consumed (deleted) by the
    broker, making the writer's ``os.replace`` fail and silently
    losing the payload.

    The temp file is fsynced before the rename: without it, a host
    crash can leave the *renamed* file empty or truncated on
    journaled filesystems (rename is metadata, data may still be in
    the page cache), which would surface to consumers as a corrupt
    payload instead of the pre-write state.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=".tmp-", suffix=".part"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_json(path: Path) -> Optional[Dict]:
    """Parse a JSON file; ``None`` if missing, truncated, or corrupt."""
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


# ----------------------------------------------------------------------
# TCP framing: one JSON object per line
# ----------------------------------------------------------------------
def send_msg(wfile, obj: Dict) -> None:
    wfile.write((json.dumps(obj) + "\n").encode("utf-8"))
    wfile.flush()


def recv_msg(rfile) -> Optional[Dict]:
    """The next message, or ``None`` on a closed/garbled stream."""
    line = rfile.readline()
    if not line:
        return None
    try:
        data = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None
    return data if isinstance(data, dict) else None
