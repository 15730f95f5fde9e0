"""Seeded fault injection at named points in the campaign stack.

Generalizes the chaos harness (which could only SIGKILL worker
subprocesses from outside) into a declarative, deterministic framework:
a :class:`FaultPlan` is a seeded list of :class:`FaultRule`\\ s, each
bound to a named *fault point* — a call site the production code
offers to the framework via :func:`fire`.  When no plan is armed,
every fault point is a cheap no-op, so the hooks cost nothing in
normal operation.

Fault-point catalog (see :data:`FAULT_POINTS`):

``spec.execute``
    Immediately before a spec executes, worker-side.  Kinds: ``error``
    (raise :class:`InjectedFault`), ``hang`` (sleep ``delay_s`` —
    trips spec-timeout watchdogs), ``kill`` (SIGKILL the executing
    process — a worker crash from the inside).
``transport.result``
    Before a worker publishes an outcome.  Kinds: ``drop`` (the
    outcome is lost as if the worker died pre-publish; lease expiry
    recovers it), ``delay`` (sleep ``delay_s`` first).
``transport.ack``
    After a TCP worker receives an outcome ack.  Kind: ``drop`` (the
    ack is "lost": the worker abandons its session and reconnects;
    the broker requeues the rest of its lease, duplicates are
    deduplicated by index).
``cache.put``
    As a result-cache entry is written.  Kind: ``corrupt`` (the
    stored JSON is scrambled; the cache treats it as a miss later).

Determinism: every rule draws its probability stream from
``SeedSequence([plan.seed, rule_position])``, so a plan replays the
same fault schedule in every process that arms it.

Plans travel: :func:`install` arms a plan in this process,
``$REPRO_FAULT_PLAN`` (see :func:`install_env_plan`) ships it to
worker subprocesses, and ``campaign --inject-faults plan.json`` loads
one from disk.  :class:`ProcessChaos` — the old chaos harness's
SIGKILL controller, now hosted here — covers the one fault a plan
cannot inject from inside: an external, unannounced process kill.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .errors import SchedulingError, SpecFailure

__all__ = [
    "FAULT_POINTS",
    "FAULTS_ENV",
    "FaultRule",
    "FaultPlan",
    "InjectedFault",
    "ProcessChaos",
    "active_plan",
    "corrupt_text",
    "fire",
    "fired_counts",
    "install",
    "install_env_plan",
    "plan_snapshot",
    "spawn_worker_process",
    "uninstall",
]

#: Environment variable carrying a JSON-encoded plan to subprocesses.
FAULTS_ENV = "REPRO_FAULT_PLAN"

#: The fault-point catalog: name -> (description, allowed kinds).
FAULT_POINTS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "spec.execute": (
        "before a spec executes (worker-side)",
        ("error", "hang", "kill"),
    ),
    "transport.result": (
        "before a worker publishes an outcome",
        ("drop", "delay"),
    ),
    "transport.ack": (
        "after a TCP worker receives an outcome ack",
        ("drop",),
    ),
    "cache.put": (
        "as a result-cache entry is written",
        ("corrupt",),
    ),
}


class InjectedFault(SpecFailure):
    """The deterministic failure a ``kind='error'`` rule raises."""


def corrupt_text(text: str) -> str:
    """Deterministically scramble ``text`` so it no longer parses.

    Keeps a recognizable prefix (useful when eyeballing a corrupted
    cache entry) and guarantees the result is not valid
    JSON.
    """
    keep = max(1, len(text) // 2)
    return text[:keep] + "\x00<injected-corruption>"


@dataclass(frozen=True)
class FaultRule:
    """One injection: where, what, how often, and to whom.

    ``indices`` restricts the rule to specific campaign spec indices
    (``None`` matches every unit); ``max_fires`` caps how many times
    the rule triggers per armed process (``None`` = unlimited — the
    shape of a *poison* spec, which must fail on every retry).
    """

    point: str
    kind: str
    probability: float = 1.0
    max_fires: Optional[int] = None
    indices: Optional[Tuple[int, ...]] = None
    delay_s: float = 0.0
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            raise SchedulingError(
                f"unknown fault point {self.point!r}; known: "
                f"{', '.join(sorted(FAULT_POINTS))}"
            )
        allowed = FAULT_POINTS[self.point][1]
        if self.kind not in allowed:
            raise SchedulingError(
                f"fault kind {self.kind!r} not valid at {self.point!r} "
                f"(allowed: {', '.join(allowed)})"
            )
        if not (0.0 <= self.probability <= 1.0):
            raise SchedulingError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.indices is not None:
            object.__setattr__(
                self, "indices", tuple(int(i) for i in self.indices)
            )

    def to_json(self) -> Dict:
        data: Dict = {"point": self.point, "kind": self.kind}
        if self.probability != 1.0:
            data["probability"] = self.probability
        if self.max_fires is not None:
            data["max_fires"] = int(self.max_fires)
        if self.indices is not None:
            data["indices"] = list(self.indices)
        if self.delay_s:
            data["delay_s"] = float(self.delay_s)
        if self.message != "injected fault":
            data["message"] = self.message
        return data

    @classmethod
    def from_json(cls, data: Dict) -> "FaultRule":
        return cls(
            point=str(data["point"]),
            kind=str(data["kind"]),
            probability=float(data.get("probability", 1.0)),
            max_fires=(
                int(data["max_fires"])
                if data.get("max_fires") is not None
                else None
            ),
            indices=(
                tuple(int(i) for i in data["indices"])
                if data.get("indices") is not None
                else None
            ),
            delay_s=float(data.get("delay_s", 0.0)),
            message=str(data.get("message", "injected fault")),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, serializable schedule of fault injections."""

    rules: Tuple[FaultRule, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    def to_json(self) -> Dict:
        return {
            "seed": int(self.seed),
            "rules": [rule.to_json() for rule in self.rules],
        }

    @classmethod
    def from_json(cls, data: Dict) -> "FaultPlan":
        return cls(
            rules=tuple(
                FaultRule.from_json(r) for r in data.get("rules", ())
            ),
            seed=int(data.get("seed", 0)),
        )

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(
            json.dumps(self.to_json(), indent=2) + "\n"
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FaultPlan":
        try:
            data = json.loads(Path(path).read_text())
        except OSError as exc:
            raise SchedulingError(
                f"cannot read fault plan {path}: {exc}"
            ) from exc
        except ValueError as exc:
            raise SchedulingError(
                f"fault plan {path} is not valid JSON: {exc}"
            ) from exc
        return cls.from_json(data)


class _ArmedPlan:
    """A plan armed in this process: per-rule RNGs and fire counts."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._rngs = [
            np.random.default_rng(
                np.random.SeedSequence([int(plan.seed) & 0xFFFFFFFF, k])
            )
            for k in range(len(plan.rules))
        ]
        self.fired: List[int] = [0] * len(plan.rules)

    def trigger(self, point: str, index: Optional[int]) -> List[FaultRule]:
        """The rules firing now at ``point`` for unit ``index``."""
        firing: List[FaultRule] = []
        with self._lock:
            for k, rule in enumerate(self.plan.rules):
                if rule.point != point:
                    continue
                if (
                    rule.indices is not None
                    and (index is None or int(index) not in rule.indices)
                ):
                    continue
                if (
                    rule.max_fires is not None
                    and self.fired[k] >= rule.max_fires
                ):
                    continue
                if (
                    rule.probability < 1.0
                    and self._rngs[k].random() >= rule.probability
                ):
                    continue
                self.fired[k] += 1
                firing.append(rule)
        return firing


_armed: Optional[_ArmedPlan] = None


def install(plan: Optional[FaultPlan]) -> None:
    """Arm ``plan`` process-wide (``None`` disarms)."""
    global _armed
    _armed = _ArmedPlan(plan) if plan is not None else None


def uninstall() -> None:
    """Disarm any active plan."""
    install(None)


def active_plan() -> Optional[FaultPlan]:
    """The currently armed plan, if any."""
    return _armed.plan if _armed is not None else None


def fired_counts() -> Dict[str, int]:
    """Total fires per fault point for the armed plan (telemetry)."""
    counts: Dict[str, int] = {}
    armed = _armed
    if armed is None:
        return counts
    for rule, n in zip(armed.plan.rules, armed.fired):
        counts[rule.point] = counts.get(rule.point, 0) + n
    return counts


def plan_snapshot() -> Optional[str]:
    """The armed plan as a JSON string for shipping to subprocesses."""
    plan = active_plan()
    return json.dumps(plan.to_json()) if plan is not None else None


def install_env_plan() -> bool:
    """Arm the plan in ``$REPRO_FAULT_PLAN``, if set.

    Worker entry points call this at startup so a broker's
    ``--inject-faults`` plan reaches its spawned fleet.
    """
    raw = os.environ.get(FAULTS_ENV)
    if not raw:
        return False
    try:
        data = json.loads(raw)
    except ValueError as exc:
        raise SchedulingError(
            f"${FAULTS_ENV} is not valid JSON: {exc}"
        ) from exc
    install(FaultPlan.from_json(data))
    return True


def fire(point: str, index: Optional[int] = None) -> Optional[str]:
    """Evaluate the armed plan at a named fault point.

    Returns ``None`` on the (overwhelmingly common) no-fault path.
    Side-effectful kinds happen here: ``error`` raises
    :class:`InjectedFault`, ``hang``/``delay`` sleep, ``kill``
    SIGKILLs this process.  Caller-applied kinds (``drop``,
    ``corrupt``) are returned as strings for the call site to honor.
    """
    armed = _armed
    if armed is None:
        return None
    action: Optional[str] = None
    for rule in armed.trigger(point, index):
        if rule.kind == "error":
            raise InjectedFault(
                f"{rule.message} (point={point}, index={index})",
                exc_type="InjectedFault",
            )
        if rule.kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        if rule.kind in ("hang", "delay") and rule.delay_s > 0:
            time.sleep(rule.delay_s)
        if rule.kind in ("drop", "corrupt"):
            action = rule.kind
    return action


# ----------------------------------------------------------------------
# Process-level chaos: the one fault a plan can't inject from inside
# ----------------------------------------------------------------------
def spawn_worker_process(
    args: List[str], *, stdout=subprocess.DEVNULL
) -> subprocess.Popen:
    """A real ``campaign-worker`` subprocess (chaos kill target).

    ``args`` are appended to the base CLI (transport flags etc.); the
    repro source tree is put on the child's ``PYTHONPATH`` so the
    harness works from an uninstalled checkout.
    """
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    env = os.environ.copy()
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src
    )
    snapshot = plan_snapshot()
    if snapshot:
        env[FAULTS_ENV] = snapshot
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "campaign-worker", *args],
        env=env,
        stdout=stdout,
        stderr=subprocess.DEVNULL,
    )


@dataclass
class ProcessChaos:
    """SIGKILL random fleet members at seeded progress points, then
    replace them.

    The externally-applied complement to a :class:`FaultPlan`: a kill
    that the victim cannot observe, report, or clean up after.  Keeps
    the fleet size constant by respawning each victim.

    Kills are keyed to campaign progress, not to wall-clock time: the
    caller reports how many results it has accepted through
    :meth:`observe`, on its own thread, and the k-th kill fires once
    that count reaches the k-th of ``n_kills`` sorted thresholds drawn
    from ``kill_after`` (inclusive bounds).  Which worker dies when is
    then a pure function of the seed, on any machine speed.  Use as a
    context manager (``stop`` is idempotent).
    """

    rng: np.random.Generator
    worker_args: List[str]
    n_workers: int = 2
    n_kills: int = 2
    kill_after: Tuple[int, int] = (1, 5)
    killed: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self.procs = [
            spawn_worker_process(self.worker_args)
            for _ in range(self.n_workers)
        ]
        lo, hi = self.kill_after
        self.thresholds = sorted(
            int(k) for k in self.rng.integers(lo, hi + 1, size=self.n_kills)
        )

    def observe(self, n_accepted: int) -> None:
        """Report ``n_accepted`` results accepted so far; fires every
        pending kill whose threshold that count reaches."""
        while (
            self.killed < self.n_kills
            and n_accepted >= self.thresholds[self.killed]
        ):
            victim = int(self.rng.integers(len(self.procs)))
            self.procs[victim].kill()  # SIGKILL, mid-whatever
            self.procs[victim].wait(timeout=10.0)
            self.procs[victim] = spawn_worker_process(self.worker_args)
            self.killed += 1

    def stop(self) -> None:
        for proc in self.procs:
            proc.kill()
        for proc in self.procs:
            proc.wait(timeout=10.0)

    def __enter__(self) -> "ProcessChaos":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
