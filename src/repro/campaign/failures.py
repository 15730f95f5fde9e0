"""Failure containment for campaigns: budgets, backoff, quarantine.

A campaign under ``on_error="quarantine"`` no longer aborts on the
first bad spec.  Each failing spec is retried up to ``max_retries``
times with deterministic seeded exponential backoff; a spec that
exhausts its budget is *quarantined* — recorded in a
:class:`FailureReport` with its structured traceback — and the
campaign completes with partial results.  Under the default
``on_error="raise"`` the first failure still propagates, byte-for-byte
compatible with the pre-existing behavior.

:class:`RetryBudget` is that policy, defined once: the local runner
and the distributed broker both charge every failed attempt to it and
keep only their own scheduling of the retry it grants.

Also home to the local worker's execution watchdog
(:func:`spec_deadline`), which interrupts a spec that runs past its
deadline with a retryable :class:`~repro.errors.SpecTimeout`.
"""

from __future__ import annotations

import contextlib
import json
import signal
import threading
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from ..errors import SchedulingError, SpecFailure, SpecTimeout
from .spec import Spec, content_hash

__all__ = [
    "FailureInfo",
    "FailureReport",
    "QuarantinedSpec",
    "RetryBudget",
    "backoff_delay",
    "spec_deadline",
]

ON_ERROR_POLICIES = ("raise", "quarantine")

#: First-retry backoff in seconds; each further attempt doubles it.
BACKOFF_BASE = 0.05


@dataclass(frozen=True)
class FailureInfo:
    """One failure, flattened for transport and reports.

    Captures what matters for diagnosis — exception class, message,
    traceback text — as plain strings so it survives JSON round-trips
    across process and wire boundaries.
    """

    exc_type: str
    message: str
    traceback_text: str = ""
    retryable: bool = True

    @classmethod
    def from_exception(cls, exc: BaseException) -> "FailureInfo":
        if isinstance(exc, SpecFailure) and exc.traceback_text:
            tb = exc.traceback_text
        else:
            tb = "".join(
                traceback.format_exception(
                    type(exc), exc, exc.__traceback__
                )
            )
        exc_type = (
            exc.exc_type
            if isinstance(exc, SpecFailure)
            else type(exc).__name__
        )
        return cls(
            exc_type=exc_type,
            message=str(exc),
            traceback_text=tb,
            retryable=bool(getattr(exc, "retryable", True)),
        )

    def to_exception(self) -> SpecFailure:
        """Rehydrate as a :class:`SpecFailure` (timeout-aware)."""
        cls = SpecTimeout if self.exc_type == "SpecTimeout" else SpecFailure
        return cls(
            self.message,
            exc_type=self.exc_type,
            traceback_text=self.traceback_text,
        )

    def to_json(self) -> Dict:
        return {
            "type": self.exc_type,
            "message": self.message,
            "traceback": self.traceback_text,
            "retryable": self.retryable,
        }

    @classmethod
    def from_json(cls, data: Dict) -> "FailureInfo":
        return cls(
            exc_type=str(data.get("type", "SpecFailure")),
            message=str(data.get("message", "")),
            traceback_text=str(data.get("traceback", "")),
            retryable=bool(data.get("retryable", True)),
        )


@dataclass(frozen=True)
class QuarantinedSpec:
    """A spec that exhausted its retry budget, with provenance."""

    index: int
    spec_hash: str
    attempts: int
    failure: FailureInfo

    def to_json(self) -> Dict:
        return {
            "index": self.index,
            "spec_hash": self.spec_hash,
            "attempts": self.attempts,
            "failure": self.failure.to_json(),
        }

    @classmethod
    def from_json(cls, data: Dict) -> "QuarantinedSpec":
        return cls(
            index=int(data["index"]),
            spec_hash=str(data.get("spec_hash", "")),
            attempts=int(data.get("attempts", 1)),
            failure=FailureInfo.from_json(data.get("failure", {})),
        )


@dataclass
class FailureReport:
    """What went wrong during a campaign, and what it cost.

    ``quarantined`` lists the specs given up on; ``retries`` counts
    every re-execution charged to a budget; ``timeouts`` counts
    deadline interruptions (a subset of the failures that drove
    retries).  Empty report == clean campaign.
    """

    quarantined: List[QuarantinedSpec] = field(default_factory=list)
    retries: int = 0
    timeouts: int = 0

    def __bool__(self) -> bool:
        return bool(self.quarantined or self.retries or self.timeouts)

    @property
    def quarantined_indices(self) -> Tuple[int, ...]:
        return tuple(sorted(q.index for q in self.quarantined))

    def to_json(self) -> Dict:
        return {
            "quarantined": [q.to_json() for q in self.quarantined],
            "retries": self.retries,
            "timeouts": self.timeouts,
        }

    @classmethod
    def from_json(cls, data: Dict) -> "FailureReport":
        return cls(
            quarantined=[
                QuarantinedSpec.from_json(q)
                for q in data.get("quarantined", ())
            ],
            retries=int(data.get("retries", 0)),
            timeouts=int(data.get("timeouts", 0)),
        )

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(
            json.dumps(self.to_json(), indent=2) + "\n"
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FailureReport":
        return cls.from_json(json.loads(Path(path).read_text()))

    def merge(self, other: "FailureReport") -> None:
        self.quarantined.extend(other.quarantined)
        self.retries += other.retries
        self.timeouts += other.timeouts


def backoff_delay(
    seed: int,
    attempt: int,
    *,
    base: float = BACKOFF_BASE,
    cap: float = 5.0,
) -> float:
    """Deterministic exponential backoff with jitter.

    ``base * 2**(attempt-1)``, capped, scaled by a jitter factor in
    [0.5, 1.0) drawn from ``SeedSequence([seed, attempt])`` — the
    same derivation pattern the campaign uses for spec seeds, so the
    full retry schedule is a pure function of (spec seed, attempt)
    and replays identically across runs and hosts.
    """
    if attempt < 1:
        return 0.0
    raw = min(float(cap), float(base) * (2.0 ** (attempt - 1)))
    rng = np.random.default_rng(
        np.random.SeedSequence([int(seed) & 0xFFFFFFFF, int(attempt)])
    )
    return raw * (0.5 + 0.5 * float(rng.random()))


#: :meth:`RetryBudget.charge` verdicts.
RETRY, QUARANTINED, EXHAUSTED = "retry", "quarantined", "exhausted"


class Verdict(NamedTuple):
    """What one failed attempt leads to: ``kind`` is :data:`RETRY`
    (after ``delay`` seconds), :data:`QUARANTINED` or
    :data:`EXHAUSTED`."""

    kind: str
    delay: float = 0.0


@dataclass(frozen=True)
class RetryBudget:
    """The retry-or-quarantine-or-raise policy of a campaign.

    ``max_retries`` re-executions per spec, each after its
    :func:`backoff_delay`; ``spec_timeout`` seconds of execution per
    attempt (``None`` disables the watchdog); ``on_error`` decides what
    an exhausted budget means.  Validated once, at construction.
    """

    max_retries: int = 0
    spec_timeout: Optional[float] = None
    on_error: str = "raise"

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise SchedulingError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.spec_timeout is not None and self.spec_timeout <= 0:
            raise SchedulingError(
                f"spec_timeout must be positive, got {self.spec_timeout}"
            )
        if self.on_error not in ON_ERROR_POLICIES:
            raise SchedulingError(
                f"on_error must be one of {ON_ERROR_POLICIES}, "
                f"got {self.on_error!r}"
            )
        if self.spec_timeout is not None:
            object.__setattr__(self, "spec_timeout", float(self.spec_timeout))
        object.__setattr__(self, "max_retries", int(self.max_retries))

    @property
    def contained(self) -> bool:
        """Whether any knob departs from abort-on-first-failure."""
        return (
            self.max_retries > 0
            or self.spec_timeout is not None
            or self.on_error != "raise"
        )

    def charge(
        self,
        report: FailureReport,
        attempts: Dict[int, int],
        index: int,
        spec: Optional[Spec],
        failure: FailureInfo,
    ) -> Verdict:
        """Charge one failed attempt of spec ``index`` to ``report``.

        ``attempts`` is the run's per-index attempt count, bumped here.
        Within budget the verdict is :data:`RETRY` after a delay that is
        a pure function of (spec seed, attempt); past it the spec is
        recorded in ``report`` (:data:`QUARANTINED`) or the caller
        raises its own error (:data:`EXHAUSTED`).
        """
        attempt = attempts[index] = attempts.get(index, 0) + 1
        if failure.exc_type == "SpecTimeout":
            report.timeouts += 1
        if attempt <= self.max_retries:
            report.retries += 1
            seed = int(getattr(spec, "seed", 0) or 0)
            return Verdict(RETRY, backoff_delay(seed, attempt))
        if self.on_error != "quarantine":
            return Verdict(EXHAUSTED)
        report.quarantined.append(
            QuarantinedSpec(
                index=index,
                spec_hash=content_hash(spec) if spec is not None else "",
                attempts=attempt,
                failure=failure,
            )
        )
        return Verdict(QUARANTINED)


@contextlib.contextmanager
def spec_deadline(seconds: Optional[float], *, what: str = "spec"):
    """Interrupt the enclosed block if it runs past ``seconds``.

    Implemented with ``SIGALRM``/``setitimer``, so it fires even when
    the block is wedged in a pure-Python hot loop.  Only armable on
    platforms with ``SIGALRM`` and from the main thread (the only
    place Python delivers signals); elsewhere this is a no-op and the
    broker's lease-backed deadline is the backstop.  ``seconds=None``
    disables the watchdog entirely.
    """
    if (
        not seconds
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _on_alarm(signum, frame):
        raise SpecTimeout(
            f"{what} exceeded its {float(seconds):.3g}s execution "
            "deadline",
            exc_type="SpecTimeout",
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
