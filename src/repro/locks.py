"""Lock-discipline runtime support for the threading broker paths.

The static analyzer (:mod:`repro.check`, rule RACE001) verifies that
shared state guarded by a ``self.lock`` is only touched inside ``with
self.lock:`` blocks — but some methods are *designed* to run with the
lock already held by their caller (e.g. the ``_TCPState`` helpers the
connection threads of :mod:`repro.campaign.distributed.broker` call).
Statically that contract is declared by making ``assert_held`` the
method's first statement; at runtime it is enforced by
:class:`ContractLock`, which records the holding thread and can verify
holder identity on every guarded access.

The assertion mode is opt-in via ``REPRO_CONTRACT_LOCKS=1`` (the
chaos suite and the RACE001 acceptance tests run with it set): with
the variable unset, :func:`contract_lock` returns a plain
``threading.Lock`` and :func:`assert_held` is a no-op, so production
hot paths pay nothing.
"""

from __future__ import annotations

import os
import threading
from typing import Optional, Union

__all__ = [
    "CONTRACT_LOCKS_ENV",
    "ContractLock",
    "LockContractError",
    "assert_held",
    "contract_lock",
    "contract_locks_enabled",
]

#: Set to ``1`` (or any non-empty value other than ``0``) to make
#: :func:`contract_lock` hand out :class:`ContractLock` instances that
#: verify holder identity on every :func:`assert_held` call.
CONTRACT_LOCKS_ENV = "REPRO_CONTRACT_LOCKS"


class LockContractError(AssertionError):
    """A lock-discipline contract was violated at runtime.

    Derives from :class:`AssertionError`: a violation is a programming
    error (a data race waiting to happen), never an operational
    condition to be caught and retried.
    """


def contract_locks_enabled() -> bool:
    """Whether the env-gated runtime assertion mode is on."""
    value = os.environ.get(CONTRACT_LOCKS_ENV, "")
    return bool(value) and value != "0"


class ContractLock:
    """A ``threading.Lock`` wrapper that remembers its holder.

    Supports the same ``acquire``/``release``/context-manager surface
    as a plain lock, plus :meth:`assert_held`, which raises
    :class:`LockContractError` when the calling thread is not the
    current holder — the runtime half of the RACE001 rule.
    """

    def __init__(self, name: str = "lock") -> None:
        self.name = name
        self._lock = threading.Lock()
        self._holder: Optional[int] = None

    def acquire(self, blocking: bool = True, timeout: float = -1):
        got = self._lock.acquire(blocking, timeout)
        if got:
            # repro: noqa[RACE001] -- written only by the thread
            # that just acquired _lock (held-by-construction)
            self._holder = threading.get_ident()
        return got

    def release(self) -> None:
        # repro: noqa[RACE001] -- cleared by the holding thread
        # before _lock is released (held-by-construction)
        self._holder = None
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> "ContractLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def assert_held(self) -> None:
        """Raise unless the calling thread currently holds this lock."""
        # repro: noqa[RACE001] -- racy read is the feature: a holder
        # mismatch (even torn) means the contract is already broken
        if self._holder != threading.get_ident():
            raise LockContractError(
                f"lock contract violated: {self.name!r} must be held "
                "by the caller of this method (see RACE001 in "
                "docs/static-analysis.md)"
            )


def contract_lock(
    name: str = "lock",
) -> Union[ContractLock, threading.Lock]:
    """A lock for RACE001-guarded shared state.

    Returns a :class:`ContractLock` when ``REPRO_CONTRACT_LOCKS`` is
    set (holder-identity assertions on), else a plain
    ``threading.Lock`` (zero overhead).  The env var is read at
    construction time, so tests can flip it per broker instance.
    """
    if contract_locks_enabled():
        return ContractLock(name)
    return threading.Lock()


def assert_held(lock) -> None:
    """Declare (and, in assertion mode, verify) a caller-holds-lock
    contract.

    Placing ``assert_held(self.lock)`` as a method's first statement
    is the sanctioned static marker RACE001 recognizes for methods
    that run with the lock already held; with contract locks enabled
    it also verifies holder identity at runtime.  On a plain
    ``threading.Lock`` it is a no-op.
    """
    if isinstance(lock, ContractLock):
        lock.assert_held()
