"""An in-memory broker transport for driving the broker under virtual
time.

:class:`FakeTransport` gives the real
:class:`~repro.campaign.distributed.broker.Broker` state machine plain
lists and dicts to work on.  The test plays every worker by hand —
leasing chunks, renewing (changing a lease's nonce), finishing units —
and steps the broker at whatever virtual instants it likes, so lease
expiry and the spec-deadline backstop are checked to the tick without
a single sleep.
"""

from repro.campaign import ScenarioSpec, spawn_seeds
from repro.campaign.distributed.broker import Broker
from repro.campaign.distributed.protocol import result_payload
from repro.campaign.runner import run_spec

_RESULT = []


def specs(n):
    return [
        ScenarioSpec(scheme="EDF", seed=seed, n_graphs=2)
        for seed in spawn_seeds(0, n)
    ]


def any_result():
    """One real ScenarioResult, computed once: outcome payloads need a
    well-formed result, and the broker never checks which spec made
    it."""
    if not _RESULT:
        _RESULT.append(run_spec(specs(1)[0]))
    return _RESULT[0]


def submitted(n, **options):
    """A broker over a fresh fake transport, running ``n`` specs."""
    wire = FakeTransport()
    broker = Broker(wire, **options)
    broker.submit(list(enumerate(specs(n))))
    return broker, wire


def run(broker, now):
    """One broker step at virtual time ``now``; the accepted indices."""
    return [index for index, _result in broker.step(now)]


class FakeTransport:
    """The broker's transport over in-memory queues.

    ``queue`` holds queued chunks (lists of indices); ``held`` maps a
    lease key to ``[worker, remaining indices, nonce]``; ``inbox``
    holds outcome payloads for the next poll.
    """

    def __init__(self):
        self.job = None
        self.queue = []
        self.held = {}
        self.inbox = []
        self.retired = []

    # -- the transport interface ---------------------------------------
    def publish(self, job, items, *, chunk_size, timeout):
        self.job = job
        self.queue.clear()
        self.held.clear()
        self.enqueue(job, items, chunk_size=chunk_size, timeout=timeout)

    def enqueue(self, job, items, *, chunk_size, timeout):
        indices = [index for index, _spec in items]
        for lo in range(0, len(indices), chunk_size):
            self.queue.append(indices[lo : lo + chunk_size])

    def leases(self, job):
        return [
            (key, worker, list(remaining), nonce)
            for key, (worker, remaining, nonce) in self.held.items()
            if remaining
        ]

    def reclaim(self, key, *, skip=None):
        _worker, remaining, _nonce = self.held.pop(key)
        back = [index for index in remaining if index != skip]
        if back:
            self.queue.insert(0, back)
        return len(back)

    def retire(self, worker):
        self.retired.append(worker)

    def pop_outcomes(self, job):
        while self.inbox:
            yield self.inbox.pop(0)

    # -- the workers' side ---------------------------------------------
    def lease(self, key, worker="w"):
        """``worker`` leases the next queued chunk as lease ``key``."""
        chunk = self.queue.pop(0)
        self.held[key] = [worker, list(chunk), 0]
        return chunk

    def renew(self, key):
        self.held[key][2] += 1

    def finish(self, key, worker="w"):
        """Lease ``key``'s active unit completes; its outcome is sent."""
        index = self.held[key][1].pop(0)
        self.inbox.append(
            result_payload(self.job, index, any_result(), worker=worker)
        )
        return index
