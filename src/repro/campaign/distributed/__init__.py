"""Distributed (multi-host) execution backend for campaigns.

A broker process owns the campaign — spec list, seeds, cache,
aggregation — and any number of worker processes lease work units
over a shared directory or TCP, execute them with
:func:`~repro.campaign.runner.run_spec`, and stream results back.
Because every spec carries its caller-assigned
``SeedSequence``-derived seed, a distributed run is bit-identical to
the sequential local runner whatever the fleet looks like.

The backend is fault-tolerant: workers heartbeat their leases (long
scenarios are never falsely requeued), every accepted result lands in
the broker's result cache (rerunning a crashed campaign on the same
cache runs only what it is missing), the local fleet can autoscale
with the backlog, and short scenarios can be leased in chunks.

Broker side (see :class:`DistributedRunner`)::

    from repro.campaign import ResultCache
    from repro.campaign.distributed import DistributedRunner

    with DistributedRunner(
        workdir="/shared/queue", cache=ResultCache(), n_local_workers=2
    ) as runner:
        campaign = runner.run(specs)

Worker side (one per core per host)::

    python -m repro campaign-worker --dir /shared/queue
"""

from .broker import DirectoryBroker, TCPBroker
from .runner import DistributedRunner
from .worker import execute_payload, run_directory_worker, run_tcp_worker
from .workdir import WorkDir

__all__ = [
    "DirectoryBroker",
    "DistributedRunner",
    "TCPBroker",
    "WorkDir",
    "execute_payload",
    "run_directory_worker",
    "run_tcp_worker",
]
