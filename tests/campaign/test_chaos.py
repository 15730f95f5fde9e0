"""Chaos/fault-injection harness for the distributed backend.

A seeded chaos controller (:class:`repro.faults.ProcessChaos`)
SIGKILLs real worker subprocesses at seeded progress points
mid-campaign (after the k-th accepted result, on any machine speed)
while the broker is restarted mid-collection (simulated crash), over
both transports.  Both broker sessions run through
:class:`~repro.campaign.distributed.DistributedRunner` on one
:class:`~repro.campaign.cache.ResultCache`: the first is cut short by
its ``on_result`` callback and then aborted, and the rerun on the
same cache serves what the first stored and executes only the rest.
Whatever the fault schedule, the assembled results must be
bit-identical to the sequential local runner's, and every index must
be accepted exactly once.

These tests boot real interpreters and wait out lease expiries; they
are the slowest part of the suite.  Deselect locally with
``-m "not chaos"``.
"""

import subprocess

import numpy as np
import pytest

from repro import faults
from repro.campaign import (
    CampaignRunner,
    ResultCache,
    ScenarioSpec,
    spawn_seeds,
)
from repro.campaign.distributed import DirectoryBroker, DistributedRunner

pytestmark = pytest.mark.chaos

#: Generous stall guard: tests should fail loudly, never hang.
TIMEOUT = 180.0
#: Outcomes the first broker collects before it "crashes".
CRASH_AFTER = 3
#: Acceptance criterion: the harness passes 5 consecutive seeded runs.
CHAOS_SEEDS = range(5)

#: ~0.4 s of simulation per unit: long enough for kills to land
#: mid-execution, short enough to keep the harness quick.
N_SCENARIOS = 4
SPEC_KW = dict(n_graphs=2, horizon=2000.0, on_miss="record")

#: Broker settings of every chaos session: short leases, small chunks.
RUNNER_KW = dict(
    poll=0.02, lease_timeout=2.0, result_timeout=TIMEOUT, chunk_size=2
)

#: Flags every chaos worker runs with: tight poll, fast heartbeat.
WORKER_FLAGS = [
    "--poll", "0.02", "--heartbeat", "0.25", "--idle-timeout", "60",
]


@pytest.fixture(autouse=True)
def contract_locks(monkeypatch):
    """Chaos runs with RACE001 runtime assertions on: every broker
    lock-contract violation fails loudly instead of racing silently
    (see repro.locks.ContractLock)."""
    monkeypatch.setenv("REPRO_CONTRACT_LOCKS", "1")


def chaos_specs(seed):
    return [
        ScenarioSpec(scheme=scheme, seed=s, **SPEC_KW)
        for s in spawn_seeds(seed, N_SCENARIOS)
        for scheme in ("EDF", "ccEDF")
    ]


_SEQUENTIAL = {}


def sequential_metrics(seed):
    """The sequential reference, computed once per chaos seed."""
    if seed not in _SEQUENTIAL:
        campaign = CampaignRunner(1).run(chaos_specs(seed))
        _SEQUENTIAL[seed] = [r.metrics for r in campaign.results]
    return _SEQUENTIAL[seed]


class _Crash(Exception):
    """Raised by ``on_result`` to stop the first broker mid-campaign."""


def observer(chaos, accepted, crash_after=None):
    """An ``on_result`` callback for one broker session.

    It fails on an index the session streams twice, adds each index to
    ``accepted`` (every index accepted so far across sessions; its size
    is the campaign progress that schedules the chaos kills) and
    raises :class:`_Crash` after ``crash_after`` results."""
    seen = set()

    def on_result(index, result):
        assert index not in seen, f"index {index} accepted twice"
        seen.add(index)
        accepted.add(index)
        chaos.observe(len(accepted))
        if crash_after is not None and len(seen) >= crash_after:
            raise _Crash

    return on_result


def crash_then_rerun(first, second_factory, specs, cache, chaos):
    """Cut ``first`` short after :data:`CRASH_AFTER` results and abort
    its broker, then rerun ``specs`` on the same cache through the
    runner ``second_factory()`` builds; return the rerun's result."""
    accepted = set()
    try:
        with pytest.raises(_Crash):
            first.run(
                specs, on_result=observer(chaos, accepted, CRASH_AFTER)
            )
    finally:
        first._broker.abort()  # "crash": no shutdown marker, no cleanup
    stored = len(accepted)
    assert len(cache) == stored  # stored before on_result saw it
    with second_factory() as second:
        rerun = second.run(specs, on_result=observer(chaos, accepted))
    # The restarted broker was submitted only the uncached complement.
    assert rerun.cache_hits == stored
    assert rerun.executed == len(specs) - stored
    assert sorted(accepted) == list(range(len(specs)))
    return rerun


def assert_bit_identical(rerun, cache, specs, seed):
    """The rerun's results and the cache's entries are the sequential
    runner's bit for bit, one cache entry per index."""
    assert [r.metrics for r in rerun.results] == sequential_metrics(seed)
    assert len(cache) == len(specs)
    assert [
        cache.get(spec).metrics for spec in specs
    ] == sequential_metrics(seed)


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
class TestChaosDirectory:
    def test_kills_and_broker_restart(self, tmp_path, seed):
        specs = chaos_specs(seed)
        cache = ResultCache(tmp_path / "cache")
        queue = tmp_path / "queue"
        queue.mkdir()
        rng = np.random.default_rng(seed)
        chaos = faults.ProcessChaos(
            rng, ["--dir", str(queue), *WORKER_FLAGS]
        )

        def runner():
            return DistributedRunner(workdir=queue, cache=cache, **RUNNER_KW)

        try:
            rerun = crash_then_rerun(runner(), runner, specs, cache, chaos)
        finally:
            chaos.stop()
        assert chaos.killed == chaos.n_kills
        assert_bit_identical(rerun, cache, specs, seed)


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
class TestChaosTCP:
    def test_kills_and_broker_restart(self, tmp_path, seed):
        specs = chaos_specs(seed)
        cache = ResultCache(tmp_path / "cache")
        rng = np.random.default_rng(1000 + seed)
        first = DistributedRunner(
            listen=("127.0.0.1", 0), cache=cache, **RUNNER_KW
        )
        host, port = first.address
        chaos = faults.ProcessChaos(
            rng,
            [
                "--connect",
                f"{host}:{port}",
                "--reconnect-grace",
                "30",
                *WORKER_FLAGS,
            ],
        )

        def restarted():
            # Same endpoint the fleet keeps dialing; the broker's abort
            # severed every worker connection, and graceful workers
            # reconnect within their grace.
            return DistributedRunner(
                listen=("127.0.0.1", port), cache=cache, **RUNNER_KW
            )

        try:
            rerun = crash_then_rerun(first, restarted, specs, cache, chaos)
        finally:
            chaos.stop()
        assert chaos.killed == chaos.n_kills
        assert_bit_identical(rerun, cache, specs, seed)


class TestChaosBudget:
    """Executed-work accounting under chunked leases."""

    def test_executed_never_exceeds_specs_plus_requeues(self, tmp_path):
        """Duplicate execution can only come from a requeued lease:
        the fleet's total executed-unit count is bounded by
        ``specs + requeues`` (and the broker still accepts every index
        exactly once)."""
        specs = chaos_specs(0)
        procs = [
            faults.spawn_worker_process(
                ["--dir", str(tmp_path), *WORKER_FLAGS],
                stdout=subprocess.PIPE,
            )
            for _ in range(2)
        ]
        broker = DirectoryBroker(
            tmp_path,
            poll=0.02,
            lease_timeout=30.0,
            result_timeout=TIMEOUT,
            chunk_size=2,
        )
        broker.submit(list(enumerate(specs)))
        try:
            collected = dict(broker.outcomes())
        finally:
            broker.close()  # shutdown marker: workers exit cleanly
        executed = 0
        for proc in procs:
            out, _err = proc.communicate(timeout=30.0)
            for line in (out or b"").decode().splitlines():
                if "executed" in line:
                    executed += int(line.split("executed")[1].split()[0])
        assert sorted(collected) == list(range(len(specs)))
        assert executed >= len(specs)  # everything ran at least once
        assert executed <= len(specs) + broker.requeued_total
