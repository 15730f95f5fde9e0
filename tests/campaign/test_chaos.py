"""Chaos/fault-injection harness for the distributed backend.

A seeded chaos controller (:class:`repro.faults.ProcessChaos`)
SIGKILLs real worker subprocesses at seeded progress points
mid-campaign (after the k-th accepted result, on any machine speed)
while the broker is restarted mid-collection (simulated crash +
``resume=True``), over both transports.  Whatever the fault schedule,
the assembled results must be bit-identical to the sequential local
runner's, and the resume ledger must prevent re-execution of
scenarios the first broker already collected.

These tests boot real interpreters and wait out lease expiries; they
are the slowest part of the suite.  Deselect locally with
``-m "not chaos"``.
"""

import json
import subprocess

import numpy as np
import pytest

from repro import faults
from repro.campaign import CampaignRunner, ScenarioSpec, spawn_seeds
from repro.campaign.distributed import DirectoryBroker, TCPBroker, WorkDir

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


def collect(broker, chaos, accepted, n=None):
    """Take outcomes from a broker: all of them, or stop after ``n``
    (mid-collection).  ``accepted`` holds every index accepted so far
    across broker sessions; its size is the campaign progress that
    schedules the chaos kills."""
    got = {}
    for index, result in broker.outcomes():
        got[index] = result
        accepted.add(index)
        chaos.observe(len(accepted))
        if n is not None and len(got) >= n:
            break
    return got


def assert_ledger_complete(ledger_path, n_specs):
    """Every index journaled exactly once: duplicates (requeues that
    raced a slow worker) are deduplicated *before* the journal."""
    lines = ledger_path.read_text().splitlines()
    indices = sorted(
        json.loads(line)["index"]
        for line in lines[1:]
        if line.strip()
    )
    assert indices == list(range(n_specs))


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
class TestChaosDirectory:
    def test_kills_and_broker_restart(self, tmp_path, seed):
        specs = chaos_specs(seed)
        rng = np.random.default_rng(seed)
        chaos = faults.ProcessChaos(
            rng, ["--dir", str(tmp_path), *WORKER_FLAGS]
        )
        try:
            first = DirectoryBroker(
                tmp_path,
                poll=0.02,
                lease_timeout=2.0,
                result_timeout=TIMEOUT,
                chunk_size=2,
            )
            first.submit(list(enumerate(specs)))
            accepted = set()
            got = collect(first, chaos, accepted, CRASH_AFTER)
            first.abort()  # "crash": no shutdown marker, no cleanup

            second = DirectoryBroker(
                tmp_path,
                poll=0.02,
                lease_timeout=2.0,
                result_timeout=TIMEOUT,
                chunk_size=2,
            )
            second.submit(list(enumerate(specs)), resume=True)
            # The ledger replays exactly what the first broker
            # accepted; only the complement is republished.
            assert second.replayed == len(got)
            assert second.remaining == len(specs) - len(got)
            rest = collect(second, chaos, accepted)
            assert sorted(rest) == list(range(len(specs)))
            assert {i: rest[i] for i in got} == got  # replay == first
            second.close()
        finally:
            chaos.stop()
        assert chaos.killed == chaos.n_kills
        assert [
            rest[i].metrics for i in range(len(specs))
        ] == sequential_metrics(seed)
        assert_ledger_complete(WorkDir(tmp_path).ledger_path, len(specs))


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
class TestChaosTCP:
    def test_kills_and_broker_restart(self, tmp_path, seed):
        specs = chaos_specs(seed)
        rng = np.random.default_rng(1000 + seed)
        ledger = tmp_path / "ledger.jsonl"
        first = TCPBroker(
            port=0,
            poll=0.02,
            lease_timeout=2.0,
            result_timeout=TIMEOUT,
            chunk_size=2,
            ledger_path=ledger,
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
        try:
            first.submit(list(enumerate(specs)))
            accepted = set()
            got = collect(first, chaos, accepted, CRASH_AFTER)
            # "Crash": sever the listening socket and every worker
            # connection; graceful workers reconnect within grace.
            first.abort()

            second = TCPBroker(
                "127.0.0.1",
                port,  # same endpoint the fleet keeps dialing
                poll=0.02,
                lease_timeout=2.0,
                result_timeout=TIMEOUT,
                chunk_size=2,
                ledger_path=ledger,
            )
            try:
                second.submit(list(enumerate(specs)), resume=True)
                assert second.replayed == len(got)
                assert second.remaining == len(specs) - len(got)
                rest = collect(second, chaos, accepted)
            finally:
                second.close()
            assert sorted(rest) == list(range(len(specs)))
            assert {i: rest[i] for i in got} == got
        finally:
            chaos.stop()
        assert chaos.killed == chaos.n_kills
        assert [
            rest[i].metrics for i in range(len(specs))
        ] == sequential_metrics(seed)
        assert_ledger_complete(ledger, len(specs))


class TestChaosBudget:
    """Executed-work accounting under the chunk/steal machinery."""

    def test_executed_never_exceeds_specs_plus_requeues(self, tmp_path):
        """Duplicate execution can only come from a requeued lease or
        a split that raced the owner: the fleet's total executed-unit
        count is bounded by ``specs + requeues + splits`` (and the
        broker still accepts every index exactly once)."""
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
        assert executed <= (
            len(specs) + broker.requeued_total + broker.telemetry["stolen"]
        )
