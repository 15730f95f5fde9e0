"""Distributed backend: bit-identity with the local runner, leases,
failure handling, and the driver-level acceptance checks."""

import threading
from contextlib import contextmanager

import pytest

from repro.api import ResultFrame, Study, plans
from repro.campaign import (
    CampaignRunner,
    ResultCache,
    ScenarioSpec,
    spawn_seeds,
)
from repro.campaign.distributed import (
    DirectoryBroker,
    DistributedRunner,
    WorkDir,
    run_directory_worker,
    run_tcp_worker,
)
from repro.errors import SchedulingError

#: Generous stall guard: tests should fail loudly, never hang.
TIMEOUT = 120.0


def small_specs(n_scenarios=2, schemes=("EDF", "ccEDF")):
    return [
        ScenarioSpec(scheme=scheme, n_graphs=2, seed=seed)
        for seed in spawn_seeds(0, n_scenarios)
        for scheme in schemes
    ]


def metrics_of(campaign):
    return [r.metrics for r in campaign.results]


@contextmanager
def fleet(closer, target, args, n=2):
    """``n`` in-process workers; ``closer.close()`` runs before join,
    so workers see the shutdown signal and exit promptly."""
    threads = [
        threading.Thread(
            target=target,
            args=args,
            kwargs=dict(poll=0.01, idle_timeout=TIMEOUT),
            daemon=True,
        )
        for _ in range(n)
    ]
    for t in threads:
        t.start()
    try:
        yield threads
    finally:
        closer.close()
        for t in threads:
            t.join(timeout=10.0)


class TestDirectoryBackend:
    def test_bit_identical_to_local(self, tmp_path):
        specs = small_specs()
        local = CampaignRunner(1).run(specs)
        runner = DistributedRunner(
            workdir=tmp_path, poll=0.01, result_timeout=TIMEOUT
        )
        with fleet(runner, run_directory_worker, (tmp_path,)):
            dist = runner.run(specs)
        assert metrics_of(dist) == metrics_of(local)
        assert dist.executed == len(specs)
        assert [r.spec for r in dist.results] == specs

    def test_aggregators_and_callback_fed_every_result(self, tmp_path):
        """``on_result`` sees every index once, and the streamed
        results build the local runner's frame bit for bit."""
        specs = small_specs()
        streamed = {}
        runner = DistributedRunner(
            workdir=tmp_path, poll=0.01, result_timeout=TIMEOUT
        )
        with fleet(runner, run_directory_worker, (tmp_path,)):
            runner.run(
                specs, on_result=lambda i, r: streamed.setdefault(i, r)
            )
        assert sorted(streamed) == list(range(len(specs)))
        local = CampaignRunner(1).run(specs)
        assert (
            ResultFrame.from_results(
                [streamed[i] for i in range(len(specs))]
            ).to_csv()
            == ResultFrame.from_results(local.results).to_csv()
        )

    def test_cache_hits_skip_the_fleet(self, tmp_path):
        specs = small_specs(1)
        cache = ResultCache(tmp_path / "cache")
        queue = tmp_path / "queue"
        first = DistributedRunner(
            workdir=queue, cache=cache, poll=0.01, result_timeout=TIMEOUT
        )
        with fleet(first, run_directory_worker, (queue,)):
            got = first.run(specs)
        assert got.cache_hits == 0 and got.executed == len(specs)
        # Second broker, no fleet at all: served entirely from cache.
        second = DistributedRunner(
            workdir=tmp_path / "queue2", cache=cache, result_timeout=1.0
        )
        try:
            again = second.run(specs)
        finally:
            second.close()
        assert again.cache_hits == len(specs) and again.executed == 0
        assert metrics_of(again) == metrics_of(got)

    def test_lost_lease_is_requeued(self, tmp_path):
        specs = small_specs(1)
        broker = DirectoryBroker(
            tmp_path, poll=0.01, lease_timeout=2.0, result_timeout=TIMEOUT
        )
        broker.submit(list(enumerate(specs)))
        # A worker leases a unit and dies without finishing it.
        dead = WorkDir(tmp_path).claim()
        assert dead is not None
        step, steps = broker.step, []

        def step_later(now):
            # Broker time jumps one lease timeout after the first step,
            # so the dead lease expires without the test waiting.
            steps.append(now)
            return step(now + (2.0 if len(steps) > 1 else 0.0))

        broker.step = step_later
        with fleet(broker, run_directory_worker, (tmp_path,), n=1):
            collected = dict(broker.outcomes())
        assert broker.requeued_total >= 1
        assert sorted(collected) == list(range(len(specs)))
        local = CampaignRunner(1).run(specs)
        assert [collected[i].metrics for i in sorted(collected)] == (
            metrics_of(local)
        )

    def test_execution_error_fails_the_campaign(self, tmp_path):
        bad = [ScenarioSpec(scheme="EDF", n_graphs=2, seed=1, battery="nope")]
        runner = DistributedRunner(
            workdir=tmp_path, poll=0.01, result_timeout=TIMEOUT
        )
        with fleet(runner, run_directory_worker, (tmp_path,), n=1):
            with pytest.raises(SchedulingError, match="worker failed"):
                runner.run(bad)

    def test_stall_guard_without_workers(self, tmp_path):
        runner = DistributedRunner(
            workdir=tmp_path, poll=0.01, result_timeout=0.2
        )
        try:
            with pytest.raises(SchedulingError, match="no worker progress"):
                runner.run(small_specs(1, schemes=("EDF",)))
        finally:
            runner.close()

    def test_malformed_task_is_reported_not_fatal(self):
        """A poison-pill payload must come back as an error outcome,
        not crash the worker that leased it."""
        from repro.campaign.distributed import execute_payload

        outcome = execute_payload(
            {"job": "j", "index": 3, "spec": {"kind": "martian"}}
        )
        assert outcome["job"] == "j" and outcome["index"] == 3
        assert "error" in outcome
        # Entirely garbled payloads are reported too.
        assert "error" in execute_payload({"nonsense": True})

    def test_transport_choice_is_exclusive(self, tmp_path):
        with pytest.raises(SchedulingError):
            DistributedRunner()
        with pytest.raises(SchedulingError):
            DistributedRunner(workdir=tmp_path, listen=("127.0.0.1", 0))


class TestTCPBackend:
    def test_bit_identical_to_local(self):
        specs = small_specs()
        local = CampaignRunner(1).run(specs)
        runner = DistributedRunner(
            listen=("127.0.0.1", 0), poll=0.01, result_timeout=TIMEOUT
        )
        host, port = runner.address
        with fleet(runner, run_tcp_worker, (host, port)):
            dist = runner.run(specs)
        assert metrics_of(dist) == metrics_of(local)

    def test_worker_death_requeues_over_tcp(self):
        from repro.campaign.distributed.worker import _BrokerSession

        specs = small_specs(2, schemes=("EDF",))
        runner = DistributedRunner(
            listen=("127.0.0.1", 0), poll=0.01, result_timeout=TIMEOUT
        )
        host, port = runner.address
        outcome = {}
        broker_thread = threading.Thread(
            target=lambda: outcome.setdefault("campaign", runner.run(specs))
        )
        broker_thread.start()
        # A "worker" that leases one unit and drops the connection.
        session = _BrokerSession(host, port)
        reply = session.request({"op": "lease"})
        while reply is not None and reply.get("op") == "wait":
            reply = session.request({"op": "lease"})
        assert reply is not None and reply.get("op") == "task"
        session.close()  # dies holding the lease
        with fleet(runner, run_tcp_worker, (host, port), n=1):
            broker_thread.join(timeout=TIMEOUT)
            assert not broker_thread.is_alive()
        local = CampaignRunner(1).run(specs)
        assert metrics_of(outcome["campaign"]) == metrics_of(local)


class TestSpawnedWorkers:
    """The subprocess path the CLI uses (slow: real interpreter boots)."""

    def test_directory_fleet_of_two(self, tmp_path):
        specs = small_specs(1)
        local = CampaignRunner(1).run(specs)
        with DistributedRunner(
            workdir=tmp_path,
            n_local_workers=2,
            poll=0.02,
            result_timeout=TIMEOUT,
        ) as runner:
            dist = runner.run(specs)
        assert metrics_of(dist) == metrics_of(local)
        assert dist.n_workers == 2


def report_and_frame(plan, runner=None):
    """The rendered report and the frame CSV of one study run."""
    res = Study(plan, runner=runner).run()
    return res.format(), res.frame.to_csv()


class TestDriverAcceptance:
    """table2/fig6 aggregates byte-identical between the sequential
    local runner and a 2-worker distributed fleet."""

    def test_table2_identical(self, tmp_path):
        plan = plans.table2_plan(n_sets=1, n_graphs=2, seed=0)
        local = report_and_frame(plan)
        runner = DistributedRunner(
            workdir=tmp_path,
            poll=0.01,
            lease_timeout=TIMEOUT,
            result_timeout=TIMEOUT,
        )
        with fleet(runner, run_directory_worker, (tmp_path,)):
            dist = report_and_frame(plan, runner)
        assert dist == local  # every rendered byte and frame float

    def test_fig6_identical(self, tmp_path):
        plan = plans.fig6_plan(graph_counts=(2,), sets_per_point=1, seed=0)
        local = report_and_frame(plan)
        runner = DistributedRunner(
            workdir=tmp_path,
            poll=0.01,
            lease_timeout=TIMEOUT,
            result_timeout=TIMEOUT,
        )
        with fleet(runner, run_directory_worker, (tmp_path,)):
            dist = report_and_frame(plan, runner)
        assert dist == local
