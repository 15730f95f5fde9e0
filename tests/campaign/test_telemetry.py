"""Structured campaign telemetry: requeue/retry/demotion counters."""

import threading

from repro.campaign import CampaignRunner, ScenarioSpec, spawn_seeds
from repro.campaign.distributed import (
    DirectoryBroker,
    DistributedRunner,
    run_directory_worker,
)

TIMEOUT = 120.0


def small_specs(n=1, schemes=("EDF",), **kwargs):
    kwargs.setdefault("n_graphs", 2)
    return [
        ScenarioSpec(scheme=scheme, seed=seed, **kwargs)
        for seed in spawn_seeds(0, n)
        for scheme in schemes
    ]


class TestLocalTelemetry:
    def test_local_run_reports_zero_fault_counters(self):
        campaign = CampaignRunner(1).run(small_specs(1))
        assert campaign.requeued == 0
        assert campaign.telemetry == {
            "scenarios": 1,
            "executed": 1,
            "cache_hits": 0,
            "requeued": 0,
            "retried": 0,
            "quarantined": 0,
            "demoted": 0,
        }


class TestBrokerTelemetry:
    def test_base_telemetry_shape(self, tmp_path):
        broker = DirectoryBroker(tmp_path)
        assert broker.telemetry == {
            "requeued": 0,
            "retried": 0,
            "quarantined": 0,
            "retired": 0,
            "demoted": 0,
        }
        broker.close()

    def test_requeue_counter_flows_to_campaign_result(self, tmp_path):
        """An abandoned claim expires, is requeued, and the runner
        surfaces the count on CampaignResult/telemetry."""
        specs = small_specs(1)
        runner = DistributedRunner(
            workdir=tmp_path,
            lease_timeout=0.5,
            poll=0.02,
            result_timeout=TIMEOUT,
        )
        broker = runner._broker
        fleet = threading.Thread(
            target=run_directory_worker,
            args=(tmp_path,),
            kwargs=dict(
                poll=0.02, idle_timeout=TIMEOUT, max_tasks=1, heartbeat=0.1
            ),
            daemon=True,
        )
        original_submit, original_step = broker.submit, broker.step

        def submit_then_claim(*args, **kwargs):
            original_submit(*args, **kwargs)
            # Claim the only chunk as a fake worker that dies at once;
            # the real fleet finds nothing until the lease expires.
            assert broker.workdir.claim() is not None
            fleet.start()

        steps = []

        def step_later(now):
            # Every step after the first runs one lease timeout later
            # in broker time: the abandoned claim expires on the second
            # step, without the test waiting for it.
            steps.append(now)
            return original_step(now + (0.5 if len(steps) > 1 else 0.0))

        broker.submit, broker.step = submit_then_claim, step_later
        try:
            campaign = runner.run(specs)
        finally:
            runner.close()
            fleet.join(timeout=10.0)
        assert campaign.requeued >= 1
        assert campaign.telemetry["requeued"] >= 1
        # The scenario still executed exactly once to completion.
        local = CampaignRunner(1).run(specs)
        assert campaign.results[0].metrics == local.results[0].metrics
