"""Incremental campaign growth: seed-prefix stability and
suffix-only execution of ``extend()``."""

import pytest

import repro.campaign.runner as runner_mod
from repro import faults
from repro.api import ResultFrame
from repro.campaign import (
    CampaignRunner,
    ResultCache,
    ScenarioSpec,
    spawn_seeds,
)
from repro.errors import SchedulingError


def template(seed, index):
    return [
        ScenarioSpec(scheme=scheme, n_graphs=2, seed=seed)
        for scheme in ("EDF", "ccEDF")
    ]


@pytest.fixture
def executed_specs(monkeypatch):
    """Every spec actually executed (not served from cache), counted
    at both entry points: lone specs and vector batches."""
    calls = []
    real_spec = runner_mod.run_spec
    real_batch = runner_mod.run_scenario_batch

    def counting_spec(spec):
        calls.append(spec)
        return real_spec(spec)

    def counting_batch(items, **kwargs):
        calls.extend(spec for _, spec in items)
        return real_batch(items, **kwargs)

    monkeypatch.setattr(runner_mod, "run_spec", counting_spec)
    monkeypatch.setattr(runner_mod, "run_scenario_batch", counting_batch)
    return calls


class TestSeedPrefixStability:
    def test_prefix_is_stable(self):
        assert spawn_seeds(0, 10)[:4] == spawn_seeds(0, 4)
        assert spawn_seeds(123, 50)[:49] == spawn_seeds(123, 49)

    def test_different_roots_differ(self):
        assert spawn_seeds(0, 4) != spawn_seeds(1, 4)


class TestRunCampaign:
    def test_matches_manual_spec_list(self):
        runner = CampaignRunner(1)
        campaign = runner.run_campaign(template, 3, root_seed=7)
        seeds = spawn_seeds(7, 3)
        manual = CampaignRunner(1).run(
            [s for i, seed in enumerate(seeds) for s in template(seed, i)]
        )
        assert [r.metrics for r in campaign.results] == (
            [r.metrics for r in manual.results]
        )
        assert runner.campaign_size == 3

    def test_single_spec_template_accepted(self):
        campaign = CampaignRunner(1).run_campaign(
            lambda seed, i: ScenarioSpec(scheme="EDF", n_graphs=2, seed=seed),
            2,
        )
        assert len(campaign.results) == 2

    def test_bad_template_output_rejected(self):
        with pytest.raises(SchedulingError, match="template"):
            CampaignRunner(1).run_campaign(lambda seed, i: "nope", 1)
        with pytest.raises(SchedulingError, match="template"):
            CampaignRunner(1).run_campaign(lambda seed, i: [], 1)

    def test_validation(self):
        runner = CampaignRunner(1)
        with pytest.raises(SchedulingError):
            runner.run_campaign(template, 0)
        with pytest.raises(SchedulingError, match="prior run_campaign"):
            runner.extend(1)
        runner.run_campaign(template, 1)
        with pytest.raises(SchedulingError):
            runner.extend(0)


class TestExtend:
    def test_extend_executes_only_the_suffix(self, executed_specs):
        runner = CampaignRunner(1)
        first = runner.run_campaign(template, 3, root_seed=0)
        assert first.executed == len(executed_specs) == 6

        executed_specs.clear()
        bigger = runner.extend(2)
        # The prefix is not re-run — only the 2x2 new suffix specs.
        assert [s.seed for s in executed_specs] == [
            s.seed
            for seed in spawn_seeds(0, 5)[3:]
            for s in template(seed, 0)
        ]
        assert bigger.executed == 4
        assert len(bigger.results) == 10
        assert runner.campaign_size == 5

    def test_extended_campaign_equals_full_run(self):
        runner = CampaignRunner(1)
        runner.run_campaign(template, 2, root_seed=3)
        grown = runner.extend(3)
        full = CampaignRunner(1).run_campaign(template, 5, root_seed=3)
        assert [r.metrics for r in grown.results] == (
            [r.metrics for r in full.results]
        )

    def test_cached_prefix_survives_process_boundary(
        self, tmp_path, executed_specs
    ):
        """A fresh runner (think: tomorrow's session) asked for the
        enlarged campaign executes only the new suffix."""
        cache = ResultCache(tmp_path)
        CampaignRunner(1, cache=cache).run_campaign(template, 3, root_seed=0)
        assert len(executed_specs) == 6

        executed_specs.clear()
        fresh = CampaignRunner(1, cache=cache)
        campaign = fresh.run_campaign(template, 5, root_seed=0)
        assert len(executed_specs) == 4  # suffix only, prefix from cache
        assert campaign.cache_hits == 6
        assert campaign.executed == 4
        assert len(campaign.results) == 10

    def test_aggregator_threaded_through_grow_steps(self):
        """One ``on_result`` callback threaded through every grow step
        collects the full campaign once, and its frame equals a
        one-shot run's."""
        runner = CampaignRunner(1)
        streamed = {}

        def collect(index, result):
            assert index not in streamed
            streamed[index] = result

        runner.run_campaign(template, 2, on_result=collect)
        grown = runner.extend(2, on_result=collect)
        assert sorted(streamed) == list(range(len(grown.results)))
        assert len(grown.results) == 8
        one_shot = CampaignRunner(1).run_campaign(template, 4)
        assert (
            ResultFrame.from_results(
                [streamed[i] for i in range(8)]
            ).to_csv()
            == ResultFrame.from_results(grown.results).to_csv()
            == ResultFrame.from_results(one_shot.results).to_csv()
        )

    def test_on_result_sees_global_indices(self):
        runner = CampaignRunner(1)
        seen = []
        runner.run_campaign(
            template, 2, on_result=lambda i, r: seen.append(i)
        )
        runner.extend(1, on_result=lambda i, r: seen.append(i))
        assert sorted(seen) == list(range(6))


@pytest.fixture
def poison_index_1():
    """Every spec at run index 1 raises at ``spec.execute``."""
    faults.install(
        faults.FaultPlan(
            rules=(
                faults.FaultRule(
                    point="spec.execute", kind="error", indices=(1,)
                ),
            ),
        )
    )
    yield
    faults.uninstall()


class TestGrowthKeepsContainment:
    def test_grow_steps_report_what_run_reports(self, poison_index_1):
        """``run_campaign`` and ``extend`` return the suffix run's
        retry, quarantine and failure accounting, not just its
        results."""
        knobs = dict(max_retries=1, on_error="quarantine")
        seeds = spawn_seeds(0, 5)
        specs = [s for i, seed in enumerate(seeds) for s in template(seed, i)]

        def accounting(campaign):
            return (
                campaign.retried,
                campaign.quarantined,
                campaign.failures.quarantined_indices,
            )

        runner = CampaignRunner(1, **knobs)
        seen = []
        grown = [
            runner.run_campaign(template, 3),
            runner.extend(2, on_result=lambda i, r: seen.append(i)),
        ]
        plain = [
            CampaignRunner(1, **knobs).run(part)
            for part in (specs[:6], specs[6:])
        ]
        assert [accounting(c) for c in grown] == (
            [accounting(c) for c in plain]
        )
        assert accounting(grown[0]) == (1, 1, (1,))
        assert len(grown[1].results) == len(specs) - 2
        # Suffix results keep their global spec indices past the
        # quarantined prefix spec.
        assert sorted(seen) == [6, 8, 9]


class TestDistributedGrowth:
    def test_extend_over_the_directory_backend(self, tmp_path):
        import threading

        from repro.campaign.distributed import (
            DistributedRunner,
            run_directory_worker,
        )

        queue = tmp_path / "queue"
        runner = DistributedRunner(
            workdir=queue, poll=0.01, result_timeout=120.0
        )
        worker = threading.Thread(
            target=run_directory_worker,
            args=(queue,),
            kwargs=dict(poll=0.01, idle_timeout=120.0),
            daemon=True,
        )
        worker.start()
        try:
            runner.run_campaign(template, 2, root_seed=1)
            grown = runner.extend(1)
        finally:
            runner.close()
            worker.join(timeout=10.0)
        full = CampaignRunner(1).run_campaign(template, 3, root_seed=1)
        assert [r.metrics for r in grown.results] == (
            [r.metrics for r in full.results]
        )
