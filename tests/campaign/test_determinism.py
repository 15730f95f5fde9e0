"""The campaign engine's determinism guarantees (ISSUE 1 acceptance).

A seeded 20-scenario campaign must produce bit-identical per-scenario
metrics and frame aggregates whether run sequentially or across a 2-worker
pool, and the on-disk cache must hand back identical results on a
second run.
"""

import pytest

from repro.api import ResultFrame
from repro.campaign import (
    CampaignRunner,
    ResultCache,
    ScenarioSpec,
    spawn_seeds,
)

SCHEMES = ("ccEDF", "BAS-2")


@pytest.fixture(scope="module")
def specs():
    """20 scenarios: 10 SeedSequence-spawned workloads × 2 schemes."""
    return [
        ScenarioSpec(
            scheme=scheme, n_graphs=2, seed=s, battery="stochastic"
        )
        for s in spawn_seeds(0, 10)
        for scheme in SCHEMES
    ]


@pytest.fixture(scope="module")
def sequential(specs):
    return CampaignRunner(1).run(specs)


class TestSequentialVsParallel:
    @pytest.fixture(scope="class")
    def parallel(self, specs):
        return CampaignRunner(2).run(specs)

    def test_twenty_scenarios(self, specs):
        assert len(specs) == 20

    def test_per_scenario_metrics_bit_identical(self, sequential, parallel):
        assert [r.metrics for r in sequential.results] == [
            r.metrics for r in parallel.results
        ]

    def test_results_in_spec_order(self, specs, parallel):
        assert [r.spec for r in parallel.results] == list(specs)

    def test_aggregates_bit_identical(self, sequential, parallel):
        frames = [
            ResultFrame.from_results(c.results) for c in (sequential, parallel)
        ]
        assert frames[0].to_csv() == frames[1].to_csv()
        assert (
            frames[0].group_by("scheme").mean().to_csv()
            == frames[1].group_by("scheme").mean().to_csv()
        )

    def test_streaming_aggregation_matches_post_hoc(self, specs):
        """Results streamed through ``on_result`` in arrival order,
        re-laid in index order, build the same frame as the returned
        spec-ordered list."""
        streamed = {}
        campaign = CampaignRunner(2).run(
            specs, on_result=lambda i, r: streamed.setdefault(i, r)
        )
        assert sorted(streamed) == list(range(len(specs)))
        in_order = [streamed[i] for i in range(len(specs))]
        assert (
            ResultFrame.from_results(in_order).to_csv()
            == ResultFrame.from_results(campaign.results).to_csv()
        )


class TestCacheDeterminism:
    def test_second_run_identical_and_all_hits(
        self, specs, sequential, tmp_path
    ):
        cache = ResultCache(tmp_path)
        first = CampaignRunner(1, cache=cache).run(specs)
        second = CampaignRunner(1, cache=cache).run(specs)
        assert first.cache_hits == 0
        assert second.cache_hits == len(specs)
        # Cache round-trip returns identical result objects...
        assert second.results == first.results
        # ... and both match the uncached baseline bit for bit.
        assert [r.metrics for r in second.results] == [
            r.metrics for r in sequential.results
        ]

    def test_parallel_run_against_warm_cache(self, specs, tmp_path):
        cache = ResultCache(tmp_path)
        cold = CampaignRunner(2, cache=cache).run(specs)
        warm = CampaignRunner(2, cache=cache).run(specs)
        assert warm.cache_hits == len(specs)
        assert warm.results == cold.results
