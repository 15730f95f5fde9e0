"""Runner, registry and cache behaviour (single-process)."""

import pytest

import repro.campaign.runner as runner_mod
from repro.campaign import (
    NEAR_OPTIMAL,
    CampaignRunner,
    ResultCache,
    ScenarioSpec,
    build_scheme,
    resolve_battery,
    resolve_estimator,
    resolve_processor,
    run_spec,
    spawn_seeds,
)
from repro.campaign.spec import OneShotSpec, SurvivalSpec
from repro.errors import SchedulingError

QUICK = ScenarioSpec(scheme="ccEDF", n_graphs=2, seed=3)


def campaign_specs(root_seed, n_scenarios):
    """Two schemes per scenario, seeded prefix-stably."""
    return [
        ScenarioSpec(scheme=scheme, n_graphs=2, seed=seed)
        for seed in spawn_seeds(root_seed, n_scenarios)
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


class TestRunSpec:
    def test_periodic_metrics(self):
        result = run_spec(QUICK)
        for key in (
            "energy_j", "charge_c", "mean_current_a", "peak_current_a",
            "busy_s", "misses", "released_jobs", "completed_jobs",
        ):
            assert key in result.metrics
        assert result.metrics["energy_j"] > 0
        assert result.metrics["misses"] == 0.0
        assert "lifetime_min" not in result.metrics  # no battery requested

    def test_battery_adds_lifetime(self):
        spec = ScenarioSpec(
            scheme="ccEDF", n_graphs=2, seed=3, battery="stochastic"
        )
        result = run_spec(spec)
        assert result.metrics["lifetime_min"] > 0
        assert result.metrics["delivered_mah"] > 0

    def test_near_optimal_reference(self):
        ref = run_spec(
            ScenarioSpec(scheme=NEAR_OPTIMAL, n_graphs=2, seed=3)
        )
        run = run_spec(
            ScenarioSpec(
                scheme="pUBS-all", n_graphs=2, seed=3, estimator="oracle"
            )
        )
        # The precedence-relaxed reference lower-bounds (numerically
        # near-bounds) every real scheme on the same workload.
        assert run.metrics["energy_j"] >= ref.metrics["energy_j"] * 0.98

    def test_near_optimal_keeps_on_miss_on_both_paths(self, monkeypatch):
        from repro.campaign import runner

        spec = ScenarioSpec(
            scheme=NEAR_OPTIMAL, n_graphs=2, seed=3, on_miss="record"
        )
        sim, horizon = runner._build_scenario_sim(spec)
        assert sim.on_miss == "record"
        assert all(g.graph.edges() == () for g in sim.task_set)
        assert horizon == sim.task_set.hyperperiod()

        seen = []
        real = runner.near_optimal_run

        def spy(*args, **kwargs):
            seen.append(kwargs["on_miss"])
            return real(*args, **kwargs)

        monkeypatch.setattr(runner, "near_optimal_run", spy)
        run_spec(spec)
        assert seen == ["record"]

    def test_oneshot_ratios_at_least_one(self):
        result = run_spec(OneShotSpec(n_tasks=5, seed=1, n_random=2))
        for key in ("random", "ltf", "pubs"):
            assert result.metrics[key] >= 1.0 - 1e-9

    def test_survival(self):
        result = run_spec(
            SurvivalSpec(
                battery="kibam",
                durations=(1000.0, 1000.0, 1000.0),
                currents=(3.0, 2.0, 1.0),
            )
        )
        assert 0.1 < result.metrics["survival_scale"] < 10.0

    def test_same_seed_same_workload_across_schemes(self):
        a = run_spec(ScenarioSpec(scheme="EDF", n_graphs=2, seed=9))
        b = run_spec(ScenarioSpec(scheme="EDF", n_graphs=2, seed=9))
        assert a.metrics == b.metrics


class TestRegistry:
    def test_unknown_names_raise(self):
        with pytest.raises(SchedulingError):
            build_scheme("nope", resolve_estimator("history"))
        with pytest.raises(SchedulingError):
            resolve_estimator("nope")
        with pytest.raises(SchedulingError):
            resolve_battery("nope")
        with pytest.raises(SchedulingError):
            resolve_processor("nope")

    def test_parameterized_names(self):
        proc = resolve_processor("freqset:levels=5")
        assert len(proc.table.points) == 5
        cell = resolve_battery("stochastic:noise=0.05", seed=0)
        assert cell is not None
        with pytest.raises(SchedulingError):
            resolve_processor("freqset:5")  # params must be k=v
        with pytest.raises(SchedulingError):
            resolve_processor("freqset")  # levels is required
        with pytest.raises(SchedulingError):
            resolve_processor("freqset:levels=5:foo=1")  # no extras

    def test_unregister_removes_ad_hoc_entries(self):
        from repro.campaign import register_battery, unregister

        name = register_battery("unregister-test", lambda seed: None)
        assert resolve_battery(name) is None
        unregister(name)
        with pytest.raises(SchedulingError):
            resolve_battery(name)
        unregister(name)  # idempotent no-op

    def test_all_builtin_schemes_build(self):
        est = resolve_estimator("history")
        for name in (
            "EDF", "ccEDF", "laEDF", "BAS-1", "BAS-2", "random", "LTF",
            "pUBS-imminent", "pUBS-all", "ccEDF+imminent",
            "ccEDF+all-released", "laEDF+imminent", "laEDF+all-released",
            "BAS-2/unguarded",
        ):
            dvs, policy = build_scheme(name, est).instantiate()
            assert dvs is not None and policy is not None


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(QUICK) is None
        result = run_spec(QUICK)
        cache.put(result)
        hit = cache.get(QUICK)
        assert hit == result
        assert hit.cached
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(run_spec(QUICK))
        for path in tmp_path.glob("*.json"):
            path.write_text("{not json")
        assert cache.get(QUICK) is None

    def test_corrupt_fields_are_a_miss(self, tmp_path):
        import json

        cache = ResultCache(tmp_path)
        cache.put(run_spec(QUICK))
        (path,) = tmp_path.glob("*.json")
        # Parses as JSON but has a non-numeric metric: still a miss.
        data = json.loads(path.read_text())
        data["metrics"]["energy_j"] = "bogus"
        path.write_text(json.dumps(data))
        assert cache.get(QUICK) is None
        # Unknown spec kind: also a miss, not a crash.
        data["metrics"]["energy_j"] = 1.0
        data["spec"]["kind"] = "martian"
        path.write_text(json.dumps(data))
        assert cache.get(QUICK) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(run_spec(QUICK))
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_runner_uses_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = [QUICK, ScenarioSpec(scheme="EDF", n_graphs=2, seed=3)]
        first = CampaignRunner(1, cache=cache).run(specs)
        second = CampaignRunner(1, cache=cache).run(specs)
        assert first.cache_hits == 0
        assert second.cache_hits == len(specs)
        assert second.results == first.results
        assert all(r.cached for r in second.results)

    def test_cached_prefix_survives_process_boundary(
        self, tmp_path, executed_specs
    ):
        """Growing a campaign is a larger rerun on the same cache: a
        fresh runner (think: tomorrow's session) asked for 5 scenarios
        where 3 ran before executes only the 2 new ones."""
        cache = ResultCache(tmp_path)
        CampaignRunner(1, cache=cache).run(campaign_specs(0, 3))
        assert len(executed_specs) == 6

        executed_specs.clear()
        specs = campaign_specs(0, 5)
        campaign = CampaignRunner(1, cache=cache).run(specs)
        assert executed_specs == specs[6:]  # suffix only, prefix cached
        assert campaign.cache_hits == 6
        assert campaign.executed == 4
        assert campaign.results == CampaignRunner(1).run(specs).results


class TestRunnerValidation:
    def test_bad_workers(self):
        with pytest.raises(SchedulingError):
            CampaignRunner(0)

    def test_streaming_callback_sees_every_result(self):
        specs = [
            ScenarioSpec(scheme="EDF", n_graphs=2, seed=s) for s in (1, 2, 3)
        ]
        seen = []
        campaign = CampaignRunner(1).run(
            specs, on_result=lambda i, r: seen.append(i)
        )
        assert sorted(seen) == [0, 1, 2]
        assert len(campaign.results) == 3
        assert campaign.metrics("energy_j")[0] > 0
