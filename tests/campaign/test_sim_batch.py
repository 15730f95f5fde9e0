"""Campaign-level batching and the one execution pipeline: metric
identity guarantees.

Every campaign path — vector batches inside a unit, one-spec units,
contained (retrying) units, pools of any size — must reproduce
``[run_spec(s) for s in specs]`` bit for bit.
"""

import math

import pytest

from repro.api.plans import fig6_plan, table2_plan
from repro.campaign import (
    CampaignRunner,
    ResultCache,
    ScenarioSpec,
    run_scenario_batch,
    run_spec,
)
from repro.campaign import runner
from repro.campaign.registry import NEAR_OPTIMAL
from repro.campaign.spec import OneShotSpec

SPECS = [
    ScenarioSpec(scheme="BAS-1", n_graphs=2, seed=3),
    ScenarioSpec(scheme="ccEDF", n_graphs=2, seed=4, battery="kibam"),
    ScenarioSpec(scheme="EDF", n_graphs=2, seed=5),
]


def assert_metrics_equal(a, b):
    assert set(a.metrics) == set(b.metrics)
    for key, val in a.metrics.items():
        assert b.metrics[key] == val, key


def nan_fast_runs(monkeypatch):
    """Every fast battery run comes back NaN, so each battery load is
    demoted to the scalar path once."""
    from repro.battery.base import BatteryModel, BatteryRun

    def nan_run(self, d, i, repeat, max_time):
        nan = float("nan")
        return BatteryRun(died=True, lifetime=nan, delivered_charge=nan)

    monkeypatch.setattr(BatteryModel, "_run_profile_fast", nan_run)


def fleet_run(specs, tmp_path):
    """``specs`` on a directory broker served by one in-process worker
    thread, which runs each task through ``execute_payload``."""
    import threading

    from repro.campaign.distributed import (
        DistributedRunner,
        run_directory_worker,
    )

    dist = DistributedRunner(workdir=tmp_path, poll=0.01, result_timeout=60)
    worker = threading.Thread(
        target=run_directory_worker,
        args=(tmp_path,),
        kwargs=dict(poll=0.01, idle_timeout=60),
        daemon=True,
    )
    worker.start()
    try:
        return dist.run(specs)
    finally:
        dist.close()
        worker.join(timeout=10.0)


class TestRunScenarioBatch:
    def test_naive_batch_bitwise_equals_run_spec(self):
        got = run_scenario_batch(list(enumerate(SPECS)))
        for (index, result), spec in zip(got, SPECS):
            assert_metrics_equal(result, run_spec(spec))

    def test_nonfinite_battery_run_is_demoted_on_both_paths(
        self, monkeypatch
    ):
        """A fast battery run that comes back NaN is re-run on the
        scalar path whether the spec runs alone or in a batch, so the
        worker count cannot change a scenario's answer."""
        nan_fast_runs(monkeypatch)
        spec = ScenarioSpec(
            scheme="BAS-2", n_graphs=2, seed=3, battery="kibam"
        )
        alone = run_spec(spec)
        ((_, batched),) = run_scenario_batch([(0, spec)])
        assert math.isfinite(alone.metrics["lifetime_min"])
        assert math.isfinite(alone.metrics["delivered_mah"])
        assert_metrics_equal(alone, batched)


class TestRunnerBatching:
    @pytest.mark.parametrize(
        "route", ["one-spec", "contained", "fleet", "batch"]
    )
    def test_demotions_are_counted_on_every_route(
        self, route, monkeypatch, tmp_path
    ):
        """A battery demotion reaches ``CampaignResult.demoted``
        whether its spec runs alone, in a contained unit, on a fleet
        worker or in a vector batch, and the lifetimes agree."""
        nan_fast_runs(monkeypatch)
        specs = [
            ScenarioSpec(scheme="BAS-2", n_graphs=2, seed=s, battery="kibam")
            for s in (3, 4, 5)
        ]
        if route == "one-spec":
            campaign = CampaignRunner(1).run(specs)
        elif route == "contained":
            campaign = CampaignRunner(1, max_retries=1).run(specs)
        elif route == "fleet":
            campaign = fleet_run(specs, tmp_path)
        else:
            monkeypatch.setattr(runner, "MIN_LANES", 2)
            campaign = CampaignRunner(1).run(specs)
        assert campaign.demoted == len(specs)
        assert campaign.metrics("lifetime_min") == tuple(
            run_spec(spec).metrics["lifetime_min"] for spec in specs
        )

    def test_sim_batch_matches_unbatched(self):
        batched = CampaignRunner().run(SPECS)
        assert len(batched.results) == len(SPECS)
        for a, spec in zip(batched.results, SPECS):
            assert a.spec == spec  # spec order preserved
            assert_metrics_equal(a, run_spec(spec))

    def test_parallel_batched_matches_sequential(self):
        seq = CampaignRunner(1).run(SPECS)
        par = CampaignRunner(n_workers=2).run(SPECS)
        for a, b in zip(seq.results, par.results):
            assert a.spec == b.spec
            assert_metrics_equal(a, b)

    def test_non_periodic_specs_stay_on_single_path(self):
        specs = [
            ScenarioSpec(scheme="ccEDF", n_graphs=2, seed=3),
            OneShotSpec(n_tasks=4, seed=1, n_random=1),
        ]
        result = CampaignRunner().run(specs)
        assert len(result.results) == 2
        assert "pubs" in result.results[1].metrics


# ----------------------------------------------------------------------
# One pipeline on the paper artifacts' own specs
# ----------------------------------------------------------------------
def plan_specs(name):
    if name == "table2":
        plan = table2_plan(n_sets=2)
    else:
        plan = fig6_plan(graph_counts=(2, 3), sets_per_point=1)
    return plan.sweep.expand_with_meta()[0]


_REFERENCE = {}


def reference(name):
    """``[run_spec(s) for s in specs]``, computed once per plan."""
    if name not in _REFERENCE:
        _REFERENCE[name] = [run_spec(s) for s in plan_specs(name)]
    return _REFERENCE[name]


@pytest.fixture
def narrow_batches(monkeypatch):
    """Vector batches from two lanes on, so small plans take the
    batch path."""
    monkeypatch.setattr(runner, "MIN_LANES", 2)


class TestOnePipeline:
    @pytest.mark.parametrize("lanes", ["default", "narrow"])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("plan", ["table2", "fig6"])
    def test_default_runner_equals_run_spec(
        self, plan, workers, lanes, monkeypatch
    ):
        if lanes == "narrow":
            monkeypatch.setattr(runner, "MIN_LANES", 2)
        campaign = CampaignRunner(workers).run(plan_specs(plan))
        assert campaign.results == reference(plan)
        assert campaign.executed == len(campaign.results)
        assert campaign.demoted == 0

    @pytest.mark.parametrize(
        "plan, schemes",
        [
            ("table2", {"EDF", "ccEDF", "laEDF", "BAS-1", "BAS-2"}),
            (
                "fig6",
                {"near-optimal", "random", "LTF", "pUBS-imminent", "pUBS-all"},
            ),
        ],
        ids=["table2", "fig6"],
    )
    def test_plan_scenarios_never_fall_back(self, plan, schemes):
        stats = {}
        specs = plan_specs(plan)
        assert {s.scheme for s in specs} == schemes
        run_scenario_batch(list(enumerate(specs)), stats=stats)
        assert stats["vector_fallbacks"] == 0
        assert stats["numeric_demotions"] == 0

    @pytest.mark.usefixtures("narrow_batches")
    def test_one_spec_runs_equal_default_run(self):
        specs = plan_specs("table2")
        alone = [CampaignRunner(1).run([s]).results[0] for s in specs]
        assert alone == reference("table2")

    @pytest.mark.usefixtures("narrow_batches")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_contained_clean_run_equals_default_run(self, workers):
        campaign = CampaignRunner(workers, max_retries=1).run(
            plan_specs("table2")
        )
        assert campaign.results == reference("table2")
        assert campaign.retried == 0 and campaign.failures is None


# ----------------------------------------------------------------------
# How pending specs are cut into units
# ----------------------------------------------------------------------
MIXED = [
    ScenarioSpec(scheme="EDF", n_graphs=2, seed=1),
    OneShotSpec(n_tasks=4, seed=1, n_random=1),
    ScenarioSpec(scheme="ccEDF", n_graphs=2, seed=2),
    ScenarioSpec(scheme=NEAR_OPTIMAL, n_graphs=2, seed=3),
    ScenarioSpec(scheme="laEDF", n_graphs=2, seed=4),
    ScenarioSpec(scheme="BAS-1", n_graphs=2, seed=5),
    ScenarioSpec(scheme="BAS-2", n_graphs=2, seed=6),
]
VECTOR = [0, 2, 3, 4, 5, 6]


def unit_indices(units):
    return [[i for i, _ in u.items] for u in units]


class TestUnits:
    def test_shares_below_min_lanes_run_one_spec_per_unit(
        self, monkeypatch
    ):
        """A share one lane short of :data:`runner.MIN_LANES` per
        worker cuts one spec per unit, whatever the constant is."""
        for min_lanes in (3, 4, 5):
            monkeypatch.setattr(runner, "MIN_LANES", min_lanes)
            specs = [
                ScenarioSpec(scheme="EDF", n_graphs=2, seed=seed)
                for seed in range(2 * (runner.MIN_LANES - 1))
            ]
            units = CampaignRunner(2)._units(specs, list(range(len(specs))))
            assert unit_indices(units) == [[i] for i in range(len(specs))]
            assert not any(u.contain for u in units)

    @pytest.mark.usefixtures("narrow_batches")
    def test_vector_batches_are_strided_and_first(self):
        units = CampaignRunner(2)._units(MIXED, list(range(len(MIXED))))
        assert unit_indices(units) == [[0, 3, 5], [2, 4, 6], [1]]
        units = CampaignRunner(1)._units(MIXED, list(range(len(MIXED))))
        assert unit_indices(units) == [VECTOR, [1]]

    @pytest.mark.usefixtures("narrow_batches")
    def test_max_unit_caps_batch_width(self, monkeypatch):
        monkeypatch.setattr(runner, "MAX_UNIT", 2)
        units = CampaignRunner(1)._units(MIXED, VECTOR)
        assert unit_indices(units) == [[0, 4], [2, 5], [3, 6]]

    @pytest.mark.usefixtures("narrow_batches")
    def test_contained_runs_cut_one_spec_per_unit(self):
        units = CampaignRunner(2, max_retries=1)._units(
            MIXED, list(range(len(MIXED)))
        )
        assert unit_indices(units) == [[i] for i in range(len(MIXED))]
        assert all(u.contain for u in units)

    @pytest.mark.usefixtures("narrow_batches")
    def test_interrupted_run_caches_finished_units_only(
        self, tmp_path, monkeypatch
    ):
        """A unit's results reach the cache when the unit completes:
        an interrupt keeps every finished unit, whole, and nothing of
        the unit it hit."""
        monkeypatch.setattr(runner, "MAX_UNIT", 2)
        real_batch, real_spec = runner.run_scenario_batch, runner.run_spec

        def second_batch_dies(items, **kwargs):
            if items[0][0] == VECTOR[1]:
                raise KeyboardInterrupt
            return real_batch(items, **kwargs)

        monkeypatch.setattr(runner, "run_scenario_batch", second_batch_dies)
        cache = ResultCache(tmp_path / "a")
        with pytest.raises(KeyboardInterrupt):
            CampaignRunner(1, cache=cache).run(MIXED)
        cached = [i for i, s in enumerate(MIXED) if cache.get(s) is not None]
        assert cached == [0, 4]

        def one_shot_dies(spec):
            if isinstance(spec, OneShotSpec):
                raise KeyboardInterrupt
            return real_spec(spec)

        monkeypatch.setattr(runner, "run_scenario_batch", real_batch)
        monkeypatch.setattr(runner, "run_spec", one_shot_dies)
        cache = ResultCache(tmp_path / "b")
        with pytest.raises(KeyboardInterrupt):
            CampaignRunner(1, cache=cache).run(MIXED)
        cached = [i for i, s in enumerate(MIXED) if cache.get(s) is not None]
        assert cached == VECTOR
