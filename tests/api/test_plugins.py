"""Declarative plugin registry: spawn-safe custom entries.

The acceptance pin of the plugin redesign: a custom scheme registered
via the declarative API must run under ``n_workers > 1`` with the
``spawn`` start method — the regime where the old live-object
registration (fork inheritance only) could not work.
"""

import json
import multiprocessing

import pytest

from repro.api import register_battery, register_scheme, unregister
from repro.campaign import (
    CampaignRunner,
    ScenarioSpec,
    install_plugins,
    plugin_snapshot,
    spawn_seeds,
)
from repro.campaign.registry import (
    PLUGINS_ENV,
    install_env_plugins,
    register_plugin,
)
from repro.errors import SchedulingError

import plugin_mod  # noqa: F401  (tests/api is on sys.path via pytest)


@pytest.fixture
def mybas():
    name = register_scheme(
        "myBAS-test", "plugin_mod:build_mybas", ready="all"
    )
    yield name
    unregister(name)


def mybas_specs(n=2):
    return [
        ScenarioSpec(scheme="myBAS-test", n_graphs=2, seed=seed)
        for seed in spawn_seeds(0, n)
    ]


class TestDeclarativeRegistration:
    def test_import_path_registration_resolves(self, mybas):
        seq = CampaignRunner(1).run(mybas_specs(1))
        assert seq.results[0].metrics["energy_j"] > 0

    def test_decorator_registration(self):
        from repro.core.methodology import make_scheme
        from repro.core.priority import LTF
        from repro.dvs import CcEDF

        # Module-level requirement: a nested function must be refused.
        with pytest.raises(SchedulingError, match="module-level"):
            @register_scheme("nested")
            def nested(est):
                return make_scheme(
                    "nested", dvs=CcEDF, priority=LTF
                )

        decorated = register_scheme("decorated-ltf")(
            plugin_mod.build_mybas
        )
        try:
            assert decorated is plugin_mod.build_mybas
            snapshot = plugin_snapshot()
            assert any(
                e["name"] == "decorated-ltf"
                and e["factory"] == "plugin_mod:build_mybas"
                for e in snapshot
            )
        finally:
            unregister("decorated-ltf")

    def test_live_callable_still_registers_process_locally(self):
        name = register_scheme("live-test", plugin_mod.build_mybas)
        try:
            assert name == "live-test"
            # Live objects don't enter the declarative snapshot.
            assert not any(
                e["name"] == "live-test" for e in plugin_snapshot()
            )
        finally:
            unregister("live-test")

    def test_api_and_campaign_share_one_registry(self):
        import repro.api
        import repro.campaign

        for kind in ("scheme", "battery", "processor", "estimator"):
            front = f"register_{kind}"
            assert getattr(repro.api, front) is getattr(
                repro.campaign, front
            )

    def test_bad_factory_paths_fail_fast(self):
        with pytest.raises(SchedulingError, match="module.attr"):
            register_plugin("scheme", "x", "no-colon")
        with pytest.raises(SchedulingError, match="cannot import"):
            register_plugin("scheme", "x", "nope.nope:build")
        with pytest.raises(SchedulingError, match="no attribute"):
            register_plugin("scheme", "x", "plugin_mod:missing")
        with pytest.raises(SchedulingError, match="unknown plugin kind"):
            register_plugin("widget", "x", "plugin_mod:build_mybas")
        with pytest.raises(SchedulingError, match="JSON-serializable"):
            register_plugin(
                "scheme", "x", "plugin_mod:build_mybas", bad=object()
            )

    def test_snapshot_round_trips_through_json(self, mybas):
        snapshot = json.loads(json.dumps(plugin_snapshot()))
        unregister(mybas)
        assert install_plugins(snapshot) == len(snapshot)
        seq = CampaignRunner(1).run(mybas_specs(1))
        assert seq.results[0].metrics["energy_j"] > 0

    def test_env_install(self, mybas, monkeypatch):
        snapshot = plugin_snapshot()
        unregister(mybas)
        monkeypatch.setenv(PLUGINS_ENV, json.dumps(snapshot))
        assert install_env_plugins() >= 1
        seq = CampaignRunner(1).run(mybas_specs(1))
        assert seq.results[0].metrics["energy_j"] > 0
        monkeypatch.setenv(PLUGINS_ENV, "{not json")
        with pytest.raises(SchedulingError, match="not valid JSON"):
            install_env_plugins()

    def test_battery_plugin_kwargs_applied(self):
        name = register_battery(
            "tiny-cell-test", "plugin_mod:build_small_cell", capacity=90.0
        )
        try:
            from repro.campaign.registry import resolve_battery

            cell = resolve_battery(name, 0)
            assert cell.capacity == 90.0
        finally:
            unregister(name)


class TestSpawnSafety:
    """ISSUE acceptance: declarative plugins under spawn workers."""

    @pytest.mark.skipif(
        "spawn" not in multiprocessing.get_all_start_methods(),
        reason="platform has no spawn start method",
    )
    def test_custom_scheme_runs_under_spawn_pool(self, mybas):
        specs = mybas_specs(2)
        sequential = CampaignRunner(1).run(specs)
        spawned = CampaignRunner(2, start_method="spawn").run(specs)
        assert [r.metrics for r in spawned.results] == [
            r.metrics for r in sequential.results
        ]

    def test_unknown_start_method_rejected(self):
        with pytest.raises(SchedulingError, match="start_method"):
            CampaignRunner(2, start_method="teleport")

    def test_custom_scheme_on_distributed_fleet(
        self, mybas, tmp_path, monkeypatch
    ):
        """The runner ships the plugin snapshot to spawned workers via
        $REPRO_PLUGINS, so fleets resolve custom schemes too."""
        import os
        from pathlib import Path

        from repro.campaign.distributed import DistributedRunner

        # The worker subprocess must be able to import plugin_mod.
        here = str(Path(__file__).parent)
        existing = os.environ.get("PYTHONPATH")
        monkeypatch.setenv(
            "PYTHONPATH",
            here if not existing else here + os.pathsep + existing,
        )
        specs = mybas_specs(1)
        sequential = CampaignRunner(1).run(specs)
        runner = DistributedRunner(
            workdir=tmp_path / "q",
            n_local_workers=1,
            poll=0.02,
            result_timeout=120.0,
        )
        try:
            fleet = runner.run(specs)
        finally:
            runner.close()
        assert [r.metrics for r in fleet.results] == [
            r.metrics for r in sequential.results
        ]
