"""Parallel experiment-campaign engine with deterministic seeding.

Turns the repo's scenario sweeps (paper tables/figures, ablations,
user-defined studies) into declarative spec lists executed by a
multiprocessing runner with per-scenario ``SeedSequence``-derived
seeds and an on-disk result cache keyed by spec content hash.
Results come back in spec order, so sequential and parallel execution
of the same campaign are bit-identical; aggregate them with
:class:`repro.api.ResultFrame`, whose reductions run in row order.

Quick start::

    from repro.api import ResultFrame
    from repro.campaign import (
        CampaignRunner, ResultCache, ScenarioSpec, spawn_seeds,
    )

    seeds = spawn_seeds(root_seed=0, n=20)
    specs = [
        ScenarioSpec(scheme=name, n_graphs=4, seed=s, battery="stochastic")
        for s in seeds
        for name in ("ccEDF", "BAS-2")
    ]
    campaign = CampaignRunner(n_workers=4, cache=ResultCache()).run(specs)
    frame = ResultFrame.from_results(campaign.results)
    print(frame.group_by("scheme").mean().format())
"""

from .cache import ResultCache, default_cache_dir
from .failures import (
    FailureInfo,
    FailureReport,
    QuarantinedSpec,
    backoff_delay,
)
from .registry import (
    NEAR_OPTIMAL,
    build_scheme,
    install_env_plugins,
    install_plugins,
    known_names,
    known_schemes,
    plugin_snapshot,
    register_battery,
    register_estimator,
    register_plugin,
    register_processor,
    register_scheme,
    resolve_battery,
    resolve_estimator,
    resolve_processor,
    unregister,
)
from .runner import (
    CampaignResult,
    CampaignRunner,
    SpecRunner,
    run_scenario_batch,
    run_spec,
    sample_bounded_dag,
)
from .spec import (
    ConstantLoadSpec,
    OneShotSpec,
    ScenarioResult,
    ScenarioSpec,
    SurvivalSpec,
    content_hash,
    spawn_seeds,
)

# Imported last: the distributed backend builds on runner/spec.
from .distributed import DistributedRunner  # noqa: E402

__all__ = [
    "CampaignResult",
    "CampaignRunner",
    "ConstantLoadSpec",
    "DistributedRunner",
    "FailureInfo",
    "FailureReport",
    "NEAR_OPTIMAL",
    "OneShotSpec",
    "QuarantinedSpec",
    "ResultCache",
    "ScenarioResult",
    "ScenarioSpec",
    "SpecRunner",
    "SurvivalSpec",
    "backoff_delay",
    "build_scheme",
    "content_hash",
    "default_cache_dir",
    "install_env_plugins",
    "install_plugins",
    "known_names",
    "known_schemes",
    "plugin_snapshot",
    "register_battery",
    "register_estimator",
    "register_plugin",
    "register_processor",
    "register_scheme",
    "resolve_battery",
    "resolve_estimator",
    "resolve_processor",
    "run_scenario_batch",
    "run_spec",
    "sample_bounded_dag",
    "spawn_seeds",
    "unregister",
]
