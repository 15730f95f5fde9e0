"""``repro.api`` — the stable public API for expressing experiments.

This package is the composable face of the whole reproduction: every
experiment — the paper's seven tables/figures, the ablations, and
anything you invent — is one :class:`StudyPlan` built from three
orthogonal pieces:

**Sweeps** (:mod:`repro.api.sweep`)
    Declare axes over spec fields instead of writing loops:
    cartesian ``grid``, paired ``zip``, ``conditional`` axes gated by
    a predicate, and a declarative seed rule (``spawn`` /
    ``offset`` / ``fixed``).  A sweep expands deterministically to
    the campaign-engine spec list, so sequential, pooled, and
    distributed execution are bit-identical and growing an axis
    reuses the content-hash result cache for every unchanged point.

**Result frames** (:mod:`repro.api.frame`)
    The result type of every study and campaign.  ``Study.run``
    returns a typed columnar :class:`ResultFrame` (struct-of-arrays:
    spec fields, meta axes, metrics; one row per spec) with
    deterministic ``group_by`` / ``pivot`` / ``mean_ci`` /
    ``normalize`` / ``to_csv`` / ``to_json``; build one from any
    campaign with :meth:`ResultFrame.from_results`.  Every reduction
    runs in row order, so a table is bit-identical across worker
    counts and backends.  Each paper artifact's rows are rendered
    straight from its frame.

**The registry** (:mod:`repro.campaign.registry`)
    Axis values are names resolved through the plugin registry.
    ``@register_scheme("myBAS")`` (and ``register_battery`` /
    ``register_processor`` / ``register_estimator``) records entries
    *declaratively* — import path + kwargs — so custom entries
    serialize across process boundaries and work under spawn-started
    pools and distributed fleets; ``load_entry_points`` discovers
    plugins advertised by installed packages.

Quick start::

    from repro.api import Study, StudyPlan, Sweep

    plan = StudyPlan(
        name="my-sweep",
        sweep=(
            Sweep("scenario", n_graphs=4, battery="stochastic")
            .grid(_rep=range(10))
            .grid(scheme=["ccEDF", "BAS-2"])
            .seed(mode="offset", root=0, terms={"_rep": 1})
        ),
        group_by=("scheme",),
        metrics=("lifetime_min", "delivered_mah"),
    )
    result = Study(plan, workers=4).run()
    print(result.format())                  # grouped summary
    result.frame.to_csv("sweep.csv")        # full typed frame

The paper's experiments ship as builtin plans
(:data:`repro.api.plans.PLAN_BUILDERS`; e.g.
``plans.table2_plan(n_sets=100)``), runnable from the CLI too:
``python -m repro study run table2``, ``python -m repro study run
plan.json``, ``python -m repro study axes``.  Plans serialize with
``StudyPlan.to_json``/``save`` and reload with :func:`load_plan`.
"""

from ..campaign.registry import (
    NEAR_OPTIMAL,
    known_names,
    known_schemes,
    load_entry_points,
    register_battery,
    register_estimator,
    register_processor,
    register_scheme,
    unregister,
)
from .frame import GroupedFrame, PivotTable, ResultFrame
from .results import Fig4Result, Fig5Result
from .study import Study, StudyPlan, StudyResult, load_plan
from .sweep import Axis, Condition, SeedRule, Sweep
from . import plans

__all__ = [
    "Axis",
    "Condition",
    "Fig4Result",
    "Fig5Result",
    "GroupedFrame",
    "NEAR_OPTIMAL",
    "PivotTable",
    "ResultFrame",
    "SeedRule",
    "Study",
    "StudyPlan",
    "StudyResult",
    "Sweep",
    "known_names",
    "known_schemes",
    "load_entry_points",
    "load_plan",
    "plans",
    "register_battery",
    "register_estimator",
    "register_processor",
    "register_scheme",
    "unregister",
]
