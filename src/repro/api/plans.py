"""The paper's tables, figures, and ablations as declarative plans.

Each builder returns a :class:`~repro.api.study.StudyPlan` whose
sweep expands to the paper artifact's spec list, plus a ``render``
hook printing the paper's rows from the result frame.  Run one with
``Study(plans.table2_plan(n_sets=100), workers=8).run()``; the
result's ``frame`` holds one row per spec and ``summary()`` the group
means the paper reports.

Scale parameters default to quick settings (pass the paper's full
scale when you have the minutes).  Builders accept registry *names*
only — callers holding live factory objects register them first (see
:mod:`repro.campaign.registry`).

:func:`fig4` and :func:`fig5` are single worked examples (two fixed
schedules each), not sweeps, so they run directly: there is nothing
for a campaign to parallelize or cache.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..analysis.tables import format_series, format_table
from ..campaign.registry import NEAR_OPTIMAL
from ..core.methodology import SchedulingPolicy
from ..core.oneshot import run_one_shot
from ..core.priority import LTF, STF, PriorityFunction
from ..core.ready_list import ALL_RELEASED, MOST_IMMINENT
from ..dvs import CcEDF
from ..errors import SchedulingError
from ..processor.platform import Processor, paper_processor
from ..sim.engine import Simulator
from ..workloads.presets import fig4_cases, fig4_pair, fig5_actuals, fig5_set
from .results import Fig4Result, Fig5Result
from .study import StudyPlan, StudyResult
from .sweep import Sweep

__all__ = [
    "PAPER_SCHEME_NAMES",
    "FIG6_SCHEME_NAMES",
    "PLAN_BUILDERS",
    "build_plan",
    "table1_plan",
    "table2_plan",
    "fig4",
    "fig5",
    "fig6_plan",
    "model_coherence_plan",
    "rate_capacity_plan",
    "ablation_estimator_plan",
    "ablation_freqset_plan",
    "ablation_dvs_plan",
    "ablation_feasibility_plan",
]

#: Table 2 scheme rows (campaign-registry names, paper order).
PAPER_SCHEME_NAMES: Tuple[str, ...] = (
    "EDF", "ccEDF", "laEDF", "BAS-1", "BAS-2"
)

#: Figure 6 ordering schemes (campaign-registry names; all use laEDF).
FIG6_SCHEME_NAMES: Tuple[str, ...] = (
    "random", "LTF", "pUBS-imminent", "pUBS-all"
)


# ----------------------------------------------------------------------
# Table 1 — single-DAG energy vs exhaustive optimal
# ----------------------------------------------------------------------
def table1_plan(
    *,
    sizes: Sequence[int] = tuple(range(5, 16)),
    graphs_per_size: int = 5,
    seed: int = 0,
    processor: str = "paper",
    utilization: float = 1.0,
    actual_range: Tuple[float, float] = (0.2, 1.0),
    edge_prob: float = 0.4,
    max_extensions: int = 200_000,
    n_random: int = 5,
) -> StudyPlan:
    """Table 1: Random / LTF / pUBS energy vs exhaustive optimal.

    One spawn-seeded :class:`~repro.campaign.spec.OneShotSpec` per
    (size, replicate) — sizes outermost, so enlarging
    ``graphs_per_size`` re-seeds every size, while adding sizes
    appends whole blocks.
    """
    lo, hi = actual_range
    sweep = (
        Sweep(
            "oneshot",
            edge_prob=edge_prob,
            utilization=utilization,
            actual_low=lo,
            actual_high=hi,
            max_extensions=max_extensions,
            n_random=n_random,
            processor=processor,
        )
        .grid(n_tasks=[int(n) for n in sizes])
        .grid(_rep=list(range(graphs_per_size)))
        .seed(mode="spawn", root=seed)
    )

    def render(res: StudyResult) -> str:
        return format_table(
            ["# of tasks", "Random", "LTF", "pUBS"],
            [
                [row["n_tasks"], row["random"], row["ltf"], row["pubs"]]
                for row in res.summary().to_rows()
            ],
            title=(
                "Table 1 — energy normalized w.r.t. optimal "
                f"(avg of {graphs_per_size} DAGs per size)"
            ),
        )

    return StudyPlan(
        name="table1",
        description="energy vs exhaustive optimal per DAG size",
        sweep=sweep,
        group_by=("n_tasks",),
        metrics=("random", "ltf", "pubs"),
        render=render,
    )


# ----------------------------------------------------------------------
# Table 2 — charge delivered and battery lifetime per scheme
# ----------------------------------------------------------------------
def table2_plan(
    *,
    n_sets: int = 5,
    n_graphs: int = 4,
    seed: int = 0,
    utilization: float = 0.7,
    battery: str = "stochastic",
    rebin: Optional[float] = 1.0,
    estimator: str = "history",
    schemes: Sequence[str] = PAPER_SCHEME_NAMES,
    processor: str = "paper",
) -> StudyPlan:
    """Table 2: five schemes' charge delivered and battery lifetime.

    Replicates are the outer axis with ``seed + rep`` seeding (shared
    by every scheme in a set, and copied to ``battery_seed``).
    """
    sweep = (
        Sweep(
            "scenario",
            n_graphs=n_graphs,
            utilization=utilization,
            battery=battery,
            estimator=estimator,
            processor=processor,
            rebin=rebin,
        )
        .grid(_rep=list(range(n_sets)))
        .grid(scheme=list(schemes))
        .seed(
            mode="offset",
            root=seed,
            terms={"_rep": 1},
            also=("battery_seed",),
        )
    )

    def render(res: StudyResult) -> str:
        means = res.summary().to_rows()
        table = format_table(
            ["Scheme", "Charge (mAh)", "Lifetime (min)"],
            [
                [row["scheme"], row["delivered_mah"], row["lifetime_min"]]
                for row in means
            ],
            title=(
                "Table 2 — battery performance at 70% utilization "
                f"(avg of {n_sets} taskgraph sets)"
            ),
            precision=1,
        )
        # The §6 improvement percentages, recomputed from this run.
        lifetime = {row["scheme"]: row["lifetime_min"] for row in means}
        claims = [
            f"BAS-2 lifetime {label}: "
            f"{(lifetime['BAS-2'] / lifetime[target] - 1.0) * 100.0:+.1f}%"
            for target, label in (
                ("ccEDF", "over ccEDF"),
                ("laEDF", "over laEDF"),
                ("EDF", "over no-DVS EDF"),
            )
            if target in lifetime and "BAS-2" in lifetime
        ]
        return table + "\n" + "\n".join(claims)

    return StudyPlan(
        name="table2",
        description="charge delivered + battery lifetime per scheme",
        sweep=sweep,
        group_by=("scheme",),
        metrics=("delivered_mah", "lifetime_min"),
        render=render,
    )


# ----------------------------------------------------------------------
# Figure 4 — LTF vs STF motivational example
# ----------------------------------------------------------------------
def fig4(*, processor: Optional[Processor] = None) -> Fig4Result:
    """Reproduce Figure 4: STF wins case 1, LTF wins case 2."""
    proc = processor if processor is not None else paper_processor()
    graph = fig4_pair()
    deadline = 10.0
    energies: Dict[str, Dict[str, float]] = {}
    traces: Dict[str, Dict[str, str]] = {}
    for case, actual in fig4_cases().items():
        energies[case] = {}
        traces[case] = {}
        for name, prio in (("LTF", LTF()), ("STF", STF())):
            res = run_one_shot(graph, deadline, proc, prio, actual)
            energies[case][name] = res.energy
            traces[case][name] = res.trace.render_ascii(until=deadline)
    return Fig4Result(energies=energies, traces=traces)


# ----------------------------------------------------------------------
# Figure 5 — canonical EDF vs pUBS + feasibility-check trace
# ----------------------------------------------------------------------
class _FixedGraphPriority(PriorityFunction):
    """Prefers tasks of graphs in a fixed order (the paper's assumed
    'taskgraph3 > taskgraph2 > taskgraph1' pUBS outcome)."""

    name = "fixed"

    def __init__(self, graph_order: Sequence[str]) -> None:
        self._rank = {g: i for i, g in enumerate(graph_order)}

    def order(self, candidates, oracle):
        return sorted(
            candidates,
            key=lambda c: (
                self._rank.get(c.graph_name, len(self._rank)),
                c.node,
            ),
        )


class _EDFPriority(PriorityFunction):
    """Canonical EDF: earliest absolute deadline first, stable within."""

    name = "EDF"

    def order(self, candidates, oracle):
        return sorted(
            candidates, key=lambda c: (c.deadline, c.graph_name, c.node)
        )


def fig5(*, processor: Optional[Processor] = None) -> Fig5Result:
    """Reproduce the Figure 5 trace example (horizon = 100 = D3).

    Both runs use ccEDF (U = 0.5 and every task takes its worst case,
    so fref is pinned at 0.5 fmax exactly as the paper states); the
    BAS run prefers T3 > T2 > T1 per the paper's assumed pUBS values
    and relies on the feasibility check to stay deadline-safe.
    """
    proc = processor if processor is not None else paper_processor()
    task_set = fig5_set()

    def run(priority: PriorityFunction, ready_list):
        sim = Simulator(
            task_set,
            proc,
            CcEDF(),
            SchedulingPolicy(priority, ready_list),
            actuals=fig5_actuals,
        )
        return sim.run(100.0)

    edf_res = run(_EDFPriority(), MOST_IMMINENT)
    bas_res = run(_FixedGraphPriority(["T3", "T2", "T1"]), ALL_RELEASED)
    return Fig5Result(
        edf_trace=edf_res.trace.render_ascii(until=100.0),
        bas_trace=bas_res.trace.render_ascii(until=100.0),
        edf_order=edf_res.trace.node_order(),
        bas_order=bas_res.trace.node_order(),
        edf_misses=len(edf_res.misses),
        bas_misses=len(bas_res.misses),
    )


# ----------------------------------------------------------------------
# Figure 6 — ordering schemes vs near-optimal, growing graph count
# ----------------------------------------------------------------------
def fig6_plan(
    *,
    graph_counts: Sequence[int] = (2, 3, 4, 5, 6),
    sets_per_point: int = 3,
    seed: int = 0,
    utilization: float = 0.7,
    horizon: Optional[float] = None,
    estimator: str = "oracle",
    processor: str = "paper",
) -> StudyPlan:
    """Figure 6: ordering-scheme energy normalized by the
    precedence-relaxed near-optimal run on the identical workload.

    The near-optimal reference rides in the scheme axis; a
    ``normalize`` post-op divides each row's energy by its
    (count, replicate) group's reference, then the reference rows are
    excluded.
    """
    sweep = (
        Sweep(
            "scenario",
            utilization=utilization,
            horizon=horizon,
            estimator=estimator,
            processor=processor,
        )
        .grid(n_graphs=[int(c) for c in graph_counts])
        .grid(_rep=list(range(sets_per_point)))
        .grid(scheme=[NEAR_OPTIMAL, *FIG6_SCHEME_NAMES])
        .seed(mode="offset", root=seed, terms={"n_graphs": 1000, "_rep": 1})
    )
    post = (
        {
            "op": "normalize",
            "value": "energy_j",
            "reference": {"scheme": NEAR_OPTIMAL},
            "within": ["n_graphs", "_rep"],
            "name": "energy_rel",
        },
        {"op": "exclude", "where": {"scheme": NEAR_OPTIMAL}},
    )

    def render(res: StudyResult) -> str:
        # Groups appear count by count, so each scheme's means line
        # up with ``graph_counts``.
        series: Dict[str, List[float]] = {
            name: [] for name in FIG6_SCHEME_NAMES
        }
        for row in res.summary().to_rows():
            series[row["scheme"]].append(row["energy_rel"])
        return format_series(
            "# taskgraphs",
            [int(c) for c in graph_counts],
            series,
            title=(
                "Figure 6 — energy normalized w.r.t. near-optimal "
                f"(precedence relaxed; avg of {sets_per_point} sets)"
            ),
        )

    return StudyPlan(
        name="fig6",
        description="ordering schemes vs near-optimal energy",
        sweep=sweep,
        post=post,
        group_by=("scheme", "n_graphs"),
        metrics=("energy_rel",),
        render=render,
    )


# ----------------------------------------------------------------------
# Figures 2-3 — KiBaM vs diffusion vs stochastic coherence
# ----------------------------------------------------------------------
#: Display label per battery registry name (coherence study).
_COHERENCE_MODELS: Tuple[Tuple[str, str], ...] = (
    ("KiBaM", "kibam"),
    ("diffusion", "diffusion"),
    ("stochastic", "stochastic:noise=0.05"),
    ("Peukert", "peukert"),
)

_COHERENCE_SHAPES: Tuple[Tuple[str, Tuple[float, ...]], ...] = (
    ("decreasing", (1.5, 1.0, 0.5)),
    ("mixed", (1.0, 1.5, 0.5)),
    ("increasing", (0.5, 1.0, 1.5)),
)


def model_coherence_plan(
    *,
    mean_current: float = 1.8,
    fill: float = 0.75,
) -> StudyPlan:
    """Figures 2-3: survival-scale ranking of load permutations, per
    battery model (guideline 1 coherence)."""
    from ..battery.calibrate import paper_cell_kibam

    step_t = fill * paper_cell_kibam().capacity / mean_current / 3.0
    shape_names = [name for name, _factors in _COHERENCE_SHAPES]
    currents = [
        tuple(f * mean_current for f in factors)
        for _name, factors in _COHERENCE_SHAPES
    ]
    display = {reg: disp for disp, reg in _COHERENCE_MODELS}
    sweep = (
        Sweep("survival", battery_seed=0)
        .grid(battery=[reg for _disp, reg in _COHERENCE_MODELS])
        .zip(
            _shape=shape_names,
            durations=[(step_t,) * 3] * len(shape_names),
            currents=currents,
        )
    )

    def render(res: StudyResult) -> str:
        # margins[model][i]: the largest multiplier by which shape i's
        # currents can be scaled with the battery still completing the
        # whole profile (guideline 1: non-increasing sustains the most).
        pivot = res.frame.pivot(
            "battery", "_shape", "survival_scale", agg="first"
        )
        margins = {
            display[reg]: pivot.cells[i].tolist()
            for i, reg in enumerate(pivot.row_labels)
        }
        table = format_series(
            "profile",
            list(pivot.column_labels),
            margins,
            title=(
                "Figures 2-3 — battery models agree on load-shape "
                "friendliness (max sustainable load scale)"
            ),
            precision=4,
        )
        # Do the recovery-aware models order the shapes identically?
        orders = {
            tuple(np.argsort(values))
            for model, values in margins.items()
            if model != "Peukert"
        }
        verdict = "yes" if len(orders) == 1 else "NO"
        return (
            table
            + f"\nkinetic/diffusion/stochastic rankings agree: {verdict}"
            + "\n(Peukert is permutation-blind: its column is flat)"
        )

    return StudyPlan(
        name="coherence",
        description="battery models agree on load-shape friendliness",
        sweep=sweep,
        group_by=("battery", "_shape"),
        metrics=("survival_scale",),
        render=render,
    )


# ----------------------------------------------------------------------
# Rate-capacity curve (the battery Figure 5)
# ----------------------------------------------------------------------
def rate_capacity_plan(
    *,
    currents: Sequence[float] = (0.1, 0.2, 0.5, 1.0, 2.0, 4.0, 8.0),
    models: Optional[Mapping[str, str]] = None,
) -> StudyPlan:
    """Load vs delivered capacity, one constant-current discharge per
    (model, current) — each a cacheable campaign scenario.

    ``models`` maps display label → battery registry name; defaults to
    the three calibrated paper cells.  The curve's extrapolated ends
    (maximum/available capacity) are closed-form KiBaM anchors,
    computed in the renderer.
    """
    entries: Tuple[Tuple[str, str], ...] = tuple(
        (models or {
            "KiBaM": "kibam",
            "diffusion": "diffusion",
            "stochastic": "stochastic",
        }).items()
    )
    display = {reg: disp for disp, reg in entries}
    swept = sorted(float(c) for c in currents)
    if not swept:
        raise SchedulingError("need at least one sweep current")
    sweep = (
        Sweep("constantload", battery_seed=0, max_time=1e8)
        .grid(battery=[reg for _disp, reg in entries])
        .grid(current=swept)
    )

    def render(res: StudyResult) -> str:
        from ..battery.calibrate import paper_cell_kibam
        from ..battery.ratecapacity import extrapolated_capacities

        delivered_mah = {
            display[reg]: [
                float(v) / 3.6
                for v in res.frame.filter(battery=reg).column("delivered_c")
            ]
            for _disp, reg in entries
        }
        max_c, avail_c = extrapolated_capacities(paper_cell_kibam())
        # Labelled in sweep (ascending) order — the order the
        # delivered columns are in.
        table = format_series(
            "I (A)",
            swept,
            delivered_mah,
            title="Load vs delivered capacity (mAh)",
            precision=1,
        )
        return (
            table
            + f"\nextrapolated maximum capacity:   "
            f"{max_c / 3.6:.0f} mAh (paper: 2000)"
            + f"\nextrapolated available capacity: "
            f"{avail_c / 3.6:.0f} mAh"
        )

    return StudyPlan(
        name="ratecapacity",
        description="load vs delivered capacity per battery model",
        sweep=sweep,
        group_by=("battery", "current"),
        metrics=("delivered_c", "lifetime_s"),
        render=render,
    )


# ----------------------------------------------------------------------
# Ablations
# ----------------------------------------------------------------------
def _ablation_render(
    title: str,
    factor: str,
    labels: Mapping,
    metric_label: str,
    notes: str = "",
):
    """A one-factor ablation table: one row per level of the plan's
    single ``group_by`` axis, showing the mean of its single metric."""

    def render(res: StudyResult) -> str:
        (axis,), (metric,) = res.plan.group_by, res.plan.metrics
        out = format_table(
            [factor, metric_label],
            [
                [labels[row[axis]], row[metric]]
                for row in res.summary().to_rows()
            ],
            title=title,
            precision=3,
        )
        return out + "\n" + notes if notes else out

    return render


def ablation_estimator_plan(
    *,
    n_sets: int = 3,
    n_graphs: int = 4,
    seed: int = 0,
    utilization: float = 0.9,
    processor: str = "paper",
) -> StudyPlan:
    """X_k estimate accuracy: worst-case → scaled → history → oracle
    (BAS-2 energy should fall with estimator quality)."""
    estimators = ("worst-case", "scaled", "history", "oracle")
    sweep = (
        Sweep(
            "scenario",
            scheme="BAS-2",
            n_graphs=n_graphs,
            utilization=utilization,
            processor=processor,
        )
        .grid(_rep=list(range(n_sets)))
        .grid(estimator=list(estimators))
        .seed(mode="offset", root=seed, terms={"_rep": 1})
    )
    return StudyPlan(
        name="ablation-estimator",
        description="pUBS estimate accuracy vs energy",
        sweep=sweep,
        group_by=("estimator",),
        metrics=("energy_j",),
        render=_ablation_render(
            "Ablation — pUBS estimate accuracy (BAS-2 energy, J)",
            "estimator",
            {e: e for e in estimators},
            "energy (J)",
        ),
    )


def ablation_freqset_plan(
    *,
    n_sets: int = 3,
    n_graphs: int = 4,
    seed: int = 0,
) -> StudyPlan:
    """Frequency-table granularity: the paper's 3 levels vs finer
    tables (gains should be modest — Gaujal-Navet)."""
    processors = {
        "freqset:levels=3": "3 levels (paper)",
        "freqset:levels=5": "5 levels",
        "freqset:levels=9": "9 levels",
    }
    sweep = (
        Sweep("scenario", scheme="BAS-2", n_graphs=n_graphs)
        .grid(_rep=list(range(n_sets)))
        .grid(processor=list(processors))
        .seed(mode="offset", root=seed, terms={"_rep": 1})
    )
    return StudyPlan(
        name="ablation-freqset",
        description="frequency-table granularity vs energy",
        sweep=sweep,
        group_by=("processor",),
        metrics=("energy_j",),
        render=_ablation_render(
            "Ablation — frequency-table granularity (BAS-2 energy, J)",
            "table",
            processors,
            "energy (J)",
        ),
    )


def ablation_dvs_plan(
    *,
    n_sets: int = 3,
    n_graphs: int = 4,
    seed: int = 0,
    processor: str = "paper",
) -> StudyPlan:
    """DVS algorithm × ready-list policy grid (§4's plug-and-play
    claim)."""
    grid = (
        "ccEDF+imminent",
        "ccEDF+all-released",
        "laEDF+imminent",
        "laEDF+all-released",
    )
    sweep = (
        Sweep(
            "scenario",
            n_graphs=n_graphs,
            estimator="history",
            processor=processor,
        )
        .grid(_rep=list(range(n_sets)))
        .grid(scheme=list(grid))
        .seed(mode="offset", root=seed, terms={"_rep": 1})
    )
    return StudyPlan(
        name="ablation-dvs",
        description="DVS algorithm x ready-list grid",
        sweep=sweep,
        group_by=("scheme",),
        metrics=("energy_j",),
        render=_ablation_render(
            "Ablation — DVS algorithm x ready list (pUBS energy, J)",
            "combination",
            {g: g for g in grid},
            "energy (J)",
        ),
    )


def ablation_feasibility_plan(
    *,
    n_sets: int = 5,
    n_graphs: int = 4,
    seed: int = 0,
    utilization: float = 0.92,
    actual_range: Tuple[float, float] = (0.6, 1.0),
    processor: str = "paper",
) -> StudyPlan:
    """Remove the Algorithm 2 guard from BAS-2 and count deadline
    misses (stressed regime; guarded must stay clean)."""
    lo, hi = actual_range
    variants = {"BAS-2": "guarded", "BAS-2/unguarded": "unguarded"}
    sweep = (
        Sweep(
            "scenario",
            n_graphs=n_graphs,
            utilization=utilization,
            estimator="history",
            processor=processor,
            actual_low=lo,
            actual_high=hi,
            on_miss="record",
        )
        .grid(_rep=list(range(n_sets)))
        .grid(scheme=list(variants))
        .seed(mode="offset", root=seed, terms={"_rep": 1})
    )
    return StudyPlan(
        name="ablation-feasibility",
        description="Algorithm 2 guard vs deadline misses",
        sweep=sweep,
        group_by=("scheme",),
        metrics=("misses",),
        render=_ablation_render(
            "Ablation — feasibility check (deadline misses per set)",
            "variant",
            variants,
            "misses",
            notes="guarded BAS-2 must show 0 misses; unguarded generally not.",
        ),
    )


#: Builtin plan builders, keyed by the names the study CLI accepts.
PLAN_BUILDERS = {
    "table1": table1_plan,
    "table2": table2_plan,
    "fig6": fig6_plan,
    "coherence": model_coherence_plan,
    "ratecapacity": rate_capacity_plan,
    "ablation-estimator": ablation_estimator_plan,
    "ablation-freqset": ablation_freqset_plan,
    "ablation-dvs": ablation_dvs_plan,
    "ablation-feasibility": ablation_feasibility_plan,
}


def build_plan(name: str, **overrides) -> StudyPlan:
    """Build a builtin plan by name with scale overrides."""
    try:
        builder = PLAN_BUILDERS[name]
    except KeyError:
        raise SchedulingError(
            f"unknown plan {name!r}; known: {sorted(PLAN_BUILDERS)}"
        ) from None
    return builder(**overrides)
