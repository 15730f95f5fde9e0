"""The Battery-Aware Scheduling methodology (§4) and the paper's schemes.

A :class:`SchedulingPolicy` combines the three pluggable pieces the
paper identifies:

1. a DVS frequency setter (built separately, see :mod:`repro.dvs`);
2. a priority function over the ready list;
3. a ready-list policy, with the feasibility check guarding
   out-of-EDF-order picks.

:class:`Scheme` bundles a policy with a DVS-factory under a table-ready
name; :func:`paper_schemes` returns the five rows of Table 2 (EDF,
ccEDF, laEDF, BAS-1, BAS-2), and :func:`run_scheme` simulates one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..dvs import CcEDF, FrequencySetter, LaEDF, NoDVS
from ..errors import SchedulingError
from ..processor.platform import Processor
from ..sim.engine import SimulationResult, Simulator
from ..sim.state import Candidate, SchedulerView
from .estimator import Estimator, HistoryEstimator
from .feasibility import feasibility_check
from .priority import PUBS, PriorityFunction, RandomPriority, SpeedOracle
from .ready_list import ALL_RELEASED, MOST_IMMINENT, ReadyListPolicy

__all__ = [
    "SchedulingPolicy",
    "Scheme",
    "paper_schemes",
    "make_scheme",
    "run_scheme",
]


class SchedulingPolicy:
    """Priority function + ready-list policy (+ feasibility guard).

    Parameters
    ----------
    priority:
        Ranks the ready list.
    ready_list:
        Which tasks form the ready list.
    enforce_feasibility:
        Apply the Algorithm 2 check to out-of-EDF-order candidates.
        Defaults to the ready-list policy's requirement; disabling it on
        the all-released list is *unsafe* and exists only for the
        ablation that demonstrates why the check is needed.
    """

    def __init__(
        self,
        priority: PriorityFunction,
        ready_list: ReadyListPolicy = MOST_IMMINENT,
        *,
        enforce_feasibility: Optional[bool] = None,
    ) -> None:
        self.priority = priority
        self.ready_list = ready_list
        self.enforce_feasibility = (
            ready_list.needs_feasibility_check
            if enforce_feasibility is None
            else bool(enforce_feasibility)
        )

    # ------------------------------------------------------------------
    def select(
        self,
        view: SchedulerView,
        s_ref: float,
        oracle: Optional[SpeedOracle],
    ) -> Optional[Candidate]:
        """The task to run now, or None if nothing is ready.

        Candidates are scanned in priority order; with the feasibility
        guard on, the first candidate passing Algorithm 2 wins (a
        candidate of the most imminent graph always passes, so a choice
        always exists whenever work is pending).
        """
        candidates = self.ready_list.candidates(view)
        if not candidates:
            return None
        ordered = self.priority.order(candidates, oracle)
        if len(ordered) != len(candidates):
            raise SchedulingError(
                f"priority function {self.priority.name!r} dropped or "
                f"duplicated candidates"
            )
        if not self.enforce_feasibility:
            return ordered[0]
        for cand in ordered:
            if feasibility_check(view, cand, s_ref):
                return cand
        raise SchedulingError(
            "no feasible candidate found — the most-imminent graph's "
            "candidates must always pass; this indicates s_ref <= 0 "
            f"(got {s_ref!r}) with pending work"
        )

    # Estimator plumbing -------------------------------------------------
    def observe_completion(
        self, graph: str, node: str, wc: float, ac: float
    ) -> None:
        """Forward completion observations to an estimating priority."""
        estimator = getattr(self.priority, "estimator", None)
        if isinstance(estimator, Estimator):
            estimator.observe(graph, node, wc, ac)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SchedulingPolicy(priority={self.priority.name}, "
            f"ready_list={self.ready_list.name}, "
            f"feasibility={self.enforce_feasibility})"
        )


@dataclass(frozen=True)
class Scheme:
    """A named (DVS algorithm, scheduling policy) combination.

    Factories are stored (not instances) because both pieces carry
    per-run mutable state; :meth:`instantiate` yields fresh objects.
    """

    name: str
    dvs_factory: Callable[[], FrequencySetter]
    policy_factory: Callable[[], SchedulingPolicy]
    description: str = ""

    def instantiate(self) -> Tuple[FrequencySetter, SchedulingPolicy]:
        return self.dvs_factory(), self.policy_factory()


def make_scheme(
    name: str,
    *,
    dvs: Callable[[], FrequencySetter],
    priority: Callable[[], PriorityFunction],
    ready_list: ReadyListPolicy = MOST_IMMINENT,
    enforce_feasibility: Optional[bool] = None,
    description: str = "",
) -> Scheme:
    """Convenience constructor mirroring Table 2's scheme columns."""
    return Scheme(
        name=name,
        dvs_factory=dvs,
        policy_factory=lambda: SchedulingPolicy(
            priority(), ready_list, enforce_feasibility=enforce_feasibility
        ),
        description=description,
    )


def paper_schemes(
    *,
    estimator_factory: Callable[[], Estimator] = HistoryEstimator,
    random_seed: int = 0,
    baseline_granularity: str = "graph",
) -> List[Scheme]:
    """The five schemes of Table 2, in the paper's row order.

    ===========  =========  ===========  ============
    Scheme       DVS algo   Priority     Ready list
    ===========  =========  ===========  ============
    EDF          none       random       most imminent
    ccEDF        ccEDF      random       most imminent
    laEDF        laEDF      random       most imminent
    BAS-1        laEDF      pUBS         most imminent
    BAS-2        laEDF      pUBS         all released
    ===========  =========  ===========  ============

    The baseline ccEDF/laEDF rows reclaim slack at *graph* granularity
    (the task-level algorithms of Pillai & Shin handed whole graphs as
    monolithic EDF tasks — node completions invisible), while the BAS
    rows run the paper's Algorithm 1 machinery at *node* granularity.
    This is the reading of "extended to handle task graphs" that
    matches the paper's reported per-scheme currents; pass
    ``baseline_granularity="node"`` to give the baselines node-level
    reclamation too (an ablation, not the paper's table).
    """
    return [
        make_scheme(
            "EDF",
            dvs=NoDVS,
            priority=lambda: RandomPriority(random_seed),
            ready_list=MOST_IMMINENT,
            description="EDF without DVS, random intra-graph order",
        ),
        make_scheme(
            "ccEDF",
            dvs=lambda: CcEDF(granularity=baseline_granularity),
            priority=lambda: RandomPriority(random_seed),
            ready_list=MOST_IMMINENT,
            description="cycle-conserving EDF, random intra-graph order",
        ),
        make_scheme(
            "laEDF",
            dvs=lambda: LaEDF(granularity=baseline_granularity),
            priority=lambda: RandomPriority(random_seed),
            ready_list=MOST_IMMINENT,
            description="look-ahead EDF, random intra-graph order",
        ),
        make_scheme(
            "BAS-1",
            dvs=LaEDF,
            priority=lambda: PUBS(estimator_factory()),
            ready_list=MOST_IMMINENT,
            description="laEDF + pUBS over the most imminent graph",
        ),
        make_scheme(
            "BAS-2",
            dvs=LaEDF,
            priority=lambda: PUBS(estimator_factory()),
            ready_list=ALL_RELEASED,
            description="laEDF + pUBS over all released graphs "
            "(feasibility-checked)",
        ),
    ]


def run_scheme(
    scheme: Scheme,
    task_set,
    processor: Processor,
    actuals,
    horizon: float,
    *,
    on_miss: str = "raise",
) -> SimulationResult:
    """Instantiate a scheme freshly and simulate one window."""
    dvs, policy = scheme.instantiate()
    sim = Simulator(
        task_set, processor, dvs, policy, actuals=actuals, on_miss=on_miss
    )
    return sim.run(horizon)
