"""repro — reproduction of *Battery Aware Dynamic Scheduling for
Periodic Task Graphs* (Rao, Navet, Singhal, Kumar, Visweswaran;
WPDRTS/IPDPS 2006).

The library implements the paper's Battery-Aware Scheduling (BAS)
methodology end to end: task-graph workloads, a DVS-capable processor
with a battery-current model, EDF-family frequency setters (ccEDF,
laEDF), the pUBS priority function with the feasibility check, an
event-driven simulator, and four battery models (KiBaM, diffusion,
stochastic, Peukert) calibrated to the paper's AAA NiMH cell.

Quickstart::

    from repro import (
        paper_task_set, UniformActuals, paper_processor,
        paper_schemes, run_scheme, evaluate_lifetime,
        paper_cell_stochastic,
    )

    ts = paper_task_set(4, seed=1)
    actuals = UniformActuals(seed=1)
    proc = paper_processor()
    for scheme in paper_schemes():
        res = run_scheme(scheme, ts, proc, actuals, ts.hyperperiod())
        life = evaluate_lifetime(res, paper_cell_stochastic(seed=1), rebin=1.0)
        print(scheme.name, f"{life.lifetime_minutes:.1f} min")
"""

from .analysis import evaluate_lifetime
from .battery import (
    DiffusionBattery,
    KiBaM,
    PeukertBattery,
    StochasticKiBaM,
    paper_cell_diffusion,
    paper_cell_kibam,
    paper_cell_stochastic,
)
from .campaign import (
    CampaignResult,
    CampaignRunner,
    ResultCache,
    ScenarioResult,
    ScenarioSpec,
    run_spec,
    spawn_seeds,
)
from .core import (
    ALL_RELEASED,
    LTF,
    MOST_IMMINENT,
    PUBS,
    STF,
    HistoryEstimator,
    OracleEstimator,
    RandomPriority,
    Scheme,
    SchedulingPolicy,
    WorstCaseEstimator,
    feasibility_check,
    make_scheme,
    paper_schemes,
    run_one_shot,
    run_scheme,
)
from .dvs import CcEDF, LaEDF, NoDVS, StaticUtilization
from .multiproc import MultiprocResult, partition_task_set, run_partitioned
from .errors import (
    BatteryError,
    DeadlineMissError,
    ProfileError,
    ReproError,
    SchedulingError,
    TaskGraphError,
)
from .processor import (
    PAPER_TABLE,
    FrequencyTable,
    OperatingPoint,
    Processor,
    paper_processor,
)
from .sim import CurrentProfile, ExecutionTrace, SimulationResult, Simulator
from .taskgraph import (
    PeriodicTaskGraph,
    TaskGraph,
    TaskGraphSet,
    TaskNode,
    random_dag,
)
from .workloads import UniformActuals, fig5_set, paper_task_set

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # task graphs
    "TaskGraph",
    "TaskNode",
    "PeriodicTaskGraph",
    "TaskGraphSet",
    "random_dag",
    # processor
    "OperatingPoint",
    "FrequencyTable",
    "PAPER_TABLE",
    "Processor",
    "paper_processor",
    # dvs
    "NoDVS",
    "CcEDF",
    "LaEDF",
    "StaticUtilization",
    # core
    "RandomPriority",
    "LTF",
    "STF",
    "PUBS",
    "HistoryEstimator",
    "OracleEstimator",
    "WorstCaseEstimator",
    "MOST_IMMINENT",
    "ALL_RELEASED",
    "SchedulingPolicy",
    "Scheme",
    "make_scheme",
    "paper_schemes",
    "feasibility_check",
    "run_one_shot",
    "run_scheme",
    # sim
    "Simulator",
    "SimulationResult",
    "ExecutionTrace",
    "CurrentProfile",
    # battery
    "KiBaM",
    "DiffusionBattery",
    "StochasticKiBaM",
    "PeukertBattery",
    "paper_cell_kibam",
    "paper_cell_diffusion",
    "paper_cell_stochastic",
    # workloads
    "paper_task_set",
    "UniformActuals",
    "fig5_set",
    # multiprocessor extension
    "partition_task_set",
    "run_partitioned",
    "MultiprocResult",
    # campaign engine
    "CampaignResult",
    "CampaignRunner",
    "ResultCache",
    "ScenarioResult",
    "ScenarioSpec",
    "run_spec",
    "spawn_seeds",
    # analysis
    "evaluate_lifetime",
    # errors
    "ReproError",
    "TaskGraphError",
    "SchedulingError",
    "DeadlineMissError",
    "BatteryError",
    "ProfileError",
]
