"""The paper's primary contribution: the Battery-Aware Scheduling core."""

from .estimator import (
    Estimator,
    HistoryEstimator,
    OracleEstimator,
    ScaledEstimator,
    WorstCaseEstimator,
)
from .feasibility import feasibility_check
from .methodology import (
    Scheme,
    SchedulingPolicy,
    make_scheme,
    paper_schemes,
    run_scheme,
)
from .oneshot import OneShotOracle, OneShotResult, evaluate_order, run_one_shot
from .priority import (
    LTF,
    PUBS,
    STF,
    PriorityFunction,
    RandomPriority,
    SpeedOracle,
)
from .ready_list import ALL_RELEASED, MOST_IMMINENT, ReadyListPolicy

__all__ = [
    "Estimator",
    "WorstCaseEstimator",
    "ScaledEstimator",
    "HistoryEstimator",
    "OracleEstimator",
    "PriorityFunction",
    "RandomPriority",
    "LTF",
    "STF",
    "PUBS",
    "SpeedOracle",
    "ReadyListPolicy",
    "MOST_IMMINENT",
    "ALL_RELEASED",
    "feasibility_check",
    "SchedulingPolicy",
    "Scheme",
    "make_scheme",
    "paper_schemes",
    "run_scheme",
    "OneShotResult",
    "OneShotOracle",
    "run_one_shot",
    "evaluate_order",
]
