"""Event-driven simulation: engine, traces, current profiles."""

from .batch import BatchItem, BatchOutcome, ScenarioBatch
from .engine import (
    ActualsProvider,
    DeadlineMiss,
    SimulationResult,
    Simulator,
    worst_case_actuals,
)
from .profile import CurrentProfile
from .state import Candidate, GraphStatus, JobState, SchedulerView
from .trace import IDLE, ExecutionTrace, TraceSegment
from .vector import VectorEngine

__all__ = [
    "Simulator",
    "SimulationResult",
    "DeadlineMiss",
    "BatchItem",
    "BatchOutcome",
    "ScenarioBatch",
    "VectorEngine",
    "ActualsProvider",
    "worst_case_actuals",
    "CurrentProfile",
    "ExecutionTrace",
    "TraceSegment",
    "IDLE",
    "JobState",
    "GraphStatus",
    "SchedulerView",
    "Candidate",
]
