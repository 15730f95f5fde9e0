"""ScenarioBatch: semantics-preserving batched simulation + battery."""

import numpy as np
import pytest

from repro.analysis.lifetime import evaluate_lifetime
from repro.battery.kibam import KiBaM
from repro.core.methodology import SchedulingPolicy
from repro.core.priority import LTF
from repro.dvs import CcEDF, NoDVS
from repro.errors import SchedulingError
from repro.sim import BatchItem, ScenarioBatch
from repro.sim.engine import Simulator
from repro.taskgraph.graph import TaskGraph, TaskNode
from repro.taskgraph.periodic import PeriodicTaskGraph, TaskGraphSet


def small_set(scale=1.0):
    return TaskGraphSet(
        [
            PeriodicTaskGraph(
                TaskGraph("g1", [TaskNode("a", 2.0 * scale)]), 8.0
            ),
            PeriodicTaskGraph(
                TaskGraph("g2", [TaskNode("b", 1.0 * scale)]), 4.0
            ),
        ]
    )


def sim(proc, ts=None, dvs=None):
    return Simulator(
        ts if ts is not None else small_set(),
        proc,
        dvs if dvs is not None else CcEDF(),
        SchedulingPolicy(LTF()),
        on_miss="record",
    )


def cell():
    return KiBaM(capacity=100.0, c=0.5, kp=0.01)


class TestBatchEquivalence:
    def test_outcomes_match_solo_runs_bitwise(self, proc):
        """The batch reproduces each scenario's solo pipeline
        exactly: same SimulationResult metrics, same battery run."""
        horizon = 80.0
        batch = ScenarioBatch(
            [
                BatchItem(sim(proc), horizon, battery=cell()),
                BatchItem(sim(proc, dvs=NoDVS()), horizon, battery=cell(),
                          rebin=1.0),
            ]
        )
        outcomes = batch.run()
        solo = [
            (sim(proc).run(horizon), None),
            (sim(proc, dvs=NoDVS()).run(horizon), 1.0),
        ]
        for out, (res, rebin) in zip(outcomes, solo):
            assert out.result.charge == res.charge  # bitwise
            assert out.result.energy == res.energy
            assert out.result.completed_jobs == res.completed_jobs
            ref = evaluate_lifetime(res, cell(), rebin=rebin).run
            assert out.battery_run.lifetime == ref.lifetime
            assert out.battery_run.delivered_charge == ref.delivered_charge


class TestBatchShape:
    def test_empty_batch_rejected(self):
        with pytest.raises(SchedulingError):
            ScenarioBatch([])

    def test_order_preserved_with_mixed_batteries(self, proc):
        horizon = 40.0
        items = [
            BatchItem(sim(proc), horizon),  # no battery
            BatchItem(sim(proc, dvs=NoDVS()), horizon, battery=cell()),
            BatchItem(sim(proc), horizon),  # no battery
        ]
        outcomes = ScenarioBatch(items).run()
        assert len(outcomes) == 3
        assert outcomes[0].battery_run is None
        assert outcomes[1].battery_run is not None
        assert outcomes[2].battery_run is None
        # Profiles belong to their own scenario.
        assert outcomes[1].result.energy != outcomes[0].result.energy

    def test_profile_is_merged_unrebinned(self, proc):
        horizon = 40.0
        out = ScenarioBatch(
            [BatchItem(sim(proc), horizon, battery=cell(), rebin=0.5)]
        ).run()[0]
        ref = sim(proc).run(horizon).profile()
        np.testing.assert_array_equal(out.profile.durations, ref.durations)
        np.testing.assert_array_equal(out.profile.currents, ref.currents)
