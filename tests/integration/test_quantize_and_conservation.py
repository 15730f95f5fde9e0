"""End-to-end checks under the quantize-up speed policy, plus
workload-conservation properties of the engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import run_scheme
from repro.core.methodology import SchedulingPolicy, paper_schemes
from repro.core.priority import RandomPriority
from repro.dvs import CcEDF
from repro.processor.platform import paper_processor
from repro.sim.engine import Simulator
from repro.workloads.generator import UniformActuals, paper_task_set


class TestQuantizePolicy:
    @pytest.fixture(scope="class")
    def runs(self):
        proc = paper_processor(speed_policy="quantize")
        ts = paper_task_set(4, utilization=0.7, seed=17)
        actuals = UniformActuals(seed=17)
        return {
            s.name: run_scheme(s, ts, proc, actuals, ts.hyperperiod())
            for s in paper_schemes()
        }

    def test_no_misses(self, runs):
        for res in runs.values():
            assert not res.misses

    def test_only_discrete_speeds(self, runs):
        for res in runs.values():
            speeds = {
                round(s.speed, 6) for s in res.trace if not s.is_idle
            }
            assert speeds <= {0.5, 0.75, 1.0}

    def test_costs_at_least_the_mix(self, runs):
        """Quantize-up can only waste energy relative to the optimal
        two-level mix (Gaujal-Navet)."""
        proc_mix = paper_processor(speed_policy="mix")
        ts = paper_task_set(4, utilization=0.7, seed=17)
        actuals = UniformActuals(seed=17)
        for scheme in paper_schemes()[1:2]:  # ccEDF is the telling one
            mix_res = run_scheme(
                scheme, ts, proc_mix, actuals, ts.hyperperiod()
            )
            assert runs[scheme.name].energy >= mix_res.energy * 0.999

    def test_ordering_preserved(self, runs):
        assert runs["EDF"].energy > runs["ccEDF"].energy
        assert runs["ccEDF"].energy > runs["laEDF"].energy


class TestWorkloadConservation:
    @given(seed=st.integers(min_value=0, max_value=60))
    @settings(max_examples=10, deadline=None)
    def test_property_cycles_equal_actuals(self, seed):
        """Executed cycles over a hyperperiod equal the summed actual
        demands of completed jobs — the engine loses no work and
        invents none, for arbitrary workloads."""
        proc = paper_processor()
        ts = paper_task_set(3, utilization=0.7, seed=seed)
        actuals = UniformActuals(seed=seed)
        sim = Simulator(
            ts, proc, CcEDF(), SchedulingPolicy(RandomPriority(0)),
            actuals=actuals,
        )
        res = sim.run(ts.hyperperiod())
        expected = 0.0
        for p in ts:
            jobs = int(round(ts.hyperperiod() / p.period))
            for j in range(jobs):
                for node in p.graph:
                    expected += actuals(p.name, node.name, j, node.wcet)
        assert res.trace.executed_cycles() == pytest.approx(
            expected, rel=1e-6
        )
        assert res.completed_jobs == res.released_jobs

    @given(seed=st.integers(min_value=0, max_value=60))
    @settings(max_examples=8, deadline=None)
    def test_property_identical_workload_across_schemes(self, seed):
        """Every scheme executes exactly the same total cycles — the
        keyed actuals provider guarantees comparisons are apples to
        apples."""
        proc = paper_processor()
        ts = paper_task_set(3, utilization=0.7, seed=seed)
        actuals = UniformActuals(seed=seed)
        cycles = set()
        for scheme in paper_schemes():
            res = run_scheme(scheme, ts, proc, actuals, ts.hyperperiod())
            cycles.add(round(res.trace.executed_cycles(), 6))
        assert len(cycles) == 1
