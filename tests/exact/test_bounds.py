"""Unit tests for precedence relaxation and the near-optimal bound."""

import pytest

from repro.exact.bounds import (
    near_optimal_run,
    near_optimal_sim,
    relax_precedence,
    relax_set,
)
from repro.workloads.generator import UniformActuals, paper_task_set


class TestRelax:
    def test_edges_removed(self, diamond):
        g = relax_precedence(diamond)
        assert g.edges() == ()
        assert len(g) == len(diamond)
        assert g.total_wcet == pytest.approx(diamond.total_wcet)

    def test_relax_set_preserves_periods(self, small_set):
        relaxed = relax_set(small_set)
        assert [p.period for p in relaxed] == [p.period for p in small_set]
        assert relaxed.utilization == pytest.approx(small_set.utilization)
        assert all(p.graph.edges() == () for p in relaxed)


class TestNearOptimalRun:
    def test_lower_or_equal_energy(self, proc):
        """The precedence-relaxed oracle-pUBS run must not use more
        energy than any constrained scheme on the same workload."""
        from repro import run_scheme
        from repro.core.methodology import paper_schemes

        ts = paper_task_set(3, utilization=0.85, seed=4)
        actuals = UniformActuals(seed=4)
        h = ts.hyperperiod()
        ref = near_optimal_run(ts, proc, h, actuals=actuals)
        assert not ref.misses
        for scheme in paper_schemes()[2:]:  # laEDF-based schemes
            res = run_scheme(scheme, ts, proc, actuals, h)
            assert ref.energy <= res.energy * 1.02  # small tolerance

    def test_executes_same_workload(self, proc):
        ts = paper_task_set(2, seed=6)
        actuals = UniformActuals(seed=6)
        ref = near_optimal_run(ts, proc, ts.hyperperiod(), actuals=actuals)
        assert ref.completed_jobs == ref.released_jobs

    def test_record_on_miss_reaches_the_simulator(self, proc):
        ts = paper_task_set(2, seed=6)
        h = ts.hyperperiod()
        sim = near_optimal_sim(
            ts, proc, actuals=UniformActuals(seed=6), on_miss="record"
        )
        assert sim.on_miss == "record"
        assert all(g.graph.edges() == () for g in sim.task_set)
        res = sim.run(h)
        assert not res.misses
        ref = near_optimal_run(ts, proc, h, actuals=UniformActuals(seed=6))
        assert res.energy == ref.energy
