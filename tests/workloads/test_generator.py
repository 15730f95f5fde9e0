"""Unit tests for the paper's workload generator and actuals provider."""

import pytest

from repro.errors import TaskGraphError
from repro.workloads.generator import (
    PERIOD_MENU,
    UniformActuals,
    paper_task_set,
)


class TestUniformActuals:
    def test_within_range(self):
        ua = UniformActuals(low=0.2, high=1.0, seed=0)
        for j in range(50):
            ac = ua("g", "n", j, 10.0)
            assert 2.0 <= ac <= 10.0

    def test_deterministic_per_key(self):
        ua = UniformActuals(seed=3)
        assert ua("g", "n", 5, 10.0) == ua("g", "n", 5, 10.0)

    def test_independent_of_call_order(self):
        a = UniformActuals(seed=3)
        b = UniformActuals(seed=3)
        _ = a("other", "x", 0, 1.0)  # extra call must not shift draws
        assert a("g", "n", 1, 10.0) == b("g", "n", 1, 10.0)

    def test_keys_decorrelated(self):
        ua = UniformActuals(seed=0)
        vals = {ua("g", "n", j, 10.0) for j in range(20)}
        assert len(vals) == 20

    def test_seed_changes_values(self):
        assert UniformActuals(seed=1)("g", "n", 0, 10.0) != (
            UniformActuals(seed=2)("g", "n", 0, 10.0)
        )

    def test_rejects_bad_range(self):
        with pytest.raises(TaskGraphError):
            UniformActuals(low=0.0)
        with pytest.raises(TaskGraphError):
            UniformActuals(low=0.8, high=0.5)
        with pytest.raises(TaskGraphError):
            UniformActuals(high=1.5)

    def test_degenerate_range(self):
        ua = UniformActuals(low=1.0, high=1.0, seed=0)
        assert ua("g", "n", 0, 7.0) == pytest.approx(7.0)

    def test_degenerate_uniform_opts_in(self):
        """Only ``low == high`` declares job-invariant draws (the
        vector engine then pre-draws one actual per node)."""
        assert UniformActuals(low=0.5, high=0.5, seed=0).job_invariant
        assert not UniformActuals(low=0.4, high=0.6, seed=0).job_invariant

    @pytest.mark.parametrize("seed", [0, 3, 2**31, 2**32 - 1])
    def test_draw_jobs_bitwise_matches_calls(self, seed):
        """The batched hash pipeline (SeedSequence mixing + PCG64 in
        array form) must reproduce the per-call draws exactly — the
        vector engine pre-draws whole job tables through it and pins
        bit-identical traces on top."""
        ua = UniformActuals(low=0.2, high=1.0, seed=seed)
        batch = ua.draw_jobs("g1", "sink", 64, 7.5)
        assert batch.shape == (64,)
        for j in range(64):
            assert batch[j] == ua("g1", "sink", j, 7.5)

    def test_draw_jobs_slow_path_seed(self):
        # A seed SeedSequence splits into two uint32 words takes the
        # per-call fallback; values still match exactly.
        ua = UniformActuals(low=0.2, high=1.0, seed=2**40 + 17)
        batch = ua.draw_jobs("g", "n", 8, 3.0)
        for j in range(8):
            assert batch[j] == ua("g", "n", j, 3.0)


class TestPaperTaskSet:
    def test_utilization_exact(self):
        for u in (0.5, 0.7, 0.95):
            ts = paper_task_set(4, utilization=u, seed=1)
            assert ts.utilization == pytest.approx(u)

    def test_periods_from_menu_scale(self):
        ts = paper_task_set(5, seed=2)
        menu = set(PERIOD_MENU)
        assert all(p.period in menu for p in ts)

    def test_hyperperiod_bounded(self):
        ts = paper_task_set(8, seed=3)
        assert ts.hyperperiod() <= 400.0 + 1e-6

    def test_node_counts_in_range(self):
        ts = paper_task_set(6, n_tasks_range=(5, 15), seed=4)
        assert all(5 <= len(p.graph) <= 15 for p in ts)

    def test_reproducible(self):
        a = paper_task_set(3, seed=9)
        b = paper_task_set(3, seed=9)
        assert [p.period for p in a] == [p.period for p in b]
        assert [p.graph.total_wcet for p in a] == pytest.approx(
            [p.graph.total_wcet for p in b]
        )

    def test_rejects_bad_args(self):
        with pytest.raises(TaskGraphError):
            paper_task_set(0)
        with pytest.raises(TaskGraphError):
            paper_task_set(3, utilization=0.0)
        with pytest.raises(TaskGraphError):
            paper_task_set(3, period_menu=[])

    def test_per_graph_utilization_below_one(self):
        ts = paper_task_set(6, utilization=0.95, seed=5)
        assert all(p.utilization < 1.0 for p in ts)
