"""Unit tests for the paper's workload generator and actuals provider."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TaskGraphError
from repro.workloads import generator
from repro.workloads.generator import (
    PERIOD_MENU,
    UniformActuals,
    paper_task_set,
)

#: Graph/node names; the second branch keeps only names whose crc32
#: key is >= 2**31, so both halves of the uint32 key range are drawn.
_NAMES = st.one_of(
    st.text(max_size=10),
    st.text(min_size=1, max_size=10).filter(
        lambda s: zlib.crc32(s.encode()) >= 2**31
    ),
)
_WCETS = st.floats(min_value=1e-3, max_value=1e6)


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
        """The keyed hash pipeline (SeedSequence mixing + PCG64 in
        array form) must reproduce the per-call draws exactly — the
        vector engine pre-draws whole job tables through it and pins
        bit-identical traces on top."""
        ua = UniformActuals(low=0.2, high=1.0, seed=seed)
        # crc32 keys on both sides of 2**31 (the int32 sign bit).
        assert zlib.crc32(b"g1") < 2**31 <= zlib.crc32(b"g2")
        batch = ua.draw_keyed([("g1", "sink", 64, 7.5), ("g2", "a", 3, 2.0)])
        assert batch.shape == (67,)
        for j in range(64):
            assert batch[j] == ua("g1", "sink", j, 7.5)
        for j in range(3):
            assert batch[64 + j] == ua("g2", "a", j, 2.0)

    def test_draw_jobs_slow_path_seed(self):
        # A seed SeedSequence splits into two uint32 words takes the
        # per-call fallback; values still match exactly.
        ua = UniformActuals(low=0.2, high=1.0, seed=2**40 + 17)
        batch = ua.draw_keyed([("g", "n", 8, 3.0), ("h", "m", 1, 1.0)])
        for j in range(8):
            assert batch[j] == ua("g", "n", j, 3.0)
        assert batch[8] == ua("h", "m", 0, 1.0)

    def test_draw_keyed_big_endian_fallback(self, monkeypatch):
        """On a big-endian host the uint64 word pairing would differ,
        so the draw takes the per-call path."""
        ua = UniformActuals(low=0.3, high=0.9, seed=5)
        expected = [ua("g", "n", j, 4.0) for j in range(5)]
        monkeypatch.setattr(generator.sys, "byteorder", "big")
        assert ua.draw_keyed([("g", "n", 5, 4.0)]).tolist() == expected

    def test_draw_keyed_empty_table(self):
        ua = UniformActuals(seed=1)
        assert ua.draw_keyed([]).shape == (0,)
        assert ua.draw_keyed([("g", "n", 0, 1.0)]).shape == (0,)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        rows=st.lists(
            st.tuples(_NAMES, _NAMES, st.integers(1, 3), _WCETS),
            min_size=1,
            max_size=6,
        ),
        low=st.floats(min_value=0.05, max_value=1.0),
    )
    def test_draw_keyed_matches_calls_property(self, seed, rows, low):
        """Random seeds, names (crc32 keys on both sides of 2**31),
        WCETs and tables of 1-3 jobs per node: the keyed table equals
        the per-call draws, draw for draw."""
        ua = UniformActuals(low=low, high=1.0, seed=seed)
        expected = [
            ua(graph, node, j, wc)
            for graph, node, n, wc in rows
            for j in range(n)
        ]
        assert ua.draw_keyed(rows).tolist() == expected

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        graph=_NAMES,
        node=_NAMES,
        jobs=st.lists(
            st.integers(min_value=0, max_value=2**32 - 1),
            min_size=1,
            max_size=8,
        ),
        wc=_WCETS,
    )
    def test_keyed_kernel_any_job_index(self, seed, graph, node, jobs, wc):
        """The keyed kernel at arbitrary uint32 job indices (not just a
        table's 0..n-1) against ``__call__``."""
        ua = UniformActuals(low=0.2, high=1.0, seed=seed)
        n = len(jobs)
        u = generator._batch_uniform01(
            seed,
            np.full(n, zlib.crc32(graph.encode()), dtype=np.uint32),
            np.full(n, zlib.crc32(node.encode()), dtype=np.uint32),
            np.array(jobs, dtype=np.uint32),
        )
        got = (wc * (ua.low + (ua.high - ua.low) * u)).tolist()
        assert got == [ua(graph, node, j, wc) for j in jobs]

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
