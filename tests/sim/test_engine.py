"""Integration-grade unit tests for the event-driven simulator."""

import numpy as np
import pytest

from repro.core.methodology import SchedulingPolicy
from repro.core.priority import LTF, RandomPriority
from repro.dvs import CcEDF, LaEDF, NoDVS
from repro.errors import DeadlineMissError, SchedulingError
from repro.sim.engine import Simulator
from repro.taskgraph.graph import TaskGraph, TaskNode
from repro.taskgraph.periodic import PeriodicTaskGraph, TaskGraphSet
from repro.workloads.generator import UniformActuals, paper_task_set


def single_task_set(wc=5.0, period=10.0, name="T"):
    g = TaskGraph(name, [TaskNode("a", wc)])
    return TaskGraphSet([PeriodicTaskGraph(g, period)])


def run(ts, proc, dvs=None, policy=None, horizon=None, **kw):
    sim = Simulator(
        ts,
        proc,
        dvs if dvs is not None else NoDVS(),
        policy if policy is not None else SchedulingPolicy(RandomPriority(0)),
        **kw,
    )
    return sim.run(horizon if horizon is not None else ts.hyperperiod())


class TestBasicExecution:
    def test_single_task_no_dvs(self, proc):
        ts = single_task_set(wc=5.0, period=10.0)
        res = run(ts, proc)
        # One job, 5 cycles at speed 1 -> busy 5 s, idle 5 s.
        assert res.released_jobs == 1
        assert res.completed_jobs == 1
        assert res.trace.busy_time() == pytest.approx(5.0)
        assert res.trace.executed_cycles() == pytest.approx(5.0)
        assert not res.misses

    def test_horizon_respected(self, proc):
        ts = single_task_set(wc=5.0, period=10.0)
        res = run(ts, proc, horizon=35.0)
        assert res.trace.end_time == pytest.approx(35.0)
        assert res.released_jobs == 4  # t=0,10,20,30

    def test_rejects_bad_horizon(self, proc):
        ts = single_task_set()
        with pytest.raises(SchedulingError):
            run(ts, proc, horizon=0.0)

    def test_rejects_bad_on_miss(self, proc):
        ts = single_task_set()
        with pytest.raises(SchedulingError):
            Simulator(ts, proc, NoDVS(), SchedulingPolicy(LTF()), on_miss="x")

    def test_ccedf_stretches_execution(self, proc):
        """ccEDF at U=0.5 runs the task at half speed: busy 10 s."""
        ts = single_task_set(wc=5.0, period=10.0)
        res = run(ts, proc, dvs=CcEDF())
        assert res.trace.busy_time() == pytest.approx(10.0)
        assert res.trace.executed_cycles() == pytest.approx(5.0)

    def test_energy_ccedf_below_nodvs(self, proc):
        ts = single_task_set(wc=5.0, period=10.0)
        e_cc = run(ts, proc, dvs=CcEDF()).energy
        e_no = run(ts, proc, dvs=NoDVS()).energy
        assert e_cc < e_no

    def test_actuals_shorten_execution(self, proc):
        ts = single_task_set(wc=6.0, period=10.0)
        res = run(
            ts, proc, actuals=lambda g, n, j, wc: 0.5 * wc
        )
        assert res.trace.executed_cycles() == pytest.approx(3.0)


class TestPrecedence:
    def test_precedence_respected(self, proc, diamond):
        ts = TaskGraphSet([PeriodicTaskGraph(diamond, 20.0)])
        res = run(ts, proc)
        order = res.trace.node_order()
        pos = {lab: i for i, lab in enumerate(order)}
        for u, v in diamond.edges():
            assert pos[f"diamond.{u}"] < pos[f"diamond.{v}"]

    def test_all_nodes_complete(self, proc, diamond):
        ts = TaskGraphSet([PeriodicTaskGraph(diamond, 20.0)])
        res = run(ts, proc)
        assert res.completed_nodes == 4


class TestPreemption:
    def test_release_preempts_running_node(self, proc):
        """A long low-priority node is preempted by a short-period graph."""
        long_g = TaskGraph("long", [TaskNode("big", 20.0)])
        short_g = TaskGraph("short", [TaskNode("s", 2.0)])
        ts = TaskGraphSet(
            [
                PeriodicTaskGraph(long_g, 50.0),
                PeriodicTaskGraph(short_g, 10.0),
            ]
        )
        res = run(ts, proc, horizon=50.0)
        assert not res.misses
        # 'short' must run 5 times, interleaved within 'big'.
        labels = [s.label for s in res.trace.busy_segments()]
        assert labels.count("short.s") >= 5
        # 'big' appears, is interrupted, and resumes.
        big_positions = [i for i, l in enumerate(labels) if l == "long.big"]
        short_positions = [i for i, l in enumerate(labels) if l == "short.s"]
        assert min(big_positions) < max(short_positions)
        assert max(big_positions) > min(short_positions)

    def test_preempted_work_is_not_lost(self, proc):
        long_g = TaskGraph("long", [TaskNode("big", 20.0)])
        short_g = TaskGraph("short", [TaskNode("s", 2.0)])
        ts = TaskGraphSet(
            [
                PeriodicTaskGraph(long_g, 50.0),
                PeriodicTaskGraph(short_g, 10.0),
            ]
        )
        res = run(ts, proc, horizon=50.0)
        assert res.trace.executed_cycles() == pytest.approx(
            20.0 + 5 * 2.0
        )


class TestDeadlines:
    def test_overload_raises(self, proc):
        """U > 1 with worst-case actuals must miss and raise."""
        g = TaskGraph("over", [TaskNode("a", 12.0)])
        ts = TaskGraphSet([PeriodicTaskGraph(g, 10.0)])
        with pytest.raises(DeadlineMissError):
            run(ts, proc, horizon=40.0)

    def test_overload_recorded(self, proc):
        g = TaskGraph("over", [TaskNode("a", 12.0)])
        ts = TaskGraphSet([PeriodicTaskGraph(g, 10.0)])
        res = run(ts, proc, horizon=40.0, on_miss="record")
        assert len(res.misses) >= 1
        assert res.misses[0].graph == "over"

    def test_feasible_set_never_misses(self, proc):
        ts = paper_task_set(4, utilization=0.9, seed=5)
        res = run(
            ts,
            proc,
            dvs=LaEDF(),
            policy=SchedulingPolicy(RandomPriority(3)),
            actuals=UniformActuals(seed=5),
        )
        assert not res.misses


class TestIdleAccounting:
    def test_idle_segments_present(self, proc):
        ts = single_task_set(wc=2.0, period=10.0)
        res = run(ts, proc)
        idle_time = sum(s.duration for s in res.trace if s.is_idle)
        assert idle_time == pytest.approx(8.0)

    def test_idle_draws_idle_current(self, proc):
        ts = single_task_set(wc=2.0, period=10.0)
        res = run(ts, proc)
        for s in res.trace:
            if s.is_idle:
                assert s.current == pytest.approx(proc.idle_current())

    def test_mean_current(self, proc):
        ts = single_task_set(wc=5.0, period=10.0)
        res = run(ts, proc)
        expected = (5 * proc.current_at(1.0) + 5 * proc.idle_current()) / 10
        assert res.mean_current == pytest.approx(expected)


class TestTraceIntegrity:
    def test_contiguous_and_complete(self, proc):
        ts = paper_task_set(3, seed=9)
        res = run(
            ts, proc, dvs=CcEDF(),
            policy=SchedulingPolicy(RandomPriority(1)),
            actuals=UniformActuals(seed=9),
        )
        bounds = res.trace.to_profile(merge=False).boundaries()
        assert bounds[-1] == pytest.approx(res.horizon, rel=1e-9)

    def test_executed_cycles_match_actuals(self, proc):
        """Cycles executed equal the sum of per-job actual demands."""
        ts = single_task_set(wc=4.0, period=10.0)
        res = run(
            ts, proc, horizon=30.0,
            actuals=lambda g, n, j, wc: 0.5 * wc + 0.5 * j,
        )
        # Jobs 0,1,2 take 2.0, 2.5, 3.0 cycles.
        assert res.trace.executed_cycles() == pytest.approx(7.5)

    def test_deterministic_given_seeds(self, proc):
        ts = paper_task_set(3, seed=2)
        kw = dict(
            dvs=CcEDF(), policy=SchedulingPolicy(RandomPriority(0)),
            actuals=UniformActuals(seed=2),
        )
        r1 = run(ts, proc, **kw)
        kw2 = dict(
            dvs=CcEDF(), policy=SchedulingPolicy(RandomPriority(0)),
            actuals=UniformActuals(seed=2),
        )
        r2 = run(ts, proc, **kw2)
        assert r1.energy == pytest.approx(r2.energy, rel=1e-12)
        assert r1.charge == pytest.approx(r2.charge, rel=1e-12)


class TestGuideline1:
    def test_ccedf_locally_non_increasing(self, proc):
        """ccEDF keeps the current staircase non-increasing between
        releases (battery guideline 1) — the paper's §4.1 property."""
        ts = paper_task_set(3, seed=11)
        res = run(
            ts, proc, dvs=CcEDF(),
            policy=SchedulingPolicy(RandomPriority(1)),
            actuals=UniformActuals(seed=11),
        )
        assert res.guideline1_holds()

    def test_guideline2_no_idle_while_pending(self, proc):
        """The engine never idles while any released job is incomplete
        (guideline 2): every idle segment must end at a release or the
        horizon."""
        ts = paper_task_set(3, seed=13)
        res = run(
            ts, proc, dvs=CcEDF(),
            policy=SchedulingPolicy(RandomPriority(1)),
            actuals=UniformActuals(seed=13),
        )
        releases = set(np.round(res.release_times, 6))
        for s in res.trace:
            if s.is_idle:
                end = round(s.end, 6)
                assert end in releases or s.end == pytest.approx(
                    res.horizon
                )


def run_ltf(ts, proc, horizon, dvs=None):
    """NoDVS (or ``dvs``) + LTF, recording misses instead of raising."""
    return run(
        ts, proc, dvs, SchedulingPolicy(LTF()), horizon, on_miss="record"
    )


class TestExactReleaseClock:
    def test_release_times_match_closed_form(self, proc):
        """Releases are phase + j*period exactly, not an accumulated sum
        (0.1 summed ten times is 0.9999999999999999, not 1.0)."""
        ts = single_task_set(wc=0.02, period=0.1)
        res = run_ltf(ts, proc, 2.0)
        expected = np.array([j * 0.1 for j in range(20)])
        got = np.sort(np.asarray(res.release_times))
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)  # bitwise

    def test_no_drift_over_many_jobs(self, proc):
        ts = single_task_set(wc=0.02, period=0.1)
        res = run_ltf(ts, proc, 100.0)
        assert res.released_jobs == 1000
        assert res.completed_jobs == 1000
        assert not res.misses


class TestEpsilonScale:
    def test_large_magnitude_periods(self, proc):
        """At period ~1e8 an absolute 1e-9 epsilon is below one ulp of
        the time axis; the guards must scale with the task set."""
        period = 33333333.4  # not exactly representable
        ts = single_task_set(wc=0.4 * period, period=period)
        res = run_ltf(ts, proc, 4 * period)
        assert res.released_jobs == 4
        assert res.completed_jobs == 4
        assert not res.misses
        assert res.trace.end_time == pytest.approx(4 * period, rel=1e-12)

    def test_scale_invariance(self, proc):
        """The same workload at 1e7x the timescale behaves identically:
        same counts, proportionally scaled busy time."""
        scale = 1e7

        def results(s):
            g1 = TaskGraph("g1", [TaskNode("a", 2.0 * s)])
            g2 = TaskGraph("g2", [TaskNode("b", 1.0 * s)])
            ts = TaskGraphSet(
                [
                    PeriodicTaskGraph(g1, 8.0 * s),
                    PeriodicTaskGraph(g2, 4.0 * s),
                ]
            )
            return run_ltf(ts, proc, 5 * 8.0 * s, dvs=CcEDF())

        small, big = results(1.0), results(scale)
        assert big.released_jobs == small.released_jobs
        assert big.completed_jobs == small.completed_jobs
        assert big.misses == small.misses
        assert big.trace.busy_time() == pytest.approx(
            small.trace.busy_time() * scale, rel=1e-9
        )


class TestDeadlineMissSemantics:
    def test_miss_time_is_the_absolute_deadline(self, proc):
        """DeadlineMiss.time names the deadline that was missed;
        the detection instant is kept alongside as .detected."""
        ts = single_task_set(wc=12.0, period=10.0, name="over")
        res = run_ltf(ts, proc, 40.0)
        assert res.misses
        first = res.misses[0]
        assert first.graph == "over"
        assert first.job_index == 0
        assert first.time == 10.0  # job 0's absolute deadline, exactly
        assert first.detected >= first.time
        for m in res.misses:
            # Deadlines are release + period; detection cannot precede.
            assert m.time == pytest.approx((m.job_index + 1) * 10.0)
            assert m.detected >= m.time
