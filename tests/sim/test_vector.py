"""Vector engine: scalar equivalence, fallback contract, wiring.

The struct-of-arrays engine (:mod:`repro.sim.vector`) advances many
independent scenarios lock-step and must be *bit-identical* per
scenario to ``Simulator.run`` — same trace columns, same labels, same
misses, same release instants.  These tests pin that contract:

* every array-expressible configuration (NoDVS/static/ccEDF/laEDF over
  random/LTF/STF/pUBS priorities, either ready list, feasibility on or
  off, job-invariant or job-keyed stochastic actuals — the full Table 2
  grid) produces byte-for-byte the scalar result, over one hyperperiod
  and over several;
* everything else (subclassed components, phases, call-order-dependent
  actuals providers, custom estimators) falls back per scenario to
  the scalar engine — opportunistically, inside a mixed batch;
* the batch/campaign wiring (``ScenarioBatch``, ``run_scenario_batch``
  and the default ``CampaignRunner``, all on the vector engine)
  changes how work is driven, never what it produces.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimator import (
    HistoryEstimator,
    OracleEstimator,
    ScaledEstimator,
    WorstCaseEstimator,
)
from repro.core.methodology import SchedulingPolicy, paper_schemes
from repro.core.priority import LTF, PUBS, STF, RandomPriority
from repro.core.ready_list import ALL_RELEASED
from repro.dvs import CcEDF, LaEDF, NoDVS
from repro.dvs.static import StaticUtilization
from repro.errors import DeadlineMissError, SchedulingError
from repro.sim import BatchItem, ScenarioBatch, VectorEngine
from repro.sim.engine import Simulator
from repro.sim.vector import unsupported_reason
from repro.taskgraph.graph import TaskGraph, TaskNode
from repro.taskgraph.periodic import PeriodicTaskGraph, TaskGraphSet
from repro.workloads.generator import UniformActuals, paper_task_set

SMALL_MENU = (4.0, 5.0, 8.0, 10.0)  # hyperperiod 40


def harmonic_set():
    return TaskGraphSet(
        [
            PeriodicTaskGraph(
                TaskGraph(
                    "g1",
                    [TaskNode("a", 2.0), TaskNode("b", 1.5)],
                    [("a", "b")],
                ),
                8.0,
            ),
            PeriodicTaskGraph(TaskGraph("g2", [TaskNode("c", 1.0)]), 4.0),
        ]
    )


def overload_set():
    """One graph that can never meet its deadline (wcet > period)."""
    return TaskGraphSet(
        [PeriodicTaskGraph(TaskGraph("over", [TaskNode("a", 12.0)]), 10.0)]
    )


def build(proc, ts, dvs, priority, actuals=None, on_miss="record"):
    kw = {}
    if actuals is not None:
        kw["actuals"] = actuals
    return Simulator(
        ts, proc, dvs, SchedulingPolicy(priority), on_miss=on_miss, **kw
    )


def assert_bitwise(vec, scalar):
    """The vector result must be indistinguishable from the scalar one:
    exact counts/labels/misses and byte-for-byte trace columns."""
    assert vec.released_jobs == scalar.released_jobs
    assert vec.completed_jobs == scalar.completed_jobs
    assert vec.completed_nodes == scalar.completed_nodes
    assert [
        (m.graph, m.job_index, m.time, m.detected) for m in vec.misses
    ] == [
        (m.graph, m.job_index, m.time, m.detected) for m in scalar.misses
    ]
    np.testing.assert_array_equal(
        np.asarray(vec.release_times), np.asarray(scalar.release_times)
    )
    tv, ts_ = vec.trace, scalar.trace
    assert len(tv) == len(ts_)
    for col in ("starts", "durations", "speeds", "voltages", "currents"):
        np.testing.assert_array_equal(
            getattr(tv, col), getattr(ts_, col), err_msg=col
        )
    assert [tv._label_str(i) for i in tv.label_ids] == [
        ts_._label_str(i) for i in ts_.label_ids
    ]
    assert vec.charge == pytest.approx(scalar.charge, rel=1e-12)
    assert vec.energy == pytest.approx(scalar.energy, rel=1e-12)


#: Every (dvs, priority) pair the engine claims to express in array
#: form; ids name them in -k selections.
VECTOR_CONFIGS = [
    ("nodvs+random", lambda: (NoDVS(), RandomPriority(0))),
    ("ccedf+random", lambda: (CcEDF(), RandomPriority(0))),
    ("ccedf-graph+random",
     lambda: (CcEDF(granularity="graph"), RandomPriority(0))),
    ("nodvs+ltf", lambda: (NoDVS(), LTF())),
    ("ccedf+ltf", lambda: (CcEDF(), LTF())),
    ("static+stf", lambda: (StaticUtilization(), STF())),
    ("laedf+ltf", lambda: (LaEDF(), LTF())),
    ("laedf-graph+random",
     lambda: (LaEDF(granularity="graph"), RandomPriority(0))),
    ("laedf+pubs-history", lambda: (LaEDF(), PUBS(HistoryEstimator()))),
]

#: The widened eligible set: full scheduling policies (ready list +
#: feasibility + estimator-backed pUBS), exercised deterministically
#: and with job-dependent stochastic actuals.
WIDE_CONFIGS = [
    ("laedf+ltf+imminent", lambda: (LaEDF(), SchedulingPolicy(LTF()))),
    ("laedf+ltf+imminent-feas",
     lambda: (LaEDF(), SchedulingPolicy(LTF(), enforce_feasibility=True))),
    ("laedf-graph+stf+all-released",
     lambda: (LaEDF(granularity="graph"),
              SchedulingPolicy(STF(), ready_list=ALL_RELEASED))),
    ("laedf+ltf+all-released-nofeas",
     lambda: (LaEDF(),
              SchedulingPolicy(LTF(), ready_list=ALL_RELEASED,
                               enforce_feasibility=False))),
    ("bas1:laedf+pubs-history",
     lambda: (LaEDF(), SchedulingPolicy(PUBS(HistoryEstimator())))),
    ("bas2:laedf+pubs-history+all-released",
     lambda: (LaEDF(),
              SchedulingPolicy(PUBS(HistoryEstimator(window=4)),
                               ready_list=ALL_RELEASED))),
    ("ccedf+pubs-oracle+all-released",
     lambda: (CcEDF(),
              SchedulingPolicy(PUBS(OracleEstimator()),
                               ready_list=ALL_RELEASED))),
    ("laedf-graph+pubs-scaled",
     lambda: (LaEDF(granularity="graph"),
              SchedulingPolicy(PUBS(ScaledEstimator(0.6))))),
    ("static+pubs-worst+all-released",
     lambda: (StaticUtilization(),
              SchedulingPolicy(PUBS(WorstCaseEstimator()),
                               ready_list=ALL_RELEASED))),
    ("nodvs+random+all-released",
     lambda: (NoDVS(),
              SchedulingPolicy(RandomPriority(5),
                               ready_list=ALL_RELEASED))),
]


class TestVectorEquivalence:
    @pytest.mark.parametrize(
        "config",
        [c[1] for c in VECTOR_CONFIGS],
        ids=[c[0] for c in VECTOR_CONFIGS],
    )
    @pytest.mark.parametrize("long_horizon", [False, True])
    def test_harmonic_set_bitwise(self, proc, config, long_horizon):
        ts = harmonic_set()
        horizon = (4 if long_horizon else 1) * ts.hyperperiod()
        dvs, prio = config()
        sim = build(proc, ts, dvs, prio)
        assert unsupported_reason(sim, horizon) is None
        vec = VectorEngine([(sim, horizon)]).run()[0]
        dvs2, prio2 = config()
        scalar = build(proc, ts, dvs2, prio2).run(horizon)
        assert_bitwise(vec, scalar)

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        utilization=st.floats(min_value=0.4, max_value=0.95),
        fraction=st.floats(min_value=0.3, max_value=1.0),
        config=st.sampled_from(range(len(VECTOR_CONFIGS))),
    )
    def test_property_vector_vs_scalar(self, seed, utilization, fraction,
                                       config):
        """Any vectorizable paper scenario: vector == scalar in every
        column the paper's tables read."""
        from repro.processor.platform import paper_processor

        proc = paper_processor()
        ts = paper_task_set(
            2,
            utilization=utilization,
            n_tasks_range=(2, 5),
            period_menu=SMALL_MENU,
            seed=seed,
        )
        horizon = 3 * ts.hyperperiod()
        cfg = VECTOR_CONFIGS[config][1]

        def sim():
            dvs, prio = cfg()
            return build(
                proc, ts, dvs, prio,
                UniformActuals(low=fraction, high=fraction, seed=seed),
            )

        assert unsupported_reason(sim(), horizon) is None
        vec = VectorEngine([(sim(), horizon)]).run()[0]
        assert_bitwise(vec, sim().run(horizon))

    def test_many_scenarios_lock_step(self, proc):
        """A heterogeneous batch (different task sets, DVS kinds and
        horizons) matches per-scenario scalar runs element-wise."""
        def scenarios():
            out = []
            for seed in range(4):
                ts = paper_task_set(
                    1 + seed % 2,
                    utilization=0.5 + 0.1 * seed,
                    n_tasks_range=(2, 4),
                    period_menu=SMALL_MENU,
                    seed=seed,
                )
                dvs, prio = VECTOR_CONFIGS[seed % len(VECTOR_CONFIGS)][1]()
                actuals = UniformActuals(low=0.6, high=0.6, seed=seed)
                out.append(
                    (build(proc, ts, dvs, prio, actuals),
                     (2 + seed) * ts.hyperperiod())
                )
            return out

        vres = VectorEngine(scenarios()).run()
        for vec, (sim, h) in zip(vres, scenarios()):
            assert_bitwise(vec, sim.run(h))

    def test_miss_recording_parity(self, proc):
        """Overload: the vector engine records the same misses (graph,
        job, deadline instant, detection instant) as the scalar loop."""
        sim = build(proc, overload_set(), NoDVS(), LTF())
        vec = VectorEngine([(sim, 40.0)]).run()[0]
        scalar = build(proc, overload_set(), NoDVS(), LTF()).run(40.0)
        assert len(vec.misses) == 3
        assert_bitwise(vec, scalar)

    def test_miss_raise_parity(self, proc):
        """on_miss='raise' surfaces the identical DeadlineMissError."""
        with pytest.raises(DeadlineMissError) as scalar_err:
            build(proc, overload_set(), NoDVS(), LTF(),
                  on_miss="raise").run(40.0)
        with pytest.raises(DeadlineMissError) as vector_err:
            VectorEngine(
                [(build(proc, overload_set(), NoDVS(), LTF(),
                        on_miss="raise"), 40.0)]
            ).run()
        assert str(vector_err.value) == str(scalar_err.value)

    def test_raise_propagates_through_mixed_batch(self, proc):
        """A raising scenario aborts the batch even when healthy
        scenarios surround it, exactly like a sequential loop would."""
        scens = [
            (build(proc, harmonic_set(), NoDVS(), LTF()), 40.0),
            (build(proc, overload_set(), NoDVS(), LTF(),
                   on_miss="raise"), 40.0),
        ]
        with pytest.raises(DeadlineMissError):
            VectorEngine(scens).run()


class TestWideEquivalence:
    """Table 2's remaining rows: laEDF at both granularities, pUBS over
    either ready list with every registry estimator, the feasibility
    guard, and job-dependent stochastic actuals."""

    @staticmethod
    def _sim(proc, ts, config, actuals):
        dvs, policy = config()
        return Simulator(
            ts, proc, dvs, policy, actuals=actuals, on_miss="record"
        )

    @pytest.mark.parametrize(
        "config",
        [c[1] for c in WIDE_CONFIGS],
        ids=[c[0] for c in WIDE_CONFIGS],
    )
    @pytest.mark.parametrize("stochastic", [False, True],
                             ids=["invariant", "job-keyed"])
    def test_wide_configs_bitwise(self, proc, config, stochastic):
        ts = paper_task_set(
            2, n_tasks_range=(2, 5), period_menu=SMALL_MENU, seed=11
        )
        horizon = 3 * ts.hyperperiod()
        low, high = (0.2, 1.0) if stochastic else (0.6, 0.6)

        def sim():
            return self._sim(
                proc, ts, config,
                UniformActuals(low=low, high=high, seed=11),
            )

        assert unsupported_reason(sim(), horizon) is None
        vec = VectorEngine([(sim(), horizon)]).run()[0]
        assert_bitwise(vec, sim().run(horizon))

    def test_feasibility_rejections_bitwise(self, proc):
        """A ready list where LTF's favourite candidate genuinely fails
        Algorithm 2 (tight short-period work squeezed by a big far-
        deadline node): the guard must reject in the vector walk at the
        exact instants the scalar walk does."""
        import repro.core.methodology as methodology

        ts = TaskGraphSet([
            PeriodicTaskGraph(
                TaskGraph("tight", [TaskNode("a", 3.0)]), 4.0
            ),
            PeriodicTaskGraph(
                TaskGraph(
                    "lazy",
                    [TaskNode("big", 6.0), TaskNode("end", 1.0)],
                    [("big", "end")],
                ),
                40.0,
            ),
        ])

        def sim():
            return Simulator(
                ts, proc, NoDVS(),
                SchedulingPolicy(LTF(), ready_list=ALL_RELEASED),
                actuals=UniformActuals(low=1.0, high=1.0, seed=0),
                on_miss="record",
            )

        rejections = [0]
        orig = methodology.feasibility_check

        def spy(view, cand, s_ref):
            ok = orig(view, cand, s_ref)
            rejections[0] += not ok
            return ok

        methodology.feasibility_check = spy
        try:
            scalar = sim().run(80.0)
        finally:
            methodology.feasibility_check = orig
        assert rejections[0] > 0  # the guard actually bites here
        vec = VectorEngine([(sim(), 80.0)]).run()[0]
        assert_bitwise(vec, scalar)

    def test_paper_scheme_grid_fully_vectorized(self, proc):
        """A Table-2-shaped campaign (all five schemes, stochastic
        20-100% actuals) compiles with zero fallbacks and matches the
        scalar engine bitwise, scenario by scenario."""
        def scens():
            out = []
            for k, scheme in enumerate(paper_schemes()):
                ts = paper_task_set(
                    1 + k % 2, n_tasks_range=(2, 5),
                    period_menu=SMALL_MENU, seed=k,
                )
                dvs, policy = scheme.instantiate()
                out.append((
                    Simulator(
                        ts, proc, dvs, policy,
                        actuals=UniformActuals(
                            low=0.2, high=1.0, seed=k
                        ),
                        on_miss="record",
                    ),
                    2 * ts.hyperperiod(),
                ))
            return out

        eng = VectorEngine(scens())
        assert eng.n_fallback == 0
        assert eng.fallback_reasons == [None] * 5
        for vec, (sim, h) in zip(eng.run(), scens()):
            assert_bitwise(vec, sim.run(h))

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        low=st.floats(min_value=0.2, max_value=0.7),
        span=st.floats(min_value=0.05, max_value=0.3),
        config=st.sampled_from(range(len(WIDE_CONFIGS))),
    )
    def test_property_job_keyed_actuals(self, seed, low, span, config):
        """Genuinely job-dependent draws (low < high): the pre-drawn
        per-job tables must hand every job the value the scalar engine
        draws at its release instant, for any wide configuration."""
        from repro.processor.platform import paper_processor

        proc = paper_processor()
        ts = paper_task_set(
            2, n_tasks_range=(2, 4), period_menu=SMALL_MENU, seed=seed
        )
        horizon = 2 * ts.hyperperiod()
        actuals = UniformActuals(
            low=low, high=min(1.0, low + span), seed=seed
        )
        assert not actuals.job_invariant and actuals.job_keyed

        def sim():
            return self._sim(proc, ts, WIDE_CONFIGS[config][1], actuals)

        assert unsupported_reason(sim(), horizon) is None
        vec = VectorEngine([(sim(), horizon)]).run()[0]
        assert_bitwise(vec, sim().run(horizon))


class TestFallback:
    def test_subclassed_dvs_falls_back(self, proc):
        class TracingLaEDF(LaEDF):
            pass

        sim = build(proc, harmonic_set(), TracingLaEDF(), LTF())
        reason = unsupported_reason(sim, 40.0)
        assert reason is not None and "DVS algorithm" in reason

    def test_unkeyed_stochastic_provider_falls_back(self, proc):
        """A provider that is neither job-invariant nor hash-keyed may
        depend on call order, which pre-drawing would change."""
        class CallOrderDependent:
            def __call__(self, graph, node, job_index, wc):
                return 0.5 * wc

        sim = build(
            proc, harmonic_set(), NoDVS(), LTF(), CallOrderDependent()
        )
        assert unsupported_reason(sim, 40.0) == (
            "actuals neither job-invariant nor job-keyed"
        )

    def test_custom_estimator_falls_back(self, proc):
        class MyEstimator(WorstCaseEstimator):
            name = "custom"

        sim = Simulator(
            harmonic_set(), proc, LaEDF(),
            SchedulingPolicy(PUBS(MyEstimator())), on_miss="record",
        )
        reason = unsupported_reason(sim, 40.0)
        assert reason is not None and "estimator" in reason

    def test_preseeded_history_estimator_falls_back(self, proc):
        est = HistoryEstimator()
        est.observe("g1", "a", 2.0, 1.0)  # warm history precedes t=0
        sim = Simulator(
            harmonic_set(), proc, LaEDF(), SchedulingPolicy(PUBS(est)),
            on_miss="record",
        )
        assert unsupported_reason(sim, 40.0) == (
            "pre-seeded history estimator"
        )

    def test_oversized_predraw_table_falls_back(self, proc):
        """Job-keyed actuals are pre-drawn per job; a horizon releasing
        millions of jobs must decline before drawing anything."""
        sim = build(
            proc, harmonic_set(), NoDVS(), LTF(),
            UniformActuals(low=0.2, high=1.0, seed=3),
        )
        assert unsupported_reason(sim, 2.0e7) == (
            "per-job actuals table too large"
        )
        assert unsupported_reason(sim, 40.0) is None

    def test_phased_release_falls_back(self, proc):
        ts = TaskGraphSet(
            [PeriodicTaskGraph(
                TaskGraph("p", [TaskNode("a", 2.0)]), 10.0, phase=3.0
            )]
        )
        sim = build(proc, ts, NoDVS(), LTF())
        assert unsupported_reason(sim, 100.0) == "non-zero release phases"

    def test_subclassed_simulator_falls_back(self, proc):
        class Instrumented(Simulator):
            pass

        sim = Instrumented(
            harmonic_set(), proc, NoDVS(), SchedulingPolicy(LTF()),
            on_miss="record",
        )
        assert unsupported_reason(sim, 40.0) == "subclassed Simulator"

    def test_custom_ready_list_falls_back(self, proc):
        from repro.core.ready_list import ReadyListPolicy

        widest = ReadyListPolicy(
            "everything", ALL_RELEASED.candidates, True
        )
        sim = Simulator(
            harmonic_set(), proc, NoDVS(),
            SchedulingPolicy(LTF(), ready_list=widest),
            on_miss="record",
        )
        reason = unsupported_reason(sim, 40.0)
        assert reason is not None and "ready list" in reason

    def test_fallback_scenarios_still_run_and_match(self, proc):
        """Fallback is opportunistic: ineligible scenarios go through
        the scalar engine inside the same call, bit-identically."""
        class TracingLaEDF(LaEDF):
            pass

        class CallOrderDependent:
            def __call__(self, graph, node, job_index, wc):
                return 0.5 * wc

        def scens():
            return [
                (build(proc, harmonic_set(), NoDVS(), LTF()), 80.0),
                (build(
                    proc, harmonic_set(), TracingLaEDF(), LTF()
                ), 80.0),
                (build(
                    proc, harmonic_set(), CcEDF(), LTF(),
                    CallOrderDependent(),
                ), 80.0),
                (build(proc, harmonic_set(), CcEDF(), STF()), 80.0),
            ]

        eng = VectorEngine(scens())
        assert [r is None for r in eng.fallback_reasons] == [
            True, False, False, True
        ]
        vres = eng.run()
        for vec, (sim, h) in zip(vres, scens()):
            assert_bitwise(vec, sim.run(h))


class TestShapeAndWiring:
    def test_empty_vector_run_is_empty(self):
        """An empty vector run is a no-op sweep; the battery-carrying
        ScenarioBatch keeps rejecting empty batches."""
        assert VectorEngine([]).run() == []
        with pytest.raises(SchedulingError):
            ScenarioBatch([])

    def test_unknown_engine_rejected(self, proc):
        """There is one batch engine, so an engine keyword is an
        error, not silently ignored."""
        item = BatchItem(
            build(proc, harmonic_set(), NoDVS(), LTF()), 40.0
        )
        with pytest.raises(TypeError):
            ScenarioBatch([item], engine="turbo")

    def test_batch_engines_agree(self, proc):
        """ScenarioBatch (vector engine) == a per-scenario
        Simulator.run loop end to end, including the battery
        hand-off."""
        from repro.analysis.lifetime import evaluate_lifetime
        from repro.battery.kibam import KiBaM

        def items():
            return [
                BatchItem(
                    build(proc, harmonic_set(), CcEDF(), LTF()),
                    160.0,
                    battery=KiBaM(capacity=100.0, c=0.5, kp=0.01),
                ),
                BatchItem(
                    build(proc, harmonic_set(), NoDVS(), STF()), 160.0
                ),
            ]

        vector = ScenarioBatch(items()).run()
        for item, v in zip(items(), vector):
            s = item.simulator.run(item.horizon)
            assert_bitwise(v.result, s)
            profile = s.profile()
            np.testing.assert_array_equal(
                v.profile.durations, profile.durations
            )
            np.testing.assert_array_equal(
                v.profile.currents, profile.currents
            )
            if item.battery is None:
                assert v.battery_run is None
            else:
                run = evaluate_lifetime(s, item.battery).run
                assert v.battery_run.lifetime == run.lifetime


class TestCampaignWiring:
    def _specs(self):
        from repro.campaign import ScenarioSpec

        return [
            ScenarioSpec(
                scheme=scheme,
                n_graphs=1,
                utilization=0.7,
                actual_low=0.6,
                actual_high=0.6,
                seed=seed,
                on_miss="record",
            )
            for scheme in ("EDF", "ccEDF")
            for seed in (0, 1)
        ]

    def test_run_scenario_batch_vector_identical(self):
        from repro.campaign.runner import run_scenario_batch, run_spec

        specs = self._specs()
        stats = {}
        vector = run_scenario_batch(list(enumerate(specs)), stats=stats)
        assert stats["vector_fallbacks"] == 0
        assert [i for i, _ in vector] == list(range(len(specs)))
        for spec, (_, v) in zip(specs, vector):
            s = run_spec(spec)
            assert set(s.metrics) == set(v.metrics)
            for key, val in s.metrics.items():
                assert v.metrics[key] == val, key  # bitwise

    def test_runner_end_to_end_identity(self):
        from repro.campaign.runner import CampaignRunner, run_spec

        specs = self._specs()
        vector = CampaignRunner().run(specs)
        for spec, v in zip(specs, vector.results):
            assert run_spec(spec).metrics == v.metrics
