"""The fault-injection matrix: containment across every execution path.

Seeded :class:`repro.faults.FaultPlan`s drive {poison spec, hang,
corrupt cache entry, dropped result, dropped ack} through {local pool,
directory queue, TCP queue}, asserting three invariants everywhere:

* quarantine is exact — precisely the poisoned indices land in the
  :class:`~repro.campaign.failures.FailureReport`, with structured
  tracebacks;
* survivors are bit-identical to a clean sequential run — containment
  never perturbs healthy results;
* a zero-fault run through the contained code path is bit-identical
  to the plain fast path.

Worker *crashes* (SIGKILL, unobservable from inside) are exercised by
the chaos harness (``test_chaos.py`` and the chaos-marked acceptance
test at the bottom); a ``kind="kill"`` rule must never run inline in
the test process.
"""

import threading
import time

import numpy as np
import pytest

from repro import faults
from repro.campaign import (
    CampaignRunner,
    ResultCache,
    ScenarioSpec,
    spawn_seeds,
)
from repro.campaign.distributed import (
    DirectoryBroker,
    DistributedRunner,
    TCPBroker,
    run_directory_worker,
    run_tcp_worker,
)
from repro.campaign.distributed.protocol import atomic_write_json
from repro.campaign.failures import (
    FailureInfo,
    FailureReport,
    QuarantinedSpec,
    backoff_delay,
    spec_deadline,
)
from repro.errors import SchedulingError, SpecFailure, SpecTimeout

TIMEOUT = 120.0

#: Knobs every distributed test runs with: tight poll, short leases.
DIST_KW = dict(
    poll=0.02,
    lease_timeout=2.0,
    result_timeout=TIMEOUT,
    chunk_size=2,
)
#: Worker heartbeat faster than the short lease, for runner fleets.
RUNNER_KW = dict(heartbeat=0.25, **DIST_KW)


@pytest.fixture(autouse=True)
def _disarm():
    """No fault plan leaks across tests, pass or fail."""
    yield
    faults.uninstall()


def make_specs(n=4, seed=0):
    return [
        ScenarioSpec(scheme="ccEDF", seed=s, n_graphs=2)
        for s in spawn_seeds(seed, n)
    ]


_REFERENCE = {}


def reference_metrics(n=4, seed=0):
    """Clean sequential metrics, computed once per spec shape.

    Computed with any armed plan suspended, so the reference itself
    can never be poisoned (re-arming resets fire counters, which is
    fine: callers only compare after their campaign finished)."""
    if (n, seed) not in _REFERENCE:
        plan = faults.active_plan()
        faults.uninstall()
        try:
            campaign = CampaignRunner(1).run(make_specs(n, seed))
        finally:
            if plan is not None:
                faults.install(plan)
        _REFERENCE[(n, seed)] = [r.metrics for r in campaign.results]
    return _REFERENCE[(n, seed)]


def assert_survivors_identical(campaign, quarantined, n=4, seed=0):
    """Non-quarantined results match the clean sequential run
    bit-for-bit, in campaign order."""
    expected = [
        m
        for i, m in enumerate(reference_metrics(n, seed))
        if i not in quarantined
    ]
    assert [r.metrics for r in campaign.results] == expected


# ----------------------------------------------------------------------
# Plan validation and firing semantics
# ----------------------------------------------------------------------
class TestFaultRuleValidation:
    def test_unknown_point_rejected(self):
        with pytest.raises(SchedulingError, match="unknown fault point"):
            faults.FaultRule(point="spec.exeggcute", kind="error")

    def test_kind_must_match_point(self):
        with pytest.raises(SchedulingError, match="not valid at"):
            faults.FaultRule(point="cache.put", kind="hang")

    def test_probability_bounds(self):
        with pytest.raises(SchedulingError, match="probability"):
            faults.FaultRule(
                point="spec.execute", kind="error", probability=1.5
            )

    def test_plan_json_roundtrip(self):
        plan = faults.FaultPlan(
            rules=(
                faults.FaultRule(
                    point="spec.execute",
                    kind="error",
                    indices=(1, 3),
                    message="poison",
                ),
                faults.FaultRule(
                    point="transport.result",
                    kind="drop",
                    probability=0.25,
                    max_fires=2,
                ),
            ),
            seed=99,
        )
        assert faults.FaultPlan.from_json(plan.to_json()) == plan

    def test_plan_file_roundtrip(self, tmp_path):
        plan = faults.FaultPlan(
            rules=(faults.FaultRule(point="cache.put", kind="corrupt"),),
            seed=7,
        )
        path = tmp_path / "plan.json"
        plan.save(path)
        assert faults.FaultPlan.load(path) == plan

    def test_load_rejects_garbage(self, tmp_path):
        bad = tmp_path / "plan.json"
        bad.write_text("not json{")
        with pytest.raises(SchedulingError, match="not valid JSON"):
            faults.FaultPlan.load(bad)
        with pytest.raises(SchedulingError, match="cannot read"):
            faults.FaultPlan.load(tmp_path / "missing.json")


class TestFiring:
    def test_disarmed_is_inert(self):
        assert faults.active_plan() is None
        assert faults.fire("spec.execute", 0) is None
        assert faults.fired_counts() == {}

    def test_error_rule_raises_on_matching_index(self):
        faults.install(
            faults.FaultPlan(
                rules=(
                    faults.FaultRule(
                        point="spec.execute", kind="error", indices=(2,)
                    ),
                ),
            )
        )
        assert faults.fire("spec.execute", 0) is None
        with pytest.raises(faults.InjectedFault):
            faults.fire("spec.execute", 2)
        assert faults.fired_counts() == {"spec.execute": 1}

    def test_max_fires_caps_per_process(self):
        faults.install(
            faults.FaultPlan(
                rules=(
                    faults.FaultRule(
                        point="transport.result", kind="drop", max_fires=2
                    ),
                ),
            )
        )
        actions = [faults.fire("transport.result", i) for i in range(5)]
        assert actions == ["drop", "drop", None, None, None]

    def test_probability_pattern_is_seeded(self):
        plan = faults.FaultPlan(
            rules=(
                faults.FaultRule(
                    point="transport.result", kind="drop", probability=0.5
                ),
            ),
            seed=42,
        )

        def pattern():
            faults.install(plan)
            try:
                return [
                    faults.fire("transport.result", i) for i in range(32)
                ]
            finally:
                faults.uninstall()

        first, second = pattern(), pattern()
        assert first == second
        assert "drop" in first and None in first  # genuinely mixed

    def test_corrupt_text_is_not_json(self):
        mangled = faults.corrupt_text('{"a": 1, "b": 2}')
        assert "\x00" in mangled
        with pytest.raises(ValueError):
            import json

            json.loads(mangled)


# ----------------------------------------------------------------------
# Backoff and the execution watchdog
# ----------------------------------------------------------------------
class TestBackoff:
    def test_deterministic_per_seed_and_attempt(self):
        assert backoff_delay(123, 2) == backoff_delay(123, 2)
        assert backoff_delay(123, 2) != backoff_delay(124, 2)
        assert backoff_delay(123, 2) != backoff_delay(123, 3)

    def test_jittered_exponential_envelope(self):
        for attempt in range(1, 6):
            raw = 0.05 * 2 ** (attempt - 1)
            delay = backoff_delay(7, attempt)
            assert 0.5 * raw <= delay < raw

    def test_capped(self):
        assert backoff_delay(7, 50, cap=0.25) <= 0.25

    def test_attempt_zero_is_free(self):
        assert backoff_delay(7, 0) == 0.0


class TestRetryBudget:
    @pytest.mark.parametrize(
        "knobs",
        [
            dict(max_retries=-1),
            dict(spec_timeout=0),
            dict(on_error="bogus"),
        ],
        ids=["max_retries", "spec_timeout", "on_error"],
    )
    @pytest.mark.parametrize("backend", ["local", "dist"])
    def test_bad_knobs_rejected_at_construction(
        self, tmp_path, backend, knobs
    ):
        with pytest.raises(SchedulingError):
            if backend == "local":
                CampaignRunner(**knobs)
            else:
                DistributedRunner(workdir=tmp_path, **knobs)

    @pytest.mark.parametrize(
        "on_error, last",
        [("raise", "exhausted"), ("quarantine", "quarantined")],
    )
    def test_charge_retries_then_gives_its_verdict(self, on_error, last):
        from repro.campaign.failures import RETRY, RetryBudget

        spec = make_specs(1)[0]
        late = FailureInfo(exc_type="SpecTimeout", message="late")
        budget = RetryBudget(max_retries=1, on_error=on_error)
        report, attempts = FailureReport(), {}
        first = budget.charge(report, attempts, 3, spec, late)
        assert first.kind == RETRY
        assert first.delay == backoff_delay(spec.seed, 1)
        assert budget.charge(report, attempts, 3, spec, late).kind == last
        assert attempts == {3: 2}
        assert (report.retries, report.timeouts) == (1, 2)
        assert report.quarantined_indices == (
            (3,) if on_error == "quarantine" else ()
        )


class TestSpecDeadline:
    def test_interrupts_overdue_block(self):
        with pytest.raises(SpecTimeout, match="deadline"):
            with spec_deadline(0.1, what="test block"):
                time.sleep(5.0)

    def test_none_and_zero_disable(self):
        for seconds in (None, 0, 0.0):
            with spec_deadline(seconds):
                pass

    def test_noop_off_main_thread(self):
        outcome = {}

        def worker():
            try:
                with spec_deadline(0.05):
                    time.sleep(0.2)
                outcome["ok"] = True
            except BaseException as exc:  # pragma: no cover
                outcome["exc"] = exc

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10.0)
        assert outcome == {"ok": True}


# ----------------------------------------------------------------------
# Local pool containment
# ----------------------------------------------------------------------
class TestLocalFaults:
    def test_poison_specs_quarantined_survivors_identical(self):
        specs = make_specs(4)
        faults.install(
            faults.FaultPlan(
                rules=(
                    faults.FaultRule(
                        point="spec.execute",
                        kind="error",
                        indices=(1, 3),
                        message="poison",
                    ),
                ),
            )
        )
        campaign = CampaignRunner(
            2, max_retries=1, on_error="quarantine"
        ).run(specs)
        report = campaign.failures
        assert report is not None
        assert report.quarantined_indices == (1, 3)
        assert report.retries == 2  # one retry each before giving up
        for q in report.quarantined:
            assert q.failure.exc_type == "InjectedFault"
            assert "poison" in q.failure.message
            assert q.attempts == 2
            assert q.failure.traceback_text  # structured provenance
        assert campaign.telemetry["quarantined"] == 2
        assert campaign.telemetry["retried"] == 2
        assert_survivors_identical(campaign, {1, 3})

    def test_default_policy_still_raises(self):
        faults.install(
            faults.FaultPlan(
                rules=(
                    faults.FaultRule(
                        point="spec.execute", kind="error", indices=(0,)
                    ),
                ),
            )
        )
        with pytest.raises(SpecFailure):
            CampaignRunner(1).run(make_specs(2))

    def test_hang_contained_by_spec_timeout(self):
        specs = make_specs(3)
        faults.install(
            faults.FaultPlan(
                rules=(
                    faults.FaultRule(
                        point="spec.execute",
                        kind="hang",
                        indices=(1,),
                        delay_s=30.0,
                    ),
                ),
            )
        )
        campaign = CampaignRunner(
            1, spec_timeout=1.0, on_error="quarantine"
        ).run(specs)
        report = campaign.failures
        assert report is not None
        assert report.quarantined_indices == (1,)
        assert report.timeouts >= 1
        assert report.quarantined[0].failure.exc_type == "SpecTimeout"
        assert_survivors_identical(campaign, {1}, n=3)

    def test_retry_budget_recovers_transient_fault(self):
        specs = make_specs(2)
        faults.install(
            faults.FaultPlan(
                rules=(
                    faults.FaultRule(
                        point="spec.execute",
                        kind="error",
                        indices=(0,),
                        max_fires=1,  # transient: fails once, then fine
                    ),
                ),
            )
        )
        campaign = CampaignRunner(
            1, max_retries=2, on_error="quarantine"
        ).run(specs)
        assert campaign.failures is not None
        assert campaign.failures.quarantined_indices == ()
        assert campaign.failures.retries == 1
        assert_survivors_identical(campaign, set(), n=2)

    def test_corrupt_cache_entry_heals_as_miss(self, tmp_path):
        specs = make_specs(1)
        cache = ResultCache(tmp_path)
        faults.install(
            faults.FaultPlan(
                rules=(
                    faults.FaultRule(
                        point="cache.put", kind="corrupt", max_fires=1
                    ),
                ),
            )
        )
        first = CampaignRunner(1, cache=cache).run(specs)
        faults.uninstall()
        # The stored entry is mangled: reads miss instead of crashing.
        assert cache.get(specs[0]) is None
        second = CampaignRunner(1, cache=cache).run(specs)
        assert second.telemetry["cache_hits"] == 0  # recomputed
        assert second.results[0].metrics == first.results[0].metrics
        # The healthy rewrite is a real hit now.
        assert cache.get(specs[0]) is not None

    def test_zero_fault_contained_run_bit_identical(self):
        specs = make_specs(4)
        contained = CampaignRunner(
            2, max_retries=2, spec_timeout=60.0, on_error="quarantine"
        ).run(specs)
        assert contained.failures is None
        assert contained.telemetry["retried"] == 0
        assert contained.telemetry["quarantined"] == 0
        assert [r.metrics for r in contained.results] == (
            reference_metrics(4)
        )


# ----------------------------------------------------------------------
# Distributed containment (subprocess fleets arm the plan from env)
# ----------------------------------------------------------------------
class TestDirectoryFaults:
    def test_poison_specs_quarantined(self, tmp_path):
        specs = make_specs(4)
        faults.install(
            faults.FaultPlan(
                rules=(
                    faults.FaultRule(
                        point="spec.execute",
                        kind="error",
                        indices=(2,),
                        message="poison",
                    ),
                ),
            )
        )
        runner = DistributedRunner(
            workdir=tmp_path,
            n_local_workers=2,
            max_retries=1,
            on_error="quarantine",
            **RUNNER_KW,
        )
        try:
            campaign = runner.run(specs)
        finally:
            runner.close()
        report = campaign.failures
        assert report is not None
        assert report.quarantined_indices == (2,)
        assert report.quarantined[0].failure.exc_type == "InjectedFault"
        assert campaign.telemetry["quarantined"] == 1
        assert_survivors_identical(campaign, {2})

    def test_dropped_result_requeued_and_completed(self, tmp_path):
        specs = make_specs(4)
        faults.install(
            faults.FaultPlan(
                rules=(
                    faults.FaultRule(
                        point="transport.result",
                        kind="drop",
                        max_fires=1,  # each worker loses its first result
                    ),
                ),
            )
        )
        runner = DistributedRunner(
            workdir=tmp_path, n_local_workers=2, **RUNNER_KW
        )
        try:
            campaign = runner.run(specs)
        finally:
            runner.close()
        # Lost results come back via lease expiry, never as retries.
        assert campaign.failures is None
        assert campaign.requeued >= 1
        assert_survivors_identical(campaign, set())

    def test_hang_contained_in_subprocess_worker(self, tmp_path):
        specs = make_specs(3)
        faults.install(
            faults.FaultPlan(
                rules=(
                    faults.FaultRule(
                        point="spec.execute",
                        kind="hang",
                        indices=(0,),
                        delay_s=30.0,
                    ),
                ),
            )
        )
        runner = DistributedRunner(
            workdir=tmp_path,
            n_local_workers=1,
            spec_timeout=1.5,
            on_error="quarantine",
            **RUNNER_KW,
        )
        try:
            campaign = runner.run(specs)
        finally:
            runner.close()
        report = campaign.failures
        assert report is not None
        assert report.quarantined_indices == (0,)
        assert report.quarantined[0].failure.exc_type == "SpecTimeout"
        assert_survivors_identical(campaign, {0}, n=3)


class TestTCPFaults:
    def test_poison_specs_quarantined(self):
        specs = make_specs(4)
        faults.install(
            faults.FaultPlan(
                rules=(
                    faults.FaultRule(
                        point="spec.execute",
                        kind="error",
                        indices=(1,),
                        message="poison",
                    ),
                ),
            )
        )
        runner = DistributedRunner(
            listen=("127.0.0.1", 0),
            n_local_workers=2,
            max_retries=1,
            on_error="quarantine",
            **RUNNER_KW,
        )
        try:
            campaign = runner.run(specs)
        finally:
            runner.close()
        report = campaign.failures
        assert report is not None
        assert report.quarantined_indices == (1,)
        assert_survivors_identical(campaign, {1})

    def test_dropped_ack_deduped_by_index(self):
        specs = make_specs(4)
        faults.install(
            faults.FaultPlan(
                rules=(
                    faults.FaultRule(
                        point="transport.ack", kind="drop", max_fires=1
                    ),
                ),
            )
        )
        runner = DistributedRunner(
            listen=("127.0.0.1", 0), n_local_workers=2, **RUNNER_KW
        )
        try:
            campaign = runner.run(specs)
        finally:
            runner.close()
        # The broker holds the outcome; the reconnecting worker's
        # requeued lease remainder dedups by index — every scenario
        # lands exactly once, bit-identical.
        assert campaign.failures is None
        assert_survivors_identical(campaign, set())


# ----------------------------------------------------------------------
# Worker health scoring
# ----------------------------------------------------------------------
class TestWorkerHealth:
    def test_directory_broker_retires_at_threshold(self, tmp_path):
        broker = DirectoryBroker(tmp_path, health_threshold=3)
        try:
            broker._note_worker("w1", 1)  # error outcome
            assert broker.retired_workers == set()
            broker._note_worker("w1", 2)  # stale lease / crash
            assert broker.retired_workers == {"w1"}
            assert broker.workdir.is_retired("w1")
            assert broker.telemetry["retired"] == 1
            assert broker.worker_health["w1"] == 3
        finally:
            broker.close()

    def test_threshold_none_never_retires(self, tmp_path):
        broker = DirectoryBroker(tmp_path)  # health scoring off
        try:
            for _ in range(10):
                broker._note_worker("w1", 2)
            assert broker.retired_workers == set()
            assert not broker.workdir.is_retired("w1")
        finally:
            broker.close()

    def test_tcp_broker_marks_retired(self):
        broker = TCPBroker(port=0, health_threshold=2)
        try:
            broker._note_worker("tok", 2)
            assert broker.retired_workers == {"tok"}
            assert "tok" in broker._state.retired
            assert broker.telemetry["retired"] == 1
        finally:
            broker.close()

    def test_anonymous_worker_not_scored(self, tmp_path):
        broker = DirectoryBroker(tmp_path, health_threshold=1)
        try:
            broker._note_worker("", 2)  # an outcome naming no worker
            assert broker.retired_workers == set()
            assert broker.worker_health == {}
        finally:
            broker.close()


    @pytest.mark.parametrize("index", [0, None])
    @pytest.mark.parametrize("transport", ["directory", "tcp"])
    def test_string_error_outcome_is_a_corrupt_payload(
        self, tmp_path, transport, index
    ):
        """A bare-string ``error`` (the retired protocol-v2 shape) is
        not a spec failure, and a ``null`` index is no index: on either
        transport the broker charges the sending worker the
        corrupt-payload weight and requeues the index if it names one.
        Over TCP the session survives to send more."""
        from repro.campaign.distributed.worker import _BrokerSession

        spec = ScenarioSpec(scheme="EDF", seed=1)
        outcome = {"index": index, "error": "boom", "worker": "w1"}
        if transport == "directory":
            broker = DirectoryBroker(tmp_path)
            broker.submit([(0, spec)])
            backlog = broker.workdir.backlog
            atomic_write_json(
                broker.workdir.results / "garbled.json",
                dict(outcome, job=broker.job),
            )
        else:
            broker = TCPBroker(port=0)
            broker.submit([(0, spec)])
            state = broker._state

            def backlog():
                with state.lock:
                    return sum(len(chunk) for chunk in state.pending)

            session = _BrokerSession(*broker.address, worker="w1")
            ack = session.request(
                {"op": "outcome", "outcome": dict(outcome, job=broker.job)}
            )
            assert ack == {"op": "ok", "held": False}
        try:
            queued = backlog()
            assert list(broker.step(0.0)) == []
            assert broker.worker_health == {"w1": 2}
            requeued = 0 if index is None else 1
            assert broker.requeued_total == requeued
            assert backlog() == queued + requeued
            assert broker.failure_report.retries == 0
            assert not broker.failure_report.quarantined
            assert not broker.done
            if transport == "tcp":
                assert session.request({"op": "heartbeat"}) == {"op": "ok"}
                session.close()
        finally:
            broker.close()


class TestBrokerBackstop:
    @pytest.mark.parametrize("transport", ["directory", "tcp"])
    def test_healthy_chunk_tail_is_not_charged(self, tmp_path, transport):
        """The backstop times a unit from when it became active, not
        from when its chunk was leased: eight 0.3 s units in one chunk
        outlast the 2 s grace of a 0.5 s deadline, yet none is late.
        The worker runs on a thread, where its own watchdog cannot
        arm, so only the broker's backstop is in play."""
        specs = make_specs(8)
        faults.install(
            faults.FaultPlan(
                rules=(
                    faults.FaultRule(
                        point="spec.execute", kind="hang", delay_s=0.3
                    ),
                ),
            )
        )
        options = dict(
            poll=0.02, chunk_size=8, spec_timeout=0.5, result_timeout=TIMEOUT
        )
        if transport == "directory":
            broker = DirectoryBroker(tmp_path, **options)
            serve, address = run_directory_worker, (tmp_path,)
        else:
            broker = TCPBroker(port=0, **options)
            serve, address = run_tcp_worker, broker.address
        broker.submit(list(enumerate(specs)))
        worker = threading.Thread(
            target=serve,
            args=address,
            kwargs=dict(poll=0.02, idle_timeout=TIMEOUT, heartbeat=0.1),
            daemon=True,
        )
        worker.start()
        try:
            collected = dict(broker.outcomes())
        finally:
            broker.close()
            worker.join(timeout=10.0)
        assert broker.failure_report.timeouts == 0
        assert sorted(collected) == list(range(8))
        assert [collected[i].metrics for i in range(8)] == (
            reference_metrics(8)
        )


# ----------------------------------------------------------------------
# FailureReport plumbing
# ----------------------------------------------------------------------
class TestFailureReport:
    def sample(self):
        return FailureReport(
            quarantined=[
                QuarantinedSpec(
                    index=3,
                    spec_hash="abc123",
                    attempts=2,
                    failure=FailureInfo(
                        exc_type="InjectedFault",
                        message="poison",
                        traceback_text="Traceback ...",
                        retryable=True,
                    ),
                )
            ],
            retries=4,
            timeouts=1,
        )

    def test_json_roundtrip(self):
        report = self.sample()
        again = FailureReport.from_json(report.to_json())
        assert again.quarantined == report.quarantined
        assert again.retries == report.retries
        assert again.timeouts == report.timeouts

    def test_file_roundtrip(self, tmp_path):
        report = self.sample()
        path = tmp_path / "failures.json"
        report.save(path)
        assert FailureReport.load(path).to_json() == report.to_json()

    def test_bool_and_merge(self):
        empty = FailureReport()
        assert not empty
        report = self.sample()
        assert report
        empty.merge(report)
        assert empty.quarantined_indices == (3,)
        assert empty.retries == 4 and empty.timeouts == 1

    def test_failure_info_rehydrates_timeout(self):
        info = FailureInfo(exc_type="SpecTimeout", message="late")
        exc = info.to_exception()
        assert isinstance(exc, SpecTimeout)
        assert isinstance(exc, SpecFailure)


# ----------------------------------------------------------------------
# The acceptance demo: everything at once, under process chaos
# ----------------------------------------------------------------------
@pytest.mark.chaos
class TestAcceptanceDemo:
    def test_poison_hang_and_kills_contained(self, tmp_path):
        """Two poison specs + one hanging spec + seeded worker kills:
        the campaign completes under quarantine with exactly those
        three specs in the FailureReport and every other result
        bit-identical to a clean sequential run."""
        n = 8
        specs = make_specs(n, seed=5)
        faults.install(
            faults.FaultPlan(
                rules=(
                    faults.FaultRule(
                        point="spec.execute",
                        kind="error",
                        indices=(1, 4),
                        message="poison",
                    ),
                    faults.FaultRule(
                        point="spec.execute",
                        kind="hang",
                        indices=(6,),
                        delay_s=30.0,
                    ),
                ),
            )
        )
        rng = np.random.default_rng(5)
        # ProcessChaos workers inherit the armed plan via the
        # environment snapshot and are respawned after each kill, so
        # the fleet survives its own chaos.
        chaos = faults.ProcessChaos(
            rng,
            [
                "--dir",
                str(tmp_path),
                "--poll",
                "0.02",
                "--heartbeat",
                "0.25",
                "--idle-timeout",
                "60",
            ],
        )
        broker = DirectoryBroker(
            tmp_path,
            max_retries=1,
            on_error="quarantine",
            spec_timeout=2.0,
            **DIST_KW,
        )
        try:
            broker.submit(list(enumerate(specs)))
            collected = {}
            for index, result in broker.outcomes():
                collected[index] = result
                chaos.observe(len(collected))
            report = broker.failure_report
        finally:
            broker.close()
            chaos.stop()
        assert chaos.killed == chaos.n_kills
        assert report.quarantined_indices == (1, 4, 6)
        kinds = {
            q.index: q.failure.exc_type for q in report.quarantined
        }
        assert kinds[1] == kinds[4] == "InjectedFault"
        assert kinds[6] == "SpecTimeout"
        survivors = sorted(collected)
        assert survivors == [i for i in range(n) if i not in (1, 4, 6)]
        expected = reference_metrics(n, seed=5)
        assert [collected[i].metrics for i in survivors] == [
            expected[i] for i in survivors
        ]
