"""ContractLock runtime semantics — the dynamic half of RACE001."""

import threading

import pytest

from repro.locks import (
    CONTRACT_LOCKS_ENV,
    ContractLock,
    LockContractError,
    assert_held,
    contract_lock,
    contract_locks_enabled,
)


class TestEnvGate:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(CONTRACT_LOCKS_ENV, raising=False)
        assert not contract_locks_enabled()
        lock = contract_lock("x")
        assert not isinstance(lock, ContractLock)

    def test_zero_counts_as_disabled(self, monkeypatch):
        monkeypatch.setenv(CONTRACT_LOCKS_ENV, "0")
        assert not contract_locks_enabled()

    def test_enabled_hands_out_contract_locks(self, monkeypatch):
        monkeypatch.setenv(CONTRACT_LOCKS_ENV, "1")
        assert contract_locks_enabled()
        lock = contract_lock("x")
        assert isinstance(lock, ContractLock)
        assert lock.name == "x"

    def test_assert_held_is_noop_on_plain_lock(self):
        # With contracts off, assert_held must cost (and do) nothing.
        assert_held(threading.Lock())


class TestContractLock:
    def test_assert_held_raises_when_not_held(self):
        lock = ContractLock("guard")
        with pytest.raises(LockContractError, match="guard"):
            lock.assert_held()

    def test_assert_held_passes_while_held(self):
        lock = ContractLock("guard")
        with lock:
            lock.assert_held()
            assert_held(lock)

    def test_assert_held_raises_after_release(self):
        lock = ContractLock("guard")
        with lock:
            pass
        with pytest.raises(LockContractError):
            lock.assert_held()

    def test_holder_identity_is_per_thread(self):
        lock = ContractLock("guard")
        lock.acquire()
        errors = []

        def other():
            try:
                lock.assert_held()
            except LockContractError as exc:
                errors.append(exc)

        t = threading.Thread(target=other)
        t.start()
        t.join()
        lock.release()
        assert len(errors) == 1

    def test_lock_protocol_surface(self):
        lock = ContractLock("guard")
        assert lock.acquire()
        assert lock.locked()
        lock.release()
        assert not lock.locked()
        assert lock.acquire(blocking=False)
        lock.release()

    def test_violation_is_an_assertion_error(self):
        # LockContractError must never be caught by operational
        # except-clauses that retry SchedulingError and friends.
        assert issubclass(LockContractError, AssertionError)


class TestBrokerContract:
    """The TCP connection threads' _TCPState helpers really run under
    the contract; its transport methods take the lock themselves."""

    def _state(self):
        from repro.campaign.distributed.broker import _TCPState

        return _TCPState(poll=0.01)

    def test_helper_without_lock_raises(self, monkeypatch):
        monkeypatch.setenv(CONTRACT_LOCKS_ENV, "1")
        state = self._state()
        assert isinstance(state.lock, ContractLock)
        with pytest.raises(LockContractError):
            state.release(0)

    def test_helper_under_lock_passes(self, monkeypatch):
        monkeypatch.setenv(CONTRACT_LOCKS_ENV, "1")
        state = self._state()
        with state.lock:
            state.lease_to("session-1", [{"index": 0}])
            assert state.owner == {0: "session-1"}
            state.release(0)
            assert state.owner == {}

    def test_transport_methods_take_the_lock(self, monkeypatch):
        monkeypatch.setenv(CONTRACT_LOCKS_ENV, "1")
        state = self._state()
        state.publish("job", [], chunk_size=1, timeout=None)
        with state.lock:
            state.lease_to("session-1", [{"index": 0}, {"index": 1}])
        assert state.leases("job") == [("session-1", "", [0, 1], None)]
        assert state.reclaim("session-1", skip=0) == 1
        assert [t["index"] for t in state.pending[0]] == [1]
        assert not state.lock.locked()

    def test_plain_lock_when_disabled(self, monkeypatch):
        monkeypatch.delenv(CONTRACT_LOCKS_ENV, raising=False)
        state = self._state()
        assert not isinstance(state.lock, ContractLock)
        # assert_held degrades to a no-op: helpers stay callable.
        state.lease_to("session-1", [{"index": 0}])


class TestTcpCampaignUnderContracts:
    """A real TCP campaign with runtime assertions on: every broker
    helper must honor the caller-holds-lock contract end to end."""

    def test_campaign_is_clean_and_bit_identical(self, monkeypatch):
        monkeypatch.setenv(CONTRACT_LOCKS_ENV, "1")
        from repro.campaign import CampaignRunner, ScenarioSpec
        from repro.campaign.distributed import (
            DistributedRunner,
            run_tcp_worker,
        )

        specs = [
            ScenarioSpec(scheme=scheme, n_graphs=2, seed=seed)
            for seed in (11, 23)
            for scheme in ("EDF", "ccEDF")
        ]
        local = CampaignRunner(1).run(specs)
        runner = DistributedRunner(
            listen=("127.0.0.1", 0), poll=0.01, result_timeout=120.0
        )
        host, port = runner.address
        worker = threading.Thread(
            target=run_tcp_worker,
            args=(host, port),
            kwargs=dict(poll=0.01, idle_timeout=120.0),
            daemon=True,
        )
        worker.start()
        try:
            dist = runner.run(specs)
        finally:
            runner.close()
            worker.join(timeout=10.0)
        assert [r.metrics for r in dist.results] == [
            r.metrics for r in local.results
        ]
