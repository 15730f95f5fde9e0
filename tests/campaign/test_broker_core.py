"""The broker state machine under virtual time.

Every test drives the real broker over :class:`FakeTransport` (an
in-memory transport) with explicit broker times, so lease expiry, the
spec-deadline backstop and the stall guard are pinned to the tick, on
any machine speed.
"""

import pytest

from broker_fakes import run, specs, submitted
from repro.errors import SchedulingError


class TestLeaseExpiry:
    def test_silent_lease_reclaimed_at_lease_timeout_despite_outcomes(self):
        """An accepted outcome on every tick must not starve maintenance:
        a lease whose nonce stops changing is reclaimed at exactly
        ``lease_timeout``, not when the rest of the fleet goes quiet."""
        broker, wire = submitted(20, lease_timeout=1.0)
        wire.lease("hung", worker="w-hung")
        for tick in range(12):
            now = tick / 10
            busy = f"busy-{tick}"
            wire.lease(busy)
            assert run(broker, now) == []  # nothing finished yet
            wire.finish(busy)
            assert len(run(broker, now)) == 1  # an outcome every tick
            if now < 1.0:
                assert "hung" in wire.held
            else:
                break
        assert now == 1.0
        assert "hung" not in wire.held
        assert wire.queue[0] == [0]  # the lost unit is queued first
        assert broker.requeued_total == 1
        assert broker.worker_health == {"w-hung": 2}

    def test_renewed_lease_outlives_a_short_timeout(self):
        """A renewing worker keeps its lease however long its unit runs
        (the heartbeat path), and nothing is requeued."""
        broker, wire = submitted(1, lease_timeout=0.4)
        wire.lease("L")
        for tick in range(100):  # ten seconds, 25 lease timeouts
            wire.renew("L")
            assert run(broker, tick / 10) == []
        wire.finish("L")
        assert run(broker, 10.0) == [0]
        assert broker.done
        assert broker.requeued_total == 0

    def test_gone_holder_is_reclaimed_at_the_next_scan(self):
        broker, wire = submitted(1, lease_timeout=60.0)
        wire.lease("L")
        run(broker, 0.0)
        wire.held["L"][2] = None  # the connection closed
        run(broker, 0.5)
        assert "L" in wire.held  # scans run once a second
        run(broker, 1.0)
        assert "L" not in wire.held
        assert broker.requeued_total == 1


class TestBackstop:
    def test_units_are_timed_from_activation_not_from_lease(self):
        """A chunk of eight 0.3 s units outlasts the 2 s backstop grace
        of a 0.5 s deadline, yet no unit is ever active that long."""
        broker, wire = submitted(8, chunk_size=8, spec_timeout=0.5)
        wire.lease("L")
        accepted = []
        for tick in range(49):  # 0.05 s ticks up to 2.4 s
            wire.renew("L")
            if tick and tick % 6 == 0:  # one unit per 0.3 s
                wire.finish("L")
            accepted += run(broker, tick / 20)
        assert accepted == list(range(8))
        assert broker.failure_report.timeouts == 0

    def test_stuck_unit_charged_at_exactly_the_grace(self):
        """A unit active (and heartbeating) for 2 * spec_timeout + 1 s is
        charged a timeout; the rest of its lease goes back uncharged."""
        broker, wire = submitted(
            4, chunk_size=4, spec_timeout=0.5, on_error="quarantine"
        )
        wire.lease("L", worker="w-stuck")
        for tick in range(40):  # 0.05 s ticks up to 1.95 s
            wire.renew("L")
            run(broker, tick / 20)
        assert broker.failure_report.timeouts == 0
        wire.renew("L")
        run(broker, 2.0)
        assert broker.failure_report.timeouts == 1
        assert broker.failure_report.quarantined_indices == (0,)
        assert wire.queue == [[1, 2, 3]]
        assert broker.requeued_total == 3
        assert broker.worker_health == {"w-stuck": 1}

    def test_next_unit_gets_its_own_grace(self):
        broker, wire = submitted(
            2, chunk_size=2, spec_timeout=0.5, on_error="quarantine"
        )
        wire.lease("L")
        run(broker, 0.0)
        wire.finish("L")  # unit 1 becomes active at 1.5 s
        assert run(broker, 1.5) == [0]
        run(broker, 3.4)
        assert broker.failure_report.timeouts == 0
        run(broker, 3.5)
        assert broker.failure_report.timeouts == 1


class TestRetryAndStall:
    def test_error_outcome_retried_after_its_backoff(self):
        from repro.campaign.distributed.protocol import error_payload
        from repro.campaign.failures import (
            BACKOFF_BASE,
            FailureInfo,
            backoff_delay,
        )

        broker, wire = submitted(1, max_retries=1)
        wire.lease("L")
        wire.held["L"][1].pop(0)
        wire.inbox.append(
            error_payload(
                broker.job,
                0,
                FailureInfo(exc_type="RuntimeError", message="boom"),
                worker="w",
            )
        )
        run(broker, 0.0)
        assert wire.queue == []
        due = backoff_delay(specs(1)[0].seed, 1, base=BACKOFF_BASE)
        run(broker, due * 0.99)
        assert wire.queue == []
        run(broker, due)
        assert wire.queue == [[0]]
        assert broker.failure_report.retries == 1

    def test_stall_guard_fires_after_result_timeout(self):
        broker, wire = submitted(1, result_timeout=5.0)
        run(broker, 0.0)
        run(broker, 4.9)
        with pytest.raises(SchedulingError, match="no worker progress"):
            run(broker, 5.0)

    def test_progress_pushes_the_stall_guard_back(self):
        broker, wire = submitted(2, result_timeout=5.0)
        wire.lease("L")
        run(broker, 0.0)
        wire.finish("L")
        assert run(broker, 4.0) == [0]
        run(broker, 8.9)  # five seconds after the last progress: not yet
        with pytest.raises(SchedulingError, match="no worker progress"):
            run(broker, 9.0)
