"""Fault-tolerance layer: heartbeat leases with in-payload clocks,
crash recovery through the result cache, chunked leases, autoscaling.

These are the deterministic unit/integration tests; the randomized
kill-and-restart harness lives in ``test_chaos.py``.
"""

import json
import os
import threading
import time
from contextlib import contextmanager

import pytest

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
    WorkDir,
    execute_payload,
    run_directory_worker,
    run_tcp_worker,
)
from repro.campaign.distributed import runner as dist_runner
from repro.campaign.distributed.protocol import lease_stamp
from repro.campaign.spec import content_hash
from repro.errors import SchedulingError

#: Generous stall guard: tests should fail loudly, never hang.
TIMEOUT = 120.0


def small_specs(n_scenarios=2, schemes=("EDF", "ccEDF"), **kwargs):
    kwargs.setdefault("n_graphs", 2)
    return [
        ScenarioSpec(scheme=scheme, seed=seed, **kwargs)
        for seed in spawn_seeds(0, n_scenarios)
        for scheme in schemes
    ]


def metrics_of(campaign):
    return [r.metrics for r in campaign.results]


def fleet_thread(target, args, **kwargs):
    t = threading.Thread(target=target, args=args, kwargs=kwargs, daemon=True)
    t.start()
    return t


# ----------------------------------------------------------------------
# Lease clock: the payload stamp is the renewal nonce, mtime the
# fallback, and the broker ages nonces on its own clock (virtual here)
# ----------------------------------------------------------------------
def drive(broker, *times):
    """Step ``broker`` at each virtual time; the accepted indices."""
    return [index for now in times for index, _ in broker.step(now)]


def write_stamp(path, stamp):
    """Set a claimed chunk's lease stamp by hand (a worker renewing)."""
    payload = json.loads(path.read_text())
    payload["lease"] = {"claimed_at": 0.0, "renewed_at": stamp}
    path.write_text(json.dumps(payload))


class TestLeaseClock:
    def publish_and_claim(self, tmp_path, n=1, **options):
        options.setdefault("lease_timeout", 60.0)
        broker = DirectoryBroker(tmp_path, **options)
        broker.submit(list(enumerate(small_specs(1, ("EDF",) * n))))
        payload = broker.workdir.claim()
        assert payload is not None
        return broker, broker.workdir.claimed / payload["chunk"]

    def test_fresh_stamp_survives_ancient_mtime(self, tmp_path):
        """A skewed/coarse filesystem clock must not expire a live
        lease: the stamp inside the payload is the nonce, and renewing
        it keeps the lease however old the mtime looks."""
        broker, path = self.publish_and_claim(tmp_path)
        os.utime(path, (0.0, 0.0))  # mtime says 1970
        drive(broker, 0.0, 59.0)
        write_stamp(path, 1.0)
        os.utime(path, (0.0, 0.0))
        drive(broker, 60.0, 119.0)
        assert path.exists()
        assert broker.requeued_total == 0

    def test_stale_stamp_expires_despite_fresh_mtime(self, tmp_path):
        """Touching the file is no renewal: an unchanged stamp expires
        after ``lease_timeout`` however fresh the mtime."""
        broker, path = self.publish_and_claim(tmp_path)
        drive(broker, 0.0)
        os.utime(path, None)  # fresh mtime, same stamp
        drive(broker, 30.0, 59.9)
        assert path.exists()
        drive(broker, 60.0)
        assert not path.exists()
        assert len(list(broker.workdir.pending.glob("chunk-*.json"))) == 1
        assert broker.requeued_total == 1

    def test_missing_stamp_falls_back_to_mtime(self, tmp_path):
        """A worker that died between claiming (rename) and writing
        the lease stamp leaves a stamp-less payload: its mtime is the
        nonce, so the lease still expires — and a moving mtime still
        renews it."""
        broker, path = self.publish_and_claim(tmp_path)
        payload = json.loads(path.read_text())
        payload["lease"] = None
        path.write_text(json.dumps(payload))
        os.utime(path, (1000.0, 1000.0))
        drive(broker, 0.0, 30.0)
        os.utime(path, (2000.0, 2000.0))
        drive(broker, 31.0, 90.0)
        assert path.exists()
        drive(broker, 91.0)
        assert not path.exists()
        assert broker.requeued_total == 1

    def test_unreadable_chunk_is_never_deleted(self, tmp_path):
        """An unreadable claimed chunk must not be routed through
        pending/ (claim() deletes unreadable files — the tasks would
        be lost for good and the campaign would hang silently);
        it stays put for the stall guard to report."""
        broker, path = self.publish_and_claim(
            tmp_path, result_timeout=1000.0
        )
        path.write_text("{ not json")
        os.utime(path, (0.0, 0.0))  # looks long-expired
        drive(broker, 0.0, 999.0)
        assert path.exists()
        assert not list(broker.workdir.pending.glob("chunk-*.json"))
        with pytest.raises(SchedulingError, match=r"first: \[0\]"):
            drive(broker, 1000.0)
        assert path.exists()

    def test_renew_refreshes_the_stamp(self, tmp_path):
        broker, path = self.publish_and_claim(tmp_path)
        wd, chunk = broker.workdir, path.name
        claimed_at = wd.refresh(chunk)["lease"]["claimed_at"]
        before = lease_stamp(wd.refresh(chunk))
        time.sleep(0.05)
        assert wd.renew(chunk) is True
        after = lease_stamp(wd.refresh(chunk))
        assert after > before
        claimed = wd.refresh(chunk)
        assert claimed["lease"]["claimed_at"] == pytest.approx(claimed_at)
        wd.release(chunk)
        assert wd.renew(chunk) is False  # gone: stop renewing

    def test_observation_mode_ignores_worker_clock_skew(self, tmp_path):
        """The stamp is a renewal *nonce* judged in the broker's own
        time — a worker whose wall clock is hours off neither expires
        early nor lives forever."""
        broker, path = self.publish_and_claim(tmp_path)
        write_stamp(path, time.time() - 3600.0)  # worker 1h behind
        # A wall-clock comparison would call it long dead.
        drive(broker, 0.0, 59.0)
        assert path.exists()
        # A renewal (stamp change) resets the broker's clock.
        assert broker.workdir.renew(path.name)
        drive(broker, 60.0, 119.0)
        assert path.exists()
        # No renewal since -> expired, requeued.
        drive(broker, 120.0)
        assert not path.exists()
        assert broker.requeued_total == 1

    def test_requeue_recovers_the_active_task(self, tmp_path):
        """A crashed worker's in-flight task must come back too."""
        broker, path = self.publish_and_claim(tmp_path, n=2, chunk_size=2)
        wd = broker.workdir
        payload = wd.refresh(path.name)
        payload["active"] = payload["tasks"].pop(0)
        wd.update(payload)  # then the worker dies silently
        assert wd.backlog() == 2
        drive(broker, 0.0, 60.0)
        assert broker.requeued_total == 2
        indices = sorted(
            t["index"]
            for p in wd.pending.glob("chunk-*.json")
            for t in json.loads(p.read_text())["tasks"]
        )
        assert indices == [0, 1]


class TestHeartbeat:
    def test_heartbeat_outlives_short_lease_timeout(self, tmp_path):
        """A renewing worker's long scenario is never falsely
        requeued, however short the lease timeout."""
        specs = small_specs(1, ("ccEDF",))
        broker = DirectoryBroker(tmp_path, lease_timeout=0.4)
        broker.submit(list(enumerate(specs)))
        payload = broker.workdir.claim("w1")
        path = broker.workdir.claimed / payload["chunk"]
        for tick in range(100):  # ten seconds, a beat every 0.1 s
            write_stamp(path, float(tick))
            assert drive(broker, tick / 10) == []
        broker.workdir.submit(
            execute_payload(payload["tasks"][0], worker="w1")
        )
        assert drive(broker, 10.0) == [0]
        assert broker.requeued_total == 0  # the lease never expired

    def test_without_heartbeat_the_stale_lease_requeues(self, tmp_path):
        """The inverse: no renewal and a short timeout means the
        broker requeues mid-execution (the duplicate is deduped)."""
        specs = small_specs(1, ("ccEDF",))
        broker = DirectoryBroker(tmp_path, lease_timeout=0.4)
        broker.submit(list(enumerate(specs)))
        wd = broker.workdir
        first = wd.claim("w1")  # executes without ever renewing
        drive(broker, 0.0, 0.3)
        assert broker.requeued_total == 0
        drive(broker, 0.4)
        assert broker.requeued_total == 1
        assert broker.worker_health == {"w1": 2}
        second = wd.claim("w2")
        assert [t["index"] for t in second["tasks"]] == [0]
        wd.submit(execute_payload(second["tasks"][0], worker="w2"))
        collected = dict(broker.step(0.5))
        # The stale holder finishes after all: deduplicated by index.
        wd.submit(execute_payload(first["tasks"][0], worker="w1"))
        assert drive(broker, 0.6) == []
        assert sorted(collected) == [0]
        local = CampaignRunner(1).run(specs)
        assert collected[0].metrics == local.results[0].metrics

    def test_tcp_silent_worker_lease_expires(self):
        """A connected-but-hung TCP worker's lease is requeued on
        heartbeat silence, not only on disconnect."""
        from repro.campaign.distributed.worker import _BrokerSession

        specs = small_specs(1, ("EDF",))
        broker = TCPBroker(port=0, lease_timeout=0.5)
        host, port = broker.address
        broker.submit(list(enumerate(specs)))
        hog = _BrokerSession(host, port)
        healthy = None
        try:
            reply = hog.request({"op": "lease"})
            assert reply is not None and reply.get("op") == "task"
            # The hog never heartbeats and never answers; a healthy
            # worker joining later must still complete the campaign.
            drive(broker, 0.0, 0.49)
            assert broker.requeued_total == 0
            drive(broker, 0.5)
            assert broker.requeued_total == 1
            healthy = _BrokerSession(host, port)
            reply = healthy.request({"op": "lease"})
            assert [t["index"] for t in reply["tasks"]] == [0]
            outcome = execute_payload(reply["tasks"][0])
            ack = healthy.request({"op": "outcome", "outcome": outcome})
            assert ack.get("op") == "ok"
            assert drive(broker, 0.6) == [0]
            assert broker.done
        finally:
            broker.close()
            hog.close()
            if healthy is not None:
                healthy.close()


# ----------------------------------------------------------------------
# Chunked leases
# ----------------------------------------------------------------------
class TestChunkedLeases:
    def test_publish_chunks_are_index_contiguous(self, tmp_path):
        wd = WorkDir(tmp_path)
        wd.ensure_layout()
        wd.publish(
            "job", list(enumerate(small_specs(3, ("EDF",)))), chunk_size=2
        )
        chunks = [
            [t["index"] for t in json.loads(p.read_text())["tasks"]]
            for p in sorted(wd.pending.glob("chunk-*.json"))
        ]
        assert chunks == [[0, 1], [2]]

    def test_chunked_run_bit_identical_to_local(self, tmp_path):
        specs = small_specs(3)
        local = CampaignRunner(1).run(specs)
        runner = DistributedRunner(
            workdir=tmp_path,
            poll=0.01,
            chunk_size=3,
            heartbeat=0.2,
            result_timeout=TIMEOUT,
        )
        threads = [
            fleet_thread(
                run_directory_worker,
                (tmp_path,),
                poll=0.01,
                idle_timeout=TIMEOUT,
                heartbeat=0.2,
            )
            for _ in range(3)
        ]
        try:
            dist = runner.run(specs)
        finally:
            runner.close()
            for t in threads:
                t.join(timeout=10.0)
        assert metrics_of(dist) == metrics_of(local)
        assert dist.executed == len(specs)

    @pytest.mark.parametrize("transport", ["dir", "tcp"])
    def test_worker_max_tasks_requeues_the_remainder(
        self, tmp_path, transport
    ):
        items = list(enumerate(small_specs(2, ("EDF",))))
        if transport == "dir":
            wd = WorkDir(tmp_path)
            wd.ensure_layout()
            wd.publish("job", items, chunk_size=2)
            executed = run_directory_worker(
                tmp_path, poll=0.01, max_tasks=1, idle_timeout=0.1
            )
            assert executed == 1
            assert wd.backlog() == 1  # the rest went straight back
            assert len(list(wd.pending.glob("chunk-*.json"))) == 1
            return
        from repro.campaign.distributed.worker import _BrokerSession

        broker = TCPBroker(port=0, poll=0.01, chunk_size=2)
        broker.submit(items)
        state = broker._state
        try:
            executed = run_tcp_worker(
                *broker.address, poll=0.01, max_tasks=1, idle_timeout=0.1
            )
            assert executed == 1
            # The remainder is leasable once the broker has seen the
            # session end: no lease timeout is waited out.
            deadline = time.monotonic() + TIMEOUT
            while time.monotonic() < deadline:
                with state.lock:
                    if not state.beats:
                        break
                time.sleep(0.01)
            assert drive(broker, 0.0) == [0]
            assert broker.requeued_total == 1
            thief = _BrokerSession(*broker.address)
            try:
                reply = thief.request({"op": "lease"})
                assert [t["index"] for t in reply["tasks"]] == [1]
            finally:
                thief.close()
        finally:
            broker.close()


# ----------------------------------------------------------------------
# Crash recovery: a rerun on the same result cache picks up where the
# last broker stopped, over either transport
# ----------------------------------------------------------------------
class _Interrupt(Exception):
    """Raised by an ``on_result`` callback to cut a campaign short."""


@contextmanager
def cached_fleet(transport, tmp_path, *, workers=2):
    """A :class:`DistributedRunner` on ``transport`` with the result
    cache at ``tmp_path/cache`` and ``workers`` in-process workers; the
    runner closes before the workers are joined."""
    cache = ResultCache(tmp_path / "cache")
    if transport == "dir":
        runner = DistributedRunner(
            workdir=tmp_path / "queue", cache=cache, poll=0.01,
            result_timeout=TIMEOUT,
        )
        target, args = run_directory_worker, (tmp_path / "queue",)
    else:
        runner = DistributedRunner(
            listen=("127.0.0.1", 0), cache=cache, poll=0.01,
            result_timeout=TIMEOUT,
        )
        target, args = run_tcp_worker, runner.address
    threads = [
        fleet_thread(target, args, poll=0.01, idle_timeout=TIMEOUT)
        for _ in range(workers)
    ]
    try:
        yield runner
    finally:
        runner.close()
        for t in threads:
            t.join(timeout=10.0)


def stop_after(k):
    """An ``on_result`` callback that raises on the ``k``-th result."""
    seen = []

    def on_result(index, result):
        seen.append(index)
        if len(seen) == k:
            raise _Interrupt(index)

    return on_result


@pytest.mark.parametrize("transport", ["dir", "tcp"])
class TestCacheResume:
    def test_rerun_without_fleet_is_served_from_cache(
        self, tmp_path, transport
    ):
        specs = small_specs()
        with cached_fleet(transport, tmp_path) as runner:
            first = runner.run(specs)
        assert first.executed == len(specs) and first.cache_hits == 0
        # Restarted broker, no workers at all: nothing is submitted.
        with cached_fleet(transport, tmp_path, workers=0) as runner:
            second = runner.run(specs)
        assert second.cache_hits == len(specs) and second.executed == 0
        assert metrics_of(second) == metrics_of(first)

    @pytest.mark.parametrize("k", [1, 3])
    def test_interrupted_run_reruns_only_the_rest(
        self, tmp_path, transport, k
    ):
        specs = small_specs(3)
        with cached_fleet(transport, tmp_path) as runner:
            with pytest.raises(_Interrupt):
                runner.run(specs, on_result=stop_after(k))
        cache = ResultCache(tmp_path / "cache")
        assert len(cache) == k  # stored before on_result saw it
        with cached_fleet(transport, tmp_path) as runner:
            second = runner.run(specs)
        assert second.cache_hits == k
        assert second.executed == len(specs) - k
        assert metrics_of(second) == metrics_of(CampaignRunner(1).run(specs))
        # Every spec stored exactly once, one entry per index.
        assert len(cache) == len(specs)
        assert all(cache.get(spec) is not None for spec in specs)

    def test_corrupt_entry_is_rerun_and_rewritten(
        self, tmp_path, transport
    ):
        specs = small_specs()
        with cached_fleet(transport, tmp_path) as runner:
            runner.run(specs)
        cache = ResultCache(tmp_path / "cache")
        torn = cache.root / f"{content_hash(specs[1])}.json"
        torn.write_text(torn.read_text()[:40])  # torn mid-write
        with cached_fleet(transport, tmp_path) as runner:
            second = runner.run(specs)
        assert second.cache_hits == len(specs) - 1
        assert second.executed == 1
        assert metrics_of(second) == metrics_of(CampaignRunner(1).run(specs))
        assert cache.get(specs[1]) is not None

    def test_extend_after_rerun_runs_only_the_suffix(
        self, tmp_path, transport
    ):
        """A campaign grows by a larger rerun on the same cache: the
        prefix specs are cache hits, only the suffix reaches the
        fleet."""
        prefix, specs = small_specs(2), small_specs(3)
        with cached_fleet(transport, tmp_path) as runner:
            runner.run(prefix)
        with cached_fleet(transport, tmp_path) as runner:
            rerun = runner.run(prefix)
            assert rerun.cache_hits == len(prefix) and rerun.executed == 0
            bigger = runner.run(specs)
        assert bigger.cache_hits == len(prefix)
        assert bigger.executed == len(specs) - len(prefix)
        assert bigger.results == CampaignRunner(1).run(specs).results


def test_stale_shutdown_marker_does_not_stop_a_new_worker(
    tmp_path, monkeypatch
):
    """A finished broker's marker stays until the next publish; a
    directory worker started before that publish must wait for it, not
    exit at its first empty claim, and still exit at the next close."""
    DirectoryBroker(tmp_path).close()  # the previous run's marker
    seen = threading.Event()
    is_shutdown = WorkDir.is_shutdown

    def spy(self):
        marked = is_shutdown(self)
        if marked:
            seen.set()
        return marked

    monkeypatch.setattr(WorkDir, "is_shutdown", spy)
    executed = []
    worker = fleet_thread(
        lambda: executed.append(
            run_directory_worker(tmp_path, poll=0.01, idle_timeout=TIMEOUT)
        ),
        (),
    )
    assert seen.wait(TIMEOUT)  # the worker found the stale marker
    specs = small_specs(1, ("EDF",))
    runner = DistributedRunner(
        workdir=tmp_path, poll=0.01, result_timeout=TIMEOUT
    )
    try:
        got = runner.run(specs)
    finally:
        runner.close()
    worker.join(timeout=10.0)
    assert not worker.is_alive()
    assert executed == [len(specs)]
    assert metrics_of(got) == metrics_of(CampaignRunner(1).run(specs))


# ----------------------------------------------------------------------
# Autoscaling
# ----------------------------------------------------------------------
class TestAutoscale:
    def test_autoscale_fleet_completes_and_matches_local(
        self, tmp_path, monkeypatch
    ):
        specs = small_specs(3)
        local = CampaignRunner(1).run(specs)
        monkeypatch.setattr(dist_runner, "AUTOSCALE_INTERVAL", 0.2)
        monkeypatch.setattr(dist_runner, "AUTOSCALE_IDLE", 2.0)
        with DistributedRunner(
            workdir=tmp_path,
            autoscale=(1, 2),
            poll=0.02,
            result_timeout=TIMEOUT,
        ) as runner:
            dist = runner.run(specs)
        assert metrics_of(dist) == metrics_of(local)
        assert 1 <= dist.n_workers <= 2

    def test_autoscale_bounds_are_validated(self, tmp_path):
        with pytest.raises(SchedulingError, match="autoscale"):
            DistributedRunner(workdir=tmp_path, autoscale=(3, 1))
        with pytest.raises(SchedulingError, match="autoscale"):
            DistributedRunner(workdir=tmp_path, autoscale=(0, 0))
