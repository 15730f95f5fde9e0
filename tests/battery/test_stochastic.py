"""Unit + property tests for the stochastic KiBaM (paper ref [13]
substitute)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.battery.base import BatteryRun
from repro.battery.kernels import run_profile_batch
from repro.battery.kibam import KiBaM
from repro.battery.stochastic import StochasticKiBaM
from repro.errors import BatteryError


@pytest.fixture
def cell():
    return StochasticKiBaM(100.0, 0.5, 0.01, dt=1.0, noise=0.25, seed=7)


class TestValidation:
    def test_rejects_coarse_dt(self):
        with pytest.raises(BatteryError, match="too coarse"):
            StochasticKiBaM(100.0, 0.5, kp=0.5, dt=1.0)

    def test_rejects_negative_noise(self):
        with pytest.raises(BatteryError):
            StochasticKiBaM(100.0, 0.5, 0.01, noise=-0.1)

    @pytest.mark.parametrize(
        "cap,c,kp", [(0, 0.5, 0.01), (100, 1.0, 0.01), (100, 0.5, 0)]
    )
    def test_rejects_bad_kinetics(self, cap, c, kp):
        with pytest.raises(BatteryError):
            StochasticKiBaM(cap, c, kp)


class TestDeterministicLimit:
    def test_zero_noise_matches_kibam(self):
        """noise=0 is forward-Euler KiBaM: states track the analytic
        model closely at small dt."""
        sto = StochasticKiBaM(100.0, 0.5, 0.01, dt=0.1, noise=0.0, seed=0)
        ana = KiBaM(100.0, 0.5, 0.01)
        s_sto = sto.fresh_state()
        s_ana = ana.fresh_state()
        for _ in range(30):
            s_sto, d1 = sto.advance(s_sto, 1.0, 1.0)
            s_ana, d2 = ana.advance(s_ana, 1.0, 1.0)
            assert d1 is None and d2 is None
        assert s_sto.y1 == pytest.approx(s_ana.y1, rel=2e-3)
        assert s_sto.y2 == pytest.approx(s_ana.y2, rel=2e-3)

    def test_zero_noise_death_matches_kibam(self):
        sto = StochasticKiBaM(100.0, 0.5, 0.01, dt=0.05, noise=0.0, seed=0)
        ana = KiBaM(100.0, 0.5, 0.01)
        r_sto = sto.lifetime_constant(5.0)
        r_ana = ana.lifetime_constant(5.0)
        assert r_sto.lifetime == pytest.approx(r_ana.lifetime, rel=0.02)


class TestStochasticBehaviour:
    def test_reproducible_given_seed(self):
        a = StochasticKiBaM(100.0, 0.5, 0.01, seed=42).lifetime_constant(3.0)
        b = StochasticKiBaM(100.0, 0.5, 0.01, seed=42).lifetime_constant(3.0)
        assert a.lifetime == b.lifetime

    def test_seeds_differ(self):
        a = StochasticKiBaM(100.0, 0.5, 0.01, seed=1).lifetime_constant(3.0)
        b = StochasticKiBaM(100.0, 0.5, 0.01, seed=2).lifetime_constant(3.0)
        assert a.lifetime != b.lifetime

    def test_mean_tracks_kibam(self):
        """Expectation over seeds matches the analytic model (DESIGN.md
        substitution property)."""
        ana = KiBaM(100.0, 0.5, 0.01).lifetime_constant(3.0)
        lifetimes = [
            StochasticKiBaM(100.0, 0.5, 0.01, noise=0.3, seed=s)
            .lifetime_constant(3.0)
            .lifetime
            for s in range(30)
        ]
        assert np.mean(lifetimes) == pytest.approx(ana.lifetime, rel=0.05)

    def test_charge_never_negative(self, cell):
        state = cell.fresh_state()
        for _ in range(300):
            state, d = cell.advance(state, 2.0, 1.0)
            if d is not None:
                break
            assert state.y1 >= 0
            assert state.y2 >= -1e-9

    def test_conservation_within_slots(self, cell):
        """Total charge decreases exactly by I*dt while alive."""
        state = cell.fresh_state()
        new, d = cell.advance(state, 1.0, 10.0)
        assert d is None
        total_drop = (state.y1 + state.y2) - (new.y1 + new.y2)
        assert total_drop == pytest.approx(10.0, rel=1e-9)


class TestDeath:
    def test_heavy_load_dies(self, cell):
        _, death = cell.advance(cell.fresh_state(), 10.0, 100.0)
        assert death is not None
        assert 3.0 < death < 9.0

    def test_dead_stays_dead(self, cell):
        state, _ = cell.advance(cell.fresh_state(), 10.0, 100.0)
        _, d2 = cell.advance(state, 1.0, 1.0)
        assert d2 == 0.0

    def test_rate_capacity_effect(self, cell):
        q = [
            cell.lifetime_constant(i).delivered_charge
            for i in (0.5, 2.0, 8.0)
        ]
        assert q[0] > q[1] > q[2]

    @given(seed=st.integers(min_value=0, max_value=50))
    @settings(max_examples=15, deadline=None)
    def test_property_death_within_physical_bounds(self, seed):
        """Lifetime under I is bounded by [available/I, capacity/I]."""
        cell = StochasticKiBaM(100.0, 0.5, 0.01, noise=0.4, seed=seed)
        run = cell.lifetime_constant(2.0)
        assert 50.0 / 2.0 - 1.0 <= run.lifetime <= 100.0 / 2.0 + 1.0


def _outcome(cell, durations, currents, repeat, max_time, fast):
    """A run's result, bit for bit, or the error it raised."""
    try:
        run = cell.run_profile(
            durations, currents, repeat=repeat, max_time=max_time, fast=fast
        )
    except BatteryError as exc:
        return ("raised", str(exc))
    return (
        run.died,
        float(run.lifetime).hex(),
        float(run.delivered_charge).hex(),
    )


# Segments up to 4.5 s against slots of 0.5-1.3 s: several slots per
# segment and partial final slots.  Zero currents are rests.
_segments = st.lists(
    st.tuples(
        st.floats(min_value=0.05, max_value=4.5),
        st.sampled_from([0.0, 0.0, 0.05, 0.6, 2.0, 30.0]),
    ),
    min_size=1,
    max_size=8,
)


class TestFastPath:
    """``run_profile(fast=True)``, the block-drawn slot walk, against
    the per-slot ``advance`` reference under ``fast=False``."""

    @given(
        segments=_segments,
        capacity=st.sampled_from([3.0, 20.0, 120.0]),
        dt=st.sampled_from([0.5, 1.0, 1.3]),
        noise=st.sampled_from([0.0, 0.1, 0.25, 1.0]),
        repeat=st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
        max_time=st.sampled_from([3.0, 60.0, 1e4]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    # Death in the first slot.
    @example([(2.0, 30.0)], 3.0, 1.0, 0.25, None, 1e4, 0)
    # Rests only: never dies, so repeat=None hits the max_time raise.
    @example([(1.5, 0.0), (0.7, 0.0)], 20.0, 1.0, 0.25, None, 60.0, 1)
    # repeat=k completes alive; one segment spans several slots.
    @example([(4.5, 0.05), (0.3, 0.0)], 120.0, 1.3, 1.0, 3, 1e4, 2)
    # A rest after a drain: recovery draws while no current flows.
    @example([(5.0, 2.0), (20.0, 0.0)], 120.0, 1.0, 0.25, 2, 1e4, 3)
    # noise=0: the forward-Euler walk, no draws, tiled to death.
    @example([(2.5, 0.6)], 20.0, 1.0, 0.0, None, 1e4, 4)
    def test_bit_identical_to_per_slot_reference(
        self, segments, capacity, dt, noise, repeat, max_time, seed
    ):
        durations = np.array([d for d, _ in segments])
        currents = np.array([i for _, i in segments])

        def cell():
            return StochasticKiBaM(
                capacity, 0.6, 0.01, dt=dt, noise=noise, seed=seed
            )

        fast, ref = cell(), cell()
        got = _outcome(fast, durations, currents, repeat, max_time, True)
        want = _outcome(ref, durations, currents, repeat, max_time, False)
        assert got == want
        assert fast.rng.bit_generator.state == ref.rng.bit_generator.state

    def test_numeric_demotion_replays_the_fast_runs_draws(
        self, monkeypatch
    ):
        """A non-finite fast result is re-run on the per-slot path from
        the generator state the fast run started from."""
        walk = StochasticKiBaM._run_profile_fast

        def nan_walk(self, d, i, repeat, max_time):
            run = walk(self, d, i, repeat, max_time)  # uses up draws
            return BatteryRun(run.died, float("nan"), run.delivered_charge)

        monkeypatch.setattr(StochasticKiBaM, "_run_profile_fast", nan_walk)
        durations = np.array([3.0, 2.0, 4.0])
        currents = np.array([1.5, 0.0, 0.4])

        def cell():
            return StochasticKiBaM(60.0, 0.6, 0.01, noise=0.25, seed=11)

        stats = {}
        (got,) = run_profile_batch(
            [(cell(), durations, currents)], stats=stats
        )
        want = cell().run_profile(durations, currents, repeat=None, fast=False)
        assert got == want
        assert stats["numeric_demotions"] == 1
