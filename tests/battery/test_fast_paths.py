"""Scalar-vs-vectorized equivalence for the battery period kernels.

Property-based (Hypothesis) comparison of ``run_profile(fast=True)``
(the closed-form period kernels of ``repro.battery.kernels``) against
``fast=False`` (the per-segment scalar reference loop) across random
profiles, repeat counts and every kernel-backed model, plus the edges
the kernel driver special-cases: death inside the very first period,
and profiles too light to ever die (the ``max_time`` raise).

Documented tolerances: the kernel computes cycle counts in closed form
(``k * T`` / ``k * Q``) where the scalar loop accumulates segment by
segment, so lifetimes and delivered charges agree to relative ``REL``
(1e-8, far above the observed ~1e-13 drift); death *instants* inside
the final period come from the same scalar root-finder on both paths
and inherit the same bound.  A load that grazes the capacity threshold
within one ulp may in principle move its death by one period — none of
the strategies below can express such a coincidence.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.battery import (
    DiffusionBattery,
    KiBaM,
    PeukertBattery,
)
from repro.errors import BatteryError

REL = 1e-8

MODEL_FACTORIES = {
    "kibam": lambda: KiBaM(capacity=150.0, c=0.6, kp=0.02),
    "diffusion": lambda: DiffusionBattery(
        alpha=150.0, beta=0.08, terms=12
    ),
    "peukert": lambda: PeukertBattery(capacity=150.0, exponent=1.25),
}

model_names = st.sampled_from(sorted(MODEL_FACTORIES))

profiles = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.floats(min_value=0.05, max_value=40.0),
            min_size=n, max_size=n,
        ),
        st.lists(
            st.one_of(
                st.just(0.0),
                st.floats(min_value=0.02, max_value=4.0),
            ),
            min_size=n, max_size=n,
        ),
    )
)

repeats = st.one_of(
    st.none(), st.integers(min_value=1, max_value=40)
)


def _both_paths(model, d, i, repeat, max_time=3e4):
    outcomes = []
    for fast in (False, True):
        try:
            run = model.run_profile(
                d, i, repeat=repeat, max_time=max_time, fast=fast
            )
            outcomes.append(("run", run))
        except BatteryError as exc:
            outcomes.append(("raise", str(exc)))
    return outcomes


class TestRunProfileEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(name=model_names, profile=profiles, repeat=repeats)
    def test_lifetime_death_and_charge(self, name, profile, repeat):
        d, i = profile
        model = MODEL_FACTORIES[name]()
        (slow_kind, slow), (fast_kind, fast) = _both_paths(
            model, d, i, repeat
        )
        assert slow_kind == fast_kind, (slow, fast)
        if slow_kind == "raise":
            assert "max_time" in slow and "max_time" in fast
            return
        assert slow.died == fast.died, (slow, fast)
        assert fast.lifetime == pytest.approx(
            slow.lifetime, rel=REL, abs=1e-9
        )
        assert fast.delivered_charge == pytest.approx(
            slow.delivered_charge, rel=REL, abs=1e-9
        )

    @settings(max_examples=15, deadline=None)
    @given(name=model_names, profile=profiles)
    def test_single_pass_equivalence(self, name, profile):
        """repeat=1 — the survival-bisection shape, death or not."""
        d, i = profile
        model = MODEL_FACTORIES[name]()
        slow = model.run_profile(d, i, repeat=1, fast=False)
        fast = model.run_profile(d, i, repeat=1, fast=True)
        assert slow.died == fast.died
        assert fast.lifetime == pytest.approx(
            slow.lifetime, rel=REL, abs=1e-9
        )


class TestEdges:
    @pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
    def test_death_in_first_period(self, name):
        model = MODEL_FACTORIES[name]()
        d = [30.0, 500.0, 30.0]
        i = [1.0, 4.0, 0.5]  # the long heavy segment kills mid-pass
        slow = model.run_profile(d, i, repeat=None, fast=False)
        fast = model.run_profile(d, i, repeat=None, fast=True)
        assert slow.died and fast.died
        assert slow.lifetime < sum(d)  # really the first period
        assert fast.lifetime == pytest.approx(slow.lifetime, rel=REL)
        assert fast.delivered_charge == pytest.approx(
            slow.delivered_charge, rel=REL
        )

    @pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
    def test_never_dies_raises_like_scalar(self, name):
        model = MODEL_FACTORIES[name]()
        d, i = [1.0, 2.0], [1e-9, 0.0]
        for fast in (False, True):
            with pytest.raises(BatteryError, match="max_time"):
                model.run_profile(
                    d, i, repeat=None, max_time=500.0, fast=fast
                )

    @pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
    def test_zero_charge_profile_survives_repeat(self, name):
        model = MODEL_FACTORIES[name]()
        d, i = [3.0, 2.0], [0.0, 0.0]
        slow = model.run_profile(d, i, repeat=7, fast=False)
        fast = model.run_profile(d, i, repeat=7, fast=True)
        assert not slow.died and not fast.died
        assert fast.lifetime == pytest.approx(slow.lifetime, rel=REL)

    @pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
    def test_repeat_past_max_time_raises_both(self, name):
        """The scalar loop's quirk — max_time fires even with a finite
        repeat that would only complete after it — is preserved."""
        model = MODEL_FACTORIES[name]()
        d, i = [50.0], [1e-9]
        for fast in (False, True):
            with pytest.raises(BatteryError, match="max_time"):
                model.run_profile(
                    d, i, repeat=100, max_time=200.0, fast=fast
                )


class TestAdvanceProfile:
    @settings(max_examples=15, deadline=None)
    @given(name=model_names, profile=profiles)
    def test_matches_scalar_segment_walk(self, name, profile):
        d, i = profile
        model = MODEL_FACTORIES[name]()
        state = model.fresh_state()
        t = 0.0
        death_ref = None
        for dt, cur in zip(*np.broadcast_arrays(d, i)):
            state, death = model.advance(state, float(cur), float(dt))
            if death is not None:
                death_ref = t + death
                break
            t += dt
        fast_state, fast_death = model.advance_profile(
            model.fresh_state(), d, i
        )
        if death_ref is None:
            assert fast_death is None
        else:
            assert fast_death == pytest.approx(
                death_ref, rel=REL, abs=1e-9
            )


class TestSurvivalScaleEquivalence:
    @pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fast_matches_scalar_bisection(self, name, seed):
        from repro.analysis.lifetime import survival_scale
        from repro.sim.profile import CurrentProfile

        rng = np.random.default_rng(seed)
        n = 40
        prof = CurrentProfile(
            rng.uniform(5.0, 25.0, n), rng.uniform(0.05, 0.6, n)
        )
        model = MODEL_FACTORIES[name]()
        fast = survival_scale(model, prof)
        slow = survival_scale(model, prof, fast=False)
        # Identical bisection arithmetic; only an ulp-grazing probe
        # could make the paths part ways, and then by < 2^-20 of the
        # bracket.
        assert fast == pytest.approx(slow, rel=1e-6)

    def test_stochastic_matches_scalar_bisection(self):
        """The stochastic model has no kernel: its probes run the
        block-drawn slot walk, which matches the per-slot path bit for
        bit, so both bisections land on the same scale."""
        from repro.analysis.lifetime import survival_scale
        from repro.battery import StochasticKiBaM
        from repro.sim.profile import CurrentProfile

        prof = CurrentProfile(
            np.array([200.0, 100.0]), np.array([0.4, 0.1])
        )

        def cell():
            return StochasticKiBaM(
                150.0, 0.6, 0.02, dt=1.0, noise=0.2, seed=7
            )

        assert survival_scale(cell(), prof) == survival_scale(
            cell(), prof, fast=False
        )


class TestSigma:
    def test_state_sigma_matches_model_sigma(self):
        cell = DiffusionBattery(alpha=100.0, beta=0.1, terms=8)
        state, _ = cell.advance(cell.fresh_state(), 1.5, 30.0)
        assert state.sigma() == cell.sigma(state)
        assert state.sigma() > state.consumed  # memory counts twice


class TestKernelReuse:
    def test_scaled_kernel_shares_decay_arrays(self):
        """survival_scale's ~40 probes must not rebuild decay maps."""
        cell = DiffusionBattery(alpha=100.0, beta=0.1, terms=8)
        d = np.array([5.0, 10.0, 2.5])
        i = np.array([0.5, 1.5, 0.0])
        kernel = cell.period_kernel(d, i)
        scaled = kernel.scaled(2.0)
        assert scaled._decay_to_start is kernel._decay_to_start
        assert scaled._probe_decay is kernel._probe_decay
        assert scaled.charge_per_cycle == pytest.approx(
            2.0 * kernel.charge_per_cycle
        )
