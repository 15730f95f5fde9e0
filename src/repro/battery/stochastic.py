"""Stochastic battery model (substitute for Rao et al. 2005, paper ref [13]).

Table 2 of the paper estimates lifetimes with "the stochastic battery
model from [13]" — a stochastic refinement of the two-well kinetic
picture whose full specification lives in a bachelor's thesis we cannot
access.  Per DESIGN.md §5 we build the closest published description:
a time-slotted KiBaM in which the bound→available recovery flow per
slot is a non-negative random variable whose *mean* equals the kinetic
flow ``k_flow · (h2 - h1) · dt``.  Fluctuations model the stochastic
nature of the electrochemical recovery process (Chiasserini–Rao style);
with ``noise = 0`` the model degenerates to the forward-Euler
discretization of KiBaM, and its expectation matches KiBaM for any
noise level (property-tested in ``tests/battery/test_stochastic.py``).

Determinism: the model takes an explicit seed, so experiment runs are
reproducible; Table 2 averages over seeds exactly like the paper
averages over task-graph sets.  The draw order is the semantics within
one cell: each slot with a positive mean recovery flow scales the next
gamma variate of that cell's generator, whichever path walks the
slots.

Two paths walk a tiled profile and agree bit for bit, generator state
included: :meth:`StochasticKiBaM.advance` under the base class's
per-segment driver (``run_profile(fast=False)``, the reference) and
:meth:`StochasticKiBaM._run_profile_fast`, one loop over plain floats
that takes its variates in blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import BatteryError
from .base import BatteryModel, BatteryRun
from .kibam import KiBaM

__all__ = ["StochasticKiBaM"]

#: Gamma variates the fast walk draws at a time.
_BLOCK = 4096


@dataclass(frozen=True)
class _StochState:
    y1: float
    y2: float


class StochasticKiBaM(BatteryModel):
    """Time-slotted KiBaM with stochastic recovery flow.

    Parameters
    ----------
    capacity, c, kp:
        As in :class:`~repro.battery.kibam.KiBaM`.
    dt:
        Slot length in seconds.  Must be small relative to ``1/kp``
        (the kinetic time constant) for the discretization to track the
        analytic model; a guard rejects ``dt > 0.2 / kp``.
    noise:
        Relative standard deviation of the per-slot recovery flow
        (gamma-distributed with the kinetic mean).  0 disables
        stochasticity.
    seed:
        Seed for the cell's generator, :attr:`rng`.
    """

    def __init__(
        self,
        capacity: float,
        c: float,
        kp: float,
        *,
        dt: float = 1.0,
        noise: float = 0.25,
        seed: Optional[int] = 0,
    ) -> None:
        if not (capacity > 0):
            raise BatteryError(f"capacity must be > 0, got {capacity}")
        if not (0 < c < 1):
            raise BatteryError(f"c must be in (0, 1), got {c}")
        if not (kp > 0):
            raise BatteryError(f"kp must be > 0, got {kp}")
        if not (dt > 0):
            raise BatteryError(f"dt must be > 0, got {dt}")
        if dt > 0.2 / kp:
            raise BatteryError(
                f"slot dt={dt:.4g}s too coarse for kp={kp:.4g}/s "
                f"(need dt <= {0.2 / kp:.4g}s for a stable discretization)"
            )
        if noise < 0:
            raise BatteryError(f"noise must be >= 0, got {noise}")
        self.capacity = float(capacity)
        self.c = float(c)
        self.kp = float(kp)
        self.dt = float(dt)
        self.noise = float(noise)
        self._k_flow = kp * c * (1.0 - c)
        self.rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def fresh_state(self) -> _StochState:
        return _StochState(
            self.c * self.capacity, (1 - self.c) * self.capacity
        )

    def theoretical_capacity(self) -> float:
        return self.capacity

    def as_kibam(self) -> KiBaM:
        """The deterministic analytic model this one fluctuates around."""
        return KiBaM(self.capacity, self.c, self.kp)

    # ------------------------------------------------------------------
    def _flow(self, y1: float, y2: float, dt: float) -> float:
        """Recovery charge moved bound -> available in one slot."""
        h1 = y1 / self.c
        h2 = y2 / (1.0 - self.c)
        mean = self._k_flow * (h2 - h1) * dt
        if mean <= 0:
            # Reverse flow (available -> bound) happens deterministically;
            # the stochastic recovery story only applies to recovery.
            return mean
        if self.noise == 0:
            return mean
        # Gamma keeps the flow non-negative with the requested mean and
        # relative std; shape = 1/noise², scale = mean·noise².
        shape = 1.0 / (self.noise**2)
        return float(self.rng.gamma(shape, mean / shape))

    def advance(
        self, state: _StochState, current: float, dt: float
    ) -> Tuple[_StochState, Optional[float]]:
        if dt < 0:
            raise BatteryError(f"dt must be >= 0, got {dt}")
        if state.y1 <= 0:
            return state, 0.0
        y1, y2 = state.y1, state.y2
        elapsed = 0.0
        remaining = dt
        while remaining > 0:
            # Partial final slots are fine: the flow scales with step.
            step = min(self.dt, remaining)
            flow = self._flow(y1, y2, step)
            flow = min(flow, y2) if flow > 0 else max(flow, -y1)
            y1_new = y1 - current * step + flow
            y2_new = y2 - flow
            if y1_new <= 0:
                # Death inside the slot: linear interpolation of y1.
                drop = y1 - y1_new
                frac = y1 / drop if drop > 0 else 0.0
                death = min(max(elapsed + frac * step, 0.0), dt)
                return _StochState(0.0, y2_new), death
            y1, y2 = y1_new, y2_new
            elapsed += step
            remaining -= step
        return _StochState(y1, y2), None

    def _run_profile_fast(
        self,
        d: np.ndarray,
        i: np.ndarray,
        repeat: Optional[int],
        max_time: float,
    ) -> BatteryRun:
        """Tile the profile through the slots in one loop over floats.

        Bit-identical to ``_run_profile_scalar`` over :meth:`advance`:
        the same expressions in the same order, with ``min``/``max``
        spelled as the comparisons they make.  ``advance``'s
        dead-on-entry check has no counterpart: the fresh cell's ``y1``
        is positive and a slot that leaves ``y1 <= 0`` ends the walk.

        The gamma variates come in blocks of standard variates ``z``
        scaled as ``(mean / shape) * z``, which is what
        ``Generator.gamma(shape, mean / shape)`` computes draw for draw.
        The block overdraws, so on exit the generator goes back to its
        entry state and replays the draws the walk used: it ends where
        the per-slot loop would leave it.
        """
        c = self.c
        c_bound = 1.0 - c
        k_flow = self._k_flow
        slot = self.dt
        noisy = self.noise != 0
        shape = 1.0 / (self.noise**2) if noisy else 0.0
        segments = [
            (seg, cur, cur * seg)
            for seg, cur in zip(d.tolist(), i.tolist())
        ]
        rng = self.rng
        entry = rng.bit_generator.state
        block: list = []
        k = drawn = 0
        fresh = self.fresh_state()
        y1, y2 = fresh.y1, fresh.y2
        t = delivered = 0.0
        cycle = 0
        try:
            while True:
                if cycle:
                    if repeat is not None and cycle >= repeat:
                        return BatteryRun(
                            died=False, lifetime=t, delivered_charge=delivered
                        )
                    if t > max_time:
                        raise BatteryError(
                            f"battery survived past max_time={max_time:.3g}s "
                            f"under repeat=None; the load is too light to "
                            f"ever exhaust it"
                        )
                for seg, cur, charge in segments:
                    elapsed = 0.0
                    remaining = seg
                    while remaining > 0:
                        step = remaining if remaining < slot else slot
                        flow = k_flow * (y2 / c_bound - y1 / c) * step
                        if flow <= 0:
                            if -y1 > flow:
                                flow = -y1
                        else:
                            if noisy:
                                if k == len(block):
                                    block = rng.standard_gamma(
                                        shape, _BLOCK
                                    ).tolist()
                                    drawn += _BLOCK
                                    k = 0
                                flow = (flow / shape) * block[k]
                                k += 1
                            if flow > 0:
                                if y2 < flow:
                                    flow = y2
                            elif -y1 > flow:
                                flow = -y1
                        y1_new = y1 - cur * step + flow
                        y2_new = y2 - flow
                        if y1_new <= 0:
                            drop = y1 - y1_new
                            frac = y1 / drop if drop > 0 else 0.0
                            death = elapsed + frac * step
                            if 0.0 > death:
                                death = 0.0
                            if seg < death:
                                death = seg
                            return BatteryRun(
                                died=True,
                                lifetime=t + death,
                                delivered_charge=delivered + cur * death,
                            )
                        y1, y2 = y1_new, y2_new
                        elapsed += step
                        remaining -= step
                    t += seg
                    delivered += charge
                cycle += 1
        finally:
            rng.bit_generator.state = entry
            used = drawn - (len(block) - k)
            while used:  # in blocks: a long life has millions of slots
                n = min(used, _BLOCK)
                rng.standard_gamma(shape, n)
                used -= n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StochasticKiBaM(capacity={self.capacity:.6g}C, c={self.c:.4g}, "
            f"kp={self.kp:.4g}/s, dt={self.dt:.3g}s, noise={self.noise:.3g})"
        )
