"""Kinetic Battery Model (KiBaM) — Manwell & McGowan, paper ref [8].

The two-well picture of §3: total charge splits into an *available*
well (fraction ``c`` of capacity, width ``c``) feeding the load
directly and a *bound* well (width ``1 - c``) that replenishes the
available well at a rate proportional to the difference of the well
*heights*:

    dy1/dt = -I(t) + k_flow * (h2 - h1),      h1 = y1 / c
    dy2/dt =        - k_flow * (h2 - h1),      h2 = y2 / (1 - c)

The battery is exhausted when the available well empties (y1 = 0) even
though charge may remain bound — exactly the "discharged state" of the
paper's Figure 2(d), and the mechanism behind both the rate-capacity
and recovery effects.

For a constant current ``I`` the system is linear and has the classic
closed form (with ``kp = k_flow / (c * (1 - c))`` the effective rate
constant):

    y1(t) = y1_0 e^{-kp t} + (y0 kp c - I)(1 - e^{-kp t})/kp
            - I c (kp t - 1 + e^{-kp t})/kp
    y2(t) = y2_0 e^{-kp t} + y0 (1-c)(1 - e^{-kp t})
            - I (1-c)(kp t - 1 + e^{-kp t})/kp

with ``y0 = y1_0 + y2_0``.  Charge conservation ``y1 + y2 = y0 - I t``
holds identically (property-tested).  Death times inside a segment are
found by bracketed root-finding on the analytic ``y1(t)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import BatteryError
from .base import BatteryModel
from .kernels import (
    PeriodKernel,
    _affine_matrix_power,
    affine_prefix_matrix,
    brentq,
)

__all__ = ["KiBaM", "KiBaMState", "KiBaMPeriodKernel"]


@dataclass(frozen=True)
class KiBaMState:
    """Charge in the available (y1) and bound (y2) wells, in coulombs."""

    y1: float
    y2: float

    @property
    def total(self) -> float:
        return self.y1 + self.y2


class KiBaM(BatteryModel):
    """Kinetic Battery Model with exact piecewise-constant propagation.

    Parameters
    ----------
    capacity:
        Total charge ``y0`` when fully charged, in coulombs
        (2000 mAh = 7200 C for the paper's AAA NiMH cell).
    c:
        Fraction of capacity in the available well (0 < c < 1).
    kp:
        Effective rate constant ``k'`` in 1/s; larger means faster
        charge migration between wells (an ideal battery is the limit
        ``kp -> inf``).
    """

    def __init__(self, capacity: float, c: float, kp: float) -> None:
        if not (capacity > 0):
            raise BatteryError(f"capacity must be > 0, got {capacity}")
        if not (0 < c < 1):
            raise BatteryError(f"c must be in (0, 1), got {c}")
        if not (kp > 0):
            raise BatteryError(f"kp must be > 0, got {kp}")
        self.capacity = float(capacity)
        self.c = float(c)
        self.kp = float(kp)

    # ------------------------------------------------------------------
    def fresh_state(self) -> KiBaMState:
        return KiBaMState(self.c * self.capacity, (1 - self.c) * self.capacity)

    def theoretical_capacity(self) -> float:
        return self.capacity

    def available_capacity(self) -> float:
        """Charge deliverable under an infinite load (the available well)."""
        return self.c * self.capacity

    # ------------------------------------------------------------------
    def _y1_at(self, state: KiBaMState, current: float, t: float) -> float:
        """Analytic available charge after ``t`` seconds at ``current``."""
        kp, c = self.kp, self.c
        y0 = state.y1 + state.y2
        e = math.exp(-kp * t)
        return (
            state.y1 * e
            + (y0 * kp * c - current) * (1 - e) / kp
            - current * c * (kp * t - 1 + e) / kp
        )

    def _y2_at(self, state: KiBaMState, current: float, t: float) -> float:
        kp, c = self.kp, self.c
        y0 = state.y1 + state.y2
        e = math.exp(-kp * t)
        return (
            state.y2 * e
            + y0 * (1 - c) * (1 - e)
            - current * (1 - c) * (kp * t - 1 + e) / kp
        )

    def state_at(
        self, state: KiBaMState, current: float, t: float
    ) -> KiBaMState:
        """Propagate the wells through ``t`` seconds at ``current`` amps.

        Pure analytic evaluation, no death check — prefer
        :meth:`advance` unless you know the battery survives.
        """
        if t < 0:
            raise BatteryError(f"t must be >= 0, got {t}")
        return KiBaMState(
            self._y1_at(state, current, t), self._y2_at(state, current, t)
        )

    def advance(
        self, state: KiBaMState, current: float, dt: float
    ) -> Tuple[KiBaMState, Optional[float]]:
        if dt < 0:
            raise BatteryError(f"dt must be >= 0, got {dt}")
        if state.y1 <= 0:
            return state, 0.0
        if dt == 0:
            return state, None
        death = self._first_death(state, current, dt)
        if death is None:
            return self.state_at(state, current, dt), None
        dead = KiBaMState(0.0, self._y2_at(state, current, death))
        return dead, death

    def _first_death(
        self, state: KiBaMState, current: float, dt: float
    ) -> Optional[float]:
        """Earliest t in (0, dt] with y1(t) <= 0, or None.

        Under constant current the well-height difference relaxes
        exponentially toward a steady value, which makes dy1/dt
        monotone in t; y1 therefore has at most one interior extremum
        and — when that extremum exists — it is a *maximum* (recovery
        first, then decline).  Consequently y1 can never dip through
        zero and come back: a positive endpoint value proves the
        battery survived the whole segment, and a non-positive endpoint
        guarantees exactly one crossing, which brentq brackets.
        """
        if current <= 0:
            # Recovery only: y1 is non-decreasing, no death possible.
            return None
        f = lambda t: self._y1_at(state, current, t)
        if f(dt) > 0:
            return None
        # Bracket the unique first crossing with a forward scan (the
        # crossing may be early in a long segment, where brentq on the
        # full interval would already converge, but the scan keeps the
        # bracket tight and cheap).
        lo = 0.0
        hi = dt
        n = 16
        for j in range(1, n + 1):
            t = dt * j / n
            if f(t) <= 0:
                hi = t
                break
            lo = t
        if f(lo) <= 0:  # state.y1 == 0 boundary
            return lo
        return float(brentq(f, lo, hi, xtol=1e-12, rtol=8.9e-16))

    # ------------------------------------------------------------------
    def period_kernel(
        self, durations: np.ndarray, currents: np.ndarray
    ) -> "KiBaMPeriodKernel":
        return KiBaMPeriodKernel(self, durations, currents)

    # ------------------------------------------------------------------
    def steady_state_current(self) -> float:
        """Largest constant current sustainable until total exhaustion.

        Below this current the available well never empties before the
        bound well does; the battery then delivers (almost) its full
        theoretical capacity.  Derived from the well balance
        ``I = k_flow * h2_max = kp * c * (1 - c) * capacity / (1 - c)``
        evaluated at full bound well — a useful scale for rate-capacity
        sweeps.
        """
        return self.kp * self.c * self.capacity

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KiBaM(capacity={self.capacity:.6g}C, c={self.c:.4g}, "
            f"kp={self.kp:.4g}/s)"
        )


class KiBaMPeriodKernel(PeriodKernel):
    """Closed-form whole-period map for the kinetic battery model.

    The classic constant-current solution is affine in the well vector
    ``(y1, y2)``: each segment is ``y -> M_j y + v_j`` with a 2×2
    matrix depending only on the segment duration and a load vector
    linear in the current.  A matrix prefix scan yields the well
    levels at every segment boundary of a pass in one batched matmul,
    and the period map is powered in log time by repeated squaring.
    Boundary checks suffice for death detection: under constant
    current ``y1`` has at most one interior extremum and it is a
    *maximum* (see :meth:`KiBaM._first_death`), so ``y1`` cannot dip
    through zero between two positive boundary values.
    """

    def __init__(
        self,
        model: KiBaM,
        durations: np.ndarray,
        currents: np.ndarray,
    ) -> None:
        super().__init__(model, durations, currents)
        kp, c = model.kp, model.c
        n = durations.size
        e = np.exp(-kp * durations)
        g = (kp * durations - 1.0 + e) / kp
        mats = np.empty((n, 2, 2))
        mats[:, 0, 0] = e + c * (1.0 - e)
        mats[:, 0, 1] = c * (1.0 - e)
        mats[:, 1, 0] = (1.0 - c) * (1.0 - e)
        mats[:, 1, 1] = e + (1.0 - c) * (1.0 - e)
        loads = np.empty((n, 2))
        loads[:, 0] = -currents * ((1.0 - e) / kp + c * g)
        loads[:, 1] = -currents * (1.0 - c) * g
        a_pre, b_pre = affine_prefix_matrix(mats, loads)
        self._mat_to_end = a_pre  # (n, 2, 2): period start -> segment end
        self._load_to_end = b_pre
        self._mat_cycle = a_pre[-1]
        self._load_cycle = b_pre[-1]

    def _rescale_loads(self, multiplier: float) -> None:
        self._load_to_end = self._load_to_end * multiplier
        self._load_cycle = self._load_cycle * multiplier

    def state_after_cycles(self, k: int) -> KiBaMState:
        fresh = self.model.fresh_state()
        if k == 0:
            return fresh
        pk, qk = _affine_matrix_power(self._mat_cycle, self._load_cycle, k)
        y = pk @ np.array([fresh.y1, fresh.y2]) + qk
        return KiBaMState(float(y[0]), float(y[1]))

    def pass_dies(self, state: KiBaMState) -> bool:
        if state.y1 <= 0:
            return True
        y0 = np.array([state.y1, state.y2])
        y1_ends = self._mat_to_end[:, 0, :] @ y0 + self._load_to_end[:, 0]
        return bool(np.any(y1_ends <= 0.0))

    def pass_end_state(self, state: KiBaMState) -> KiBaMState:
        y = self._mat_cycle @ np.array([state.y1, state.y2]) + (
            self._load_cycle
        )
        return KiBaMState(float(y[0]), float(y[1]))

    def death_cycle_upper_hint(self) -> Optional[int]:
        # Charge conservation: y1 + y2 = capacity - k * Q, so the
        # available well is certainly empty once k * Q clears the total
        # capacity (margin for float dust).
        if self.charge_per_cycle <= 0:
            return None
        return int(self.model.capacity / self.charge_per_cycle) + 3

    def death_segment_candidate(self, state: KiBaMState) -> int:
        if state.y1 <= 0:
            return 0
        y0 = np.array([state.y1, state.y2])
        y1_ends = self._mat_to_end[:, 0, :] @ y0 + self._load_to_end[:, 0]
        hits = np.flatnonzero(y1_ends <= 0.0)
        return int(hits[0]) if hits.size else 0

    def pass_prefix_state(self, state: KiBaMState, j: int) -> KiBaMState:
        if j == 0:
            return state
        y0 = np.array([state.y1, state.y2])
        y = self._mat_to_end[j - 1] @ y0 + self._load_to_end[j - 1]
        return KiBaMState(float(y[0]), float(y[1]))
