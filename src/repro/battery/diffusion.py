"""Rakhmatov–Vrudhula diffusion battery model (paper ref [14]).

The analytical high-level model behind most battery-aware scheduling
work.  One-dimensional diffusion of the electroactive species toward
the electrode gives, for a load ``i(τ)`` and a candidate lifetime
``L``, the *apparent charge lost*

    sigma(L) = ∫_0^L i dτ
             + 2 Σ_{m=1..∞} ∫_0^L i(τ) e^{-β² m² (L - τ)} dτ,

and the battery is exhausted at the first ``L`` with
``sigma(L) = alpha`` (a charge-like capacity parameter).  The first
term is charge actually consumed; the series is the *unavailable*
charge temporarily locked in the concentration gradient, which decays
(the recovery effect of §3) when the load drops.

Although the defining integral looks history-dependent, each series
term

    u_m(t) = ∫_0^t i(τ) e^{-β² m² (t-τ)} dτ

obeys ``du_m/dt = i(t) - β² m² u_m``, so the model is Markovian in the
truncated state vector ``(consumed, u_1..u_M)``; for a constant-current
segment each ``u_m`` advances in closed form.  Truncation at
``M = 20`` terms is far below other modelling error (the m-th term is
suppressed by ``e^{-β² m²}``; the paper's own citations use 10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import BatteryError
from .base import BatteryModel
from .kernels import PeriodKernel, affine_prefix_diag, brentq

__all__ = ["DiffusionBattery", "DiffusionState", "DiffusionPeriodKernel"]


@dataclass(frozen=True)
class DiffusionState:
    """Consumed charge plus the truncated diffusion memory terms."""

    consumed: float
    memory: np.ndarray  # shape (M,), the u_m values

    def sigma(self) -> float:
        """Apparent charge lost for this state."""
        return self.consumed + 2.0 * float(np.sum(self.memory))


class DiffusionBattery(BatteryModel):
    """Rakhmatov–Vrudhula model with closed-form segment propagation.

    Parameters
    ----------
    alpha:
        Capacity parameter in coulombs: apparent charge at exhaustion.
        Under an infinitesimal load the battery delivers exactly
        ``alpha`` coulombs, so ``alpha`` plays the role of the
        theoretical (maximum) capacity.
    beta:
        Diffusion rate parameter in s^-1/2; smaller beta means slower
        diffusion and a stronger rate-capacity effect.
    terms:
        Number of series terms ``M`` to keep.
    """

    def __init__(self, alpha: float, beta: float, terms: int = 20) -> None:
        if not (alpha > 0):
            raise BatteryError(f"alpha must be > 0, got {alpha}")
        if not (beta > 0):
            raise BatteryError(f"beta must be > 0, got {beta}")
        if terms < 1:
            raise BatteryError(f"terms must be >= 1, got {terms}")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.terms = int(terms)
        m = np.arange(1, terms + 1, dtype=float)
        self._b2m2 = (beta * m) ** 2  # β² m², the decay rates

    # ------------------------------------------------------------------
    def fresh_state(self) -> DiffusionState:
        return DiffusionState(0.0, np.zeros(self.terms))

    def theoretical_capacity(self) -> float:
        return self.alpha

    def sigma(self, state: DiffusionState) -> float:
        """Apparent charge lost (death when this reaches alpha)."""
        return state.sigma()

    def period_kernel(
        self, durations: np.ndarray, currents: np.ndarray
    ) -> "DiffusionPeriodKernel":
        return DiffusionPeriodKernel(self, durations, currents)

    # ------------------------------------------------------------------
    def _state_at(
        self, state: DiffusionState, current: float, t: float
    ) -> DiffusionState:
        decay = np.exp(-self._b2m2 * t)
        memory = state.memory * decay + current * (1.0 - decay) / self._b2m2
        return DiffusionState(state.consumed + current * t, memory)

    def advance(
        self, state: DiffusionState, current: float, dt: float
    ) -> Tuple[DiffusionState, Optional[float]]:
        if dt < 0:
            raise BatteryError(f"dt must be >= 0, got {dt}")
        if self.sigma(state) >= self.alpha:
            return state, 0.0
        if dt == 0:
            return state, None
        death = self._first_death(state, current, dt)
        if death is None:
            return self._state_at(state, current, dt), None
        return self._state_at(state, current, death), death

    def _first_death(
        self, state: DiffusionState, current: float, dt: float
    ) -> Optional[float]:
        """Earliest t in (0, dt] where sigma reaches alpha, or None.

        Under constant current, d(sigma)/dt = i + 2 Σ (i - β²m² u_m)
        = (2M+1) i - 2 Σ β²m² u_m; each u_m relaxes monotonically toward
        i/(β²m²), so the derivative is monotone in t and sigma has at
        most one interior extremum.  With i > 0 the late-time slope is
        +i > 0, so sigma can only cross alpha once on the way up; with
        i = 0 sigma is non-increasing (pure recovery) and cannot cross.
        An endpoint check decides almost every segment; because the
        slope is a mixed-sign sum of exponentials it is not strictly
        one-signed, so a few interior probes guard against the (rare)
        transient spike above alpha that recovers before the segment
        ends — physically a death the endpoint check would miss.
        """
        if current <= 0:
            return None  # recovery: sigma non-increasing
        def g(t):
            return (
                self.sigma(self._state_at(state, current, t)) - self.alpha
            )
        if g(dt) < 0:
            for frac in (0.25, 0.5, 0.75):
                t = dt * frac
                if g(t) >= 0:
                    return self._bracketed_crossing(g, 0.0, t, dt)
            return None
        return self._bracketed_crossing(g, 0.0, dt, dt)

    @staticmethod
    def _bracketed_crossing(g, lo: float, hi: float, dt: float) -> float:
        """Refine the first upward crossing of g within [lo, hi]."""
        if g(lo) >= 0:
            return lo
        # Tighten the bracket with a forward scan before root-finding.
        n = 16
        step_lo = lo
        for j in range(1, n + 1):
            t = lo + (hi - lo) * j / n
            if g(t) >= 0:
                hi = t
                break
            step_lo = t
        lo = step_lo
        return float(brentq(g, lo, hi, xtol=1e-12, rtol=8.9e-16))

    # ------------------------------------------------------------------
    def unavailable_charge(self, state: DiffusionState) -> float:
        """Charge temporarily locked in the gradient (recoverable)."""
        return 2.0 * float(np.sum(state.memory))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DiffusionBattery(alpha={self.alpha:.6g}C, beta={self.beta:.4g}, "
            f"terms={self.terms})"
        )


class DiffusionPeriodKernel(PeriodKernel):
    """Closed-form whole-period map for the diffusion model.

    Over a constant-current segment each memory term advances as the
    affine map ``u' = u e^{-β²m²Δt} + i (1 - e^{-β²m²Δt})/β²m²`` with a
    *diagonal* decay, so the full-period map is ``u -> D u + c`` with
    ``D = diag(e^{-β²m²T})`` and ``c`` the scanned load vector, and
    ``k`` tiled periods collapse to the elementwise geometric series
    ``u_k = D^k u_0 + (1 - D^k)/(1 - D) c`` (evaluated with ``expm1``
    for decay rates near 0).  ``D`` and all prefix decays depend only
    on the durations; every load term is linear in the currents, so
    :meth:`scaled` reuses the expensive precomputation.
    """

    #: In-segment probe offsets (fractions of each segment), matching
    #: the scalar ``_first_death`` endpoint + interior spike checks.
    _FRACS = (0.25, 0.5, 0.75, 1.0)

    def __init__(
        self,
        model: DiffusionBattery,
        durations: np.ndarray,
        currents: np.ndarray,
    ) -> None:
        super().__init__(model, durations, currents)
        b2m2 = model._b2m2
        self._alpha = model.alpha
        a_seg = np.exp(-np.outer(durations, b2m2))  # (n, M) decays
        b_seg = currents[:, None] * (1.0 - a_seg) / b2m2
        a_pre, b_pre = affine_prefix_diag(a_seg, b_seg)
        m = b2m2.size
        # Maps from period start to each segment *start* (for probes).
        self._decay_to_start = np.vstack([np.ones((1, m)), a_pre[:-1]])
        self._load_to_start = np.vstack([np.zeros((1, m)), b_pre[:-1]])
        # The full-period affine map u -> D u + c.
        self._decay_cycle = a_pre[-1]
        self._load_cycle = b_pre[-1]
        self._log_decay_cycle = -b2m2 * self.period
        # In-segment probe decays at the scalar path's check points and
        # the summed-over-m load responses (times current at use).
        self._probe_decay = np.stack(
            [np.exp(-np.outer(f * durations, b2m2)) for f in self._FRACS]
        )  # (4, n, M)
        self._probe_load_sum = (
            ((1.0 - self._probe_decay) / b2m2).sum(axis=2)
        )  # (4, n)
        seg_charge = durations * currents
        self._consumed_to_start = np.concatenate(
            [[0.0], np.cumsum(seg_charge)[:-1]]
        )
        self._probe_consumed = (
            np.asarray(self._FRACS)[:, None] * seg_charge[None, :]
        )  # (4, n) charge drawn within the segment up to each probe

    def _rescale_loads(self, multiplier: float) -> None:
        self._load_to_start = self._load_to_start * multiplier
        self._load_cycle = self._load_cycle * multiplier
        self._consumed_to_start = self._consumed_to_start * multiplier
        self._probe_consumed = self._probe_consumed * multiplier

    def state_after_cycles(self, k: int) -> DiffusionState:
        if k == 0:
            return self.model.fresh_state()
        # (1 - D^k) / (1 - D), elementwise and expm1-stable; a decay
        # rate that underflows to exactly 0 degenerates to the k-term
        # constant sum.
        num = -np.expm1(k * self._log_decay_cycle)
        den = -np.expm1(self._log_decay_cycle)
        safe = den > 0
        geom = np.where(safe, num / np.where(safe, den, 1.0), float(k))
        return DiffusionState(
            k * self.charge_per_cycle, self._load_cycle * geom
        )

    def _probe_sigma(self, state: DiffusionState) -> np.ndarray:
        """Apparent charge lost at every probe point of one pass.

        Shape ``(4, n)``: the scalar path's four in-segment check
        points for each of the ``n`` segments, all in one batched
        expression.
        """
        u_start = (
            self._decay_to_start * state.memory + self._load_to_start
        )  # (n, M) memory at every segment start
        mem_sum = (
            np.einsum("nm,fnm->fn", u_start, self._probe_decay)
            + self.currents[None, :] * self._probe_load_sum
        )  # (4, n) summed memory at every probe point
        consumed = (
            state.consumed
            + self._consumed_to_start[None, :]
            + self._probe_consumed
        )
        return consumed + 2.0 * mem_sum

    def pass_dies(self, state: DiffusionState) -> bool:
        if state.sigma() >= self._alpha:
            return True
        return bool(np.any(self._probe_sigma(state) >= self._alpha))

    def pass_end_state(self, state: DiffusionState) -> DiffusionState:
        return DiffusionState(
            state.consumed + self.charge_per_cycle,
            state.memory * self._decay_cycle + self._load_cycle,
        )

    def death_cycle_upper_hint(self) -> Optional[int]:
        # sigma >= consumed = k * Q, so death is certain once the
        # consumed charge alone clears alpha (margin for float dust).
        if self.charge_per_cycle <= 0:
            return None
        return int(self._alpha / self.charge_per_cycle) + 3

    def death_segment_candidate(self, state: DiffusionState) -> int:
        if state.sigma() >= self._alpha:
            return 0
        crossing = np.any(self._probe_sigma(state) >= self._alpha, axis=0)
        hits = np.flatnonzero(crossing)
        return int(hits[0]) if hits.size else 0

    def pass_prefix_state(
        self, state: DiffusionState, j: int
    ) -> DiffusionState:
        if j == 0:
            return state
        return DiffusionState(
            state.consumed + self._consumed_to_start[j],
            self._decay_to_start[j] * state.memory + self._load_to_start[j],
        )
