"""Battery model interface.

All battery models in this package consume *piecewise-constant load
current profiles*: parallel arrays ``durations`` (seconds) and
``currents`` (amperes).  A model is a Markovian state machine —
:meth:`BatteryModel.fresh_state` produces the fully-charged state and
:meth:`BatteryModel.advance` propagates it through one constant-current
segment, reporting the in-segment death time if the battery gives out.

The uniform driver :meth:`BatteryModel.run_profile` handles profile
tiling (repeating a hyperperiod profile until death, the way the
paper's Table 2 extends a scheduler's profile to the battery's whole
life) and accumulates delivered charge.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Optional, Sequence, Tuple

import numpy as np

from ..errors import BatteryError

__all__ = ["BatteryModel", "BatteryRun", "as_segments"]


def as_segments(
    durations: Sequence[float], currents: Sequence[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate and normalize a piecewise-constant profile.

    Zero-duration segments are dropped.  Currents must be >= 0 (this
    library models discharge only; charging is out of the paper's
    scope).
    """
    d = np.asarray(durations, dtype=float)
    i = np.asarray(currents, dtype=float)
    if d.ndim != 1 or i.ndim != 1 or d.shape != i.shape:
        raise BatteryError(
            f"durations/currents must be equal-length 1-D arrays, got "
            f"shapes {d.shape} and {i.shape}"
        )
    if d.size == 0:
        raise BatteryError("profile must contain at least one segment")
    if np.any(d < 0):
        raise BatteryError("segment durations must be >= 0")
    if np.any(i < 0):
        raise BatteryError("discharge currents must be >= 0")
    keep = d > 0
    if not np.any(keep):
        raise BatteryError("profile has zero total duration")
    return d[keep], i[keep]


@dataclass(frozen=True)
class BatteryRun:
    """Outcome of driving a battery model with a load profile.

    Attributes
    ----------
    died:
        Whether the battery reached its cutoff during the run.
    lifetime:
        Time of death (seconds) if ``died``, else the total simulated
        time.
    delivered_charge:
        Coulombs actually delivered to the load up to death or end.
    """

    died: bool
    lifetime: float
    delivered_charge: float

    @property
    def delivered_mah(self) -> float:
        """Delivered charge in milliamp-hours (the paper's unit)."""
        return self.delivered_charge / 3.6

    @property
    def lifetime_minutes(self) -> float:
        return self.lifetime / 60.0


class BatteryModel(abc.ABC):
    """Abstract base for charge-delivery battery models."""

    #: The generator a run draws from; ``None`` for deterministic models.
    rng: Optional[np.random.Generator] = None

    @abc.abstractmethod
    def fresh_state(self) -> Any:
        """The fully-charged internal state."""

    @abc.abstractmethod
    def advance(
        self, state: Any, current: float, dt: float
    ) -> Tuple[Any, Optional[float]]:
        """Propagate ``state`` through ``dt`` seconds at ``current`` amperes.

        Returns ``(new_state, death_offset)``; ``death_offset`` is the
        time into the segment at which the battery died (``None`` if it
        survived the whole segment).  After death, ``new_state`` is the
        state *at the moment of death* and must not be advanced further.
        """

    @abc.abstractmethod
    def theoretical_capacity(self) -> float:
        """Total stored charge in coulombs (the 'maximum capacity')."""

    # ------------------------------------------------------------------
    def period_kernel(self, durations, currents):
        """A precomputed fast whole-period propagator, or ``None``.

        Analytic models override this to return a
        :class:`~repro.battery.kernels.PeriodKernel` that advances one
        profile period as a closed-form affine map (and tiled cycles in
        log time).  Models whose state is not affine keep the default
        ``None``: the RNG-driven stochastic model, whose draws must stay
        in slot order within one cell, has its own fast path instead
        (:meth:`_run_profile_fast`).  ``durations``/``currents`` must
        already be validated by :func:`as_segments`.
        """
        return None

    def advance_profile(
        self,
        state: Any,
        durations: Sequence[float],
        currents: Sequence[float],
    ) -> Tuple[Any, Optional[float]]:
        """Propagate ``state`` through one pass of a whole profile.

        Vectorized when the model provides a period kernel (one numpy
        expression per pass, no per-segment Python); otherwise the
        scalar per-segment loop.  Returns ``(new_state, death_time)``
        with ``death_time`` measured from the start of the profile
        (``None`` if the cell survives the pass).
        """
        d, i = as_segments(durations, currents)
        kernel = self.period_kernel(d, i)
        if kernel is not None:
            return kernel.advance_pass(state)
        t = 0.0
        for dt, cur in zip(d, i):
            state, death = self.advance(state, float(cur), float(dt))
            if death is not None:
                return state, t + death
            t += dt
        return state, None

    def run_profile(
        self,
        durations: Sequence[float],
        currents: Sequence[float],
        *,
        repeat: Optional[int] = 1,
        max_time: float = 1e7,
        fast: bool = True,
    ) -> BatteryRun:
        """Drive the model with a profile, optionally tiled.

        Parameters
        ----------
        durations, currents:
            The piecewise-constant profile of one period.
        repeat:
            Number of times to tile the profile; ``None`` repeats until
            the battery dies (or ``max_time`` elapses, which raises —
            an undying profile under ``repeat=None`` is almost always a
            calibration bug the caller should hear about).
        fast:
            Use the model's fast path (:meth:`_run_profile_fast`: the
            vectorized period kernel when it has one, whose results
            match the scalar path to float noise, see
            ``repro.battery.kernels``).  ``False`` forces the scalar
            per-segment reference path — benchmarks and the
            equivalence suite compare the two.
        """
        d, i = as_segments(durations, currents)
        if repeat is not None and repeat < 1:
            raise BatteryError(f"repeat must be >= 1 or None, got {repeat}")
        if fast:
            return self._run_profile_fast(d, i, repeat, max_time)
        return self._run_profile_scalar(d, i, repeat, max_time)

    def _run_profile_fast(
        self,
        d: np.ndarray,
        i: np.ndarray,
        repeat: Optional[int],
        max_time: float,
    ) -> BatteryRun:
        """The ``fast=True`` driver (pre-validated): the model's period
        kernel, or the scalar driver when it has none.  Models with a
        faster exact walk of their own override this."""
        kernel = self.period_kernel(d, i)
        if kernel is not None:
            return kernel.run(repeat=repeat, max_time=max_time)
        return self._run_profile_scalar(d, i, repeat, max_time)

    def _run_profile_scalar(
        self,
        d: np.ndarray,
        i: np.ndarray,
        repeat: Optional[int],
        max_time: float,
        *,
        state: Any = None,
        t: float = 0.0,
        delivered: float = 0.0,
        cycle: int = 0,
    ) -> BatteryRun:
        """The universal per-segment reference driver (pre-validated).

        Resumable mid-run: a period kernel hands over ``state`` and the
        accumulated ``t``/``delivered``/``cycle`` when its vectorized
        predicate and the scalar walk disagree at a grazing threshold,
        landing at the cycle boundary exactly where this loop's checks
        would run next.
        """
        if state is None:
            state = self.fresh_state()
        while True:
            if cycle:
                if repeat is not None and cycle >= repeat:
                    return BatteryRun(
                        died=False, lifetime=t, delivered_charge=delivered
                    )
                if t > max_time:
                    raise BatteryError(
                        f"battery survived past max_time={max_time:.3g}s "
                        f"under repeat=None; the load is too light to ever "
                        f"exhaust it"
                    )
            for dt, cur in zip(d, i):
                state, death = self.advance(state, float(cur), float(dt))
                if death is not None:
                    return BatteryRun(
                        died=True,
                        lifetime=t + death,
                        delivered_charge=delivered + cur * death,
                    )
                t += dt
                delivered += cur * dt
            cycle += 1

    def lifetime_constant(
        self, current: float, *, max_time: float = 1e7
    ) -> BatteryRun:
        """Lifetime under a constant discharge current (rate-capacity
        probe)."""
        if current <= 0:
            raise BatteryError(
                f"constant-load lifetime needs current > 0, got {current}"
            )
        # Chunked advance: a single huge segment works for analytic models,
        # but chunking keeps step-based models accurate too.
        chunk = max(1.0, self.theoretical_capacity() / current / 200.0)
        state = self.fresh_state()
        t = 0.0
        while t < max_time:
            state, death = self.advance(state, current, chunk)
            if death is not None:
                t += death
                return BatteryRun(True, t, current * t)
            t += chunk
        raise BatteryError(
            f"battery survived constant load {current}A past "
            f"max_time={max_time:.3g}s"
        )
