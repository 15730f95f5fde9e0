"""Battery-lifetime evaluation of scheduler executions.

Bridges a :class:`~repro.sim.engine.SimulationResult` (or a raw
:class:`~repro.sim.profile.CurrentProfile`) to a battery model: the
simulated window's profile is treated as one period of a stationary
load and tiled until the battery dies, the way the paper extends its
periodic schedules to a whole battery life (Table 2's "since the
simulated taskgraphs are periodic, this is also a good measure of the
amount of work done ... before the battery was discharged").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..battery.base import BatteryModel, BatteryRun, as_segments
from ..battery.kernels import run_profile_batch
from ..errors import BatteryError, SchedulingError
from ..sim.engine import SimulationResult
from ..sim.profile import CurrentProfile

__all__ = ["evaluate_lifetime", "LifetimeReport", "survival_scale"]


@dataclass(frozen=True)
class LifetimeReport:
    """Battery outcome of running a schedule until the cell dies."""

    run: BatteryRun
    mean_current: float
    peak_current: float
    #: 1 when the fast path's run came back non-finite and ``run`` is
    #: the scalar path's re-evaluation, else 0.
    demoted: int = 0

    @property
    def lifetime_minutes(self) -> float:
        return self.run.lifetime_minutes

    @property
    def delivered_mah(self) -> float:
        return self.run.delivered_mah

    @property
    def work_delivered(self) -> float:
        """Charge × 1 — proportional to cycles completed for a periodic
        load, the paper's 'amount of work done' proxy."""
        return self.run.delivered_charge


def evaluate_lifetime(
    source: Union[SimulationResult, CurrentProfile],
    battery: BatteryModel,
    *,
    rebin: Optional[float] = None,
    max_time: float = 1e7,
    fast: bool = True,
) -> LifetimeReport:
    """Tile the execution's current profile through ``battery`` to death.

    Models with a vectorized period kernel (diffusion, KiBaM, Peukert)
    evaluate the whole tiling in closed form — the death *cycle* by
    binary search on the precomputed period map, the death *instant*
    by the scalar path inside the final period — which is two to three
    orders of magnitude faster than the per-segment loop at paper
    scale (see ``benchmarks/bench_lifetime.py``).

    Parameters
    ----------
    source:
        A finished simulation (its profile is extracted) or a profile.
    battery:
        Any battery model; a fresh state is always used.
    rebin:
        Optional uniform rebinning width in seconds.  Rebinning
        preserves charge exactly and is recommended for slot-based
        models (big speedup); keep it well under the battery's kinetic
        time constant.
    max_time:
        Safety bound — a profile too light to ever kill the battery
        raises instead of looping forever.
    fast:
        ``False`` forces the scalar per-segment reference path.

    The load goes through :func:`~repro.battery.kernels.
    run_profile_batch` as a batch of one, so a non-finite fast-path
    run is re-evaluated on the scalar path exactly as in a scenario
    batch, and the report's ``demoted`` says so.
    """
    if isinstance(source, SimulationResult):
        profile = source.profile()
    elif isinstance(source, CurrentProfile):
        profile = source
    else:
        raise BatteryError(
            f"source must be SimulationResult or CurrentProfile, got "
            f"{type(source).__name__}"
        )
    if rebin is not None:
        profile = profile.rebinned(rebin)
    stats: dict = {}
    (run,) = run_profile_batch(
        [(battery, profile.durations, profile.currents)],
        max_time=max_time, fast=fast, stats=stats,
    )
    return LifetimeReport(
        run=run,
        mean_current=profile.mean_current,
        peak_current=profile.peak_current,
        demoted=stats["numeric_demotions"],
    )


def survival_scale(
    cell: BatteryModel,
    profile: CurrentProfile,
    *,
    lo: float = 0.1,
    hi: float = 10.0,
    iters: int = 40,
    fast: bool = True,
) -> float:
    """Largest multiplier on the profile's currents the cell survives.

    Bisection on "does one pass of the scaled profile complete before
    the battery dies".  This is the guideline-1 metric: a permutation
    that survives a larger scale is strictly friendlier to the battery.

    The profile is validated once (not per probe), and for models with
    a period kernel the duration-dependent decay precomputation is
    built once and shared across all ``iters + 2`` probes — only the
    current-linear load vectors are rescaled per probe.
    """
    d, i = as_segments(profile.durations, profile.currents)
    kernel = cell.period_kernel(d, i) if fast else None
    if kernel is not None:
        def survives(scale: float) -> bool:
            return kernel.scaled(scale).survives_fresh_pass()
    else:
        def survives(scale: float) -> bool:
            run = cell.run_profile(d, i * scale, repeat=1, fast=fast)
            return not run.died

    if not survives(lo):
        raise SchedulingError(
            f"profile already kills the cell at scale {lo}; lower `lo`"
        )
    if survives(hi):
        raise SchedulingError(
            f"profile survives even at scale {hi}; raise `hi`"
        )
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if survives(mid):
            lo = mid
        else:
            hi = mid
    return lo
