"""Vectorized lifetime kernels: closed-form whole-period battery maps.

The single hottest path of every experiment — tiling a hyperperiod
current profile through a battery model until the cell dies
(:meth:`~repro.battery.base.BatteryModel.run_profile`) — used to be a
pure-Python per-segment loop.  But every analytic model in this package
is *affine in its state* over a constant-current segment, so a whole
profile period composes into one precomputed affine map and K tiled
periods into its K-th power:

* build per-segment affine maps ``x -> A_j x + b_j`` (numpy, no
  per-segment Python);
* compose them into prefix maps with a Hillis–Steele doubling scan
  (``O(n log n)`` work, products of decay factors in ``(0, 1]`` so the
  scan can never overflow), giving the state at every segment boundary
  of a pass as one batched expression;
* the full-period map ``x -> D x + c`` then advances whole tiled
  cycles at once — ``x_k = D^k x_0 + (I + D + ... + D^{k-1}) c`` — in
  log time (elementwise geometric series for diagonal ``D``, repeated
  squaring for the matrix case);
* binary-search the death *cycle* with a vectorized "does one pass
  from this state die?" predicate, then localize the death
  *segment/instant* inside the final period with the existing scalar
  path (which owns the root-finding tolerances).

Concrete kernels live next to their models
(:class:`~repro.battery.diffusion.DiffusionPeriodKernel`,
:class:`~repro.battery.kibam.KiBaMPeriodKernel`,
:class:`~repro.battery.peukert.PeukertPeriodKernel`).  The RNG-driven
stochastic model has no kernel: the order of its draws within one cell
*is* its semantics, so its fast path is an exact slot walk of its own
(:meth:`~repro.battery.stochastic.StochasticKiBaM._run_profile_fast`).
The scalar loop remains the universal fallback.

Numerical contract: kernel results match the scalar path to floating
point noise (relative ``~1e-9``; verified by the property suite in
``tests/battery/test_fast_paths.py``).  The only potential divergence
is a death that grazes the capacity threshold within one ulp, which
may move by one period; the kernel detects the mismatch during scalar
localization and falls back to pure scalar tiling from that point.

The scalar localization finds death instants with :func:`brentq`, a
pure-Python port of scipy's Brent solver kept here so that importing
the package does not load ``scipy.optimize``.  It returns the same
float as ``scipy.optimize.brentq`` for the same function (pinned by
``tests/battery/test_brentq.py``), so no kernel version moved with it.
"""

from __future__ import annotations

import abc
import copy
import math
import sys
from typing import Any, Callable, Optional, Tuple

import numpy as np

from ..errors import BatteryError
from .base import BatteryModel, BatteryRun

__all__ = [
    "PeriodKernel",
    "KERNEL_VERSIONS",
    "kernel_version_token",
    "run_profile_batch",
    "affine_prefix_diag",
    "affine_prefix_matrix",
    "brentq",
]

#: Per-component kernel semantic versions.  Bump an entry whenever the
#: corresponding numerics change (new probe points, different
#: composition order, altered fallback behaviour): the token below is
#: folded into every campaign-spec content hash, so stale cached
#: results computed by the old generation are invalidated
#: automatically.
KERNEL_VERSIONS = {
    "diffusion": 1,
    "kibam": 1,
    "peukert": 1,
    "scalar": 1,  # the per-segment reference loop in BatteryModel
    # The simulator generation: exact release clock, scale-relative
    # epsilon and deadline-miss semantics landed together; results of
    # edge-case cached scenarios can differ from the previous engine
    # at float-dust level.
    # v2: wcet-relative actuals validation tolerance and zero-speed
    # laEDF hypothetical semantics (affects large-WCET and idle-
    # lookahead edge cases only).
    "engine": 2,
    # The struct-of-arrays multi-scenario engine (sim/vector.py).
    # Bump when its event replication or fallback classification
    # changes in a way that could alter any vectorized result.
    # v2: laEDF / pUBS / ALL_RELEASED / job-keyed actuals became
    # vector-eligible, so scenarios that previously took the scalar
    # fallback now run through the array kernels.
    "vector": 2,
}


def kernel_version_token() -> str:
    """A stable string identifying the battery-kernel generation.

    Consumed by :func:`repro.campaign.spec.content_hash`: any bump in
    :data:`KERNEL_VERSIONS` changes the token, which changes every
    spec hash, which turns the whole on-disk campaign cache into a
    miss — exactly what a kernel-numerics change requires.
    """
    return ",".join(
        f"{name}={version}"
        for name, version in sorted(KERNEL_VERSIONS.items())
    )


def run_profile_batch(
    loads: "list[tuple[BatteryModel, np.ndarray, np.ndarray]]",
    *,
    repeat: Optional[int] = None,
    max_time: float = 1e7,
    fast: bool = True,
    stats: Optional[dict] = None,
) -> "list[BatteryRun]":
    """Tile many ``(model, durations, currents)`` loads to death.

    The batched entry point the multi-scenario simulation driver
    (:mod:`repro.sim.batch`) hands columnar trace profiles to: one
    call evaluates every scenario's battery outcome, each load through
    its model's vectorized period kernel when the model provides one
    (the scalar per-segment loop remains the per-model fallback).
    Results are bit-identical to calling
    :meth:`~repro.battery.base.BatteryModel.run_profile` per load —
    the value of the batch is the single columnar hand-off (and that
    each evaluation inside it is a handful of vector ops, not a
    Python segment walk).

    Numeric guardrail: a fast-path run whose ``lifetime`` or
    ``delivered_charge`` comes back NaN/inf is re-evaluated through
    the scalar per-segment loop (the authority on the numerics) and
    counted under ``stats["numeric_demotions"]`` when a ``stats``
    dict is supplied.  A model that draws from a generator
    (:attr:`~repro.battery.base.BatteryModel.rng`) is re-evaluated
    from the generator state the fast run started from.
    """
    runs = []
    demotions = 0
    for model, durations, currents in loads:
        rng = model.rng if fast else None
        entry = rng.bit_generator.state if rng is not None else None
        run = model.run_profile(
            durations, currents,
            repeat=repeat, max_time=max_time, fast=fast,
        )
        if fast and not (
            np.isfinite(run.lifetime)
            and np.isfinite(run.delivered_charge)
        ):
            if rng is not None:
                rng.bit_generator.state = entry
            run = model.run_profile(
                durations, currents,
                repeat=repeat, max_time=max_time, fast=False,
            )
            demotions += 1
        runs.append(run)
    if stats is not None:
        stats["numeric_demotions"] = (
            stats.get("numeric_demotions", 0) + demotions
        )
    return runs


def affine_prefix_diag(
    a: np.ndarray, b: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Inclusive prefix composition of diagonal affine maps.

    ``a``, ``b`` have shape ``(n, M)``: segment ``j`` maps
    ``u -> a[j] * u + b[j]`` elementwise.  Returns ``(A, B)`` where
    ``A[j] * u0 + B[j]`` is the state after segments ``0..j``.
    Hillis–Steele doubling scan: ``O(n log n)`` elementwise work, and
    since every ``a`` entry is a decay factor in ``(0, 1]`` the
    products only shrink — no overflow for any profile length.
    """
    A = np.array(a, dtype=float)
    B = np.array(b, dtype=float)
    n = A.shape[0]
    s = 1
    while s < n:
        # Compose map ending at j with the prefix ending at j - s.
        # RHS slices are evaluated before assignment, and A is only
        # written after B consumed its old values.
        B[s:] = A[s:] * B[:-s] + B[s:]
        A[s:] = A[s:] * A[:-s]
        s *= 2
    return A, B


def affine_prefix_matrix(
    a: np.ndarray, b: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Inclusive prefix composition of matrix affine maps.

    ``a`` has shape ``(n, k, k)``, ``b`` shape ``(n, k)``; segment
    ``j`` maps ``x -> a[j] @ x + b[j]``.  Same doubling scan as
    :func:`affine_prefix_diag` with batched matmuls.
    """
    A = np.array(a, dtype=float)
    B = np.array(b, dtype=float)
    n = A.shape[0]
    s = 1
    while s < n:
        B[s:] = np.einsum("nij,nj->ni", A[s:], B[:-s]) + B[s:]
        A[s:] = A[s:] @ A[:-s]
        s *= 2
    return A, B


def _affine_matrix_power(
    P: np.ndarray, q: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(P, q)`` affine map iterated ``k`` times, by repeated squaring."""
    dim = P.shape[0]
    acc_P = np.eye(dim)
    acc_q = np.zeros(dim)
    base_P, base_q = P, q
    while k:
        if k & 1:
            acc_q = base_P @ acc_q + base_q
            acc_P = base_P @ acc_P
        k >>= 1
        if k:
            base_q = base_P @ base_q + base_q
            base_P = base_P @ base_P
    return acc_P, acc_q


#: scipy.optimize.brentq's default tolerances and iteration cap.
_BRENTQ_XTOL = 2e-12
_BRENTQ_RTOL = 4 * sys.float_info.epsilon
_BRENTQ_MAXITER = 100


def brentq(
    f: Callable[[float], float],
    a: float,
    b: float,
    xtol: float = _BRENTQ_XTOL,
    rtol: float = _BRENTQ_RTOL,
    maxiter: int = _BRENTQ_MAXITER,
) -> float:
    """Root of ``f`` in the bracket ``[a, b]`` by Brent's method.

    A port of ``scipy.optimize.brentq`` (the C loop in scipy's
    ``Zeros/brentq.c`` and its Python wrapper): same argument checks,
    same expression order, so it returns the same float for the same
    ``f``.  Converged when half the bracket is below
    ``(xtol + rtol * |x|) / 2``.

    Raises ``ValueError`` for ``xtol <= 0``, ``rtol < 4 * eps``, a
    negative ``maxiter``, a NaN value of ``f``, or ``f(a)`` and
    ``f(b)`` of the same sign; ``RuntimeError`` when ``maxiter``
    iterations do not converge.  An exact zero at an endpoint is
    returned as is.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _BRENTQ_RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_BRENTQ_RTOL:g})")
    if maxiter < 0:
        raise ValueError("maxiter must be >= 0")

    def call(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(
                f"The function value at x={x} is NaN; "
                "solver cannot continue."
            )
        return float(fx)

    # Names follow the C source: xcur is the best estimate, xblk the
    # other end of the bracket, xpre the previous estimate.  Every f
    # value below is non-zero and not NaN wherever a sign is compared,
    # so ``x < 0`` stands in for C's ``signbit(x)``.
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre = xcur
            xcur = xblk
            xblk = xpre
            fpre = fcur
            fcur = fblk
            fblk = fpre

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (
                        -fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre))
                    )
            except ZeroDivisionError:
                # In C a zero divisor gives an inf or NaN step (fcur,
                # fpre and fblk are non-zero), which fails the test
                # below and bisects; NaN takes the same branch.
                stry = math.nan
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre = scur
                scur = stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


class PeriodKernel(abc.ABC):
    """Precomputed whole-period propagator for one validated profile.

    Subclasses provide the model-specific closed forms; this base owns
    the tiling driver (death-cycle binary search, ``repeat`` /
    ``max_time`` semantics — bit-faithful to the scalar
    :meth:`~repro.battery.base.BatteryModel.run_profile` loop) and the
    scalar localization of the death instant inside the final period.

    Everything that depends only on *durations* is computed once in
    ``__init__``; everything linear in the *currents* is rescaled by
    :meth:`scaled` without recomputation, which is what lets a
    ~40-probe survival bisection reuse one kernel.
    """

    def __init__(
        self,
        model: BatteryModel,
        durations: np.ndarray,
        currents: np.ndarray,
    ) -> None:
        self.model = model
        self.durations = durations
        self.currents = currents
        self.period = float(np.sum(durations))
        self.charge_per_cycle = float(np.dot(durations, currents))

    # -- model-specific closed forms -----------------------------------
    @abc.abstractmethod
    def state_after_cycles(self, k: int) -> Any:
        """State after ``k`` full periods from the fresh state (log-time)."""

    @abc.abstractmethod
    def pass_dies(self, state: Any) -> bool:
        """Whether one pass of the profile from ``state`` kills the cell.

        Must agree with the scalar per-segment death checks: same probe
        points, same comparison sense, evaluated vectorized.
        """

    @abc.abstractmethod
    def pass_end_state(self, state: Any) -> Any:
        """State after one surviving pass (the affine period map)."""

    def death_cycle_upper_hint(self) -> Optional[int]:
        """A cycle count by which death is *certain*, or ``None``.

        Subclasses derive it from charge conservation (e.g. once the
        consumed charge alone exceeds the capacity parameter the pass
        predicate is true from its very first check), which turns the
        death-cycle binary search over ``max_time / T`` cycles into one
        over the actual lifetime's cycle count.
        """
        return None

    def death_segment_candidate(self, state: Any) -> int:
        """First segment index the vectorized death check flags.

        Only meaningful when ``pass_dies(state)`` is true; the scalar
        localization starts its walk here instead of replaying the
        whole final period.  The default (0) replays the full pass.
        """
        return 0

    def pass_prefix_state(self, state: Any, j: int) -> Any:
        """State at the start of segment ``j`` of a pass from ``state``."""
        if j == 0:
            return state
        raise NotImplementedError  # pragma: no cover - subclass hook

    def _rescale_loads(self, multiplier: float) -> None:
        """Scale every current-linear precomputation in place (on a copy)."""
        raise NotImplementedError  # pragma: no cover - subclass hook

    # -- shared drivers ------------------------------------------------
    def scaled(self, multiplier: float) -> "PeriodKernel":
        """A kernel for the same durations with currents scaled.

        Duration-dependent arrays (the decay maps, the dominant cost)
        are shared; only the current-linear load vectors are rescaled.
        """
        if multiplier < 0:
            raise BatteryError(
                f"current multiplier must be >= 0, got {multiplier}"
            )
        k = copy.copy(self)
        k.currents = self.currents * multiplier
        k.charge_per_cycle = self.charge_per_cycle * multiplier
        k._rescale_loads(multiplier)
        return k

    def survives_fresh_pass(self) -> bool:
        """Cheap predicate for survival bisections (no localization)."""
        return not self.pass_dies(self.model.fresh_state())

    def advance_pass(self, state: Any) -> Tuple[Any, Optional[float]]:
        """One pass from ``state``: ``(end_state, death_time | None)``.

        Death localization reuses the scalar segment walk, which owns
        the root-finding tolerances.
        """
        if not self.pass_dies(state):
            return self.pass_end_state(state), None
        state, t, delivered, died = self._localize_death(state)
        if died:
            return state, t
        return state, None  # threshold-grazing mismatch: survived after all

    def _localize_death(
        self, state: Any
    ) -> Tuple[Any, float, float, bool]:
        """Scalar death localization inside one (predicate-dying) pass.

        Jumps to the first segment the vectorized check flags, then
        walks the existing scalar path from there.  Returns
        ``(state, t, delivered, died)``: time and delivered charge
        from the pass start up to the death instant, or up to the pass
        end on a threshold-grazing predicate mismatch (``died`` False).
        """
        d, i = self.durations, self.currents
        j0 = self.death_segment_candidate(state)
        state = self.pass_prefix_state(state, j0)
        t = float(np.sum(d[:j0]))
        delivered = float(np.dot(d[:j0], i[:j0]))
        for dt, cur in zip(d[j0:], i[j0:]):
            state, death = self.model.advance(state, float(cur), float(dt))
            if death is not None:
                return state, t + death, delivered + cur * death, True
            t += dt
            delivered += cur * dt
        return state, t, delivered, False

    def run(
        self, *, repeat: Optional[int], max_time: float
    ) -> BatteryRun:
        """Tile the profile to death / ``repeat`` — scalar semantics.

        Mirrors the scalar driver exactly: a cycle that completes the
        requested ``repeat`` returns before the ``max_time`` check, and
        an undying profile raises once a completed cycle passes
        ``max_time``.
        """
        T = self.period
        Q = self.charge_per_cycle
        # First cycle count c with c * T > max_time (the scalar loop's
        # raise point), robust to float division dust.
        c_raise = max(1, int(max_time / T) + 1)
        while c_raise > 1 and (c_raise - 1) * T > max_time:
            c_raise -= 1
        while c_raise * T <= max_time:
            c_raise += 1
        cap = c_raise if repeat is None else min(repeat, c_raise)

        k_hi: Optional[int] = None
        if Q > 0:
            hint = self.death_cycle_upper_hint()
            if (
                hint is not None
                and hint < cap
                and self.pass_dies(self.state_after_cycles(hint - 1))
            ):
                k_hi = hint
            elif self.pass_dies(self.state_after_cycles(cap - 1)):
                k_hi = cap

        if k_hi is not None:
            lo, hi = 1, k_hi  # first dying cycle, 1-based
            while lo < hi:
                mid = (lo + hi) // 2
                if self.pass_dies(self.state_after_cycles(mid - 1)):
                    hi = mid
                else:
                    lo = mid + 1
            k_death = lo
            state = self.state_after_cycles(k_death - 1)
            t0 = (k_death - 1) * T
            delivered0 = (k_death - 1) * Q
            state, t, delivered, died = self._localize_death(state)
            if died:
                return BatteryRun(
                    died=True,
                    lifetime=t0 + t,
                    delivered_charge=delivered0 + delivered,
                )
            # The vectorized predicate and the scalar walk disagreed at
            # a grazing threshold: finish with the authoritative scalar
            # driver from the state we already reached.
            return self._scalar_tail(
                state, k_death, t0 + t, delivered0 + delivered,
                repeat, max_time,
            )

        if repeat is not None and repeat <= c_raise:
            return BatteryRun(
                died=False, lifetime=repeat * T, delivered_charge=repeat * Q
            )
        raise BatteryError(
            f"battery survived past max_time={max_time:.3g}s under "
            f"repeat=None; the load is too light to ever exhaust it"
        )

    def _scalar_tail(
        self,
        state: Any,
        cycles_done: int,
        t: float,
        delivered: float,
        repeat: Optional[int],
        max_time: float,
    ) -> BatteryRun:
        """Continue pure scalar tiling after a predicate/walk mismatch."""
        return self.model._run_profile_scalar(
            self.durations, self.currents, repeat, max_time,
            state=state, t=t, delivered=delivered, cycle=cycles_done,
        )
