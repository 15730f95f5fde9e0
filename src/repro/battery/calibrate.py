"""Battery parameter calibration to the paper's AAA NiMH cell.

The paper anchors its cell with two published numbers (§5):

* **maximum capacity** 2000 mAh — charge under infinitesimal load;
* **nominal capacity** ≈1600 mAh — charge under a nominal (≈1 C) load.

For KiBaM the maximum capacity *is* the total capacity parameter and
the nominal capacity pins the kinetics: given the well split ``c`` we
bisect the rate constant ``kp`` until a constant nominal-rate discharge
delivers the nominal charge.  The diffusion model is calibrated the
same way on ``beta`` with ``alpha`` as the maximum capacity.

Factories :func:`paper_cell_kibam`, :func:`paper_cell_diffusion` and
:func:`paper_cell_stochastic` return ready-to-use calibrated cells and
are what every Table 2 style experiment uses.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from ..errors import CalibrationError
from .diffusion import DiffusionBattery
from .kernels import brentq
from .kibam import KiBaM
from .stochastic import StochasticKiBaM

__all__ = [
    "PAPER_MAX_CAPACITY_C",
    "PAPER_NOMINAL_CAPACITY_C",
    "PAPER_NOMINAL_CURRENT_A",
    "PAPER_WELL_SPLIT",
    "PAPER_ANCHORS",
    "calibrate_kibam",
    "calibrate_kibam_two_anchors",
    "calibrate_diffusion",
    "paper_cell_kibam",
    "paper_cell_diffusion",
    "paper_cell_stochastic",
]

#: 2000 mAh in coulombs — the theoretical/maximum capacity of the cell.
PAPER_MAX_CAPACITY_C = 2000.0 * 3.6
#: ~1600 mAh in coulombs — the nominal capacity the paper quotes.
PAPER_NOMINAL_CAPACITY_C = 1600.0 * 3.6
#: Load at which the nominal capacity is assumed delivered (≈1 C rate,
#: in the middle of the currents the paper's processor actually draws).
PAPER_NOMINAL_CURRENT_A = 2.0
#: Available-well fraction; 0.625 is the classic KiBaM default and the
#: reproduction's fixed structural choice (see DESIGN.md §5).
PAPER_WELL_SPLIT = 0.625

#: Two-point rate-capacity anchors for the paper cell, chosen to put
#: the knee of the delivered-capacity curve inside the current range
#: the paper's processor actually draws (≈0.45 A for the floor-bound
#: BAS schemes up to ≈1.25 A for no-DVS EDF), reproducing the spread of
#: Table 2's charge column.  Format: (current A, delivered charge C).
PAPER_ANCHORS = (
    (0.45, 1800.0 * 3.6),
    (1.25, 1570.0 * 3.6),
)


def _delivered_at(model_factory, param: float, current: float) -> float:
    model = model_factory(param)
    return model.lifetime_constant(current).delivered_charge


def calibrate_kibam(
    capacity: float = PAPER_MAX_CAPACITY_C,
    *,
    c: float = PAPER_WELL_SPLIT,
    anchor_current: float = PAPER_NOMINAL_CURRENT_A,
    anchor_delivered: float = PAPER_NOMINAL_CAPACITY_C,
    kp_bounds: tuple = (1e-6, 1.0),
) -> KiBaM:
    """Fit KiBaM's rate constant so a constant ``anchor_current``
    discharge delivers ``anchor_delivered`` coulombs.

    Raises
    ------
    CalibrationError
        If the anchor is unreachable within ``kp_bounds`` (e.g. asking
        for more than the total capacity, or less than the available
        well).
    """
    if not (c * capacity < anchor_delivered < capacity):
        raise CalibrationError(
            f"anchor_delivered={anchor_delivered:.6g}C must lie strictly "
            f"between the available well ({c * capacity:.6g}C) and the "
            f"total capacity ({capacity:.6g}C)"
        )

    def residual(kp: float) -> float:
        return (
            _delivered_at(lambda k: KiBaM(capacity, c, k), kp, anchor_current)
            - anchor_delivered
        )

    lo, hi = kp_bounds
    r_lo, r_hi = residual(lo), residual(hi)
    if r_lo * r_hi > 0:
        raise CalibrationError(
            f"kp_bounds {kp_bounds} do not bracket the anchor "
            f"(residuals {r_lo:.4g}, {r_hi:.4g})"
        )
    kp = float(brentq(residual, lo, hi, rtol=1e-10))
    return KiBaM(capacity, c, kp)


def calibrate_diffusion(
    alpha: float = PAPER_MAX_CAPACITY_C,
    *,
    anchor_current: float = PAPER_NOMINAL_CURRENT_A,
    anchor_delivered: float = PAPER_NOMINAL_CAPACITY_C,
    terms: int = 20,
    beta_bounds: tuple = (1e-4, 10.0),
) -> DiffusionBattery:
    """Fit the diffusion rate ``beta`` to the same nominal anchor."""
    if not (0 < anchor_delivered < alpha):
        raise CalibrationError(
            f"anchor_delivered={anchor_delivered:.6g}C must be in "
            f"(0, alpha={alpha:.6g}C)"
        )

    def residual(beta: float) -> float:
        return (
            _delivered_at(
                lambda b: DiffusionBattery(alpha, b, terms),
                beta,
                anchor_current,
            )
            - anchor_delivered
        )

    lo, hi = beta_bounds
    r_lo, r_hi = residual(lo), residual(hi)
    if r_lo * r_hi > 0:
        raise CalibrationError(
            f"beta_bounds {beta_bounds} do not bracket the anchor "
            f"(residuals {r_lo:.4g}, {r_hi:.4g})"
        )
    beta = float(brentq(residual, lo, hi, rtol=1e-10))
    return DiffusionBattery(alpha, beta, terms)


def calibrate_kibam_two_anchors(
    capacity: float = PAPER_MAX_CAPACITY_C,
    *,
    anchors=PAPER_ANCHORS,
    c_bounds: tuple = (0.05, 0.95),
    kp_bounds: tuple = (1e-7, 1.0),
) -> KiBaM:
    """Fit *both* KiBaM kinetics parameters (c, kp) to two anchors.

    Solving two (current, delivered) points pins the rate-capacity
    curve's position *and* steepness; the single-anchor
    :func:`calibrate_kibam` can only place one point on it.  The outer
    bisection runs on ``c`` (delivered charge at the high-current
    anchor is monotone in ``c`` once ``kp`` is re-fit to the
    low-current anchor); the inner fit reuses the single-anchor solver.
    """
    (i_lo, q_lo), (i_hi, q_hi) = sorted(anchors)
    for q, name in ((q_lo, "low"), (q_hi, "high")):
        if not (0 < q < capacity):
            raise CalibrationError(
                f"{name}-current anchor delivered={q:.6g}C must be in "
                f"(0, capacity={capacity:.6g}C)"
            )
    if q_hi >= q_lo:
        raise CalibrationError(
            "the higher-current anchor must deliver less charge "
            f"(got {q_lo:.6g}C @ {i_lo:.3g}A vs {q_hi:.6g}C @ {i_hi:.3g}A)"
        )

    def inner(c: float) -> KiBaM:
        return calibrate_kibam(
            capacity,
            c=c,
            anchor_current=i_lo,
            anchor_delivered=q_lo,
            kp_bounds=kp_bounds,
        )

    def residual(c: float) -> float:
        cell = inner(c)
        return cell.lifetime_constant(i_hi).delivered_charge - q_hi

    lo, hi = c_bounds
    # The available well must stay below the high anchor's delivery.
    hi = min(hi, q_hi / capacity * 0.999)
    r_lo, r_hi = residual(lo), residual(hi)
    if r_lo * r_hi > 0:
        raise CalibrationError(
            f"c_bounds ({lo:.4g}, {hi:.4g}) do not bracket the two-anchor "
            f"fit (residuals {r_lo:.4g}, {r_hi:.4g})"
        )
    c = float(brentq(residual, lo, hi, rtol=1e-9))
    return inner(c)


@lru_cache(maxsize=None)
def paper_cell_kibam() -> KiBaM:
    """The calibrated AAA NiMH cell as an analytic KiBaM (cached).

    The constants are :func:`calibrate_kibam_two_anchors` at its
    defaults (the :data:`PAPER_ANCHORS` fit), shipped as literals so no
    process pays for the nested root-finding.  ``TestPaperCells::
    test_paper_cell_kibam_is_the_fit`` in
    ``tests/battery/test_calibrate.py`` re-fits them and pins them bit
    for bit.
    """
    return KiBaM(
        PAPER_MAX_CAPACITY_C, 0.6580173354242722, 0.0003216604795681329
    )


@lru_cache(maxsize=None)
def paper_cell_diffusion() -> DiffusionBattery:
    """The calibrated AAA NiMH cell as a diffusion battery (cached)."""
    return calibrate_diffusion()


def paper_cell_stochastic(
    seed: Optional[int] = 0, *, dt: float = 1.0, noise: float = 0.25
) -> StochasticKiBaM:
    """The calibrated cell as a stochastic KiBaM (Table 2's model).

    Kinetic parameters are :func:`paper_cell_kibam`'s fitted constants;
    only the stochastic layer (slot length, noise, seed) is chosen here.
    """
    base = paper_cell_kibam()
    return StochasticKiBaM(
        base.capacity, base.c, base.kp, dt=dt, noise=noise, seed=seed
    )
