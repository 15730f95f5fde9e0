"""Tests for battery calibration to the paper's AAA NiMH cell."""

import pytest

from repro.battery.calibrate import (
    PAPER_ANCHORS,
    PAPER_MAX_CAPACITY_C,
    calibrate_diffusion,
    calibrate_kibam,
    calibrate_kibam_two_anchors,
    paper_cell_diffusion,
    paper_cell_kibam,
    paper_cell_stochastic,
)
from repro.errors import CalibrationError


class TestSingleAnchor:
    def test_hits_anchor(self):
        cell = calibrate_kibam(
            7200.0, c=0.6, anchor_current=2.0, anchor_delivered=5760.0
        )
        got = cell.lifetime_constant(2.0).delivered_charge
        assert got == pytest.approx(5760.0, rel=1e-6)

    def test_rejects_unreachable_anchor(self):
        # More than total capacity.
        with pytest.raises(CalibrationError):
            calibrate_kibam(7200.0, anchor_delivered=8000.0)
        # Less than the available well.
        with pytest.raises(CalibrationError):
            calibrate_kibam(7200.0, c=0.9, anchor_delivered=6000.0)

    def test_diffusion_hits_anchor(self):
        cell = calibrate_diffusion(
            7200.0, anchor_current=2.0, anchor_delivered=5760.0, terms=10
        )
        got = cell.lifetime_constant(2.0).delivered_charge
        assert got == pytest.approx(5760.0, rel=1e-5)

    def test_diffusion_rejects_bad_anchor(self):
        with pytest.raises(CalibrationError):
            calibrate_diffusion(7200.0, anchor_delivered=7300.0)


class TestTwoAnchors:
    def test_hits_both_anchors(self):
        cell = calibrate_kibam_two_anchors()
        for current, delivered in PAPER_ANCHORS:
            got = cell.lifetime_constant(current).delivered_charge
            assert got == pytest.approx(delivered, rel=1e-4)

    def test_rejects_non_monotone_anchors(self):
        with pytest.raises(CalibrationError, match="deliver less"):
            calibrate_kibam_two_anchors(
                anchors=((0.5, 5000.0), (2.0, 6000.0))
            )

    def test_rejects_anchor_above_capacity(self):
        with pytest.raises(CalibrationError):
            calibrate_kibam_two_anchors(
                anchors=((0.5, 8000.0), (2.0, 5000.0))
            )


class TestPaperCells:
    def test_kibam_max_capacity(self):
        cell = paper_cell_kibam()
        assert cell.capacity == pytest.approx(PAPER_MAX_CAPACITY_C)
        # 2000 mAh in coulombs.
        assert cell.capacity == pytest.approx(2000.0 * 3.6)

    def test_kibam_cached(self):
        assert paper_cell_kibam() is paper_cell_kibam()

    def test_paper_cell_kibam_is_the_fit(self):
        """The shipped constants are the two-anchor fit, bit for bit."""
        fit = calibrate_kibam_two_anchors()
        cell = paper_cell_kibam()
        got = (cell.capacity, cell.c, cell.kp)
        assert got == (fit.capacity, fit.c, fit.kp)

    def test_stochastic_shares_kinetics(self):
        base = paper_cell_kibam()
        sto = paper_cell_stochastic(seed=0)
        assert sto.capacity == base.capacity
        assert sto.c == base.c
        assert sto.kp == base.kp

    def test_diffusion_alpha_is_max_capacity(self):
        cell = paper_cell_diffusion()
        assert cell.alpha == pytest.approx(PAPER_MAX_CAPACITY_C)

    def test_rate_capacity_monotone(self):
        cell = paper_cell_kibam()
        q = [
            cell.lifetime_constant(i).delivered_charge
            for i in (0.3, 0.7, 1.5, 2.8)
        ]
        assert all(a > b for a, b in zip(q, q[1:]))
