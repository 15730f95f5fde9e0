"""Figure 5 (battery) — load vs delivered capacity curve.

The paper defines the cell's *maximum* capacity (2000 mAh) as the
infinitesimal-load limit of the delivered-capacity curve and the
*available-well* charge as the infinite-load limit, both read off the
curve's extrapolated ends.  This bench sweeps constant loads through
the calibrated KiBaM / diffusion / stochastic cells and checks the
extrapolations.
"""

from conftest import publish
from repro.api import Study, plans
from repro.battery.calibrate import paper_cell_kibam
from repro.battery.ratecapacity import extrapolated_capacities


def test_rate_capacity(benchmark, results_dir):
    result = benchmark.pedantic(
        lambda: Study(
            plans.rate_capacity_plan(
                currents=(
                    0.1, 0.2, 0.45, 0.7, 1.0, 1.25, 2.0, 2.8, 4.0, 8.0
                )
            )
        ).run(),
        rounds=1,
        iterations=1,
    )
    publish(results_dir, "ratecapacity", result.format())

    # The extrapolated maximum matches the paper's 2000 mAh cell.
    max_c, avail_c = extrapolated_capacities(paper_cell_kibam())
    assert abs(max_c / 3.6 - 2000.0) / 2000.0 < 0.03
    assert avail_c < max_c
    # Every model's curve is monotone decreasing in load.
    frame = result.frame
    for battery in ("kibam", "diffusion", "stochastic"):
        vals = list(frame.filter(battery=battery).column("delivered_c"))
        assert all(a >= b for a, b in zip(vals, vals[1:]))
    # The calibration anchors (0.45 A -> 1800 mAh, 1.25 A -> 1570 mAh).
    sub = frame.filter(battery="kibam")
    kibam = {
        float(i): float(q) / 3.6
        for i, q in zip(sub.column("current"), sub.column("delivered_c"))
    }
    assert abs(kibam[0.45] - 1800.0) < 10.0
    assert abs(kibam[1.25] - 1570.0) < 10.0
