"""Table 2 — charge delivered and battery lifetime per scheduling scheme.

Paper values at 70 % utilization (AAA NiMH, 2000 mAh max):

    EDF    1567 mAh   74 min
    ccEDF  1608 mAh  101 min
    laEDF  1607 mAh  120 min
    BAS-1  1723 mAh  137 min
    BAS-2  1757 mAh  148 min

Shape to reproduce: strictly increasing lifetime down the table; EDF
delivers the least charge; BAS-2 the most.  (Our faithful laEDF with
optimal frequency mixing is stronger than the paper's baseline, so the
BAS-over-laEDF margin compresses — see the fidelity-ledger item in
ROADMAP.md.)
"""

from conftest import publish
from repro.api import Study, plans


def test_table2(benchmark, results_dir):
    result = benchmark.pedantic(
        lambda: Study(
            plans.table2_plan(n_sets=8, n_graphs=5, seed=0)
        ).run(),
        rounds=1,
        iterations=1,
    )
    publish(results_dir, "table2", result.format())

    means = result.summary()
    life = dict(zip(means.column("scheme"), means.column("lifetime_min")))
    charge = dict(zip(means.column("scheme"), means.column("delivered_mah")))
    # Lifetime progression (paper's headline ordering).
    assert life["EDF"] < life["ccEDF"] < life["laEDF"]
    assert life["BAS-1"] >= life["laEDF"] * 0.995
    assert life["BAS-2"] >= life["laEDF"] * 0.995
    # Charge extraction: gentler profiles extract more of the maximum.
    assert charge["EDF"] < charge["ccEDF"] < charge["BAS-2"] < 2000.0
    # §6: "up to 100% improvement in battery lifetime over systems with
    # no DVS" — ours exceeds it.
    assert life["BAS-2"] / life["EDF"] > 2.0
    # §6: "up to 47% better than ccEDF".
    assert life["BAS-2"] / life["ccEDF"] > 1.2
