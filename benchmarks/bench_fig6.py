"""Figure 6 — ordering schemes vs near-optimal, growing graph count.

All schemes use laEDF frequency setting; energies are normalized by
the precedence-relaxed near-optimal run.  Shape to reproduce: pUBS on
the all-released ready list tracks the near-optimal most closely among
the ordering schemes (paper: "the scheme selecting the next task using
pUBS on all released independent tasks performs closest to the near
optimal").

Run at U = 0.85 rather than the paper's 0.70: with ideal two-level
frequency mixing, every ordering scheme is pinned to the 0.5 GHz
hardware floor at 0.70 utilization and the normalized energies all
collapse to 1.0 (the fidelity-ledger item in ROADMAP.md); 0.85 keeps
the reference frequency above the floor so ordering differences are
measurable.
"""

from conftest import publish
from repro.api import Study, plans


def test_fig6(benchmark, results_dir):
    result = benchmark.pedantic(
        lambda: Study(
            plans.fig6_plan(
                graph_counts=(2, 3, 4, 5, 6),
                sets_per_point=3,
                seed=0,
                utilization=0.85,
            )
        ).run(),
        rounds=1,
        iterations=1,
    )
    publish(results_dir, "fig6", result.format())

    # Every point is at or above the near-optimal bound.
    assert all(v >= 0.98 for v in result.summary().column("energy_rel"))
    per_scheme = result.frame.group_by("scheme").mean()
    means = dict(
        zip(per_scheme.column("scheme"), per_scheme.column("energy_rel"))
    )
    # The pUBS family tracks the bound at least as well as random
    # ordering on average.
    assert means["pUBS-all"] <= means["random"] + 1e-9
    assert means["pUBS-imminent"] <= means["random"] + 1e-9
