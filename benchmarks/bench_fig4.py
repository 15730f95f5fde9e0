"""Figure 4 — the motivational LTF-vs-STF slack-recovery example.

Two independent tasks (wc 4 and 6), common deadline 10.  Case 1
(actuals 40 %/60 %): STF recovers more slack; case 2 (60 %/40 %): LTF
wins.  This is an *exact* reproduction — same tasks, deadlines and
actual computations as the paper's figure.
"""

from conftest import publish
from repro.api.plans import fig4


def test_fig4(benchmark, results_dir):
    result = benchmark.pedantic(fig4, rounds=1, iterations=1)
    text = result.format()
    for case in ("case1", "case2"):
        for name in ("LTF", "STF"):
            text += f"\n\n[{case} / {name}]\n" + result.traces[case][name]
    publish(results_dir, "fig4", text)

    assert result.winner("case1") == "STF"
    assert result.winner("case2") == "LTF"
