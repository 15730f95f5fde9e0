"""Figure 5 — canonical EDF vs pUBS-with-feasibility-check traces.

Exact scenario from the paper: T1 (one task, wc 5, D 20), T2 (one
task, wc 5, D 50), T3 (three tasks, wc 5 each, D 100); U = 0.5, so
fref = 0.5 fmax throughout (all tasks take their worst case).  The
BAS trace must start with a T3 task (admitted by the feasibility
check at t = 0) and still meet every deadline.
"""

from conftest import publish
from repro.api.plans import fig5


def test_fig5(benchmark, results_dir):
    result = benchmark.pedantic(fig5, rounds=1, iterations=1)
    publish(results_dir, "fig5", result.format())

    assert result.edf_misses == 0
    assert result.bas_misses == 0
    # Figure 5(a): canonical EDF runs the most imminent graph first.
    assert result.edf_order[0] == "T1.a"
    # Figure 5(b): the check admits T3.a at t=0 (out of EDF order),
    # then forces T1 before its deadline.
    assert result.bas_order[0] == "T3.a"
    assert result.bas_order[1] == "T1.a"
