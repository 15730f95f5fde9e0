"""Figures 2-3 — KiBaM and the diffusion model point the same way.

§3 argues the two battery models are coherent (KiBaM is the two-well
coarsening of the diffusion model's infinite wells), so scheduling
guidelines derived from either agree.  This bench measures the largest
load scaling under which each model completes the three permutations
of a staircase workload: every recovery-aware model must rank
decreasing >= mixed >= increasing (guideline 1), while Peukert — with
no recovery — cannot distinguish permutations at all.
"""

from conftest import publish
from repro.api import Study, plans


def test_model_coherence(benchmark, results_dir):
    result = benchmark.pedantic(
        lambda: Study(plans.model_coherence_plan()).run(),
        rounds=1,
        iterations=1,
    )
    publish(results_dir, "fig23_model_coherence", result.format())

    pivot = result.frame.pivot(
        "battery", "_shape", "survival_scale", agg="first"
    )
    margins = {
        battery: dict(zip(pivot.column_labels, pivot.cells[i]))
        for i, battery in enumerate(pivot.row_labels)
    }
    for model in ("kibam", "diffusion", "stochastic:noise=0.05"):
        m = margins[model]
        assert m["decreasing"] > m["mixed"] > m["increasing"]
    assert "rankings agree: yes" in result.format()
    peukert = list(margins["peukert"].values())
    assert max(peukert) - min(peukert) < 1e-3
