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
        lambda: Study(plans.model_coherence_plan()).run().adapted(),
        rounds=1,
        iterations=1,
    )
    publish(results_dir, "fig23_model_coherence", result.format())

    for model in ("KiBaM", "diffusion", "stochastic"):
        m = dict(zip(result.shapes, result.margins[model]))
        assert m["decreasing"] > m["mixed"] > m["increasing"]
    assert result.rankings_agree()
    peukert = result.margins["Peukert"]
    assert max(peukert) - min(peukert) < 1e-3
