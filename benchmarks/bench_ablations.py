"""Ablations over the design choices DESIGN.md calls out.

1. Estimator accuracy — §4.2: "the accuracy of the estimate determines
   the optimality of the schedule".
2. Frequency-table granularity — the two-adjacent-level mix already
   realizes fractional frequencies optimally, so finer tables buy
   little.
3. DVS algorithm x ready-list grid — §4's claim that the methodology
   composes with any frequency setter.
4. Feasibility check — Algorithm 2 is what keeps out-of-EDF-order
   greed deadline-safe.
"""

from conftest import publish
from repro.api import Study, plans


def _ablation(builder, **kwargs):
    return Study(builder(**kwargs)).run()


def _means(result, metric):
    """``{level: mean metric}`` in the ablation's row order."""
    means = result.summary()
    (axis,) = result.plan.group_by
    return dict(zip(means.column(axis), means.column(metric)))


def test_ablation_estimator(benchmark, results_dir):
    result = benchmark.pedantic(
        lambda: _ablation(
            plans.ablation_estimator_plan, n_sets=3, n_graphs=4, seed=0
        ),
        rounds=1,
        iterations=1,
    )
    publish(results_dir, "ablation_estimator", result.format())
    e = _means(result, "energy_j")
    # Perfect estimates must not lose to the degenerate worst-case ones.
    assert e["oracle"] <= e["worst-case"]
    # History learning lands between the blind prior's neighbourhood
    # and the oracle.
    assert e["history"] <= e["worst-case"]


def test_ablation_freqset(benchmark, results_dir):
    result = benchmark.pedantic(
        lambda: _ablation(
            plans.ablation_freqset_plan, n_sets=3, n_graphs=4, seed=0
        ),
        rounds=1,
        iterations=1,
    )
    publish(results_dir, "ablation_freqset", result.format())
    e = list(_means(result, "energy_j").values())
    # Finer tables help at most marginally (mixing already optimal).
    assert e[-1] <= e[0] * 1.02


def test_ablation_dvs(benchmark, results_dir):
    result = benchmark.pedantic(
        lambda: _ablation(
            plans.ablation_dvs_plan, n_sets=3, n_graphs=4, seed=0
        ),
        rounds=1,
        iterations=1,
    )
    publish(results_dir, "ablation_dvs", result.format())
    e = _means(result, "energy_j")
    # laEDF-based combinations beat ccEDF-based ones (deferral wins).
    assert e["laEDF+imminent"] < e["ccEDF+imminent"]
    assert e["laEDF+all-released"] < e["ccEDF+all-released"]


def test_ablation_feasibility(benchmark, results_dir):
    result = benchmark.pedantic(
        lambda: _ablation(
            plans.ablation_feasibility_plan, n_sets=6, n_graphs=4, seed=0
        ),
        rounds=1,
        iterations=1,
    )
    publish(results_dir, "ablation_feasibility", result.format())
    m = _means(result, "misses")
    # The guarded variant never misses in the stressed regime; the
    # unguarded one does.
    assert m["BAS-2"] == 0.0
    assert m["BAS-2/unguarded"] > 0.0
