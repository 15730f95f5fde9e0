"""Table 1 — energy of Random/LTF/pUBS orderings vs exhaustive optimal.

Paper values (normalized w.r.t. optimal, 5-15 tasks):
Random 1.32-1.66, LTF 1.21-1.53, pUBS 1.05-1.32.  Shape to reproduce:
pUBS < {LTF, Random} and closest to 1.0 at every size.  Our adaptive
speed rule re-plans after every completion, which compresses absolute
ratios (the fidelity-ledger item in ROADMAP.md tracks the divergence);
the winner and the ranking are what this bench asserts.
"""

import numpy as np

from conftest import publish
from repro.api import Study, plans


def test_table1(benchmark, results_dir):
    result = benchmark.pedantic(
        lambda: Study(
            plans.table1_plan(
                sizes=tuple(range(5, 16)),
                graphs_per_size=3,
                seed=0,
                n_random=3,
                max_extensions=100_000,
            )
        ).run(),
        rounds=1,
        iterations=1,
    )
    publish(results_dir, "table1", result.format())

    means = result.summary()
    rand = means.column("random")
    ltf = means.column("ltf")
    pubs = means.column("pubs")
    # Everyone is at least optimal (ratios >= 1).
    assert np.all(rand >= 1 - 1e-9)
    assert np.all(ltf >= 1 - 1e-9)
    assert np.all(pubs >= 1 - 1e-9)
    # pUBS is the best ordering heuristic on average and near-optimal.
    assert pubs.mean() <= rand.mean()
    assert pubs.mean() <= ltf.mean()
    assert pubs.mean() < 1.1
