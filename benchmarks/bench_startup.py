"""Start-up cost, before and after: ``import repro`` and cold CLI artifacts.

Every CLI artifact and every spawned fleet worker first pays for
``import repro``.  This benchmark compares two checkouts of the
package, this one ("change") and a second one ("parent", e.g. made
with ``git archive``), in alternating fresh interpreters:

* ``import repro, repro.api``: wall time inside the interpreter and
  its ``ru_maxrss`` afterwards (the import layer);
* ``python -m repro table2`` and ``python -m repro fig6`` at CLI
  defaults, each with a fresh, empty ``REPRO_CAMPAIGN_CACHE``: wall
  time of the whole process (the artifacts).  The two trees' stdout
  must be byte-identical.

Pair ``k`` runs the parent first when ``k`` is even and the change
first when it is odd, so slow drift on a shared host falls on both
sides.  The result, medians and quartiles per tree plus the per-pair
numbers, goes to ``BENCH_startup.json`` at the repo root::

    git archive <parent-commit> | tar -x -C /tmp/parent
    python benchmarks/bench_startup.py --parent /tmp/parent --pairs 9
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
OUT_PATH = REPO / "BENCH_startup.json"

#: Run in a fresh interpreter with the tree's ``src`` first on the path.
IMPORT_PROBE = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import repro, repro.api
wall = time.perf_counter() - t0
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps({"import_s": wall, "maxrss_mb": rss}))
"""

ARTIFACTS = ("table2", "fig6")


def measure(tree: Path) -> dict:
    """One fresh-interpreter sample of every metric for one tree."""
    src = str(tree / "src")
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, src],
        check=True, capture_output=True, text=True,
    )
    sample = json.loads(probe.stdout)
    for artifact in ARTIFACTS:
        with tempfile.TemporaryDirectory() as cache:
            env = dict(os.environ, PYTHONPATH=src)
            env["REPRO_CAMPAIGN_CACHE"] = cache
            t0 = time.perf_counter()
            run = subprocess.run(
                [sys.executable, "-m", "repro", artifact],
                check=True, capture_output=True, env=env, cwd=tree,
            )
            sample[f"{artifact}_s"] = time.perf_counter() - t0
        sample[f"{artifact}_stdout"] = hashlib.sha256(run.stdout).hexdigest()
    return sample


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("--parent", type=Path, required=True,
                    help="checkout of the commit to compare against")
    ap.add_argument("--pairs", type=int, default=9)
    ap.add_argument("--out", type=Path, default=OUT_PATH)
    args = ap.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": REPO}

    samples = {name: [] for name in trees}
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for name in order:
            samples[name].append(measure(trees[name]))
        print(
            f"pair {k}: "
            + ", ".join(
                f"{name} import {samples[name][-1]['import_s']:.3f}s "
                f"table2 {samples[name][-1]['table2_s']:.2f}s"
                for name in order
            ),
            file=sys.stderr,
        )

    metrics = {}
    for metric, unit in (
        ("import_s", "s"),
        ("maxrss_mb", "MB"),
        ("table2_s", "s"),
        ("fig6_s", "s"),
    ):
        per_tree = {
            name: summary([s[metric] for s in samples[name]])
            for name in trees
        }
        wins = sum(
            c[metric] < p[metric]
            for p, c in zip(samples["parent"], samples["change"])
        )
        metrics[metric] = {
            "unit": unit,
            **per_tree,
            "change_lower_in_pairs": f"{wins}/{args.pairs}",
        }
    identical = {
        artifact: all(
            p[f"{artifact}_stdout"] == c[f"{artifact}_stdout"]
            for p, c in zip(samples["parent"], samples["change"])
        )
        for artifact in ARTIFACTS
    }
    result = {
        "bench": "startup",
        "what": (
            "import repro, repro.api (wall, ru_maxrss) and cold CLI "
            "table2 and fig6 at defaults, parent vs change"
        ),
        "host": (
            f"{os.cpu_count()}-CPU {platform.machine()}, Python "
            f"{platform.python_version()}"
        ),
        "method": (
            "fresh interpreter per sample; pair k runs the parent first "
            "when k is even; CLI runs get a fresh REPRO_CAMPAIGN_CACHE; "
            "quartiles are statistics.quantiles(method='inclusive')"
        ),
        "pairs": args.pairs,
        "stdout_identical": identical,
        "metrics": metrics,
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    for metric, m in metrics.items():
        print(
            f"{metric:10s} parent {m['parent']['median']:8.3f} "
            f"[{m['parent']['q1']:.3f}, {m['parent']['q3']:.3f}]  "
            f"change {m['change']['median']:8.3f} "
            f"[{m['change']['q1']:.3f}, {m['change']['q3']:.3f}]  "
            f"lower in {m['change_lower_in_pairs']}"
        )
    print(f"stdout byte-identical: {identical}")
    return 0 if all(identical.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
