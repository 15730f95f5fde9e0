"""One repetition of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition and reads the JSON
object it prints as its last stdout line.  The script imports
``repro`` from the checkout's ``src/``, builds the workload's plan or
spec list from the seed (set-up), runs it (the timed region), and
checks the output.  With ``--trace 1`` the layer probes of
:mod:`tracer` are installed before set-up and the per-layer metrics
of this repetition are included in the result.

Usage (normally only through ``run.py``)::

    python3 perfbench/workload.py --workload table2 --seed 0 \\
        --tmp .perfbench/tmp [--trace 1] [--setup-only]

``ready`` in the result is the ``time.perf_counter()`` reading when the
runner is ready; on Linux that clock is system-wide monotonic, so the
parent subtracts its own reading at spawn time to get ``setup_s``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import heapq
import json
import math
import random
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import Probes, Tracer, layer_metrics  # noqa: E402

#: Table 2 scheme rows (the campaign workload runs all five).
PAPER_SCHEMES = ("EDF", "ccEDF", "laEDF", "BAS-1", "BAS-2")

#: Pool workers of the untraced campaign run (the traced run uses 1 so
#: every span stays in this process).
CAMPAIGN_WORKERS = 2
CAMPAIGN_SCENARIOS = 100

#: Campaign results re-executed in-process to check the pool's output.
SPOT_CHECKS = 5


#: Steps of :func:`reference_s` (about 0.25 s on a calm host).
REFERENCE_STEPS = 150_000


def reference_s() -> float:
    """Seconds for a fixed heap-and-dict loop that uses no ``repro``
    code: the host's speed at this moment.

    The loop allocates, orders and indexes small objects as the event
    loop does, so it slows with the program when neighbours on a shared
    host contend for the core and its caches, yet no change to the
    program moves it.  The collector is off so that the program's heap
    does not enter the timing.
    """
    rng = random.Random(12345)
    heap, table = [], {}
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for i in range(REFERENCE_STEPS):
            heapq.heappush(heap, (rng.random(), i, [i, i * 0.5]))
            if len(heap) > 5000:
                _, k, v = heapq.heappop(heap)
                table[k % 20000] = (v[0] + v[1], k)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _finite_positive(values) -> bool:
    return all(math.isfinite(float(v)) and float(v) > 0 for v in values)


class StudyWorkload:
    """A paper artifact regenerated the way its CLI subcommand does:
    the builtin plan at CLI defaults, run by a one-worker ``Study``."""

    workers = 1

    def __init__(self, name: str, seed: int, serial: bool, tmp: Path):
        self.name = name
        self.seed = seed

    def setup(self, tracer: Tracer):
        from repro.api import plans
        from repro.api.study import Study

        if self.name == "table2":
            plan = plans.table2_plan(n_sets=5, n_graphs=5, seed=self.seed)
        else:
            plan = plans.fig6_plan(
                graph_counts=(2, 3, 4, 5, 6),
                sets_per_point=2,
                seed=self.seed,
                utilization=0.85,
            )
        specs, _meta = plan.sweep.expand_with_meta()
        self.n_specs = len(specs)
        self.study = Study(plan, workers=1)
        return specs

    def run(self):
        result = self.study.run()
        return result, result.format()

    def check(self, out) -> dict:
        result, report = out
        frame = result.frame
        problems = []
        campaign = result.campaign
        if len(campaign.results) != self.n_specs:
            problems.append(f"{len(campaign.results)} results")
        if campaign.quarantined:
            problems.append(f"{campaign.quarantined} quarantined")
        if self.name == "table2":
            if len(frame) != 25:
                problems.append(f"{len(frame)} frame rows, expected 25")
            for col in ("lifetime_min", "delivered_mah"):
                if not _finite_positive(frame.column(col)):
                    problems.append(f"non-positive {col}")
            for scheme in PAPER_SCHEMES:
                if f" {scheme} " not in report:
                    problems.append(f"report lacks row {scheme}")
        else:
            if len(frame) != 40:
                problems.append(f"{len(frame)} frame rows, expected 40")
            rel = [float(v) for v in frame.column("energy_rel")]
            if not all(math.isfinite(v) and 0.5 < v < 2.0 for v in rel):
                problems.append("energy_rel outside (0.5, 2)")
            if "Figure 6" not in report:
                problems.append("report lacks its title")
        return {
            "problems": problems,
            "report_sha256": _sha(report),
            "frame_sha256": _sha(frame.to_csv()),
        }

    def close(self) -> None:
        pass


def campaign_specs(seed: int) -> list:
    """100 ``spawn_seeds`` scenarios x the five paper schemes."""
    from repro.campaign import ScenarioSpec, spawn_seeds

    return [
        ScenarioSpec(
            scheme=scheme,
            n_graphs=2,
            utilization=0.7,
            seed=s,
            battery="kibam",
            on_miss="record",
        )
        for s in spawn_seeds(seed, CAMPAIGN_SCENARIOS)
        for scheme in PAPER_SCHEMES
    ]


class CampaignWorkload:
    """A sweep grown across two sessions on one result cache: the
    first half of the spec list, then the whole list."""

    def __init__(self, name: str, seed: int, serial: bool, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.workers = 1 if serial else CAMPAIGN_WORKERS
        self.cache_dir = None

    def setup(self, tracer: Tracer):
        from repro.campaign import CampaignRunner, ResultCache

        with tracer.span("api.sweep.expand"):
            self.specs = campaign_specs(self.seed)
        self.cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=self.tmp))
        self.runner = CampaignRunner(
            self.workers, cache=ResultCache(self.cache_dir)
        )
        return self.specs

    def run(self):
        half = len(self.specs) // 2
        first = self.runner.run(self.specs[:half])
        full = self.runner.run(self.specs)
        return first, full

    def check(self, out) -> dict:
        from repro.api.frame import ResultFrame
        from repro.campaign.runner import run_spec

        first, full = out
        half = len(self.specs) // 2
        problems = []
        expected = {
            "first.executed": (first.executed, half),
            "first.cache_hits": (first.cache_hits, 0),
            "full.executed": (full.executed, len(self.specs) - half),
            "full.cache_hits": (full.cache_hits, half),
            "full.results": (len(full.results), len(self.specs)),
        }
        for what, (got, want) in expected.items():
            if got != want:
                problems.append(f"{what} = {got}, expected {want}")
        if list(first.results) != list(full.results[:half]):
            problems.append("cache hits differ from the first pass")
        # Pool results must equal an in-process execution of the spec.
        step = max(1, half // SPOT_CHECKS)
        for index in range(half, len(self.specs), step)[:SPOT_CHECKS]:
            if run_spec(self.specs[index]) != full.results[index]:
                problems.append(f"spec {index} differs from run_spec")
        frame = ResultFrame.from_results(full.results)
        for col in ("lifetime_min", "delivered_mah", "energy_j"):
            if not _finite_positive(frame.column(col)):
                problems.append(f"non-positive {col}")
        csv = frame.to_csv()
        return {
            "problems": problems,
            "report_sha256": _sha(csv),
            "frame_sha256": _sha(csv),
            "cache_bytes": sum(
                p.stat().st_size for p in self.cache_dir.glob("*.json")
            ),
        }

    def close(self) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)


WORKLOADS = {
    "table2": StudyWorkload,
    "fig6": StudyWorkload,
    "campaign": CampaignWorkload,
}


def _children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument(
        "--serial", action="store_true",
        help="untraced, but on the traced run's single worker",
    )
    ap.add_argument("--spans-out", type=Path, default=None)
    args = ap.parse_args(argv)

    t_import = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import repro
    import repro.api  # noqa: F401

    import_s = time.perf_counter() - t_import
    src = (ROOT / "src").resolve()
    if src not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"imported repro from {repro.__file__}, not {src}")

    trace = bool(args.trace)
    tracer = Tracer()
    probes = Probes(tracer, {})
    workload = WORKLOADS[args.workload](
        args.workload, args.seed, trace or args.serial, args.tmp
    )
    try:
        with contextlib.ExitStack() as stack:
            if trace:
                stack.enter_context(probes)
            specs = workload.setup(tracer)
            ready = time.perf_counter()
            out = {"ready": ready, "import_s": import_s, "n_specs": len(specs)}
            if args.setup_only:
                print(json.dumps(out))
                return 0
            probes.spec_index.update((spec, i) for i, spec in enumerate(specs))
            # The host reference brackets the timed region.
            ref = reference_s()
            cpu0 = _children_cpu_s()
            start = time.perf_counter()
            with tracer.span("workload") as root:
                result = workload.run()
            wall = time.perf_counter() - start
            child_cpu = _children_cpu_s() - cpu0
            ref += reference_s()
        # Probes are off again: the output check is not traced.
        checked = workload.check(result)
    finally:
        workload.close()

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out.update(
        wall_s=wall,
        ref_s=ref,
        peak_rss_mb=max(own, kids) / 1024.0,
        child_cpu_s=child_cpu,
        workers=workload.workers,
        **checked,
    )
    if trace:
        layers = layer_metrics(tracer, root)
        layers["api.sweep.specs"] = len(specs)
        layers["setup.import_s"] = import_s
        if "cache_bytes" in checked:
            layers["campaign.cache.bytes"] = checked["cache_bytes"]
        out.update(
            layers=layers,
            paths="".join(probes.paths.get(i, "-") for i in range(len(specs))),
            missing_probes=probes.missing,
        )
        if args.spans_out is not None:
            args.spans_out.write_text(json.dumps(_span_dump(tracer, root)))
    print(json.dumps(out))
    return 0


def _span_dump(tracer: Tracer, root) -> dict:
    """Per-name totals plus every span of the timed region."""
    return {
        "self_s": dict(sorted(tracer.self_s.items())),
        "incl_s": dict(sorted(tracer.incl_s.items())),
        "counts": dict(sorted(tracer.counts.items())),
        "spans": [
            [s.name, s.start - root.start, s.duration, s.self_s]
            for s in tracer.subtree(root)
        ],
    }


if __name__ == "__main__":
    sys.exit(main())
