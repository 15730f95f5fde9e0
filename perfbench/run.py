"""End-to-end benchmark of the paper artifacts, with per-layer attribution.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table2 --seed 0 --seconds 40 \\
        --trace 0

Workloads (rationale and the layer map are in ``perfbench/layers.json``):

``table2``
    ``python -m repro table2`` at CLI defaults: 25 scenarios with the
    stochastic battery on a one-worker runner.
``fig6``
    ``python -m repro fig6`` at CLI defaults: 50 scenarios, 10 of them
    near-optimal references, no battery.
``campaign``
    500 scenarios on a two-worker pool with a fresh result cache: the
    first half, then the whole list on the same cache.

``--seed`` picks the inputs (see :func:`input_seed`).  Each
repetition runs in a fresh interpreter (``workload.py``) in a
closed loop: the next one starts when the previous one has exited.
Repetitions start while they fit in ``--seconds``, after one
discarded set-up-only start that warms caches.  Every repetition's
output is checked (pinned digests for every input seed, invariants,
and bit identity between repetitions and between traced and untraced
repetitions); a repetition that fails the check counts its scenarios
as failed and its timings are discarded.  If no repetition of a kind
the metrics need passes, the result line reads ``"correct": false``
with no metrics and the exit code is 1.

With ``--trace 0`` the metrics are the end-to-end ones (medians over
repetitions, in calm-host seconds: see :data:`HOST_REF_S`).  With
``--trace 1`` traced and untraced repetitions alternate and the
metrics are the per-layer ones of the traced repetitions, plus the
tracing overhead.  The last stdout line is the JSON result; lines
before it are a human-readable report.  Traces and a run summary are
written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"

#: Scenarios attempted per repetition.
N_SPECS = {"table2": 25, "fig6": 50, "campaign": 500}

#: Seconds one repetition may take before it is killed.
REP_TIMEOUT = 120.0

#: Seconds after start by which every repetition has ended, so that a
#: run exits within three minutes even when repetitions hang.
HARD_LIMIT = 160.0

#: Failures in a row of one kind of repetition after which a run stops
#: and reports them instead of retrying until the deadline.
MAX_FAILS = 3

STARTED = time.perf_counter()

#: Seconds of ``workload.reference_s`` on a calm host.  The speed of a
#: shared host drifts by tens of percent within minutes, and every
#: repetition slows with it, so end-to-end times are reported in calm
#: host seconds: the median measured seconds x HOST_REF_S / the
#: median reference time of the same repetitions.  The reference runs
#: in each repetition's process, next to its timed region, and uses no
#: ``repro`` code, so a change to the program cannot move it.
HOST_REF_S = 0.5


def input_seed(workload: str, seed: int, expected: dict) -> int:
    """The seed the program receives for benchmark seed ``seed``.

    A workload's cost depends strongly on its seed: the hyperperiods
    it draws decide how many jobs each scenario simulates, so a
    ``table2`` plan costs up to twice as much on one seed as on
    another, ``fig6`` three times, and even the 100-task-set
    ``campaign`` by 30 %.  Each workload therefore maps
    the benchmark seed into a pinned pool of seeds screened for the
    same deterministic work (see ``expected.json``), so that medians
    across benchmark seeds measure the program, not the draw.  The
    pools of ``table2`` and ``fig6`` start with the CLI default, 0.
    """
    pool = expected["input_seeds"][workload]
    return pool[seed % len(pool)]


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# ----------------------------------------------------------------------
# Host record
# ----------------------------------------------------------------------
def host_record() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


# ----------------------------------------------------------------------
# Repetitions
# ----------------------------------------------------------------------
def spawn(args, kind: str, spans=None):
    """One fresh-interpreter repetition of ``kind`` (``setup``: set-up
    only; ``plain``: untraced; ``traced``; ``serial``: untraced on the
    traced run's single worker).  Returns its JSON result with
    ``setup_s`` added, or ``{"error": ...}``."""
    tmp = WORKDIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = str(tmp)
    env["REPRO_CAMPAIGN_CACHE"] = str(tmp / "default-cache")
    env.pop("PYTHONPATH", None)
    t0 = time.perf_counter()
    cmd = [
        sys.executable,
        str(HERE / "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.input_seed),
        "--tmp", str(tmp),
        "--trace", "1" if kind == "traced" else "0",
    ]
    if kind == "setup":
        cmd.append("--setup-only")
    if kind == "serial":
        cmd.append("--serial")
    if spans is not None:
        cmd += ["--spans-out", str(spans)]
    proc = subprocess.Popen(
        cmd,
        cwd=str(ROOT),
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    timeout = max(1.0, min(REP_TIMEOUT, STARTED + HARD_LIMIT - t0))
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"timed out after {timeout:.0f} s"}
    finally:
        # Pool workers are in the child's session; none may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    elapsed = time.perf_counter() - t0
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {proc.returncode}: {tail[0]}"}
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return {"error": f"unparsable result line {lines[-1][:80]!r}"}
    result["setup_s"] = result["ready"] - t0
    result["elapsed_s"] = elapsed
    return result


class Verdicts:
    """Output checks across the repetitions of one run."""

    def __init__(self, workload: str, seed: int, expected: dict) -> None:
        self.workload = workload
        self.pinned = expected["digests"][workload][str(seed)]
        self.reference = None  # first good untraced repetition's digests
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def judge(self, rep: dict, traced: bool) -> bool:
        """Whether ``rep`` passes; counts its scenarios either way."""
        n = N_SPECS[self.workload]
        self.attempted += n
        why = rep.get("error") or "; ".join(rep.get("problems", ()))
        if not why:
            digests = {
                k: rep[k] for k in ("report_sha256", "frame_sha256")
            }
            for key, want in self.pinned.items():
                if digests[key] != want:
                    why = f"{key} differs from the pinned digest"
            if not why and self.reference is None and not traced:
                self.reference = digests
            elif not why and self.reference is not None:
                if digests != self.reference:
                    why = (
                        "traced output differs from untraced"
                        if traced
                        else "output differs between repetitions"
                    )
        if why:
            # The check cannot say which scenarios are wrong: all count.
            self.failed += n
            self.notes.append(("traced " if traced else "") + why)
            return False
        return True


def run_reps(args, verdicts: Verdicts):
    """A warm-up start, then repetitions until ``--seconds`` are spent.

    Returns the set-up samples and the passing repetitions by kind.
    With ``--trace 1`` the kinds rotate plain, traced and, when the
    plain run uses a pool, serial (the baseline of the tracing
    overhead, which the traced run's single worker would otherwise
    inflate by the pool's speed-up).  A kind that never passes ends
    the run once every kind was tried and the deadline has passed, or
    after :data:`MAX_FAILS` failures in a row; the caller then reports
    the failures.
    """
    deadline = time.perf_counter() + args.seconds
    # One discarded set-up-only start compiles bytecode and warms the
    # file cache; every untraced repetition then samples set-up.
    warm = spawn(args, "setup")
    if "error" in warm:
        verdicts.notes.append(f"warm-up start: {warm['error']}")
    setups = []
    reps = {"plain": [], "traced": [], "serial": []}
    cost = dict.fromkeys(reps, 0.0)
    fails = dict.fromkeys(reps, 0)
    order = ["plain", "traced"] if args.trace else ["plain"]
    k = 0
    while max(fails.values()) < MAX_FAILS:
        kind = order[k % len(order)]
        now = time.perf_counter()
        if all(reps[o] for o in order):
            # Start a repetition only if it fits, so that a run ends
            # by the deadline even on a slow host.
            if now + cost[kind] > deadline:
                break
        elif now > deadline and (
            k >= len(order) or now > STARTED + HARD_LIMIT
        ):
            break
        spans = None
        if kind == "traced":
            spans = WORKDIR / f"{args.workload}-seed{args.seed}-spans.json"
        rep = spawn(args, kind, spans)
        cost[kind] = max(cost[kind], rep.get("elapsed_s", 0.0))
        if verdicts.judge(rep, traced=kind == "traced"):
            fails[kind] = 0
            reps[kind].append(rep)
            if kind == "plain":
                setups.append(rep["setup_s"])
                if args.trace and rep["workers"] > 1 and len(order) == 2:
                    order.append("serial")
        else:
            fails[kind] += 1
        k += 1
    if not reps["serial"]:
        reps["serial"] = reps["plain"]
    return setups, reps


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def describe(name: str, values, unit: str) -> str:
    if not values:
        return f"{name}: no samples"
    med = statistics.median(values)
    return (
        f"{name} = {med:.6g} {unit} (median of {len(values)}; "
        f"min {min(values):.6g}, max {max(values):.6g})"
    )


def host_scale(plain) -> float:
    """Calm-host seconds per measured second over ``plain``."""
    return HOST_REF_S / statistics.median(r["ref_s"] for r in plain)


def end_to_end(setups, plain) -> dict:
    scale = host_scale(plain)
    return {
        "wall_s": statistics.median(r["wall_s"] for r in plain) * scale,
        "setup_s": statistics.median(setups) * scale,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }


def per_layer(reps, pinned_paths: str):
    """Per-layer metrics, plus the scenario indices whose engine path
    differs from ``pinned_paths``."""
    plain, traced = reps["plain"], reps["traced"]
    first = traced[0]["layers"]
    layers = {}
    for name, value in first.items():
        if isinstance(value, int):
            layers[name] = value  # counts repeat exactly
        else:
            layers[name] = statistics.median(
                r["layers"][name] for r in traced
            )
    wall = statistics.median(r["wall_s"] for r in plain)
    cpu = statistics.median(r["child_cpu_s"] for r in plain)
    workers = plain[0]["workers"]
    layers.update(
        {
            "setup.import_s": statistics.median(
                r["import_s"] for r in plain
            ),
            "campaign.pool.child_cpu_s": cpu,
            "campaign.pool.busy_frac": (
                cpu / (workers * wall) if workers > 1 else 0.0
            ),
            "trace.overhead_frac": (
                statistics.median(r["wall_s"] for r in traced)
                / statistics.median(r["wall_s"] for r in reps["serial"])
                - 1.0
            ),
            "host.calib_s": statistics.median(r["ref_s"] for r in plain),
        }
    )
    layers.setdefault("campaign.cache.bytes", 0)
    got = traced[0].get("paths", "")
    changed = [
        i
        for i in range(max(len(got), len(pinned_paths)))
        if got[i:i + 1] != pinned_paths[i:i + 1]
    ]
    layers["sim.path.changed"] = len(changed)
    return layers, changed


def attribution(workload: str, v: dict):
    """The layer attribution stated for this workload when the
    benchmark was added, as ``(claim, holds)`` pairs (informational:
    a change that moves work between layers is expected to break
    some of them)."""
    claims = [("sim.vector.scenarios == 0", v["sim.vector.scenarios"] == 0)]
    if workload == "table2":
        engine_battery = v["sim.engine.run_s"] + v["battery.run_s"]
        share = engine_battery / v["trace.wall_s"]
        claims.append(
            (f"engine + battery = {share:.1%} of traced wall >= 85%",
             share >= 0.85)
        )
    elif workload == "fig6":
        claims.append(("battery.loads == 0", v["battery.loads"] == 0))
        claims.append(
            ("exact.nearopt_calls > 0", v["exact.nearopt_calls"] > 0)
        )
    else:
        claims.append(
            ("campaign.cache.hits == specs / 2",
             2 * v["campaign.cache.hits"] == v["api.sweep.specs"])
        )
    return claims


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    ap.add_argument("--workload", choices=sorted(N_SPECS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail(f"no repro sources under {ROOT / 'src'}; run from a checkout")
    bench_file = ROOT / "BENCHMARK.json"
    if not bench_file.is_file():
        _fail("BENCHMARK.json missing from the checkout root")
    declared = json.loads(bench_file.read_text())
    expected = json.loads((HERE / "expected.json").read_text())
    WORKDIR.mkdir(exist_ok=True)

    host = host_record()
    print(
        "host: nproc {nproc}, cpu {cpu}, python {python}, "
        "numpy {numpy}".format(**host)
    )
    args.input_seed = input_seed(args.workload, args.seed, expected)
    print(f"workload {args.workload}: seed {args.seed} -> input seed "
          f"{args.input_seed}")
    verdicts = Verdicts(args.workload, args.input_seed, expected)
    try:
        setups, reps = run_reps(args, verdicts)
    finally:
        shutil.rmtree(WORKDIR / "tmp", ignore_errors=True)
    for note in verdicts.notes:
        print(f"FAILED: {note}")

    plain, traced = reps["plain"], reps["traced"]
    if not plain or (args.trace and not traced):
        # No metrics can be taken; report the failures and stop.
        print("perfbench: no repetition of a needed kind passed its "
              "output check", file=sys.stderr)
        print(json.dumps({
            "correct": False,
            "attempted": verdicts.attempted,
            "failed": verdicts.failed,
            "metrics": {},
        }))
        return 1
    host["calib_s"] = statistics.median(r["ref_s"] for r in plain)
    print(describe("host reference", [r["ref_s"] for r in plain], "s"))
    print(f"host scale = {host_scale(plain):.6g} calm-host s per s")
    print(describe("measured wall", [r["wall_s"] for r in plain], "s"))
    print(describe("measured setup", setups, "s"))
    print(describe("peak_rss_mb", [r["peak_rss_mb"] for r in plain], "MB"))
    print(
        f"failed_frac = {verdicts.failed / verdicts.attempted:.6g} "
        f"({verdicts.failed} of {verdicts.attempted} scenarios)"
    )

    if args.trace:
        values, changed = per_layer(reps, expected["paths"][args.workload])
        if changed:
            print(
                f"engine path changed for {len(changed)} scenario(s) vs "
                f"the pinned taxonomy: {changed[:20]}"
            )
        for name in traced[0].get("missing_probes", ()):
            print(f"probe target absent: {name}")
        for claim, holds in attribution(args.workload, values):
            print(f"attribution: {claim}: {'holds' if holds else 'NOT MET'}")
        names = [m["name"] for m in declared["per_layer"]]
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
        for name in names:
            print(f"{name} = {values.get(name, 'absent')} {units[name]}")
        # Printed, not declared: 0 on every workload at the commit that
        # added the benchmark (see layers.json).
        for name in sorted(set(values) - set(names)):
            print(f"{name} = {values[name]} (diagnostic)")
        metrics = {
            name: {"value": values[name], "unit": units[name]}
            for name in names
            if name in values
        }
    else:
        values = end_to_end(setups, plain)
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared["end_to_end"]
        }
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host,
        "reps": reps,
        "setups": setups,
        "notes": verdicts.notes,
        "metrics": metrics,
    }
    (WORKDIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(summary, indent=1))
    print(
        json.dumps(
            {
                "correct": verdicts.failed == 0,
                "attempted": verdicts.attempted,
                "failed": verdicts.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
