"""Declarative scenario specifications with stable content hashes.

A *scenario* is the smallest independently-executable unit of an
experiment campaign: one seeded workload run through one scheme (or
one exhaustively-solved DAG, or one battery-survival bisection).  A
spec is pure data — strings, numbers, tuples — so it can be

* hashed into a stable identity (:func:`content_hash`) that keys the
  on-disk result cache,
* pickled across a ``multiprocessing`` pool boundary, and
* serialized to JSON next to its result for provenance.

Everything behavioural (scheme objects, battery models, processors)
is resolved from names at execution time by
:mod:`repro.campaign.registry`, never stored in the spec.

Seeding
-------
Campaign-level reproducibility uses the NumPy ``SeedSequence`` spawning
protocol: :func:`spawn_seeds` derives one independent child seed per
scenario from a single root seed *in the parent process*, so the
mapping scenario → random stream is fixed before any worker runs and
results are bit-identical no matter how scenarios are distributed
across workers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional, Tuple, Union

import numpy as np

# The one sanctioned RNG primitive in this module: every campaign
# seed descends from SeedSequence(root).spawn(n).  The explicit
# import makes the site grep-able and is allowlisted by name in
# repro.check.config (rule DET001).
from numpy.random import SeedSequence

from ..battery.kernels import kernel_version_token
from ..errors import SchedulingError

__all__ = [
    "SPEC_VERSION",
    "ScenarioSpec",
    "OneShotSpec",
    "SurvivalSpec",
    "ConstantLoadSpec",
    "Spec",
    "ScenarioResult",
    "content_hash",
    "spawn_seeds",
    "spec_to_json",
    "spec_from_json",
]

#: Bumped whenever executor semantics change in a way that invalidates
#: previously cached results.  Battery-kernel numerics changes do not
#: need a bump: the kernel version token (below) is hashed alongside.
SPEC_VERSION = 1

@dataclass(frozen=True)
class ScenarioSpec:
    """One periodic task-graph simulation (optionally battery-evaluated).

    Attributes
    ----------
    scheme:
        Scheme name resolved via :data:`repro.campaign.registry.SCHEMES`
        (e.g. ``"BAS-2"``), or ``"near-optimal"`` for Figure 6's
        precedence-relaxed reference (built by
        :func:`repro.exact.bounds.near_optimal_sim`).
    n_graphs, utilization, n_tasks_range, edge_prob, wcet_range:
        Task-set generator parameters (see
        :func:`repro.workloads.generator.paper_task_set`).
    seed:
        Seeds both the task-set generator and the actuals provider, so
        every scheme given the same ``seed`` sees the identical workload.
    horizon:
        Simulation window in seconds; ``None`` means one hyperperiod.
    battery:
        Battery model name (registry-resolved, e.g. ``"stochastic"``);
        ``None`` skips the lifetime evaluation.
    battery_seed:
        Seed for stochastic battery models; defaults to ``seed``.
    estimator:
        pUBS estimator name (``"worst-case"``, ``"scaled"``,
        ``"history"``, ``"oracle"``).
    processor:
        Processor name (``"paper"`` or ``"freqset:<levels>"``).
    actual_low, actual_high:
        Uniform actual-cycles range as fractions of WCET.
    on_miss:
        ``"raise"`` or ``"record"`` (see :class:`repro.sim.engine.Simulator`).
    rebin:
        Profile rebinning width for the battery evaluation (seconds).
    """

    scheme: str
    n_graphs: int = 4
    utilization: float = 0.7
    seed: int = 0
    horizon: Optional[float] = None
    battery: Optional[str] = None
    battery_seed: Optional[int] = None
    estimator: str = "history"
    processor: str = "paper"
    actual_low: float = 0.2
    actual_high: float = 1.0
    n_tasks_range: Tuple[int, int] = (5, 15)
    edge_prob: float = 0.3
    wcet_range: Tuple[float, float] = (1.0, 10.0)
    on_miss: str = "raise"
    rebin: Optional[float] = 1.0


@dataclass(frozen=True)
class OneShotSpec:
    """One random DAG solved exhaustively and by the ordering heuristics.

    The Table 1 unit of work: sample a bounded-extension-count DAG of
    ``n_tasks`` nodes, draw actuals, then run the exhaustive optimal,
    ``n_random`` random orders, LTF and pUBS(oracle), reporting each
    heuristic's energy normalized by the optimal.
    """

    n_tasks: int
    seed: int
    edge_prob: float = 0.4
    utilization: float = 1.0
    actual_low: float = 0.2
    actual_high: float = 1.0
    max_extensions: int = 200_000
    n_random: int = 5
    processor: str = "paper"


@dataclass(frozen=True)
class SurvivalSpec:
    """One battery-survival bisection (the guideline-1 metric).

    Finds the largest multiplier on the profile's currents that the
    named cell survives for one pass (see
    :func:`repro.analysis.lifetime.survival_scale`).  The profile is
    carried inline as plain tuples so the spec stays declarative.
    """

    battery: str
    durations: Tuple[float, ...]
    currents: Tuple[float, ...]
    battery_seed: Optional[int] = None
    lo: float = 0.1
    hi: float = 10.0
    iters: int = 40


@dataclass(frozen=True)
class ConstantLoadSpec:
    """One constant-current discharge to cutoff (rate-capacity probe).

    The unit of work behind the rate-capacity sweep: discharge the
    named cell at ``current`` amperes until it dies, reporting the
    delivered charge and lifetime (see
    :meth:`repro.battery.base.BatteryModel.lifetime_constant`).
    """

    battery: str
    current: float
    battery_seed: Optional[int] = None
    max_time: float = 1e8


Spec = Union[ScenarioSpec, OneShotSpec, SurvivalSpec, ConstantLoadSpec]

_SPEC_TYPES: Dict[str, type] = {
    "scenario": ScenarioSpec,
    "oneshot": OneShotSpec,
    "survival": SurvivalSpec,
    "constantload": ConstantLoadSpec,
}


def _spec_kind(spec: Spec) -> str:
    for kind, cls in _SPEC_TYPES.items():
        if type(spec) is cls:
            return kind
    raise SchedulingError(f"unknown spec type {type(spec).__name__}")


def content_hash(spec: Spec) -> str:
    """A stable 16-hex-digit identity for ``spec``.

    Computed over the canonical JSON of the spec's fields plus the
    spec kind, :data:`SPEC_VERSION`, and the battery-kernel version
    token (:func:`repro.battery.kernels.kernel_version_token` — so
    vectorized-kernel changes invalidate stale cached results);
    identical specs hash identically across processes and sessions
    (JSON float formatting round-trips ``repr`` exactly).
    """
    payload = {
        "kind": _spec_kind(spec),
        "version": SPEC_VERSION,
        "kernels": kernel_version_token(),
        "fields": asdict(spec),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def spec_to_json(spec: Spec) -> Dict:
    """JSON-ready representation (kind + fields), inverse of
    :func:`spec_from_json`."""
    return {"kind": _spec_kind(spec), "fields": asdict(spec)}


def spec_from_json(data: Dict) -> Spec:
    """Rebuild a spec from :func:`spec_to_json` output."""
    cls = _SPEC_TYPES.get(data.get("kind"))
    if cls is None:
        raise SchedulingError(f"unknown spec kind {data.get('kind')!r}")
    fields = dict(data["fields"])
    # JSON turns tuples into lists; restore the tuple-typed fields.
    for key, value in fields.items():
        if isinstance(value, list):
            fields[key] = tuple(value)
    return cls(**fields)


@dataclass(frozen=True)
class ScenarioResult:
    """The outcome of executing one spec: a flat metric mapping.

    ``metrics`` values are plain floats (counts included), so results
    serialize losslessly and aggregate uniformly.  ``cached`` marks
    results served from the on-disk cache rather than recomputed;
    ``demoted`` counts the numeric demotions ``run_spec`` took
    computing it (a vector batch counts its own instead).
    """

    spec: Spec
    metrics: Dict[str, float]
    # Provenance only — a cache hit equals the freshly-computed result.
    cached: bool = field(default=False, compare=False)
    demoted: int = field(default=0, compare=False)

    @property
    def spec_hash(self) -> str:
        return content_hash(self.spec)

    def to_json(self) -> Dict:
        return {
            "spec_hash": self.spec_hash,
            "spec": spec_to_json(self.spec),
            "metrics": {k: float(v) for k, v in self.metrics.items()},
        }

    @classmethod
    def from_json(
        cls, data: Dict, *, cached: bool = False
    ) -> "ScenarioResult":
        return cls(
            spec=spec_from_json(data["spec"]),
            metrics={k: float(v) for k, v in data["metrics"].items()},
            cached=cached,
        )


def spawn_seeds(root_seed: int, n: int) -> Tuple[int, ...]:
    """``n`` independent child seeds derived from ``root_seed``.

    Uses ``numpy.random.SeedSequence.spawn`` — the collision-resistant
    derivation NumPy recommends for parallel streams — and reduces each
    child to a 32-bit integer seed usable by every seeded component in
    this package.  The derivation happens entirely in the caller's
    process, so a campaign's scenario → seed mapping never depends on
    worker scheduling.
    """
    if n < 0:
        raise SchedulingError(f"n must be >= 0, got {n}")
    children = SeedSequence(root_seed).spawn(n)
    return tuple(
        int(child.generate_state(1, dtype=np.uint32)[0]) for child in children
    )
