"""The plugin registry: name → factory resolution for campaign specs.

Specs are pure data; this module turns their string fields into live
objects at execution time.  Four axis kinds exist — ``scheme``,
``battery``, ``processor``, ``estimator`` — and every entry a paper
experiment needs ships built in.  Each kind has one ``register_*``
function with three forms:

**Decorator registration** (the normal path)::

    from repro.api import register_scheme

    @register_scheme("myBAS")
    def build_mybas(estimator, *, granularity="node"):
        return make_scheme("myBAS", dvs=LaEDF,
                           priority=lambda: PUBS(estimator()),
                           ready_list=ALL_RELEASED)

**Import-path registration** (no decorator)::

    register_scheme("myBAS", "mypkg.schemes:build_mybas",
                    granularity="node")

Both record the entry *declaratively* (:func:`register_plugin`):
kind, name, an importable ``"module:attr"`` factory path, and JSON
keyword arguments.  The record serializes
(:func:`plugin_snapshot`) and replays in any process
(:func:`install_plugins`): the local
:class:`~repro.campaign.runner.CampaignRunner` replays it in every
pool worker's initializer, under any start method, and the
distributed runner ships it to spawned fleets via ``$REPRO_PLUGINS``.
The decorated function must therefore live at module top level in
importable code.

**Live-callable registration** (``register_scheme("x", builder)``)
is process-local: ``fork``-started pool workers inherit it, but
``spawn``-started workers and remote fleets never see it.

Packages exposing a ``repro.plugins`` entry point are picked up by
:func:`load_entry_points`.
"""

from __future__ import annotations

import importlib
import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..battery.base import BatteryModel
from ..battery.calibrate import (
    paper_cell_diffusion,
    paper_cell_kibam,
    paper_cell_stochastic,
)
from ..battery.peukert import PeukertBattery
from ..core.estimator import (
    Estimator,
    HistoryEstimator,
    OracleEstimator,
    ScaledEstimator,
    WorstCaseEstimator,
)
from ..core.methodology import Scheme, make_scheme, paper_schemes
from ..core.priority import LTF, PUBS, RandomPriority
from ..core.ready_list import ALL_RELEASED, MOST_IMMINENT
from ..dvs import CcEDF, LaEDF
from ..errors import SchedulingError
from ..processor.dvfs import FrequencyTable, OperatingPoint
from ..processor.platform import Processor, paper_processor
from ..processor.power import PowerModel

__all__ = [
    "ENTRY_POINT_GROUP",
    "ESTIMATORS",
    "PLUGIN_KINDS",
    "PLUGINS_ENV",
    "PluginSpec",
    "resolve_estimator",
    "register_estimator",
    "build_scheme",
    "known_schemes",
    "known_names",
    "resolve_battery",
    "resolve_processor",
    "register_scheme",
    "register_battery",
    "register_processor",
    "register_plugin",
    "plugin_snapshot",
    "install_plugins",
    "install_env_plugins",
    "load_entry_points",
    "unregister",
    "NEAR_OPTIMAL",
]

#: Scheme name of the precedence-relaxed near-optimal reference run
#: (Figure 6's normalizer).  It has no registry entry: the reference
#: also relaxes the task set, so the executor builds its simulator
#: with :func:`repro.exact.bounds.near_optimal_sim`.
NEAR_OPTIMAL = "near-optimal"

EstimatorFactory = Callable[[], Estimator]

ESTIMATORS: Dict[str, EstimatorFactory] = {
    "worst-case": WorstCaseEstimator,
    "scaled": ScaledEstimator,
    "history": HistoryEstimator,
    "oracle": OracleEstimator,
}


def resolve_estimator(name: str) -> EstimatorFactory:
    try:
        return ESTIMATORS[name]
    except KeyError:
        raise SchedulingError(
            f"unknown estimator {name!r}; known: {sorted(ESTIMATORS)}"
        ) from None


# ----------------------------------------------------------------------
# Schemes
# ----------------------------------------------------------------------
def _paper_row(name: str) -> Callable[[EstimatorFactory], Scheme]:
    def build(estimator: EstimatorFactory) -> Scheme:
        for scheme in paper_schemes(estimator_factory=estimator):
            if scheme.name == name:
                return scheme
        raise SchedulingError(f"paper scheme {name!r} vanished")

    return build


def _grid_scheme(
    name: str, dvs_factory, ready_list
) -> Callable[[EstimatorFactory], Scheme]:
    return lambda estimator: make_scheme(
        name,
        dvs=dvs_factory,
        priority=lambda: PUBS(estimator()),
        ready_list=ready_list,
    )


_SCHEMES: Dict[str, Callable[[EstimatorFactory], Scheme]] = {
    # Table 2 rows (baseline granularity and random seeds exactly as
    # paper_schemes defines them).
    "EDF": _paper_row("EDF"),
    "ccEDF": _paper_row("ccEDF"),
    "laEDF": _paper_row("laEDF"),
    "BAS-1": _paper_row("BAS-1"),
    "BAS-2": _paper_row("BAS-2"),
    # Figure 6 ordering schemes (all laEDF).
    "random": lambda est: make_scheme(
        "random",
        dvs=LaEDF,
        priority=lambda: RandomPriority(1),
        ready_list=MOST_IMMINENT,
    ),
    "LTF": lambda est: make_scheme(
        "LTF", dvs=LaEDF, priority=LTF, ready_list=MOST_IMMINENT
    ),
    "pUBS-imminent": _grid_scheme("pUBS-imminent", LaEDF, MOST_IMMINENT),
    "pUBS-all": _grid_scheme("pUBS-all", LaEDF, ALL_RELEASED),
    # DVS-algorithm × ready-list ablation grid (node granularity).
    "ccEDF+imminent": _grid_scheme("ccEDF+imminent", CcEDF, MOST_IMMINENT),
    "ccEDF+all-released": _grid_scheme(
        "ccEDF+all-released", CcEDF, ALL_RELEASED
    ),
    "laEDF+imminent": _grid_scheme("laEDF+imminent", LaEDF, MOST_IMMINENT),
    "laEDF+all-released": _grid_scheme(
        "laEDF+all-released", LaEDF, ALL_RELEASED
    ),
    # Feasibility ablation: BAS-2 with the Algorithm 2 guard removed.
    "BAS-2/unguarded": lambda est: make_scheme(
        "BAS-2/unguarded",
        dvs=LaEDF,
        priority=lambda: PUBS(est()),
        ready_list=ALL_RELEASED,
        enforce_feasibility=False,
    ),
}


def build_scheme(name: str, estimator: EstimatorFactory) -> Scheme:
    try:
        builder = _SCHEMES[name]
    except KeyError:
        raise SchedulingError(
            f"unknown scheme {name!r}; known: {sorted(_SCHEMES)}"
        ) from None
    return builder(estimator)


def known_schemes() -> Tuple[str, ...]:
    """Every currently-registered scheme name (sorted).

    Includes :data:`NEAR_OPTIMAL`, which has no registry entry: the
    executor builds it with :func:`repro.exact.bounds.near_optimal_sim`.
    Useful for validating user input *before* shipping specs to a
    worker fleet.
    """
    return tuple(sorted(_SCHEMES)) + (NEAR_OPTIMAL,)


# ----------------------------------------------------------------------
# Batteries
# ----------------------------------------------------------------------
def _parse_params(parts) -> Dict[str, float]:
    params: Dict[str, float] = {}
    for part in parts:
        if "=" not in part:
            raise SchedulingError(
                f"battery/processor parameter {part!r} must look like k=v"
            )
        key, value = part.split("=", 1)
        params[key] = float(value)
    return params


def _build_peukert(seed: Optional[int], **params: float) -> PeukertBattery:
    capacity = params.pop("capacity", paper_cell_kibam().capacity * 0.8)
    exponent = params.pop("exponent", 1.2)
    if params:
        raise SchedulingError(f"unknown Peukert parameters {sorted(params)}")
    return PeukertBattery(capacity=capacity, exponent=exponent)


def _build_stochastic(seed: Optional[int], **params: float):
    return paper_cell_stochastic(
        seed=0 if seed is None else seed, **params
    )


_BATTERIES: Dict[str, Callable[..., BatteryModel]] = {
    "kibam": lambda seed, **p: paper_cell_kibam(**p),
    "diffusion": lambda seed, **p: paper_cell_diffusion(**p),
    "stochastic": _build_stochastic,
    "peukert": _build_peukert,
}


def resolve_battery(name: str, seed: Optional[int] = None) -> BatteryModel:
    """Build a fresh battery from a name like ``"stochastic"`` or
    ``"stochastic:noise=0.05"`` (parameters after ``:`` as ``k=v``)."""
    base, *parts = name.split(":")
    try:
        factory = _BATTERIES[base]
    except KeyError:
        raise SchedulingError(
            f"unknown battery {base!r}; known: {sorted(_BATTERIES)}"
        ) from None
    return factory(seed, **_parse_params(parts))


# ----------------------------------------------------------------------
# Processors
# ----------------------------------------------------------------------
def _freqset_processor(levels: int) -> Processor:
    """An evenly-spaced ``levels``-point table on the paper's f/V span,
    calibrated to the paper cell (the frequency-granularity ablation)."""
    if levels < 2:
        raise SchedulingError(f"freqset needs >= 2 levels, got {levels}")
    pts = [
        OperatingPoint(
            0.5e9 + i * (0.5e9 / (levels - 1)),
            3.0 + i * (2.0 / (levels - 1)),
        )
        for i in range(levels)
    ]
    table = FrequencyTable(pts)
    base = paper_processor()
    power = PowerModel.calibrated(
        table,
        i_max=base.power.battery_current(base.table.max_point),
        v_bat=base.power.v_bat,
        efficiency=base.power.efficiency,
        idle_current=base.power.idle_current,
    )
    return Processor(table, power, "mix")


def _build_freqset(**params: float) -> Processor:
    if "levels" not in params:
        raise SchedulingError(
            "freqset requires a level count, e.g. 'freqset:levels=5'"
        )
    levels = int(params.pop("levels"))
    if params:
        raise SchedulingError(f"unknown freqset parameters {sorted(params)}")
    return _freqset_processor(levels)


_PROCESSORS: Dict[str, Callable[..., Processor]] = {
    "paper": lambda **p: paper_processor(**p),
    "freqset": _build_freqset,
}


def resolve_processor(name: str) -> Processor:
    """Build a processor from ``"paper"`` or ``"freqset:levels=5"``."""
    base, *parts = name.split(":")
    try:
        factory = _PROCESSORS[base]
    except KeyError:
        raise SchedulingError(
            f"unknown processor {base!r}; known: {sorted(_PROCESSORS)}"
        ) from None
    return factory(**_parse_params(parts))


#: The name -> factory table behind each axis kind.
_TABLES: Dict[str, Dict[str, Callable]] = {
    "scheme": _SCHEMES,
    "battery": _BATTERIES,
    "processor": _PROCESSORS,
    "estimator": ESTIMATORS,
}


def unregister(name: str) -> None:
    """Drop a registry entry by name from whichever table holds it.

    A no-op for unknown names, so long-lived processes (and tests) can
    clean up custom entries unconditionally.  Declarative plugin
    records under the name are dropped too.
    """
    for table in _TABLES.values():
        table.pop(name, None)
    for key in [k for k in _PLUGINS if k[1] == name]:
        del _PLUGINS[key]


def known_names() -> Dict[str, Tuple[str, ...]]:
    """Every registered name per axis kind (sorted) — the data behind
    ``python -m repro study axes``."""
    return {
        "scheme": known_schemes(),
        "battery": tuple(sorted(_BATTERIES)),
        "processor": tuple(sorted(_PROCESSORS)),
        "estimator": tuple(sorted(ESTIMATORS)),
    }


# ----------------------------------------------------------------------
# Declarative plugins (spawn-safe custom entries)
# ----------------------------------------------------------------------
#: Registry axes a plugin may extend.
PLUGIN_KINDS = tuple(_TABLES)

#: Environment variable carrying a JSON plugin snapshot to worker
#: processes started outside any Python parent (the distributed
#: runner sets it for its spawned fleet; external fleets may export
#: it themselves).
PLUGINS_ENV = "REPRO_PLUGINS"


@dataclass(frozen=True)
class PluginSpec:
    """A registry entry as pure data: replayable in any process.

    ``factory`` is an importable ``"package.module:attr"`` path; the
    attribute must be resolvable in the worker process too (i.e. live
    at module top level in installed/importable code).  Expected
    factory signatures per kind:

    * ``scheme``:    ``(estimator_factory, **kwargs) -> Scheme``
    * ``battery``:   ``(seed, **kwargs) -> BatteryModel``
    * ``processor``: ``(**kwargs) -> Processor``
    * ``estimator``: ``(**kwargs) -> Estimator``
    """

    kind: str
    name: str
    factory: str
    kwargs: Dict = field(default_factory=dict)

    def to_json(self) -> Dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "factory": self.factory,
            "kwargs": dict(self.kwargs),
        }


_PLUGINS: Dict[Tuple[str, str], PluginSpec] = {}


def _load_factory(path: str) -> Callable:
    module_name, sep, attr = path.partition(":")
    if not sep or not module_name or not attr:
        raise SchedulingError(
            f"plugin factory {path!r} must look like 'package.module:attr'"
        )
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise SchedulingError(
            f"cannot import plugin module {module_name!r}: {exc}"
        ) from exc
    try:
        factory = getattr(module, attr)
    except AttributeError:
        raise SchedulingError(
            f"plugin module {module_name!r} has no attribute {attr!r}"
        ) from None
    if not callable(factory):
        raise SchedulingError(f"plugin factory {path!r} is not callable")
    return factory


def _bind(kind: str, fn: Callable, kwargs: Dict) -> Callable:
    """``fn`` with a plugin's kwargs bound, in ``kind``'s calling
    convention (call-site parameters override the bound ones)."""
    if kind == "scheme":
        return lambda est: fn(est, **kwargs)
    if kind == "battery":
        return lambda seed, **p: fn(seed, **{**kwargs, **p})
    if kind == "processor":
        return lambda **p: fn(**{**kwargs, **p})
    return lambda: fn(**kwargs)


def register_plugin(
    kind: str, name: str, factory: str, **kwargs
) -> str:
    """Register a declarative (spawn-safe, serializable) registry entry.

    The factory is resolved immediately (fail fast on a bad path) and
    installed into the ``kind`` table under ``name``; the declarative
    record is kept so :func:`plugin_snapshot` can replay the
    registration in pool workers, spawned fleets, and fresh sessions.
    ``kwargs`` must be JSON-serializable (they ride along in the
    snapshot) and are passed to every factory invocation.
    """
    if kind not in PLUGIN_KINDS:
        raise SchedulingError(
            f"unknown plugin kind {kind!r}; known: {PLUGIN_KINDS}"
        )
    try:
        json.dumps(kwargs)
    except (TypeError, ValueError):
        raise SchedulingError(
            f"plugin kwargs for {name!r} must be JSON-serializable"
        ) from None
    _TABLES[kind][name] = _bind(kind, _load_factory(factory), kwargs)
    _PLUGINS[(kind, name)] = PluginSpec(kind, name, factory, dict(kwargs))
    return name


def plugin_snapshot() -> List[Dict]:
    """Every declarative plugin as JSON-ready data, in registration
    order — the payload the runners replay in worker processes."""
    return [spec.to_json() for spec in _PLUGINS.values()]


def install_plugins(snapshot: List[Dict]) -> int:
    """Replay a :func:`plugin_snapshot` in this process (idempotent).

    Returns the number of entries installed.  Used as the pool-worker
    initializer by :class:`~repro.campaign.runner.CampaignRunner` and
    at startup by ``python -m repro campaign-worker``.
    """
    installed = 0
    for data in snapshot:
        register_plugin(
            str(data["kind"]),
            str(data["name"]),
            str(data["factory"]),
            **dict(data.get("kwargs") or {}),
        )
        installed += 1
    return installed


def install_env_plugins() -> int:
    """Install plugins from the ``$REPRO_PLUGINS`` JSON snapshot, if set.

    Malformed JSON is an error (a half-configured worker computing
    subtly different results is worse than a crash).
    """
    raw = os.environ.get(PLUGINS_ENV)
    if not raw:
        return 0
    try:
        snapshot = json.loads(raw)
    except ValueError as exc:
        raise SchedulingError(
            f"${PLUGINS_ENV} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(snapshot, list):
        raise SchedulingError(f"${PLUGINS_ENV} must be a JSON list")
    return install_plugins(snapshot)


#: Entry-point group scanned by :func:`load_entry_points`.
ENTRY_POINT_GROUP = "repro.plugins"


def load_entry_points(group: str = ENTRY_POINT_GROUP) -> int:
    """Discover and install plugins advertised by installed packages.

    Each entry point in ``group`` must resolve to a zero-argument
    callable (invoked; it registers whatever it wants) or an iterable
    of plugin records (fed to :func:`install_plugins`).  Returns the
    number of entry points processed.
    """
    from importlib import metadata

    processed = 0
    for ep in metadata.entry_points(group=group):
        obj = ep.load()
        if callable(obj):
            obj()
        else:
            install_plugins([dict(record) for record in obj])
        processed += 1
    return processed


# ----------------------------------------------------------------------
# Registration fronts: decorator, import path, or live callable
# ----------------------------------------------------------------------
Factory = Union[str, Callable, None]


def _factory_path(fn: Callable) -> str:
    qualname = getattr(fn, "__qualname__", fn.__name__)
    if "." in qualname or "<locals>" in qualname:
        raise SchedulingError(
            f"plugin factory {qualname!r} must be a module-level "
            "function (so worker processes can import it); got a "
            "nested or method object"
        )
    return f"{fn.__module__}:{qualname}"


def _register(kind: str, name: str, factory: Factory, **kwargs):
    """Shared implementation behind the four ``register_*`` fronts."""
    if factory is None:
        # Decorator form: @register_scheme("name", **kwargs)
        def decorate(fn: Callable) -> Callable:
            register_plugin(kind, name, _factory_path(fn), **kwargs)
            return fn

        return decorate
    if isinstance(factory, str):
        return register_plugin(kind, name, factory, **kwargs)
    if callable(factory):
        if kwargs:
            raise SchedulingError(
                "kwargs are only supported for declarative (import "
                "path / decorator) registration — bind them into "
                "your callable instead"
            )
        _TABLES[kind][name] = factory
        return name
    raise SchedulingError(
        f"factory must be an import path, a callable, or omitted "
        f"(decorator form); got {type(factory).__name__}"
    )


def register_scheme(name: str, factory: Factory = None, **kwargs):
    """Register a scheme ``(estimator_factory, **kwargs) -> Scheme``
    under ``name``; returns ``name`` (or, with no ``factory``, a
    decorator that registers the function it wraps).

    The decorator and ``"pkg.mod:attr"`` forms are declarative and
    spawn-safe; a live callable registers process-locally.
    """
    return _register("scheme", name, factory, **kwargs)


def register_battery(name: str, factory: Factory = None, **kwargs):
    """Register a battery factory ``(seed, **kwargs) -> BatteryModel``
    under ``name`` (same three forms as :func:`register_scheme`)."""
    return _register("battery", name, factory, **kwargs)


def register_processor(name: str, factory: Factory = None, **kwargs):
    """Register a processor factory ``(**kwargs) -> Processor`` under
    ``name`` (same three forms as :func:`register_scheme`)."""
    return _register("processor", name, factory, **kwargs)


def register_estimator(name: str, factory: Factory = None, **kwargs):
    """Register an estimator factory ``(**kwargs) -> Estimator`` under
    ``name`` (same three forms as :func:`register_scheme`)."""
    return _register("estimator", name, factory, **kwargs)
