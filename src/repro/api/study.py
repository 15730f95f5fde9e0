"""Studies: a sweep + post-processing + presentation, run as one unit.

A :class:`StudyPlan` is the declarative description of a whole
experiment: the :class:`~repro.api.sweep.Sweep` that expands to
campaign specs, a pipeline of frame operations (``post``), and which
group means to report (``group_by`` / ``metrics``).  :class:`Study`
executes a plan on any :class:`~repro.campaign.runner.SpecRunner` —
the local multiprocessing runner, a cached runner, or a distributed
fleet — and returns a :class:`StudyResult` holding the typed
:class:`~repro.api.frame.ResultFrame` plus campaign telemetry.

Plans serialize: :meth:`StudyPlan.to_json` / :func:`load_plan` power
``python -m repro study run plan.json``.  The builtin paper plans in
:mod:`repro.api.plans` additionally carry a code-only ``render`` hook
printing the paper's rows from the frame (dropped by serialization; a
JSON plan renders its summary frame generically).

Post-operation vocabulary (each a JSON-able dict):

``{"op": "normalize", "value": ..., "reference": {...},
"within": [...], "name": ...}``
    :meth:`ResultFrame.normalize` — per-group reference division.
``{"op": "filter", "where": {...}}`` / ``{"op": "exclude",
"where": {...}}``
    Keep / drop rows matching the given column values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

from ..campaign.cache import ResultCache
from ..campaign.runner import CampaignResult, CampaignRunner, SpecRunner
from ..errors import SchedulingError
from .frame import ResultFrame
from .sweep import Sweep

__all__ = ["Study", "StudyPlan", "StudyResult", "load_plan"]

#: Bumped on incompatible plan-file format changes.
PLAN_VERSION = 1


def _apply_post(frame: ResultFrame, ops) -> ResultFrame:
    for op in ops:
        kind = op.get("op")
        if kind == "normalize":
            frame = frame.normalize(
                str(op["value"]),
                reference=dict(op["reference"]),
                within=tuple(op["within"]),
                name=op.get("name"),
            )
        elif kind == "filter":
            frame = frame.filter(**dict(op["where"]))
        elif kind == "exclude":
            frame = frame.exclude(**dict(op["where"]))
        else:
            raise SchedulingError(
                f"unknown post op {kind!r}; known: normalize, filter, "
                "exclude"
            )
    return frame


@dataclass
class StudyPlan:
    """A complete, serializable experiment description.

    Attributes
    ----------
    name:
        Identifier (also the default report title).
    sweep:
        The declarative grid expanding to campaign specs.
    description:
        One human sentence about what the study shows.
    post:
        Frame-operation pipeline applied to the raw result frame (see
        module docstring for the vocabulary).
    group_by / metrics:
        How :meth:`StudyResult.summary` aggregates: group keys and the
        metric columns worth reporting (empty = all numeric).
    render:
        Code-only hook: ``render(result) -> str`` overrides the
        generic report.  Not serialized.
    """

    name: str
    sweep: Sweep
    description: str = ""
    post: Tuple[Dict[str, Any], ...] = ()
    group_by: Tuple[str, ...] = ()
    metrics: Tuple[str, ...] = ()
    render: Optional[Callable[["StudyResult"], str]] = None

    def __post_init__(self) -> None:
        self.post = tuple(self.post)
        self.group_by = tuple(self.group_by)
        self.metrics = tuple(self.metrics)

    # ------------------------------------------------------------------
    def run(
        self,
        *,
        runner: Optional[SpecRunner] = None,
        workers: int = 1,
        cache: Optional[ResultCache] = None,
    ) -> "StudyResult":
        """Shorthand for ``Study(plan, ...).run()``."""
        return Study(
            self, runner=runner, workers=workers, cache=cache
        ).run()

    # Serialization ----------------------------------------------------
    def to_json(self) -> Dict:
        """The plan as a JSON-ready dict (the ``render`` hook is code
        and is dropped)."""
        return {
            "version": PLAN_VERSION,
            "name": self.name,
            "description": self.description,
            "sweep": self.sweep.to_json(),
            "post": [dict(op) for op in self.post],
            "group_by": list(self.group_by),
            "metrics": list(self.metrics),
        }

    @classmethod
    def from_json(cls, data: Dict) -> "StudyPlan":
        version = int(data.get("version", PLAN_VERSION))
        if version != PLAN_VERSION:
            raise SchedulingError(
                f"plan version {version} unsupported (this build "
                f"speaks {PLAN_VERSION})"
            )
        return cls(
            name=str(data.get("name", "study")),
            sweep=Sweep.from_json(data["sweep"]),
            description=str(data.get("description", "")),
            post=tuple(dict(op) for op in data.get("post", ())),
            group_by=tuple(str(k) for k in data.get("group_by", ())),
            metrics=tuple(str(m) for m in data.get("metrics", ())),
        )

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(
            json.dumps(self.to_json(), indent=2, sort_keys=False) + "\n"
        )


def load_plan(path: Union[str, Path]) -> StudyPlan:
    """Load a plan file written by :meth:`StudyPlan.save`."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise SchedulingError(f"cannot read plan {path}: {exc}") from exc
    except ValueError as exc:
        raise SchedulingError(
            f"plan {path} is not valid JSON: {exc}"
        ) from exc
    return StudyPlan.from_json(data)


@dataclass
class StudyResult:
    """A finished study: typed frame + campaign execution telemetry."""

    plan: StudyPlan
    frame: ResultFrame
    campaign: CampaignResult

    def summary(self) -> ResultFrame:
        """The plan's aggregate view: group means over ``group_by``
        (restricted to ``metrics`` when named), else the full frame."""
        if not self.plan.group_by:
            return self.frame
        means = self.frame.group_by(*self.plan.group_by).mean()
        if self.plan.metrics:
            keep = (
                list(self.plan.group_by)
                + ["n"]
                + [
                    m
                    for m in self.plan.metrics
                    if m in means.column_names
                ]
            )
            means = means.select(*keep)
        return means

    def format(self) -> str:
        """The study report: the plan's renderer if present, else a
        generic summary table."""
        if self.plan.render is not None:
            return self.plan.render(self)
        title = self.plan.name
        if self.plan.description:
            title += f" — {self.plan.description}"
        return f"{title}\n{self.summary().format()}"


class Study:
    """Executes a :class:`StudyPlan` on a campaign runner.

    Parameters
    ----------
    plan:
        The declarative study description.
    runner:
        Any :class:`~repro.campaign.runner.SpecRunner` (explicit
        runner wins over ``workers``/``cache``) — results are
        bit-identical across runners and worker counts.
    workers:
        Pool size for the default local runner.
    cache:
        Optional result cache for the default local runner.

    Fault containment (retries, spec deadlines, quarantine) is a
    runner setting: pass a :class:`~repro.campaign.runner.CampaignRunner`
    or :class:`~repro.campaign.distributed.DistributedRunner` built
    with the knobs you need.
    """

    def __init__(
        self,
        plan: StudyPlan,
        *,
        runner: Optional[SpecRunner] = None,
        workers: int = 1,
        cache: Optional[ResultCache] = None,
    ) -> None:
        self.plan = plan
        if runner is None:
            runner = CampaignRunner(workers, cache=cache)
        self.runner = runner

    def run(self) -> StudyResult:
        """Expand the sweep, execute, build the frame, apply post ops."""
        specs, meta = self.plan.sweep.expand_with_meta()
        if not specs:
            raise SchedulingError(
                f"plan {self.plan.name!r} expands to zero specs"
            )
        campaign = self.runner.run(specs)
        frame = ResultFrame.from_results(campaign.results, extra=meta)
        frame = _apply_post(frame, self.plan.post)
        return StudyResult(plan=self.plan, frame=frame, campaign=campaign)
