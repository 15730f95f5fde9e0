"""Incremental campaign growth on seed-prefix stability.

``numpy.random.SeedSequence.spawn`` derives child seeds by spawn key,
so the first ``n`` children of a root seed are identical no matter how
many siblings are eventually spawned:
``spawn_seeds(root, m)[:n] == spawn_seeds(root, n)`` for every
``m >= n``.  That prefix property makes campaigns *growable*: a sweep
of ``n`` scenarios can be enlarged to ``n + k`` without perturbing a
single existing scenario, so only the new suffix needs executing —
and with a content-hash result cache attached, even a fresh process
asked for the enlarged campaign re-executes nothing but the suffix.

:class:`GrowableRunnerMixin` adds this protocol to any runner exposing
``run(specs, on_result=...)`` — both the local
:class:`~repro.campaign.runner.CampaignRunner` and the distributed
:class:`~repro.campaign.distributed.DistributedRunner` inherit it:

.. code-block:: python

    runner = CampaignRunner(4, cache=ResultCache())
    template = lambda seed, i: ScenarioSpec(scheme="BAS-2", seed=seed)
    campaign = runner.run_campaign(template, 50, root_seed=0)
    bigger = runner.extend(25)       # executes only scenarios 50..74

Each grow step returns the suffix run's own
:class:`~repro.campaign.runner.CampaignResult` with ``results``
swapped for the merged list, so every counter and the failure report
read exactly as a plain ``run`` of the suffix specs would.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    List,
    Optional,
    Protocol,
    Sequence,
    Union,
)

from ..errors import SchedulingError
from .spec import Spec, is_spec, spawn_seeds

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .runner import CampaignResult

__all__ = ["SpecTemplate", "SpecRunner", "GrowableRunnerMixin"]


#: Builds the spec (or specs — e.g. one per scheme) for one scenario:
#: called as ``template(seed, scenario_index)``.
SpecTemplate = Callable[[int, int], Union[Spec, Sequence[Spec]]]


class SpecRunner(Protocol):
    """Anything that can execute a spec list campaign-style.

    Satisfied by :class:`~repro.campaign.runner.CampaignRunner` and
    :class:`~repro.campaign.distributed.DistributedRunner`;
    :class:`~repro.api.study.Study` accepts any of these via its
    ``runner`` parameter.
    """

    def run(
        self,
        specs: Sequence[Spec],
        *,
        on_result: Optional[Callable] = None,
    ) -> "CampaignResult": ...  # pragma: no cover - protocol


@dataclass
class _GrowthState:
    """What :meth:`GrowableRunnerMixin.extend` needs to remember."""

    template: SpecTemplate
    root_seed: int
    n_scenarios: int
    n_specs: int
    results: List  # ScenarioResult accumulated over every grow step


def _expand(template: SpecTemplate, seed: int, index: int) -> List[Spec]:
    out = template(seed, index)
    if is_spec(out):
        return [out]
    specs = list(out)
    if not specs or not all(is_spec(s) for s in specs):
        raise SchedulingError(
            "campaign template must return a Spec or a non-empty "
            f"sequence of Specs, got {out!r} for scenario {index}"
        )
    return specs


class GrowableRunnerMixin:
    """Adds ``run_campaign`` / ``extend`` to a spec-list runner.

    The host class must provide ``run(specs, on_result=...)``
    returning a :class:`~repro.campaign.runner.CampaignResult`.
    """

    _growth: Optional[_GrowthState] = None

    # ------------------------------------------------------------------
    @property
    def campaign_size(self) -> int:
        """Scenario count of the campaign grown so far (0 if none)."""
        return 0 if self._growth is None else self._growth.n_scenarios

    def run_campaign(
        self,
        template: SpecTemplate,
        n_scenarios: int,
        *,
        root_seed: int = 0,
        on_result: Optional[Callable] = None,
    ) -> "CampaignResult":
        """Run ``n_scenarios`` template-built scenarios; remember them.

        Scenario ``i`` receives ``spawn_seeds(root_seed, n)[i]`` — a
        prefix-stable assignment, so a later :meth:`extend` (or a
        fresh ``run_campaign`` with a larger ``n_scenarios`` and the
        same cache) leaves every already-run scenario untouched.
        """
        if n_scenarios < 1:
            raise SchedulingError(
                f"n_scenarios must be >= 1, got {n_scenarios}"
            )
        self._growth = _GrowthState(template, int(root_seed), 0, 0, [])
        return self._grow(n_scenarios, on_result)

    def extend(
        self,
        n_more: int,
        *,
        on_result: Optional[Callable] = None,
    ) -> "CampaignResult":
        """Grow the last :meth:`run_campaign` by ``n_more`` scenarios.

        Only the new suffix is executed (the prefix's specs are not
        even rebuilt); the returned result's ``results`` cover the
        *whole* enlarged campaign, while every counter and the
        ``failures`` report (indices relative to the suffix) describe
        the suffix run alone.  ``on_result`` sees the suffix results
        under their global spec indices, so a callback threaded
        through ``run_campaign`` and every ``extend`` receives each
        result of the full campaign exactly once.
        """
        if self._growth is None:
            raise SchedulingError(
                "extend() needs a prior run_campaign() on this runner"
            )
        if n_more < 1:
            raise SchedulingError(f"n_more must be >= 1, got {n_more}")
        return self._grow(self._growth.n_scenarios + n_more, on_result)

    # ------------------------------------------------------------------
    def _grow(
        self,
        n_total: int,
        on_result: Optional[Callable],
    ) -> "CampaignResult":
        state = self._growth
        assert state is not None
        seeds = spawn_seeds(state.root_seed, n_total)
        suffix_specs: List[Spec] = []
        for index in range(state.n_scenarios, n_total):
            suffix_specs.extend(_expand(state.template, seeds[index], index))

        offset = state.n_specs

        def emit(local_index: int, result) -> None:
            if on_result is not None:
                on_result(offset + local_index, result)

        suffix = self.run(suffix_specs, on_result=emit)
        state.results.extend(suffix.results)
        state.n_scenarios = n_total
        state.n_specs += len(suffix_specs)
        return replace(suffix, results=list(state.results))
