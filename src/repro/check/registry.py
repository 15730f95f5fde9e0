"""Declarative rule registry (mirrors :mod:`repro.campaign.registry`).

A rule is a class with a ``check(module, config) -> list[Finding]``
method, registered under its id with :func:`register_rule`::

    @register_rule(
        "DET009",
        title="short imperative title",
        rationale="why violating this breaks bit-identity",
    )
    class Det009Rule:
        def check(self, module, config):
            ...

Registration is declarative data (id, title, rationale, class), so
the CLI can list the catalog (``repro check --list-rules``) and docs
can be generated from it without instantiating anything.  The
built-in rules register themselves when :mod:`repro.check.rules` is
imported (the runner does this lazily).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from ..errors import SchedulingError

__all__ = [
    "RuleSpec",
    "register_rule",
    "known_rules",
    "get_rule",
    "rule_specs",
]

_RULES: Dict[str, "RuleSpec"] = {}


@dataclass(frozen=True)
class RuleSpec:
    """Declarative record of one registered rule."""

    id: str
    title: str
    rationale: str
    factory: Callable

    def make(self):
        return self.factory()


def register_rule(rule_id: str, *, title: str, rationale: str):
    """Class decorator registering a rule under ``rule_id``."""

    def decorate(cls):
        if rule_id in _RULES:
            raise SchedulingError(
                f"duplicate rule id {rule_id!r} "
                f"({_RULES[rule_id].factory!r} vs {cls!r})"
            )
        _RULES[rule_id] = RuleSpec(
            id=rule_id, title=title, rationale=rationale, factory=cls
        )
        return cls

    return decorate


def _ensure_builtin() -> None:
    # Importing the rules package runs every @register_rule decorator.
    from . import rules  # noqa: F401  (import-for-side-effect)


def known_rules() -> List[str]:
    """Sorted ids of every registered rule."""
    _ensure_builtin()
    return sorted(_RULES)


def rule_specs() -> List[RuleSpec]:
    """Every registered rule's declarative record, sorted by id."""
    _ensure_builtin()
    return [_RULES[rule_id] for rule_id in sorted(_RULES)]


def get_rule(rule_id: str) -> RuleSpec:
    _ensure_builtin()
    try:
        return _RULES[rule_id]
    except KeyError:
        raise SchedulingError(
            f"unknown rule {rule_id!r}; known: {', '.join(sorted(_RULES))}"
        ) from None
