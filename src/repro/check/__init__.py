"""``repro check`` — the determinism & concurrency static analyzer.

Every fast path in this repository (battery kernels, the vector
engine, distributed campaigns) is sold on one promise: results
byte-identical to the sequential scalar reference.  That promise
rests on repo-specific conventions — SeedSequence-only RNG
discipline, no wall-clock reads in deterministic code, version bumps
when hot-path semantics change, lock-guarded broker state — which
this package turns into machine-checked invariants enforced at lint
time, before a violation can corrupt a cache or a campaign.

Entry points
------------
* CLI: ``python -m repro check [paths]`` (see :mod:`repro.check.cli`)
* API: :func:`run_check` over a list of files/directories
* Rule catalog: :func:`repro.check.registry.known_rules`; the rule
  set is a declarative registry mirroring :mod:`repro.campaign.registry`'s
  style, so adding a rule is one decorated class (see
  ``docs/static-analysis.md``).

Suppression is explicit and audited: ``# repro: noqa[RULE] --
justification`` pragmas (the justification is mandatory — rule
PRAGMA001), plus an optional checked-in baseline file for staged
adoption.
"""

from .config import CheckConfig, default_config
from .findings import Finding
from .registry import known_rules, register_rule
from .runner import CheckReport, run_check

__all__ = [
    "CheckConfig",
    "CheckReport",
    "Finding",
    "default_config",
    "known_rules",
    "register_rule",
    "run_check",
]
