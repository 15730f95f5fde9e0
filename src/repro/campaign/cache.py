"""On-disk result cache keyed by spec content hash.

One JSON file per scenario under the cache root; a hit deserializes to
a :class:`~repro.campaign.spec.ScenarioResult` flagged ``cached=True``.
Writes are atomic (tmp file, fsync, rename) so a crashed run never
leaves a truncated entry and a host crash cannot eat a stored one, and
a corrupt/unreadable entry is treated as a miss and overwritten on the
next store.  The cache is also the campaign's crash-recovery store:
rerunning an interrupted campaign on the same cache executes only the
specs it does not hold.

The default root is ``$REPRO_CAMPAIGN_CACHE`` if set, else
``~/.cache/repro/campaign``.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Optional, Union

from .. import faults
from ..errors import SchedulingError
from .spec import ScenarioResult, Spec, content_hash

__all__ = ["ResultCache", "default_cache_dir"]


def default_cache_dir() -> Path:
    env = os.environ.get("REPRO_CAMPAIGN_CACHE")
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro" / "campaign"


class ResultCache:
    """A directory of ``<spec_hash>.json`` scenario results."""

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()

    def _path(self, spec: Spec) -> Path:
        return self.root / f"{content_hash(spec)}.json"

    def get(self, spec: Spec) -> Optional[ScenarioResult]:
        """The cached result for ``spec``, or ``None`` on a miss."""
        path = self._path(spec)
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        try:
            result = ScenarioResult.from_json(data, cached=True)
        except (KeyError, TypeError, ValueError, SchedulingError):
            return None  # schema drift or corrupt fields: a miss
        if result.spec != spec:
            return None  # hash collision or stale entry — recompute
        return result

    def put(self, result: ScenarioResult) -> None:
        """Store ``result`` atomically under its spec hash."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._path(result.spec)
        payload = json.dumps(result.to_json(), sort_keys=True, indent=1)
        if faults.fire("cache.put") == "corrupt":
            payload = faults.corrupt_text(payload)
        fd, tmp = tempfile.mkstemp(
            dir=str(self.root), prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
                # A rerun trusts the cache to know what is done, so an
                # entry must reach the disk before it becomes visible.
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))

    def clear(self) -> int:
        """Delete every cached entry; returns the number removed."""
        removed = 0
        if self.root.is_dir():
            for path in sorted(self.root.glob("*.json")):
                path.unlink()
                removed += 1
        return removed
