"""Repetition loop of the benchmark driver: failures end a run.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[2]


def _load_run():
    name = "perfbench_run"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "perfbench" / "run.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


run_mod = _load_run()

DIGESTS = {"report_sha256": "r", "frame_sha256": "f"}
EXPECTED = {"digests": {"table2": {"0": DIGESTS}}}


def _fake_spawn(failing_kind):
    calls = []

    def spawn(args, kind, spans=None):
        calls.append(kind)
        if kind == failing_kind:
            return {"error": "boom", "elapsed_s": 0.0}
        return dict(DIGESTS, setup_s=0.1, elapsed_s=0.0, workers=1)

    return spawn, calls


@pytest.mark.parametrize("limit", ["deadline", "failures in a row"])
def test_a_kind_that_never_passes_ends_the_run(monkeypatch, limit):
    spawn, calls = _fake_spawn("traced")
    monkeypatch.setattr(run_mod, "spawn", spawn)
    if limit == "deadline":
        monkeypatch.setattr(run_mod, "MAX_FAILS", 10**9)
        seconds = 0.0
    else:
        seconds = 1e9
    args = SimpleNamespace(workload="table2", seed=0, seconds=seconds,
                           trace=1, input_seed=0)
    verdicts = run_mod.Verdicts("table2", 0, EXPECTED)
    setups, reps = run_mod.run_reps(args, verdicts)
    assert reps["plain"] and not reps["traced"]
    assert "traced" in calls
    assert verdicts.failed == 25 * calls.count("traced")
    if limit == "failures in a row":
        assert calls.count("traced") == run_mod.MAX_FAILS
