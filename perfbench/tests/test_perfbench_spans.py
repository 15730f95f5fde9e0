"""Span accounting of the benchmark's outside-in tracer.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))


def _load_tracer():
    name = "perfbench_tracer"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


tracer_mod = _load_tracer()
Tracer, Probes = tracer_mod.Tracer, tracer_mod.Probes


class FakeClock:
    """Each reading advances time by one second."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def _assert_closes(tracer, root) -> None:
    """Self times under ``root`` add up to its wall time."""
    total = sum(s.self_s for s in tracer.subtree(root))
    assert total == pytest.approx(root.duration, rel=1e-12, abs=1e-12)


# ----------------------------------------------------------------------
# Pure accounting (deterministic clock)
# ----------------------------------------------------------------------
def test_self_time_excludes_children_and_inclusive_counts_once():
    tr = Tracer(clock=FakeClock())

    def leaf():
        return "leaf"

    traced_leaf = tr.wrap("leaf", leaf)

    def middle():
        traced_leaf()
        return traced_leaf()

    traced_middle = tr.wrap("middle", middle)
    recursive = []

    def outer(depth):
        if depth:
            return recursive[0](depth - 1)
        return traced_middle()

    recursive.append(tr.wrap("outer", outer))
    with tr.span("root") as root:
        assert recursive[0](1) == "leaf"

    # leaf: 2 spans x 1 s; middle: 5 s long, 2 s of it in leaves.
    assert tr.self_s["leaf"] == 2.0
    assert tr.self_s["middle"] == 5.0 - 2.0
    # The recursive outer span is counted once inclusively.
    outers = [s for s in tr.spans if s.name == "outer"]
    assert tr.incl_s["outer"] == max(s.duration for s in outers)
    assert tr.self_s["outer"] == sum(s.self_s for s in outers)
    _assert_closes(tr, root)
    assert root.self_s == root.duration - outers[0].duration


def test_failed_call_still_closes_its_span():
    tr = Tracer(clock=FakeClock())

    def boom():
        raise ValueError("x")

    traced = tr.wrap("boom", boom, after=lambda *a: pytest.fail("after"))
    with tr.span("root") as root:
        with pytest.raises(ValueError):
            traced()
    assert not tr.inside("boom")
    _assert_closes(tr, root)


# ----------------------------------------------------------------------
# Probes on the real program
# ----------------------------------------------------------------------
def _children(tracer, parent_name):
    index = {id(s): k for k, s in enumerate(tracer.spans)}
    parents = [s for s in tracer.spans if s.name == parent_name]
    assert parents, parent_name
    out = []
    for p in parents:
        k = index[id(p)]
        out += [s.name for s in tracer.spans if s.parent == k]
    return out


def test_near_optimal_run_does_not_double_count_the_engine():
    from repro.campaign import ScenarioSpec
    from repro.campaign import runner

    spec = ScenarioSpec(
        scheme="near-optimal", n_graphs=2, seed=3, horizon=40.0,
        estimator="oracle",
    )
    tr = Tracer()
    with Probes(tr, {spec: 0}) as probes:
        with tr.span("root") as root:
            runner.run_spec(spec)
    assert tr.counts["exact.nearopt_calls"] == 1
    assert _children(tr, "exact.nearopt") == ["sim.engine.run"]
    engine = next(s for s in tr.spans if s.name == "sim.engine.run")
    nearopt = next(s for s in tr.spans if s.name == "exact.nearopt")
    assert tr.self_s["exact.nearopt"] == pytest.approx(
        nearopt.duration - engine.duration, abs=1e-12
    )
    assert tr.self_s["sim.engine.nearopt"] == engine.self_s
    assert probes.paths == {0: "S"}
    _assert_closes(tr, root)


def test_evaluate_lifetime_children_are_attributed_once():
    from repro.campaign import ScenarioSpec
    from repro.campaign import runner

    spec = ScenarioSpec(scheme="EDF", n_graphs=2, seed=5, battery="kibam")
    tr = Tracer()
    with Probes(tr, {}):
        with tr.span("root") as root:
            runner.run_spec(spec)
    below = _children(tr, "analysis.lifetime")
    assert sorted(below) == [
        "battery.run_profile", "sim.profile.rebin", "sim.profile.reduce",
    ]
    # The scenario metrics also reduce the trace once, outside it.
    assert tr.counts["sim.profile.segments_in"] > 0
    assert len([s for s in tr.spans if s.name == "sim.profile.reduce"]) == 2
    assert tr.counts["battery.loads"] == 1
    life = next(s for s in tr.spans if s.name == "analysis.lifetime")
    kids = sum(
        s.duration
        for s in tr.spans
        if s.parent == tr.spans.index(life)
    )
    assert life.self_s == pytest.approx(life.duration - kids, abs=1e-12)
    _assert_closes(tr, root)


def test_cache_get_hash_is_a_child_not_a_double_count(tmp_path):
    from repro.campaign import ResultCache, ScenarioSpec

    spec = ScenarioSpec(scheme="EDF", n_graphs=2, seed=7)
    cache = ResultCache(tmp_path)
    tr = Tracer()
    with Probes(tr, {}):
        with tr.span("root") as root:
            assert cache.get(spec) is None
    assert _children(tr, "campaign.cache.get") == ["campaign.spec.hash"]
    assert tr.counts["campaign.cache.gets"] == 1
    assert tr.counts["campaign.cache.hits"] == 0
    assert tr.counts["campaign.spec.hashes"] == 1
    get = next(s for s in tr.spans if s.name == "campaign.cache.get")
    assert tr.self_s["campaign.cache.get"] + tr.self_s[
        "campaign.spec.hash"
    ] == pytest.approx(get.duration, abs=1e-12)
    _assert_closes(tr, root)


def test_from_import_binding_is_patched_and_restored():
    from repro.campaign import ScenarioSpec
    from repro.campaign import runner
    from repro.workloads import generator

    original = runner.paper_task_set
    assert original is generator.paper_task_set
    spec = ScenarioSpec(scheme="EDF", n_graphs=2, seed=11)
    tr = Tracer()
    with Probes(tr, {}) as probes:
        assert runner.paper_task_set is not original
        runner.run_spec(spec)
    assert not probes.missing
    assert tr.counts["workloads.tasksets"] == 1
    assert tr.counts["workloads.nodes"] > 0
    assert runner.paper_task_set is original
