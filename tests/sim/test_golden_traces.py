"""Golden-trace regression tests: segment-exact schedule equality.

Small fixed scenarios (ccEDF, laEDF, NoDVS and static-utilization on
the ``small_set`` workload from ``tests/conftest.py``, worst-case
actuals, one hyperperiod) are committed as JSON fixtures under
``tests/sim/golden/``.  A scheduler or engine refactor that changes
*any* dispatched segment — placement, operating point, or current —
fails these tests instead of silently shifting the paper's numbers.

Every fixture is checked against both engines: the scalar event loop
(id ``naive``) and the lock-step vector engine that campaigns run (id
``fast``).

If a change is *intended* to alter schedules, regenerate the fixtures
and review the diff::

    PYTHONPATH=src python tests/sim/test_golden_traces.py regen
"""

import json
import sys
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Scenario name -> DVS frequency setter; every scenario runs the LTF
#: priority over the most-imminent ready list (fully deterministic).
SCENARIOS = ("ccedf", "laedf", "nodvs", "static")
HORIZON = 100.0  # one hyperperiod of the small_set workload (lcm 20, 50)

#: Under worst-case actuals ccEDF never sees completed-early slack, so
#: its utilization-tracking speed equals the static worst-case speed
#: and the two schedules coincide segment-for-segment.  This is
#: algorithm semantics, not an accident — pinned by its own test.
KNOWN_EQUAL = {"ccedf", "static"}


def _small_set():
    """The ``small_set`` fixture's task set (mirrored so this module
    can also run standalone for regeneration)."""
    from repro.taskgraph.graph import TaskGraph, TaskNode
    from repro.taskgraph.periodic import PeriodicTaskGraph, TaskGraphSet

    diamond = TaskGraph(
        "diamond",
        [
            TaskNode("a", 2.0),
            TaskNode("b", 3.0),
            TaskNode("c", 5.0),
            TaskNode("d", 1.0),
        ],
        [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
    )
    indep2 = TaskGraph(
        "indep2", [TaskNode("task1", 4.0), TaskNode("task2", 6.0)], []
    )
    return TaskGraphSet(
        [PeriodicTaskGraph(diamond, 20.0), PeriodicTaskGraph(indep2, 50.0)]
    )


def _run(
    scenario: str,
    *,
    vector: bool = False,
    horizon: float = HORIZON,
    on_miss: str = "raise",
):
    from repro.core.methodology import SchedulingPolicy
    from repro.core.priority import LTF
    from repro.core.ready_list import MOST_IMMINENT
    from repro.dvs import CcEDF, LaEDF
    from repro.dvs.nodvs import NoDVS
    from repro.dvs.static import StaticUtilization
    from repro.processor.platform import paper_processor
    from repro.sim.engine import Simulator
    from repro.sim.vector import VectorEngine

    dvs = {
        "ccedf": CcEDF,
        "laedf": LaEDF,
        "nodvs": NoDVS,
        "static": StaticUtilization,
    }[scenario]()
    sim = Simulator(
        _small_set(),
        paper_processor(),
        dvs,
        SchedulingPolicy(LTF(), MOST_IMMINENT),
        on_miss=on_miss,
    )
    if vector:
        return VectorEngine([(sim, horizon)]).run()[0]
    return sim.run(horizon)


def _trace_json(result) -> dict:
    return {
        "horizon": result.horizon,
        "energy_j": result.energy,
        "charge_c": result.charge,
        "segments": [
            {
                "start": s.start,
                "duration": s.duration,
                "graph": s.graph,
                "node": s.node,
                "speed": s.speed,
                "voltage": s.voltage,
                "current": s.current,
            }
            for s in result.trace
        ],
    }


def _golden_path(scenario: str) -> Path:
    return GOLDEN_DIR / f"{scenario}_small_set.json"


@pytest.mark.parametrize("vector", [False, True], ids=["naive", "fast"])
@pytest.mark.parametrize("scenario", SCENARIOS)
class TestGoldenTraces:
    def test_segment_exact_equality(self, scenario, vector):
        golden = json.loads(_golden_path(scenario).read_text())
        actual = _trace_json(_run(scenario, vector=vector))
        assert len(actual["segments"]) == len(golden["segments"])
        for k, (got, want) in enumerate(
            zip(actual["segments"], golden["segments"])
        ):
            # Exact float equality on purpose: the run is fully
            # deterministic, so any drift is a behaviour change.
            assert got == want, (
                f"{scenario}: segment {k} diverged\n  got: {got}\n"
                f" want: {want}"
            )

    def test_summary_scalars_exact(self, scenario, vector):
        golden = json.loads(_golden_path(scenario).read_text())
        result = _run(scenario, vector=vector)
        assert result.energy == golden["energy_j"]
        assert result.charge == golden["charge_c"]
        assert result.horizon == golden["horizon"]

    def test_schedules_differ_between_dvs(self, scenario, vector):
        """Sanity: no fixture accidentally equals another (the test
        would then not pin the DVS algorithm at all) — except the one
        *known* coincidence checked separately below."""
        a = json.loads(_golden_path(scenario).read_text())
        for other in SCENARIOS:
            if other == scenario or {scenario, other} == KNOWN_EQUAL:
                continue
            b = json.loads(_golden_path(other).read_text())
            assert a["segments"] != b["segments"], (
                f"{scenario} and {other} produced identical traces"
            )


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_tiled_prefix_matches_golden(scenario):
    """A run over four golden windows starts with the golden fixture,
    byte for byte: a longer horizon never changes the first window."""
    golden = json.loads(_golden_path(scenario).read_text())
    # laEDF misses under sustained worst-case actuals (its documented
    # look-ahead overcommitment), so record misses instead of raising.
    result = _run(scenario, horizon=4 * HORIZON, on_miss="record")
    if scenario == "laedf":
        assert result.misses
    actual = _trace_json(result)
    prefix = actual["segments"][: len(golden["segments"])]
    assert prefix == golden["segments"]


def test_known_coincidence_ccedf_equals_static():
    """ccEDF at worst-case actuals degenerates to the static
    worst-case-utilization schedule (no early completions, no slack
    to reclaim).  Pinning the coincidence makes a divergence — i.e. a
    behaviour change in either algorithm — loud."""
    a = json.loads(_golden_path("ccedf").read_text())
    b = json.loads(_golden_path("static").read_text())
    assert a["segments"] == b["segments"]


def _regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for scenario in SCENARIOS:
        path = _golden_path(scenario)
        path.write_text(
            json.dumps(_trace_json(_run(scenario)), indent=1) + "\n"
        )
        print(f"wrote {path}")


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "regen":
        _regenerate()
    else:
        print(__doc__)
