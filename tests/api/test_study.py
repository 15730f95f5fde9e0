"""Study layer: plan files, cache reuse, summaries.

The declarative plans must survive JSON round trips without changing
a single spec, and a rerun or grown plan must reuse cached results.
"""

import pytest

from repro.api import Study, StudyPlan, load_plan, plans
from repro.campaign import ResultCache
from repro.errors import SchedulingError

T2_SCALE = dict(n_sets=2, n_graphs=3, seed=0)
F6_SCALE = dict(graph_counts=(2, 3), sets_per_point=1, seed=0)


def run_plan(plan, **kwargs):
    return Study(plan, **kwargs).run()


class TestPlanFiles:
    def test_plan_json_round_trip_preserves_specs(self, tmp_path):
        plan = plans.table2_plan(**T2_SCALE)
        path = tmp_path / "plan.json"
        plan.save(path)
        clone = load_plan(path)
        assert clone.sweep.expand() == plan.sweep.expand()
        assert clone.post == plan.post
        assert clone.group_by == plan.group_by

    def test_plan_file_run_matches_builtin_frame(self, tmp_path):
        plan = plans.fig6_plan(**F6_SCALE)
        path = tmp_path / "fig6.json"
        plan.save(path)
        builtin = run_plan(plan)
        from_file = run_plan(load_plan(path))
        assert from_file.frame.to_csv() == builtin.frame.to_csv()
        # The renderer is code and doesn't serialize: the file run
        # falls back to the generic grouped summary.
        assert from_file.plan.render is None
        assert "fig6" in from_file.format()

    def test_unreadable_plan_is_an_error(self, tmp_path):
        with pytest.raises(SchedulingError, match="cannot read"):
            load_plan(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SchedulingError, match="not valid JSON"):
            load_plan(bad)


class TestCacheReuse:
    def test_plan_rerun_is_all_cache_hits(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        plan = plans.table2_plan(n_sets=1, n_graphs=2, seed=0)
        first = run_plan(plan, cache=cache)
        again = run_plan(plan, cache=cache)
        assert first.campaign.executed == len(plan.sweep.expand())
        assert again.campaign.cache_hits == len(plan.sweep.expand())
        assert again.frame.to_csv() == first.frame.to_csv()

    def test_growing_an_axis_reuses_cached_prefix(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        small = plans.table2_plan(n_sets=1, n_graphs=2, seed=0)
        run_plan(small, cache=cache)
        # Growing the replicate axis: the first set's specs are
        # unchanged, so only the new set executes.
        grown = plans.table2_plan(n_sets=2, n_graphs=2, seed=0)
        res = run_plan(grown, cache=cache)
        n_schemes = len(plans.PAPER_SCHEME_NAMES)
        assert res.campaign.cache_hits == n_schemes
        assert res.campaign.executed == n_schemes


class TestStudySummary:
    def test_summary_respects_group_by_and_metrics(self):
        res = run_plan(plans.table2_plan(n_sets=1, n_graphs=2, seed=0))
        summary = res.summary()
        assert summary.column_names == (
            "scheme", "n", "delivered_mah", "lifetime_min",
        )
        assert len(summary) == len(plans.PAPER_SCHEME_NAMES)

    def test_empty_sweep_rejected(self):
        from repro.api import Sweep

        plan = StudyPlan(
            name="empty", sweep=Sweep("scenario", scheme="EDF")
        )
        # A bare sweep has one point (the base), so build a filtered
        # one that really is empty via an impossible conditional.
        assert len(plan.sweep.expand()) == 1  # sanity
