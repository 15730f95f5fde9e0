"""ResultFrame: construction, deterministic reductions, serialization."""

import numpy as np
import pytest

from repro.api import ResultFrame
from repro.campaign.spec import ScenarioResult, ScenarioSpec, SurvivalSpec
from repro.errors import SchedulingError


def make_results(rows):
    """rows: (scheme, rep, metrics-dict) triples."""
    results, extra = [], []
    for scheme, rep, metrics in rows:
        results.append(
            ScenarioResult(
                spec=ScenarioSpec(scheme=scheme, seed=rep),
                metrics=metrics,
            )
        )
        extra.append({"_rep": rep})
    return ResultFrame.from_results(results, extra=extra)


@pytest.fixture
def frame():
    return make_results(
        [
            ("EDF", 0, {"energy_j": 4.0, "misses": 0.0}),
            ("BAS-2", 0, {"energy_j": 2.0, "misses": 1.0}),
            ("EDF", 1, {"energy_j": 6.0, "misses": 0.0}),
            ("BAS-2", 1, {"energy_j": 3.0, "misses": 0.0}),
        ]
    )


class TestConstruction:
    def test_columns_cover_spec_meta_metrics(self, frame):
        names = frame.column_names
        assert "scheme" in names and "seed" in names
        assert "_rep" in names
        assert "energy_j" in names and "misses" in names
        assert len(frame) == 4

    def test_numeric_dtypes(self, frame):
        assert frame.column("energy_j").dtype == np.float64
        assert frame.column("seed").dtype == np.int64
        assert frame.column("scheme").dtype == object

    def test_extra_length_mismatch_rejected(self):
        results = [
            ScenarioResult(
                spec=ScenarioSpec(scheme="EDF"), metrics={"m": 1.0}
            )
        ]
        with pytest.raises(SchedulingError, match="length"):
            ResultFrame.from_results(results, extra=[{}, {}])

    def test_row_round_trip(self, frame):
        row = frame.row(1)
        assert row["scheme"] == "BAS-2"
        assert row["energy_j"] == 2.0
        assert row["_rep"] == 0


class TestGroupBy:
    def test_groups_in_first_appearance_order(self, frame):
        means = frame.group_by("scheme").mean()
        assert list(means.column("scheme")) == ["EDF", "BAS-2"]
        assert list(means.column("n")) == [2, 2]

    def test_mean_is_sequential_sum_over_row_order(self, frame):
        means = frame.group_by("scheme").mean()
        by = dict(zip(means.column("scheme"), means.column("energy_j")))
        assert by["EDF"] == (4.0 + 6.0) / 2
        assert by["BAS-2"] == (2.0 + 3.0) / 2

    def test_sum_and_first(self, frame):
        sums = frame.group_by("scheme").sum()
        assert dict(
            zip(sums.column("scheme"), sums.column("energy_j"))
        ) == {"EDF": 10.0, "BAS-2": 5.0}
        firsts = frame.group_by("scheme").first()
        assert dict(
            zip(firsts.column("scheme"), firsts.column("energy_j"))
        ) == {"EDF": 4.0, "BAS-2": 2.0}

    def test_min_max_percentile(self):
        vals = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
        schemes = ["BAS-2", "EDF"] * 3
        grouped = make_results(
            [(s, i, {"m": v}) for i, (s, v) in enumerate(zip(schemes, vals))]
        ).group_by("scheme")

        def by_scheme(reduced):
            return dict(zip(reduced.column("scheme"), reduced.column("m")))

        assert by_scheme(grouped.min()) == {"BAS-2": 3.0, "EDF": 1.0}
        assert by_scheme(grouped.max()) == {"BAS-2": 9.0, "EDF": 2.6}
        # Linear interpolation between the nearest ranks, bit-equal to
        # numpy.percentile on the group's values.
        for q in (0.0, 25.0, 50.0, 90.0, 100.0):
            got = by_scheme(grouped.percentile(q))
            assert got["BAS-2"] == np.percentile([3.0, 4.0, 9.0], q)
            assert got["EDF"] == np.percentile([1.0, 1.5, 2.6], q)
        assert list(grouped.percentile(50.0).column("n")) == [3, 3]

    def test_min_max_percentile_independent_of_row_order(self):
        def reduce_all(values):
            grouped = make_results(
                [("S", i, {"m": v}) for i, v in enumerate(values)]
            ).group_by("scheme")
            return [
                float(reduced.column("m")[0])
                for reduced in (
                    grouped.min(), grouped.max(), grouped.percentile(50.0)
                )
            ]

        vals = [0.1, 0.7, 1e-17, 0.3, -0.2, 1.1]
        assert reduce_all(vals) == reduce_all(vals[::-1])

    def test_group_by_on_an_empty_frame_raises(self):
        with pytest.raises(SchedulingError, match="no column"):
            ResultFrame.from_results([]).group_by("scheme")

    def test_series_helper(self, frame):
        series = frame.group_by("scheme").series("misses")
        assert series == {("EDF",): 0.0, ("BAS-2",): 0.5}

    def test_bit_identical_to_legacy_accumulation(self):
        # Awkward float values where reduction order matters in the
        # last ulp: frame means must equal the legacy += loop exactly.
        vals = [0.1, 0.7, 1e-17, 0.3, -0.2, 1.1]
        rows = [("S", i, {"m": v}) for i, v in enumerate(vals)]
        frame = make_results(rows)
        acc = 0.0
        for v in vals:
            acc += v
        legacy_mean = acc / len(vals)
        got = frame.group_by("scheme").mean().column("m")[0]
        assert float(got) == legacy_mean  # exact, not approx


class TestTransforms:
    def test_filter_and_exclude(self, frame):
        assert len(frame.filter(scheme="EDF")) == 2
        assert len(frame.exclude(scheme="EDF")) == 2
        assert len(frame.filter(scheme="EDF", _rep=1)) == 1

    def test_normalize_divides_by_group_reference(self):
        frame = make_results(
            [
                ("ref", 0, {"e": 2.0}),
                ("a", 0, {"e": 4.0}),
                ("ref", 1, {"e": 4.0}),
                ("a", 1, {"e": 2.0}),
            ]
        )
        out = frame.normalize(
            "e", reference={"scheme": "ref"}, within=("_rep",)
        )
        assert list(out.column("e_rel")) == [1.0, 2.0, 1.0, 0.5]

    def test_normalize_requires_unique_positive_reference(self):
        frame = make_results(
            [("ref", 0, {"e": 0.0}), ("a", 0, {"e": 1.0})]
        )
        with pytest.raises(SchedulingError, match="positive"):
            frame.normalize(
                "e", reference={"scheme": "ref"}, within=("_rep",)
            )
        with pytest.raises(SchedulingError, match="reference rows"):
            frame.normalize(
                "e", reference={"scheme": "nope"}, within=("_rep",)
            )

    def test_mean_ci_brackets_the_mean(self, frame):
        ci = frame.mean_ci("energy_j", by=("scheme",))
        row = ci.filter(scheme="EDF").row(0)
        assert row["energy_j"] == 5.0
        assert row["energy_j_ci_lo"] < 5.0 < row["energy_j_ci_hi"]
        assert row["n"] == 2

    def test_mean_ci_single_row_group_is_nan(self):
        frame = make_results([("S", 0, {"m": 1.0})])
        ci = frame.mean_ci("m", by=("scheme",))
        assert np.isnan(ci.column("m_ci_lo")[0])

    def test_pivot(self, frame):
        pivot = frame.pivot("scheme", "_rep", "energy_j")
        assert pivot.row_labels == ("EDF", "BAS-2")
        assert pivot.column_labels == (0, 1)
        assert pivot.cells[0, 0] == 4.0
        assert pivot.cells[1, 1] == 3.0
        assert "energy_j" in pivot.format()

    def test_with_column_and_select(self, frame):
        out = frame.with_column("double", frame.column("energy_j") * 2)
        sub = out.select("scheme", "double")
        assert sub.column_names == ("scheme", "double")
        assert list(sub.column("double")) == [8.0, 4.0, 12.0, 6.0]


class TestSerialization:
    def test_csv_round_trips_floats_exactly(self, frame):
        text = frame.to_csv()
        lines = text.strip().split("\n")
        assert lines[0].startswith("scheme,")
        assert len(lines) == 5
        # repr-formatted floats parse back exactly
        assert "4.0" in lines[1]

    def test_json_round_trip(self, frame):
        import json

        clone = ResultFrame.from_json(
            json.loads(json.dumps(frame.to_json()))
        )
        assert clone.column_names == frame.column_names
        for name in frame.column_names:
            assert list(clone.column(name)) == list(frame.column(name))

        # Mixed spec kinds: each row's missing metrics are NaN, and the
        # other kind's spec fields are None.  Both must survive.
        mixed = ResultFrame.from_results(
            [
                ScenarioResult(
                    spec=ScenarioSpec(scheme="EDF", seed=0),
                    metrics={"lifetime_min": 80.0},
                ),
                ScenarioResult(
                    spec=SurvivalSpec(
                        battery="kibam", durations=(1.0,), currents=(2.0,)
                    ),
                    metrics={"survival_scale": 1.5},
                ),
            ]
        )
        assert np.isnan(mixed.column("survival_scale")[0])
        clone = ResultFrame.from_json(
            json.loads(json.dumps(mixed.to_json()))
        )
        assert clone.column_names == mixed.column_names
        for name in mixed.column_names:
            assert clone.column(name).dtype == mixed.column(name).dtype
        assert clone.column("horizon")[0] is None
        assert clone.to_csv() == mixed.to_csv()
        means = [f.group_by("battery").mean() for f in (mixed, clone)]
        assert means[1].column_names == means[0].column_names
        assert "survival_scale" in means[1].column_names
        assert means[1].to_csv() == means[0].to_csv()

    def test_format_renders_table(self, frame):
        out = frame.format()
        assert "scheme" in out and "energy_j" in out
