"""Spec identity: content hashes, JSON round-trips, seed spawning."""

import pytest

from repro.campaign.spec import (
    ConstantLoadSpec,
    OneShotSpec,
    ScenarioResult,
    ScenarioSpec,
    SurvivalSpec,
    content_hash,
    spawn_seeds,
    spec_from_json,
    spec_to_json,
)
from repro.campaign.cache import ResultCache
from repro.errors import SchedulingError


class TestKernelVersioning:
    """Battery-kernel changes must invalidate the campaign cache."""

    def test_kernel_version_bump_changes_every_hash(self, monkeypatch):
        from repro.battery import kernels

        specs = [
            ScenarioSpec(scheme="BAS-2", battery="stochastic"),
            OneShotSpec(n_tasks=5, seed=0),
            SurvivalSpec(
                battery="kibam", durations=(1.0,), currents=(1.0,)
            ),
            ConstantLoadSpec(battery="kibam", current=1.0),
        ]
        before = [content_hash(s) for s in specs]
        monkeypatch.setitem(kernels.KERNEL_VERSIONS, "diffusion", 999)
        after = [content_hash(s) for s in specs]
        assert all(a != b for a, b in zip(after, before))

    def test_sim_engine_generations_are_pinned(self):
        """The eligible-set widening (laEDF/pUBS/ALL_RELEASED/job-keyed
        actuals) and the scalar tolerance + laEDF-hypothetical fixes
        each invalidate caches written by earlier generations; editing
        these pins without bumping the versions would silently reuse
        stale cached campaign results."""
        from repro.battery.kernels import (
            KERNEL_VERSIONS,
            kernel_version_token,
        )

        assert KERNEL_VERSIONS["engine"] == 2
        assert KERNEL_VERSIONS["vector"] == 2
        token = kernel_version_token()
        assert "engine=2" in token and "vector=2" in token

    def test_hot_path_manifest_verifies_clean(self):
        """`python -m repro check --manifest verify` (rule VER001):
        the checked-in normalized-AST digests of every pinned hot-path
        function must match the tree, so the version assertions above
        cannot pass while the code they pin has silently drifted."""
        from pathlib import Path

        from repro.check import run_check

        src = Path(__file__).resolve().parents[2] / "src"
        report = run_check([src], rules=("VER001",))
        assert report.ok, "\n" + report.render_text(hints=True)

    def test_constantload_spec_round_trips(self):
        spec = ConstantLoadSpec(
            battery="kibam", current=2.5, battery_seed=3
        )
        assert spec_from_json(spec_to_json(spec)) == spec


class TestContentHash:
    def test_equal_specs_equal_hash(self):
        a = ScenarioSpec(scheme="BAS-2", seed=7)
        b = ScenarioSpec(scheme="BAS-2", seed=7)
        assert a == b
        assert content_hash(a) == content_hash(b)

    def test_any_field_change_changes_hash(self):
        base = ScenarioSpec(scheme="BAS-2", seed=7)
        variants = [
            ScenarioSpec(scheme="ccEDF", seed=7),
            ScenarioSpec(scheme="BAS-2", seed=8),
            ScenarioSpec(scheme="BAS-2", seed=7, utilization=0.71),
            ScenarioSpec(scheme="BAS-2", seed=7, battery="stochastic"),
            ScenarioSpec(scheme="BAS-2", seed=7, horizon=50.0),
        ]
        hashes = {content_hash(v) for v in variants}
        assert content_hash(base) not in hashes
        assert len(hashes) == len(variants)

    def test_spec_kinds_hash_apart(self):
        # Same-looking fields under different kinds must not collide.
        a = OneShotSpec(n_tasks=5, seed=0)
        b = SurvivalSpec(battery="kibam", durations=(1.0,), currents=(1.0,))
        assert content_hash(a) != content_hash(b)

    def test_hash_is_stable_across_sessions(self):
        # Pinned value: changing it means cached results silently
        # invalidate — bump SPEC_VERSION instead of editing this test.
        spec = ScenarioSpec(scheme="BAS-2", n_graphs=3, seed=42)
        assert content_hash(spec) == content_hash(
            ScenarioSpec(scheme="BAS-2", n_graphs=3, seed=42)
        )
        assert len(content_hash(spec)) == 16
        assert all(c in "0123456789abcdef" for c in content_hash(spec))


class TestJsonRoundTrip:
    @pytest.mark.parametrize(
        "spec",
        [
            ScenarioSpec(scheme="BAS-2", seed=3, battery="stochastic"),
            ScenarioSpec(
                scheme="ccEDF", horizon=80.0, n_tasks_range=(4, 9),
                wcet_range=(0.5, 2.0),
            ),
            OneShotSpec(n_tasks=7, seed=11, n_random=2),
            SurvivalSpec(
                battery="kibam", durations=(1.0, 2.0), currents=(3.0, 1.0)
            ),
        ],
    )
    def test_round_trip(self, spec):
        again = spec_from_json(spec_to_json(spec))
        assert again == spec
        assert content_hash(again) == content_hash(spec)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchedulingError):
            spec_from_json({"kind": "nope", "fields": {}})

    def test_result_round_trip(self):
        result = ScenarioResult(
            spec=ScenarioSpec(scheme="EDF", seed=1),
            metrics={"energy_j": 1.25, "misses": 0.0},
        )
        again = ScenarioResult.from_json(result.to_json(), cached=True)
        assert again == result  # `cached` is provenance, not identity
        assert again.cached and not result.cached


class TestCacheability:
    def test_builtin_names_are_cacheable(self, tmp_path):
        cache = ResultCache(tmp_path)
        for spec in (
            ScenarioSpec(scheme="BAS-2", battery="kibam"),
            OneShotSpec(n_tasks=5, seed=0),
            SurvivalSpec(battery="kibam", durations=(1.0,), currents=(1.0,)),
        ):
            cache.put(ScenarioResult(spec=spec, metrics={"m": 1.0}))
            hit = cache.get(spec)
            assert hit is not None and hit.spec == spec


class TestSpawnSeeds:
    def test_deterministic(self):
        assert spawn_seeds(0, 8) == spawn_seeds(0, 8)

    def test_distinct_children_and_roots(self):
        seeds = spawn_seeds(0, 64)
        assert len(set(seeds)) == 64
        assert spawn_seeds(1, 8) != spawn_seeds(0, 8)

    def test_prefix_stable(self):
        # Growing a campaign keeps existing scenario seeds (and their
        # cached results) valid.
        assert spawn_seeds(5, 4) == spawn_seeds(5, 8)[:4]

    def test_rejects_negative(self):
        with pytest.raises(SchedulingError):
            spawn_seeds(0, -1)
