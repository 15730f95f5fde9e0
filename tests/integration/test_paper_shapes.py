"""End-to-end integration tests: the paper's qualitative results.

These are the repository's acceptance tests — each asserts a *shape*
the paper reports (who wins, rough factors), at reduced scale so the
suite stays fast.  Full-scale runs are the fidelity-ledger item in
ROADMAP.md.
"""

import numpy as np
import pytest

from repro import run_scheme
from repro.analysis.lifetime import evaluate_lifetime
from repro.battery.calibrate import paper_cell_kibam, paper_cell_stochastic
from repro.core.methodology import paper_schemes
from repro.processor.platform import paper_processor
from repro.workloads.generator import UniformActuals, paper_task_set


@pytest.fixture(scope="module")
def scheme_runs():
    """Three seeds x five schemes at the paper's operating point."""
    proc = paper_processor()
    out = {s.name: [] for s in paper_schemes()}
    for seed in range(3):
        ts = paper_task_set(4, utilization=0.7, seed=seed)
        actuals = UniformActuals(seed=seed)
        for scheme in paper_schemes():
            res = run_scheme(scheme, ts, proc, actuals, ts.hyperperiod())
            out[scheme.name].append(res)
    return out


class TestDeadlineAdherence:
    def test_no_scheme_misses(self, scheme_runs):
        """§4's core claim: deadline adherence independent of the DVS
        algorithm and priority function."""
        for runs in scheme_runs.values():
            for res in runs:
                assert not res.misses

    def test_all_work_completes(self, scheme_runs):
        for runs in scheme_runs.values():
            for res in runs:
                assert res.completed_jobs == res.released_jobs


class TestEnergyOrdering:
    def test_dvs_saves_energy(self, scheme_runs):
        """EDF >> ccEDF > laEDF in energy (Table 2's implied order)."""
        e = {
            name: np.mean([r.energy for r in runs])
            for name, runs in scheme_runs.items()
        }
        assert e["EDF"] > 1.5 * e["ccEDF"]
        assert e["ccEDF"] > e["laEDF"]
        assert e["laEDF"] >= e["BAS-1"] * 0.999

    def test_mean_current_ordering(self, scheme_runs):
        i = {
            name: np.mean([r.mean_current for r in runs])
            for name, runs in scheme_runs.items()
        }
        assert i["EDF"] > i["ccEDF"] > i["laEDF"]


class TestBatteryLifetimes:
    def test_table2_lifetime_progression(self, scheme_runs):
        """Lifetime: EDF < ccEDF < laEDF <= BAS (paper Table 2 shape).
        The no-DVS to BAS-2 improvement must be large (paper: ~2x; our
        ideal-mix DVS gives even more)."""
        cell = paper_cell_kibam()
        life = {}
        for name, runs in scheme_runs.items():
            life[name] = np.mean(
                [
                    evaluate_lifetime(r, cell).lifetime_minutes
                    for r in runs
                ]
            )
        assert life["EDF"] < life["ccEDF"] < life["laEDF"]
        assert life["BAS-2"] >= life["laEDF"] * 0.99
        assert life["BAS-2"] / life["EDF"] > 1.8

    def test_charge_delivered_progression(self, scheme_runs):
        cell = paper_cell_kibam()
        q = {}
        for name, runs in scheme_runs.items():
            q[name] = np.mean(
                [evaluate_lifetime(r, cell).delivered_mah for r in runs]
            )
        # Gentler loads extract more of the 2000 mAh maximum.
        assert q["EDF"] < q["ccEDF"] < q["BAS-2"]
        assert 1400 < q["EDF"] < 1750
        assert q["BAS-2"] < 2000

    def test_stochastic_model_agrees_with_kibam(self, scheme_runs):
        """Table 2 rankings are battery-model robust (Fig 2-3 claim)."""
        kib = paper_cell_kibam()
        sto = paper_cell_stochastic(seed=1)
        res = scheme_runs["EDF"][0]
        res2 = scheme_runs["laEDF"][0]
        l_kib = [
            evaluate_lifetime(r, kib).lifetime_minutes for r in (res, res2)
        ]
        l_sto = [
            evaluate_lifetime(r, sto, rebin=1.0).lifetime_minutes
            for r in (res, res2)
        ]
        assert (l_kib[0] < l_kib[1]) == (l_sto[0] < l_sto[1])


class TestGuidelines:
    def test_ccedf_guideline1(self, scheme_runs):
        """ccEDF keeps the per-dispatch current staircase locally
        non-increasing (§4.1)."""
        for res in scheme_runs["ccEDF"]:
            assert res.guideline1_holds()

    def test_edf_no_dvs_flat(self, scheme_runs):
        for res in scheme_runs["EDF"]:
            busy_speeds = {
                round(s.speed, 6)
                for s in res.trace
                if not s.is_idle
            }
            assert busy_speeds == {1.0}
