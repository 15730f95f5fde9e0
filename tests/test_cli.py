"""Tests for the ``python -m repro`` command-line interface."""

import json
from pathlib import Path

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table2_defaults(self):
        args = build_parser().parse_args(["table2"])
        assert args.sets == 5
        assert args.graphs == 5

    def test_table1_sizes(self):
        args = build_parser().parse_args(["table1", "--sizes", "5", "7"])
        assert args.sizes == [5, 7]

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tableX"])

    def test_campaign_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.scenarios == 10
        assert args.workers == 1
        assert args.schemes == ["EDF", "ccEDF", "laEDF", "BAS-1", "BAS-2"]
        assert not args.no_cache

    def test_workers_flag_on_sweeps(self):
        for cmd in (["table1"], ["table2"], ["fig6"], ["ablations"]):
            args = build_parser().parse_args(cmd + ["--workers", "3"])
            assert args.workers == 3

    def test_campaign_backend_flags(self):
        args = build_parser().parse_args(["campaign"])
        assert args.backend == "local"
        assert args.spawn_workers == 0
        assert not args.no_footer
        args = build_parser().parse_args(
            [
                "campaign", "--backend", "dist", "--dist-dir", "/tmp/q",
                "--spawn-workers", "4", "--lease-timeout", "5",
                "--result-timeout", "30", "--no-footer",
            ]
        )
        assert args.backend == "dist"
        assert args.dist_dir == "/tmp/q"
        assert args.spawn_workers == 4
        assert args.lease_timeout == 5.0
        assert args.result_timeout == 30.0
        assert args.no_footer

    def test_campaign_worker_flags(self):
        args = build_parser().parse_args(["campaign-worker", "--dir", "/q"])
        assert args.dir == "/q"
        assert args.connect is None
        assert args.max_tasks is None
        args = build_parser().parse_args(
            [
                "campaign-worker", "--connect", "host:7777",
                "--max-tasks", "3", "--idle-timeout", "2",
            ]
        )
        assert args.connect == "host:7777"
        assert args.max_tasks == 3
        assert args.idle_timeout == 2.0


class TestStudyCLI:
    def test_run_parser_defaults(self):
        args = build_parser().parse_args(["study", "run", "table2"])
        assert args.plan == "table2"
        assert args.workers == 1
        assert args.format == "report"
        assert args.backend == "local"

    def test_run_builtin_matches_legacy_driver(self, capsys):
        """The CI smoke contract: study run table2 == python -m repro
        table2, byte for byte."""
        assert main(["table2", "--sets", "1", "--graphs", "2"]) == 0
        legacy = capsys.readouterr().out
        assert main(
            [
                "study", "run", "table2",
                "--arg", "n_sets=1", "--arg", "n_graphs=2",
            ]
        ) == 0
        assert capsys.readouterr().out == legacy

    def test_exported_plan_file_runs_identically(self, capsys, tmp_path):
        plan_path = tmp_path / "t2.json"
        args = ["--arg", "n_sets=1", "--arg", "n_graphs=2"]
        assert main(
            ["study", "export", "table2", *args, "-o", str(plan_path)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["study", "run", "table2", *args, "--format", "csv"]
        ) == 0
        builtin_csv = capsys.readouterr().out
        assert main(
            ["study", "run", str(plan_path), "--format", "csv"]
        ) == 0
        assert capsys.readouterr().out == builtin_csv

    def test_axes_lists_registry(self, capsys):
        assert main(["study", "axes"]) == 0
        out = capsys.readouterr().out
        assert "scheme:" in out and "BAS-2" in out
        assert "constantload" in out

    def test_plans_lists_builtins(self, capsys):
        assert main(["study", "plans"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out and "ablation-feasibility" in out

    def test_unknown_plan_rejected(self):
        with pytest.raises(SystemExit, match="neither a builtin"):
            main(["study", "run", "tableX"])

    def test_bad_arg_rejected(self):
        with pytest.raises(SystemExit, match="name=value"):
            main(["study", "run", "table2", "--arg", "nonsense"])

    def test_json_format(self, capsys):
        import json

        assert main(
            [
                "study", "run", "coherence", "--format", "json",
            ]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["plan"]["name"] == "coherence"
        assert data["telemetry"]["executed"] == 12
        assert "survival_scale" in data["frame"]["columns"]


class TestMain:
    def test_fig4(self, capsys):
        assert main(["fig4"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "STF" in out

    def test_fig5(self, capsys):
        assert main(["fig5"]) == 0
        assert "Figure 5" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, golden",
        [
            pytest.param(["fig4"], "cli_fig4.txt", id="fig4"),
            pytest.param(["fig5"], "cli_fig5.txt", id="fig5"),
            pytest.param(
                ["table1", "--sizes", "5", "6", "--graphs-per-size", "1"],
                "cli_table1.txt",
                id="table1",
            ),
            pytest.param(
                ["table2", "--sets", "1", "--graphs", "2"],
                "cli_table2.txt",
                id="table2",
            ),
            pytest.param(
                ["fig6", "--counts", "2", "3", "--sets", "1"],
                "cli_fig6.txt",
                id="fig6",
            ),
            pytest.param(["coherence"], "cli_coherence.txt", id="coherence"),
            pytest.param(
                ["ratecapacity"], "cli_ratecapacity.txt", id="ratecapacity"
            ),
            *[
                pytest.param(
                    [
                        "study", "run", f"ablation-{name}",
                        "--arg", "n_sets=1", "--arg", "n_graphs=2",
                    ],
                    f"cli_ablation_{name}.txt",
                    id=f"ablation-{name}",
                )
                for name in ("estimator", "freqset", "dvs", "feasibility")
            ],
            pytest.param(
                [
                    "campaign", "--scenarios", "2", "--graphs", "2",
                    "--no-cache", "--no-footer",
                ],
                "cli_campaign.txt",
                id="campaign",
            ),
        ],
    )
    def test_worked_examples_match_golden_bytes(self, argv, golden, capsys):
        """The full stdout of every paper artifact at a small scale is
        pinned, not just its headline (``tests/golden/<golden>``)."""
        assert main(argv) == 0
        expected = Path(__file__).parent / "golden" / golden
        assert capsys.readouterr().out == expected.read_text()

    @pytest.mark.parametrize(
        "indices, golden",
        [
            pytest.param(
                [0, 5], "cli_campaign_quarantine_edf.txt", id="edf-row"
            ),
            pytest.param(
                None, "cli_campaign_quarantine_all.txt", id="every-row"
            ),
        ],
    )
    def test_campaign_quarantine_drops_rows_golden_bytes(
        self, indices, golden, capsys, tmp_path
    ):
        """A scheme whose every scenario is quarantined has no row; when
        all are quarantined the table keeps its headers only."""
        rule = {"point": "spec.execute", "kind": "error"}
        if indices is not None:
            rule["indices"] = indices
        plan = tmp_path / "faults.json"
        plan.write_text(json.dumps({"seed": 0, "rules": [rule]}))
        argv = [
            "campaign", "--scenarios", "2", "--graphs", "2",
            "--no-cache", "--no-footer", "--on-error", "quarantine",
            "--inject-faults", str(plan),
        ]
        assert main(argv) == 0
        expected = Path(__file__).parent / "golden" / golden
        assert capsys.readouterr().out == expected.read_text()

    def test_table2_tiny(self, capsys):
        assert main(["table2", "--sets", "1", "--graphs", "2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "BAS-2" in out

    def test_coherence(self, capsys):
        assert main(["coherence"]) == 0
        assert "rankings agree" in capsys.readouterr().out

    def test_campaign_tiny_no_cache(self, capsys):
        assert (
            main(
                [
                    "campaign", "--scenarios", "2", "--graphs", "2",
                    "--schemes", "ccEDF", "--no-cache",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Campaign — 2 scenarios x 1 schemes" in out
        assert "cache hit(s)" in out

    def test_campaign_cache_dir(self, capsys, tmp_path):
        argv = [
            "campaign", "--scenarios", "1", "--graphs", "2",
            "--schemes", "EDF", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        assert "0 cache hit(s)" in capsys.readouterr().out
        assert main(argv) == 0
        assert "1 cache hit(s)" in capsys.readouterr().out

    def test_campaign_unknown_scheme_fails_early(self):
        with pytest.raises(SystemExit, match="unknown scheme"):
            main(["campaign", "--schemes", "EDFF", "--no-cache"])

    def test_campaign_dist_needs_one_transport(self, tmp_path):
        base = ["campaign", "--backend", "dist", "--no-cache"]
        with pytest.raises(SystemExit, match="exactly one"):
            main(base)
        with pytest.raises(SystemExit, match="exactly one"):
            main(
                base
                + ["--dist-dir", str(tmp_path), "--listen", "127.0.0.1:0"]
            )

    def test_campaign_worker_needs_one_transport(self):
        with pytest.raises(SystemExit, match="exactly one"):
            main(["campaign-worker"])
        with pytest.raises(SystemExit, match="exactly one"):
            main(["campaign-worker", "--dir", "/q", "--connect", "h:1"])

    def test_bad_endpoint_rejected(self):
        with pytest.raises(SystemExit, match="HOST:PORT"):
            main(["campaign-worker", "--connect", "nocolon"])
        with pytest.raises(SystemExit, match="bad port"):
            main(["campaign-worker", "--connect", "host:seven"])

    def test_campaign_dist_matches_local_output(self, capsys, tmp_path):
        """The CI smoke contract: dist and local tables byte-identical."""
        base = [
            "campaign", "--scenarios", "1", "--graphs", "2",
            "--schemes", "EDF", "--no-cache", "--no-footer",
        ]
        assert main(base) == 0
        local_out = capsys.readouterr().out
        dist = base + [
            "--backend", "dist", "--dist-dir", str(tmp_path / "q"),
            "--spawn-workers", "1", "--result-timeout", "120",
        ]
        assert main(dist) == 0
        assert capsys.readouterr().out == local_out

    def test_campaign_worker_drains_queue_and_exits(self, tmp_path):
        """A worker with --max-tasks serves a pre-published queue."""
        from repro.campaign import ScenarioSpec
        from repro.campaign.distributed import DirectoryBroker

        broker = DirectoryBroker(tmp_path, poll=0.01, result_timeout=60.0)
        broker.submit(
            [(0, ScenarioSpec(scheme="EDF", n_graphs=2, seed=1))]
        )
        assert main(
            [
                "campaign-worker", "--dir", str(tmp_path),
                "--max-tasks", "1", "--poll", "0.01",
            ]
        ) == 0
        collected = dict(broker.outcomes())
        broker.close()
        assert list(collected) == [0]
