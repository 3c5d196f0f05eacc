"""Unit tests for the ``python -m repro.bench`` CLI."""

import json

import pytest

from repro.bench.__main__ import EXPERIMENTS, build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["fig8a"])
        assert args.experiment == "fig8a"
        assert args.seed == 0

    def test_mechanism_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig10", "--mechanism", "ring"])

    def test_scale_nodes_repeatable(self):
        args = build_parser().parse_args(
            ["scale", "--scale-nodes", "64", "--scale-nodes", "128"]
        )
        assert args.scale_nodes == [64, 128]
        assert build_parser().parse_args(["scale"]).scale_nodes is None

    def test_jobs_defaults_to_serial(self):
        assert build_parser().parse_args(["scale"]).jobs == 1
        args = build_parser().parse_args(["scale", "--jobs", "4"])
        assert args.jobs == 4


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        lines = {line.strip() for line in out.splitlines()}
        assert "experiments:" in lines
        assert "chaos scenarios:" in lines
        assert "chaos campaigns:" in lines
        for name in EXPERIMENTS:
            assert name in lines
        assert "saveamp" in lines
        assert "crash-wave" in lines
        assert "mid-recovery-recrash" in lines
        assert "smoke (3 scenarios)" in lines

    def test_list_includes_baseline_keys(self, tmp_path, capsys):
        from repro.bench.baseline import write_baseline

        path = tmp_path / "baseline.json"
        write_baseline(str(path), {"sim-0/star/app/state#0": 1.5})
        assert main(["list", "--baseline", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"baseline keys ({path}):" in out
        assert "sim-0/star/app/state#0" in out

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "fig12c" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["run", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_runs_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "SR3" in out and "Flink" in out

    def test_runs_fig9a_with_seed(self, capsys):
        assert main(["run", "fig9a", "--seed", "2"]) == 0
        assert "fanout_bit" in capsys.readouterr().out

    def test_runs_fig10_with_mechanism(self, capsys):
        assert main(["run", "fig10", "--mechanism", "tree"]) == 0
        assert "failures" in capsys.readouterr().out

    def test_runs_fig11_scaled(self, capsys):
        assert main(["run", "fig11", "--apps", "10", "--nodes", "200"]) == 0
        assert "mean_shards_per_node" in capsys.readouterr().out


class TestScaleExperiment:
    def test_scale_smoke_rows_and_baseline_keys(self):
        from repro.bench import experiments as exp

        result = exp.scale_overlay(node_counts=(64,), state_mb=1)
        mechanisms = {row["mechanism"] for row in result.rows}
        assert mechanisms == {"star", "line", "tree"}
        assert all(row["nodes"] == 64 for row in result.rows)
        assert all(row["makespan_s"] > 0 for row in result.rows)
        assert all(row["wall_s"] >= 0 for row in result.rows)
        metrics = result.extra["baseline_metrics"]
        for mech in ("star", "line", "tree"):
            assert metrics[f"scale/64/{mech}"] > 0
            assert f"scale/64/{mech}/wall_s" in metrics
            assert f"scale/64/{mech}/events_per_s" in metrics

    def test_scale_simulated_makespans_deterministic(self):
        from repro.bench import experiments as exp

        first = exp.scale_overlay(node_counts=(64,), state_mb=1)
        second = exp.scale_overlay(node_counts=(64,), state_mb=1)

        def simulated(result):
            return {
                k: v
                for k, v in result.extra["baseline_metrics"].items()
                if not k.endswith(("/wall_s", "/events_per_s"))
            }

        assert simulated(first) == simulated(second)

    def test_scale_cli_with_custom_nodes(self, capsys):
        assert main(["run", "scale", "--scale-nodes", "64"]) == 0
        out = capsys.readouterr().out
        assert "makespan_s" in out
        assert "wall_s" in out

    def test_scale_cli_nondefault_size_prints_informational_notice(self, capsys):
        assert main(["run", "scale", "--scale-nodes", "64"]) == 0
        err = capsys.readouterr().err
        assert "scale/64/* results are informational, no baseline key" in err

    def test_scale_cli_default_sizes_get_no_notice(self, capsys):
        # 512 is a gated size: it must run without the informational notice.
        assert main(["run", "scale", "--scale-nodes", "512"]) == 0
        assert "informational" not in capsys.readouterr().err


class TestCampaign:
    def test_smoke_campaign_writes_report(self, tmp_path, capsys):
        out = tmp_path / "resilience-smoke.json"
        assert main(["campaign", "smoke", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["campaign"] == "smoke"
        assert data["summary"]["failed"] == 0
        assert data["outcomes"]
        captured = capsys.readouterr()
        assert "scenario" in captured.out
        assert "survived=" in captured.out
        assert str(out) in captured.err

    def test_unknown_campaign_errors(self, capsys):
        assert main(["campaign", "nope"]) == 2
        assert "unknown campaign" in capsys.readouterr().err


class TestSubcommands:
    def test_list_subcommand(self, capsys):
        assert main(["list"]) == 0
        captured = capsys.readouterr()
        assert "experiments:" in captured.out
        assert "remediate" in captured.out
        assert captured.err == ""

    def test_run_subcommand(self, capsys):
        assert main(["run", "fig9a", "--seed", "2"]) == 0
        captured = capsys.readouterr()
        assert "fanout_bit" in captured.out
        assert captured.err == ""

    def test_run_without_experiment_is_usage_error(self, capsys):
        assert main(["run"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_campaign_jobs_flag_writes_identical_report(self, tmp_path, capsys):
        serial_out = tmp_path / "serial.json"
        parallel_out = tmp_path / "parallel.json"
        assert main(["campaign", "smoke", "--out", str(serial_out)]) == 0
        assert (
            main(["campaign", "smoke", "--jobs", "2", "--out", str(parallel_out)])
            == 0
        )
        capsys.readouterr()
        assert parallel_out.read_bytes() == serial_out.read_bytes()

    def test_control_subcommand(self, tmp_path, capsys):
        out = tmp_path / "resilience-control.json"
        assert main(["control", "--scenario", "crash-wave", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "crash-wave" in captured.out
        assert "remediations=" in captured.out
        data = json.loads(out.read_text())
        assert data["outcomes"][0]["remediations"] >= 1

    def test_control_unknown_scenario(self, capsys):
        assert main(["control", "--scenario", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_flag_style_is_a_usage_error(self, capsys):
        for argv in (["fig9a"], ["--list"], ["--campaign", "smoke"], ["--seed", "2"]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "usage: python -m repro.bench {run|campaign|" in captured.err


    def test_top_level_help_prints_usage_and_exits_0(self, capsys):
        for flag in ("--help", "-h"):
            assert main([flag]) == 0
            captured = capsys.readouterr()
            assert captured.out.startswith("usage: python -m repro.bench {run|campaign|")
            assert captured.err == ""


class TestDashboardSubcommand:
    def test_writes_selfcontained_html_and_timeline(self, tmp_path, capsys):
        import re

        out = tmp_path / "dash.html"
        assert main(["dashboard", "--out", str(out), "--duration", "20"]) == 0
        html = out.read_text(encoding="utf-8")
        assert "sr3-dashboard-1" in html
        assert "<script" not in html.lower()
        assert re.search(r"\b(src|href)\s*=", html, re.IGNORECASE) is None
        captured = capsys.readouterr()
        assert "slo-burning" in captured.out  # the alert timeline printed
        assert "recovered" in captured.out
        assert str(out) in captured.err

    def test_detector_mode(self, tmp_path, capsys):
        out = tmp_path / "dash.html"
        assert main(
            ["dashboard", "--out", str(out), "--mode", "detector", "--duration", "20"]
        ) == 0
        assert "heartbeat detector" in capsys.readouterr().out
        assert "detector.suspicion" in out.read_text(encoding="utf-8")


class TestUniformObservabilityFlags:
    def test_control_supports_metrics_and_trace(self, tmp_path, capsys):
        metrics_out = tmp_path / "metrics.json"
        trace_out = tmp_path / "trace.json"
        report_out = tmp_path / "resilience-control.json"
        assert (
            main(
                [
                    "control",
                    "--scenario",
                    "crash-wave",
                    "--out",
                    str(report_out),
                    "--metrics-out",
                    str(metrics_out),
                    "--trace",
                    str(trace_out),
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "metrics written to" in captured.err
        assert "trace written to" in captured.err
        metrics = json.loads(metrics_out.read_text())
        assert metrics["format"] == "sr3-metrics-1"
        assert metrics["registries"]
        trace = json.loads(trace_out.read_text())
        assert trace["traceEvents"]  # the chaos cell joined the collector

    def test_campaign_supports_metrics_out(self, tmp_path, capsys):
        metrics_out = tmp_path / "metrics.json"
        report_out = tmp_path / "resilience-smoke.json"
        assert (
            main(
                [
                    "campaign",
                    "smoke",
                    "--out",
                    str(report_out),
                    "--metrics-out",
                    str(metrics_out),
                ]
            )
            == 0
        )
        assert "metrics written to" in capsys.readouterr().err
        assert json.loads(metrics_out.read_text())["registries"]
