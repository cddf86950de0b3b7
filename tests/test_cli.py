"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestCLI:
    def test_help_when_no_command(self, capsys):
        assert main([]) == 2
        out = capsys.readouterr().out
        assert "separation" in out

    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["separation", "--delta", "5"])
        assert args.delta == 5
        args = parser.parse_args(["mis", "--n", "50"])
        assert args.n == 50

    def test_mis_command(self, capsys):
        assert main(["mis", "--n", "60", "--delta", "3"]) == 0
        out = capsys.readouterr().out
        assert "Luby" in out

    def test_baseline_command(self, capsys):
        assert main(["baseline", "--n", "80", "--delta", "4"]) == 0
        out = capsys.readouterr().out
        assert "total:" in out

    def test_coloring_command(self, capsys):
        assert (
            main(["coloring", "--n", "400", "--delta", "12", "--seed", "3"])
            == 0
        )
        out = capsys.readouterr().out
        assert "rounds" in out

    def test_report_command(self, capsys, tmp_path):
        from repro.analysis.experiments import ExperimentRecord

        record = ExperimentRecord("E1", "demo")
        record.check("ok", True)
        (tmp_path / "e1.txt").write_text(record.render())
        assert main(["report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_separation_command_small(self, capsys):
        assert (
            main(
                [
                    "separation",
                    "--delta",
                    "6",
                    "--sizes",
                    "50,500",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "det" in out and "rand" in out


class TestFaultsCli:
    def test_faults_command_runs_the_experiment(self, capsys):
        assert (
            main(
                [
                    "faults",
                    "--n", "80",
                    "--delta", "9",
                    "--rates", "0,0.05",
                    "--trials", "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "E6F" in out
        assert "PASS" in out

    def test_faults_rejects_malformed_rates(self, capsys):
        assert main(["faults", "--rates", "0,banana"]) == 2
        err = capsys.readouterr().err
        assert "comma-separated floats" in err

    def test_faults_rejects_rates_without_control(self, capsys):
        assert main(["faults", "--rates", "0.01,0.05"]) == 2
        err = capsys.readouterr().err
        assert "control" in err

    def test_repro_errors_render_structured_context(self, capsys, monkeypatch):
        import repro.faults.experiment as fault_experiment
        from repro.core.errors import AlgorithmFailure

        def boom(**kwargs):
            raise AlgorithmFailure("vertex misbehaved", node=17, round=4)

        monkeypatch.setattr(
            fault_experiment, "failure_rate_experiment", boom
        )
        assert main(["faults", "--n", "80"]) == 1
        err = capsys.readouterr().err
        assert "repro faults: AlgorithmFailure: vertex misbehaved" in err
        assert "node: 17" in err
        assert "round: 4" in err

    def test_skipped_cells_warn_on_stderr(self, capsys):
        from repro.analysis import CellOutcome, ExperimentRecord, Series
        from repro.cli import _warn_skipped_cells

        series = Series("demo")
        series.add(1.0, [0.5])
        series.cell_outcomes = [
            CellOutcome(1.0, 0, "ok", 0.5, 1, 0),
            CellOutcome(1.0, 1, "crashed", None, 1, 1, "worker died"),
        ]
        record = ExperimentRecord("T1", "warnings")
        record.add_series(series)
        _warn_skipped_cells(record)
        err = capsys.readouterr().err
        assert "1 cell(s) skipped" in err
        assert "[crashed] worker died" in err


class TestRunCli:
    def test_plain_run_prints_summary(self, capsys):
        assert main(["run", "--n", "120", "--delta", "9", "--seed", "2"]) == 0
        import json

        summary = json.loads(capsys.readouterr().out)
        assert summary["workload"] == "coloring"
        assert summary["n"] == 120 and summary["rounds"] >= 1

    def test_checkpointed_run_leaves_snapshots(self, capsys, tmp_path):
        import os

        code = main(
            [
                "run", "--workload", "mis", "--n", "80", "--delta", "4",
                "--checkpoint-dir", str(tmp_path / "ck"),
                "--checkpoint-every", "2",
                "--trace", str(tmp_path / "t.jsonl"),
            ]
        )
        assert code == 0
        capsys.readouterr()
        names = os.listdir(tmp_path / "ck")
        assert any(n.endswith(".done") for n in names)
        assert (tmp_path / "t.jsonl").stat().st_size > 0

    def test_resume_replays_to_identical_result(self, capsys, tmp_path):
        argv = [
            "run", "--n", "100", "--delta", "9", "--seed", "4",
            "--checkpoint-dir", str(tmp_path / "ck"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv + ["--resume"]) == 0
        assert capsys.readouterr().out == first

    def test_supervised_run_writes_audit(self, capsys, tmp_path):
        import json

        code = main(
            [
                "run", "--workload", "mis", "--n", "80", "--delta", "4",
                "--checkpoint-dir", str(tmp_path / "ck"),
                "--retries", "1", "--watchdog", "30",
                "--audit", str(tmp_path / "audit.json"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "attempts" in out
        audit = json.loads((tmp_path / "audit.json").read_text())
        assert audit["ok"] and audit["attempts"] == 1
        assert [e["kind"] for e in audit["events"]][-1] == "done"

    def test_supervision_flags_need_checkpoint_dir(self, capsys):
        assert main(["run", "--retries", "2"]) == 2
        assert "need --checkpoint-dir" in capsys.readouterr().err

    def test_resume_needs_checkpoint_dir(self, capsys):
        assert main(["run", "--resume"]) == 2
        assert "--resume needs" in capsys.readouterr().err

    def test_rejects_degenerate_sizes(self, capsys):
        assert main(["run", "--n", "1"]) == 2
        assert "need n >= 2" in capsys.readouterr().err


class TestTraceCli:
    def test_record_mode_is_gone(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--n", "60", "--output", str(tmp_path / "t")])
        assert exc.value.code == 2
        assert "query" in capsys.readouterr().err

    def test_query_reads_a_run_trace(self, capsys, tmp_path):
        import json

        path = str(tmp_path / "t.jsonl")
        argv = ["run", "--workload", "mis", "--n", "60", "--delta", "3"]
        assert main(argv + ["--trace", path]) == 0
        capsys.readouterr()
        assert main(["trace", "query", path, "--format", "json"]) == 0
        aggregate = json.loads(capsys.readouterr().out)
        assert aggregate["runs"] >= 1

    def test_query_filter_by_kind_matches_read_trace(self, capsys, tmp_path):
        import json

        from repro.obs import read_trace

        path = str(tmp_path / "t.jsonl")
        argv = ["run", "--workload", "coloring", "--n", "300"]
        assert main(argv + ["--delta", "9", "--trace", path]) == 0
        capsys.readouterr()
        query = ["trace", "query", path, "--op", "filter"]
        assert main(query + ["--kind", "halt"]) == 0
        printed = capsys.readouterr().out.splitlines()
        halts = [e for e in read_trace(path) if e["event"] == "halt"]
        assert halts
        assert printed == [
            json.dumps(e, sort_keys=True, separators=(",", ":"))
            for e in halts
        ]
