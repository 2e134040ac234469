"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestBasicCommands:
    def test_list_traces(self, capsys):
        code, out = run_cli(capsys, "list-traces")
        assert code == 0
        assert "MVS1" in out and "ZGREP" in out
        assert out.count("\n") >= 57

    def test_characterize(self, capsys):
        code, out = run_cli(capsys, "characterize", "ZGREP", "--length", "5000")
        assert code == 0
        assert "ZGREP" in out and "%branch" in out

    def test_generate_roundtrip(self, capsys, tmp_path):
        target = tmp_path / "out.rtrc"
        code, out = run_cli(
            capsys, "generate", "PLO", "-o", str(target), "--length", "2000"
        )
        assert code == 0
        assert target.exists()
        from repro.trace import load_trace

        assert len(load_trace(target)) == 2000

    def test_simulate_unified(self, capsys):
        code, out = run_cli(
            capsys, "simulate", "ZGREP", "--size", "4096", "--length", "5000"
        )
        assert code == 0
        assert "miss ratio" in out
        assert "4KiB, 16B lines, fully assoc" in out

    def test_simulate_split_with_options(self, capsys):
        code, out = run_cli(
            capsys, "simulate", "ZGREP", "--size", "4096", "--split",
            "--purge", "2000", "--replacement", "fifo", "--write",
            "write-through", "--fetch", "prefetch-always", "--length", "5000",
        )
        assert code == 0
        assert "split I/D" in out
        assert "fifo, write-through, prefetch-always" in out

    def test_simulate_with_mechanisms(self, capsys):
        code, out = run_cli(
            capsys, "simulate", "ZGREP", "--size", "1024", "--assoc", "1",
            "--victim", "4", "--stream-buffers", "4", "--l2", "16384",
            "--length", "5000",
        )
        assert code == 0
        assert "effective miss" in out
        assert "victim-cache" in out
        assert "stream-buffers" in out
        assert "local miss ratio" in out  # the L2 block

    def test_simulate_stream_fetch_policy(self, capsys):
        code, out = run_cli(
            capsys, "simulate", "ZGREP", "--size", "1024",
            "--fetch", "stream", "--length", "5000",
        )
        assert code == 0
        assert "lru, copy-back, stream" in out
        assert "stream-buffers" in out


class TestExperimentCommands:
    def test_table1_subset_sizes(self, capsys):
        code, out = run_cli(capsys, "table1", "--length", "3000",
                            "--sizes", "256,1024")
        assert code == 0
        assert "Table 1" in out and "1024" in out

    def test_fig2(self, capsys):
        code, out = run_cli(capsys, "fig2")
        assert code == 0
        assert "Hard80" in out

    def test_table3_runs(self, capsys):
        code, out = run_cli(capsys, "table3", "--length", "4000")
        assert code == 0
        assert "Average" in out

    def test_fudge(self, capsys):
        code, out = run_cli(capsys, "fudge", "--length", "4000")
        assert code == 0
        assert "Fudge factors" in out


class TestCampaignCommand:
    def test_simulation_campaign(self, capsys):
        code, out = run_cli(
            capsys, "campaign", "--traces", "ZGREP,PLO", "--sizes", "512,2048",
            "--length", "4000", "--workers", "1", "--no-cache",
        )
        assert code == 0
        assert "Campaign miss ratios" in out
        assert "ZGREP" in out and "PLO" in out
        assert "campaign: 4 cells" in out
        assert "refs/s" in out

    def test_stack_campaign_with_cache(self, capsys, tmp_path):
        argv = ["campaign", "--traces", "ZGREP", "--sizes", "512,2048",
                "--length", "4000", "--workers", "1", "--stack",
                "--cache-dir", str(tmp_path)]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert "stack sweep" in out
        assert "0 cached, 1 simulated" in out
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert "1 cached, 0 simulated" in out

    def test_events_dash_streams_jsonl_to_stdout(self, capsys):
        import json

        code, out = run_cli(
            capsys, "campaign", "--traces", "ZGREP", "--sizes", "512",
            "--length", "4000", "--workers", "1", "--no-cache",
            "--events", "-",
        )
        assert code == 0
        records = [
            json.loads(line) for line in out.splitlines()
            if line.startswith("{")
        ]
        kinds = [r["event"] for r in records]
        assert "campaign_started" in kinds
        assert "cell_finished" in kinds
        assert "campaign_finished" in kinds
        # The human-readable table still renders around the event stream.
        assert "Campaign miss ratios" in out

    def test_mechanism_campaign(self, capsys):
        code, out = run_cli(
            capsys, "campaign", "--traces", "ZGREP", "--sizes", "512,2048",
            "--assoc", "1", "--victim", "4", "--stream-buffers", "2",
            "--length", "4000", "--workers", "1", "--no-cache",
        )
        assert code == 0
        assert "effective miss ratio with miss-path mechanisms" in out

    def test_mechanisms_reject_stack_mode(self, capsys):
        with pytest.raises(SystemExit, match="stack"):
            main(["campaign", "--traces", "ZGREP", "--sizes", "512",
                  "--victim", "4", "--stack", "--length", "1000",
                  "--no-cache"])

    def test_mechanism_study_command(self, capsys):
        code, out = run_cli(
            capsys, "mechanisms", "--traces", "ZGREP", "--size", "1024",
            "--length", "4000", "--workers", "1",
        )
        assert code == 0
        assert "Mechanism study" in out
        assert "vc+sb" in out
        assert "Mechanism internals" in out

    def test_remote_campaign_round_trip(self, capsys, tmp_path):
        from repro.service import BackgroundServer, InlineBackend, Scheduler

        scheduler = Scheduler(
            InlineBackend(capacity=2), cache=tmp_path / "cache"
        )
        with BackgroundServer(scheduler) as server:
            code, out = run_cli(
                capsys, "campaign", "--traces", "ZGREP,PLO",
                "--sizes", "512,2048", "--length", "4000",
                "--remote", server.url,
            )
        assert code == 0
        assert "Remote campaign miss ratios" in out
        assert "ZGREP" in out and "PLO" in out
        assert "4 cells" in out
        assert "0 failed" in out

    def test_remote_url_from_environment(self, capsys, tmp_path, monkeypatch):
        from repro.service import (
            SERVICE_URL_ENV,
            BackgroundServer,
            InlineBackend,
            Scheduler,
        )

        scheduler = Scheduler(
            InlineBackend(capacity=2), cache=tmp_path / "cache"
        )
        with BackgroundServer(scheduler) as server:
            monkeypatch.setenv(SERVICE_URL_ENV, server.url)
            code, out = run_cli(
                capsys, "campaign", "--traces", "ZGREP", "--sizes", "512",
                "--length", "4000", "--remote",
            )
        assert code == 0
        assert "Remote campaign miss ratios" in out

    def test_remote_without_url_fails_fast(self, capsys, monkeypatch):
        from repro.service import SERVICE_URL_ENV

        monkeypatch.delenv(SERVICE_URL_ENV, raising=False)
        with pytest.raises(SystemExit, match="service URL"):
            main(["campaign", "--traces", "ZGREP", "--sizes", "512",
                  "--length", "4000", "--remote"])

    def test_remote_rejects_target_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--traces", "ZGREP", "--sizes", "512",
                  "--length", "4000", "--remote", "http://127.0.0.1:1",
                  "--target-error", "0.1"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --target-error 0.1" in capsys.readouterr().err

    def test_remote_sampled_campaign(self, capsys):
        # Sampling is gone: argparse refuses the option before any
        # campaign, local or remote, is built.
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--traces", "ZGREP", "--sizes", "512",
                  "--length", "4000", "--remote", "http://127.0.0.1:1",
                  "--sampling", "0.1"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --sampling 0.1" in capsys.readouterr().err

    def test_unknown_trace_fails_fast(self, capsys):
        with pytest.raises(KeyError):
            main(["campaign", "--traces", "NOPE", "--sizes", "512",
                  "--length", "1000", "--no-cache"])


class TestErrors:
    def test_unknown_command_exits(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_trace_raises(self, capsys):
        with pytest.raises(KeyError):
            main(["simulate", "NOPE"])


class TestReportCommand:
    def test_report_to_file(self, capsys, tmp_path):
        target = tmp_path / "report.md"
        code = main(["report", "--length", "4000", "--no-prefetch",
                     "-o", str(target)])
        assert code == 0
        text = target.read_text()
        assert "# Experiment report" in text
        assert "## Table 5" in text


class TestMachinesCommand:
    def test_listing(self, capsys):
        code, out = run_cli(capsys, "machines")
        assert code == 0
        assert "DEC VAX 11/780" in out and "Zilog Z80000" in out

    def test_simulate_on_machine(self, capsys):
        code, out = run_cli(capsys, "machines", "--on", "DEC VAX 11/780",
                            "--trace", "ZGREP", "--length", "4000")
        assert code == 0
        assert "miss ratio" in out

    def test_unknown_machine(self, capsys):
        with pytest.raises(SystemExit, match="unknown machine"):
            main(["machines", "--on", "PDP-11"])


class TestStudyCommand:
    def test_linesize(self, capsys):
        code, out = run_cli(capsys, "study", "linesize", "--capacity", "1024",
                            "--length", "3000")
        assert code == 0
        assert "Line-size study" in out

    def test_associativity(self, capsys):
        code, out = run_cli(capsys, "study", "associativity",
                            "--capacity", "1024", "--length", "3000")
        assert code == 0
        assert "Associativity study" in out
