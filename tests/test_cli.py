"""CLI smoke tests (argument parsing + end-to-end subcommands)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.command == "demo" and args.nodes == 30

    def test_figure_flags(self):
        args = build_parser().parse_args(
            ["fig3b", "--nodes", "40", "60", "--instances", "2"]
        )
        assert args.nodes == [40, 60] and args.instances == 2

    def test_fig3d_single_n(self):
        args = build_parser().parse_args(["fig3d", "--nodes", "80"])
        assert args.nodes == 80


class TestCommands:
    def test_demo(self, capsys):
        assert main(["demo", "--nodes", "20", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "route" in out and "overpayment ratio" in out

    def test_fig3a(self, capsys):
        assert main(["fig3a", "--nodes", "40", "--instances", "1"]) == 0
        out = capsys.readouterr().out
        assert "IOR" in out and "TOR" in out

    def test_fig3d(self, capsys):
        assert main(["fig3d", "--nodes", "50", "--instances", "1"]) == 0
        assert "hops" in capsys.readouterr().out

    def test_fig3e(self, capsys):
        assert main(["fig3e", "--nodes", "60", "--instances", "1"]) == 0
        assert "worst" in capsys.readouterr().out

    def test_collusion(self, capsys):
        assert main(["collusion", "--nodes", "12", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "premium" in out

    def test_distributed(self, capsys):
        assert main(["distributed", "--nodes", "14", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "converged" in out and "difference" in out

    def test_distributed_secure(self, capsys):
        assert main(["distributed", "--nodes", "12", "--secure"]) == 0
        assert "audit findings" in capsys.readouterr().out

    def test_demo_custom_source(self, capsys):
        assert main(["demo", "--nodes", "15", "--source", "7"]) == 0
        assert "7 =>" in capsys.readouterr().out


class TestNewCommands:
    def test_economy(self, capsys):
        assert main(["economy", "--nodes", "10", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "overpayment ratio" in out and "Gini" in out

    def test_churn(self, capsys):
        assert main(["churn", "--nodes", "50", "--epochs", "1", "--sigma", "40"]) == 0
        out = capsys.readouterr().out
        assert "route churn" in out

    def test_economy_intensity_flag(self, capsys):
        assert main(["economy", "--nodes", "8", "--intensity", "2.5"]) == 0


class TestEngineCommand:
    def test_engine_defaults(self, capsys):
        assert main(["engine", "--nodes", "30", "--ops", "60"]) == 0
        out = capsys.readouterr().out
        assert "replayed" in out and "pair cache" in out

    def test_engine_compare_naive(self, capsys):
        assert main(
            ["engine", "--nodes", "30", "--ops", "60", "--compare-naive"]
        ) == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "mismatches 0" in out

    def test_engine_trace_round_trip(self, tmp_path, capsys):
        trace = str(tmp_path / "ops.jsonl")
        assert main(
            ["engine", "--nodes", "30", "--ops", "40", "--save-trace", trace]
        ) == 0
        first = capsys.readouterr().out
        assert main(["engine", "--nodes", "30", "--trace", trace]) == 0
        second = capsys.readouterr().out
        assert "loaded 40 ops" in second
        # same trace on the same seed/instance -> same replay counts
        assert first.splitlines()[-2] == second.splitlines()[-2]

    def test_engine_metrics_flag(self, capsys):
        assert main(["engine", "--nodes", "30", "--ops", "40", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "engine.queries" in out and "engine.cache_hits" in out

    def test_engine_serve_ephemeral_port(self, capsys):
        from repro.obs.metrics import REGISTRY

        assert main(
            ["engine", "--nodes", "30", "--ops", "40", "--serve", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "telemetry serving on http://127.0.0.1:" in out
        assert "replayed" in out
        # --serve implies collection for the run, then restores the
        # disabled default so telemetry never leaks into other commands.
        assert not REGISTRY.enabled


class TestDurabilityCommands:
    def test_engine_checkpoint_dir_then_recover(self, tmp_path, capsys):
        state = str(tmp_path / "state")
        assert main(["engine", "--nodes", "30", "--ops", "40",
                     "--checkpoint-dir", state,
                     "--checkpoint-every", "3"]) == 0
        capsys.readouterr()
        assert main(["engine", "--recover", "--checkpoint-dir", state,
                     "--ops", "10"]) == 0
        out = capsys.readouterr().out
        assert "recovered from checkpoint" in out

    def test_recover_requires_checkpoint_dir(self):
        with pytest.raises(SystemExit, match="checkpoint-dir"):
            main(["engine", "--recover"])

    def test_recover_subcommand_inventory_and_verify(self, tmp_path, capsys):
        state = str(tmp_path / "state")
        assert main(["engine", "--nodes", "30", "--ops", "40",
                     "--checkpoint-dir", state]) == 0
        capsys.readouterr()
        assert main(["recover", state]) == 0
        out = capsys.readouterr().out
        assert "checkpoint-" in out and "wal-" in out
        assert main(["recover", state, "--verify"]) == 0
        out = capsys.readouterr().out
        assert "dry-run recovery" in out and "graph version" in out

    def test_recover_subcommand_flags_corruption(self, tmp_path, capsys):
        from repro.engine import persist

        state = tmp_path / "state"
        assert main(["engine", "--nodes", "30", "--ops", "40",
                     "--checkpoint-dir", str(state)]) == 0
        capsys.readouterr()
        wal = persist.list_wals(state)[-1]
        with wal.open("a") as fh:
            fh.write('{"torn"')
        assert main(["recover", str(state)]) == 0
        out = capsys.readouterr().out
        assert "torn tail" in out

    def test_recover_subcommand_empty_dir_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["recover", str(empty)]) == 1
        assert main(["recover", str(empty), "--verify"]) == 1


class TestServeCommand:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.port == 0 and args.workers == 4
        assert args.queue_depth == 64 and args.deadline == 30.0
        assert args.on_monopoly == "inf" and args.duration is None

    def test_serve_recover_requires_checkpoint_dir(self):
        with pytest.raises(SystemExit, match="checkpoint-dir"):
            main(["serve", "--recover", "--duration", "0.1"])

    def test_serve_end_to_end_over_http(self, tmp_path):
        """Boot the real subprocess (signal handlers need a main
        thread), price over HTTP, drain with SIGINT, assert rc 0."""
        import json
        import os
        import signal
        import subprocess
        import sys
        import time
        import urllib.request

        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--nodes", "30", "--seed", "3", "--port", "0",
             "--duration", "60",
             "--checkpoint-dir", str(tmp_path / "state")],
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            # the banner line carries the ephemeral port
            banner = proc.stdout.readline()
            assert "pricing service on http://" in banner
            url = banner.split()[3]
            body = json.dumps({
                "format": "price-request", "schema_version": 1,
                "data": {"source": 7, "target": 0},
            }).encode()
            req = urllib.request.Request(
                f"{url}/v1/price", data=body,
                headers={"Content-Type": "application/json"},
            )
            deadline = time.monotonic() + 20
            while True:
                try:
                    with urllib.request.urlopen(req, timeout=5) as resp:
                        doc = json.load(resp)
                    break
                except OSError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.2)
            assert doc["format"] == "price-response"
            assert doc["data"]["payment"]["source"] == 7
        finally:
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=30)
        assert proc.returncode == 0, out
        assert "drained after 1 requests" in out
        # the drain cut a final checkpoint
        assert list((tmp_path / "state").glob("checkpoint-*"))


class TestClientCommand:
    def test_verify_with_a_second_writer_reports_no_false_mismatch(
        self, monkeypatch, capsys
    ):
        """Another writer lands an update right before each of this
        client's, leaving gaps in the client's history. Answers after
        the first gap are unverifiable, not mismatches."""
        import re

        from repro.engine import PricingEngine
        from repro.graph import generators as gen
        from repro.service import PricingClient, PricingService, ServiceServer

        g = gen.random_biconnected_graph(20, seed=5)
        svc = PricingService(PricingEngine(g, on_monopoly="inf"), workers=2)
        server = ServiceServer(svc, port=0).start()
        own_update, others = PricingClient.update_cost, []

        def other_writer_then_update(self, node, value, **kwargs):
            others.append(svc.update_cost(1 + len(others) % 19, 40.0 + len(others)))
            return own_update(self, node, value, **kwargs)

        monkeypatch.setattr(PricingClient, "update_cost", other_writer_then_update)
        try:
            rc = main(["client", "--url", server.url, "--requests", "80",
                       "--seed", "2", "--update-frac", "0.3", "--verify"])
        finally:
            server.stop()
            svc.close()
        out = capsys.readouterr().out
        found = re.search(r"(\d+) mismatches, (\d+) unverifiable", out)
        mismatches, unverifiable = map(int, found.groups())
        assert (mismatches, rc) == (0, 1), out  # unverifiable still fails
        assert unverifiable > 0 and others
