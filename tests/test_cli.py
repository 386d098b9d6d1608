"""Tests for the command-line entry points."""

import asyncio
import socket
import threading
import time

import pytest

from repro.bench.experiments import EXPERIMENTS
from repro.cli import bench_main, server_main


class TestBenchCli:
    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_quick_runs_print_a_table(self, name, capsys):
        """Every registered experiment runs at quick scale from the CLI."""
        assert bench_main([name, "--quick"]) == 0
        out = capsys.readouterr().out
        assert f"{name} (reproduced)" in out
        assert "---" in out  # table separator rendered

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            bench_main(["definitely-not-a-bench"])


class TestServerCli:
    def test_bad_port_rejected(self):
        with pytest.raises(SystemExit):
            server_main(["--port", "not-a-number"])

    def test_server_starts_and_accepts_tcp(self, tmp_path):
        """Boot the real CLI server in a thread, poke it over TCP."""
        # pick a free port first
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]

        ready = threading.Event()
        stop_loop: list = []

        def run_server():
            async def main():
                from repro.core.server import ServerConfig
                from repro.runtime.server import CoronaServer
                from repro.storage.store import GroupStore

                server = CoronaServer(
                    config=ServerConfig(server_id="cli-test"),
                    store=GroupStore(tmp_path / "data"),
                )
                await server.start("127.0.0.1", port)
                ready.set()
                while not stop_loop:
                    await asyncio.sleep(0.05)
                await server.stop()

            asyncio.run(main())

        thread = threading.Thread(target=run_server, daemon=True)
        thread.start()
        assert ready.wait(10)
        try:

            async def client_side():
                from repro.runtime.client import CoronaClient

                client = await CoronaClient.connect(("127.0.0.1", port), "cli-probe")
                assert client.core.server_id == "cli-test"
                server_time = await client.ping()
                assert isinstance(server_time, float)
                await client.close()

            asyncio.run(client_side())
        finally:
            stop_loop.append(True)
            thread.join(timeout=10)


class TestTopologyCli:
    def test_table_report(self, capsys):
        from repro.cli import topology_main

        assert topology_main(["--shards", "3", "--groups", "4"]) == 0
        out = capsys.readouterr().out
        # lease table shows the seeded migration (epoch bumped to 1)
        assert "lease" in out
        assert "committed" in out
        assert "room-0" in out

    def test_json_report_is_machine_readable(self, capsys):
        import json

        from repro.cli import topology_main

        assert topology_main(
            ["--shards", "3", "--groups", "4", "--format", "json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["shards"] == 3
        assert report["epochs"] == {"room-0": 1}
        assert report["migrations"][0]["outcome"] == "committed"
        assert sum(
            shard["group_count"] for shard in report["per_shard"].values()
        ) == 4

    def test_rejects_single_shard(self, capsys):
        from repro.cli import topology_main

        assert topology_main(["--shards", "1"]) == 2


class TestDeepcheckTodoGate:
    def test_todo_justification_fails_the_gate(self, tmp_path, capsys, monkeypatch):
        """A baseline entry still carrying the --update-baseline TODO
        placeholder must fail `repro deepcheck` even with zero new
        findings."""
        import json

        from repro.analysis.deepcheck import baseline_payload, deepcheck_paths
        from repro.cli import deepcheck_main

        src = tmp_path / "src"
        (src / "repro").mkdir(parents=True)
        (src / "repro" / "snoop.py").write_text(
            "from repro.core.group_runtime import GroupRuntime\n"
            "class Spy:\n"
            "    def peek(self, rt: GroupRuntime):\n"
            "        return rt.reduce()\n"
        )
        _graph, findings = deepcheck_paths(src, rules=("SHARD004",))
        assert findings, "scaffold produced no SHARD004 finding"
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(baseline_payload(findings, [])))
        payload = json.loads(baseline.read_text())
        assert all(
            str(e["justification"]).upper().startswith("TODO")
            for e in payload["findings"]
        )
        rc = deepcheck_main(
            [str(src), "--rules", "SHARD004", "--baseline", str(baseline)]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "unjustified" in out

        # writing a real justification clears the gate
        for entry in payload["findings"]:
            entry["justification"] = "test scaffold: intentional access"
        baseline.write_text(json.dumps(payload))
        assert deepcheck_main(
            [str(src), "--rules", "SHARD004", "--baseline", str(baseline)]
        ) == 0
