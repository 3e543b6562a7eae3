"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.datasets import toy_graph
from repro.graph import write_edge_list


@pytest.fixture()
def toy_path(tmp_path):
    path = tmp_path / "toy.txt"
    write_edge_list(toy_graph(), path)
    return str(path)


class TestDatasetCommand:
    def test_generates_edge_list(self, tmp_path, capsys):
        out = tmp_path / "wv.txt"
        code = main(["dataset", "--name", "wiki-vote", "--scale", "tiny",
                     "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_unknown_name_rejected_by_argparse(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["dataset", "--name", "orkut", "--out", str(tmp_path / "x.txt")])


class TestStatsCommand:
    def test_prints_table(self, toy_path, capsys):
        assert main(["stats", toy_path]) == 0
        out = capsys.readouterr().out
        assert "n" in out and "8" in out and "20" in out

    def test_missing_file_is_clean_error(self, tmp_path, capsys):
        code = main(["stats", str(tmp_path / "nope.txt")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestMethodsCommand:
    def test_lists_registry_with_capabilities(self, capsys):
        assert main(["methods"]) == 0
        out = capsys.readouterr().out
        for name in ("probesim", "sling", "tsf", "topsim", "mc", "power"):
            assert name in out
        assert "dynamic" in out and "incremental" in out


class TestMethodsMarkdown:
    def test_markdown_table_matches_registry(self, capsys):
        from repro.api.registry import method_names

        assert main(["methods", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("| method |")
        for name in method_names():
            assert f"`{name}`" in out
        assert "config keys" in out


class TestWorkloadCommand:
    def test_runs_and_writes_json(self, toy_path, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main([
            "workload", toy_path,
            "--methods", "probesim-native,tsf",
            "--ops", "60", "--read-fraction", "0.8", "--workers", "2",
            "--seed", "5", "--eps-a", "0.3", "--rg", "10", "--rq", "2",
            "--json", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "workload:" in printed
        assert "p95_ms" in printed and "qps" in printed
        import json

        payload = json.loads(out.read_text())
        assert {r["method"] for r in payload["reports"]} == {"probesim-native", "tsf"}
        for report in payload["reports"]:
            assert report["latency"]["p50_s"] >= 0
            assert report["digest"]
        assert payload["trace"]["seed"] == 5

    def test_unknown_method_is_clean_error(self, toy_path, capsys):
        code = main([
            "workload", toy_path, "--methods", "nope", "--ops", "10",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_read_fraction_is_clean_error(self, toy_path, capsys):
        code = main([
            "workload", toy_path, "--ops", "10", "--read-fraction", "1.5",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestQueryCommands:
    def test_single_source_probesim(self, toy_path, capsys):
        code = main([
            "single-source", toy_path, "--query", "0", "--c", "0.25",
            "--eps-a", "0.05", "--seed", "1", "--limit", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "probesim" in out
        assert "3" in out  # node d (id 3) is a's top node

    def test_topk_power_method_matches_table2(self, toy_path, capsys):
        code = main([
            "topk", toy_path, "--query", "0", "--k", "3",
            "--method", "power", "--c", "0.25",
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        first_data_row = lines[3]
        assert first_data_row.split("|")[1].strip() == "3"  # node d ranked #1

    @pytest.mark.parametrize(
        "method_args",
        [
            ["--method", "mc", "--num-walks", "300"],
            ["--method", "topsim"],
            ["--method", "trun-topsim"],
            ["--method", "prio-topsim"],
            ["--method", "tsf", "--rg", "20", "--rq", "2"],
            ["--method", "sling"],
            ["--method", "probesim", "--strategy", "basic", "--num-walks", "200"],
            ["--method", "probesim", "--strategy", "native", "--num-walks", "200"],
            ["--method", "probesim-walkindex", "--num-walks", "100"],
        ],
    )
    def test_every_method_runs(self, toy_path, capsys, method_args):
        code = main(
            ["topk", toy_path, "--query", "0", "--k", "2", "--c", "0.25",
             "--seed", "3"] + method_args
        )
        assert code == 0
        assert "top-2" in capsys.readouterr().out

    def test_engine_option_is_gone(self, toy_path):
        """The strategy alone picks the code path: --engine is not an option."""
        with pytest.raises(SystemExit):
            main(["topk", toy_path, "--query", "0", "--k", "2", "--engine", "native"])

    def test_bad_query_node_is_clean_error(self, toy_path, capsys):
        code = main(["topk", toy_path, "--query", "99", "--k", "2", "--seed", "1"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_module_entry_point(self, toy_path):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "stats", toy_path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "directed" in proc.stdout


class TestIngestCommand:
    def test_writes_snapshot_and_prints_stats(self, toy_path, tmp_path, capsys):
        out = tmp_path / "toy.csr"
        assert main(["ingest", toy_path, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "nodes" in printed and "digest" in printed
        from repro.storage import read_snapshot_header

        header = read_snapshot_header(out)
        assert header.num_nodes == 8
        assert header.num_edges == 20

    def test_matches_in_memory_reference(self, toy_path, tmp_path):
        from repro.graph import read_edge_list
        from repro.storage import write_snapshot

        ingested = tmp_path / "a.csr"
        reference = tmp_path / "b.csr"
        assert main(["ingest", toy_path, "--out", str(ingested)]) == 0
        write_snapshot(read_edge_list(toy_path), reference)
        assert ingested.read_bytes() == reference.read_bytes()

    def test_missing_input_is_clean_error(self, tmp_path, capsys):
        code = main([
            "ingest", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "o.csr"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestServeCommand:
    def test_sequential_serve_honours_cache_size(self, monkeypatch):
        """``--workers 0`` serves a dataset through the pool's sequential
        executor, so ``--cache-size`` caches there as with workers."""
        import repro.server as server_module

        seen = {}

        class Started(Exception):
            pass

        class InspectingApp:
            def __init__(self, service, config):
                self.service = service

            async def start(self):
                first = self.service.single_source(3)
                second = self.service.single_source(3)
                seen["same"] = first is second
                seen["cache"] = getattr(self.service, "cache", None)
                self.service.close()
                raise Started

        monkeypatch.setattr(server_module, "SimRankHTTPApp", InspectingApp)
        with pytest.raises(Started):
            main([
                "serve", "--dataset", "wiki-vote", "--workers", "0",
                "--cache-size", "16", "--port", "0", "--seed", "3",
            ])
        assert seen["cache"] is not None
        assert seen["cache"].stats.hits == 1
        assert seen["same"]


class TestRecoverCommand:
    def test_reports_recovered_state(self, tmp_path, capsys):
        from repro.datasets import toy_graph
        from repro.graph.dynamic import EdgeUpdate
        from repro.storage import PersistentGraphStore

        root = tmp_path / "store"
        with PersistentGraphStore.create(root, toy_graph()) as store:
            store.log([EdgeUpdate("insert", 0, 5)])
        assert main(["recover", str(root)]) == 0
        printed = capsys.readouterr().out
        assert "generation" in printed and "wal_tail" in printed
        assert "1" in printed  # one tail record

    def test_empty_directory_is_clean_error(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["recover", str(empty)]) == 2
        assert "error:" in capsys.readouterr().err


class TestWorkloadSnapshotReplay:
    @pytest.mark.parametrize("executor", ["sequential"])
    def test_replays_from_snapshot(self, toy_path, tmp_path, capsys, executor):
        snap = tmp_path / "toy.csr"
        assert main(["ingest", toy_path, "--out", str(snap)]) == 0
        capsys.readouterr()
        code = main([
            "workload", "--snapshot", str(snap),
            "--methods", "probesim-native", "--ops", "20",
            "--read-fraction", "1", "--executor", executor,
            "--eps-a", "0.3", "--seed", "5",
        ])
        assert code == 0
        assert "qps" in capsys.readouterr().out

    def test_snapshot_plus_graph_is_clean_error(self, toy_path, tmp_path, capsys):
        snap = tmp_path / "toy.csr"
        assert main(["ingest", toy_path, "--out", str(snap)]) == 0
        capsys.readouterr()
        code = main([
            "workload", toy_path, "--snapshot", str(snap), "--ops", "10",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_snapshot_with_updates_is_clean_error(self, toy_path, tmp_path, capsys):
        snap = tmp_path / "toy.csr"
        assert main(["ingest", toy_path, "--out", str(snap)]) == 0
        capsys.readouterr()
        code = main([
            "workload", "--snapshot", str(snap), "--ops", "10",
            "--read-fraction", "0.5", "--executor", "sequential",
        ])
        assert code == 2
        assert "read-only" in capsys.readouterr().err

    def test_no_graph_no_snapshot_is_clean_error(self, capsys):
        code = main(["workload", "--ops", "10"])
        assert code == 2
        assert "error:" in capsys.readouterr().err
