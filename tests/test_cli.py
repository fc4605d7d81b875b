"""CLI tests (direct main(argv) invocation, no subprocesses)."""

import pytest

from repro.cli import build_parser, main
from repro.exec import load_cache_file
from repro.graphs import WeightedGraph, write_edge_list


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["exact", "--family", "nope"])

    def test_defaults(self):
        args = build_parser().parse_args(["exact"])
        assert args.family == "gnp"
        assert args.mode == "reference"

    @pytest.mark.parametrize(
        "argv",
        [
            ["calibrate"],
            ["solvers", "--profile", "profile.json"],
            ["sweep", "--cost-profile", "profile.json"],
            ["compare", "--cost-profile", "profile.json"],
            ["serve", "--cost-profile", "profile.json"],
        ],
        ids=["calibrate", "solvers-profile", "sweep-cost-profile",
             "compare-cost-profile", "serve-cost-profile"],
    )
    def test_fitted_cost_model_surfaces_rejected(self, argv, capsys):
        # No subcommand or flag loads a fitted cost profile any more.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert argv[-1] in capsys.readouterr().err

    def test_patch_budget_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["sweep", "--patch-budget", "5"])
        assert excinfo.value.code == 2
        assert "--patch-budget" in capsys.readouterr().err


class TestCommands:
    def test_exact_reference(self, capsys):
        assert main(["exact", "--family", "cycle", "--n", "12"]) == 0
        out = capsys.readouterr().out
        assert "minimum cut value : 2" in out

    def test_exact_congest_reports_rounds(self, capsys):
        assert main(["exact", "--family", "cycle", "--n", "10", "--mode", "congest"]) == 0
        out = capsys.readouterr().out
        assert "rounds" in out
        assert "charged" in out

    def test_exact_pinned_trees(self, capsys):
        assert main(["exact", "--family", "cycle", "--n", "8", "--trees", "3"]) == 0
        assert "packing trees used: 3" in capsys.readouterr().out

    def test_approx(self, capsys):
        assert main(["approx", "--family", "complete", "--n", "24"]) == 0
        out = capsys.readouterr().out
        assert "(1+eps) cut value : 23" in out

    def test_rounds_with_fit(self, capsys):
        assert main(["rounds", "--family", "cycle", "--sizes", "16,32"]) == 0
        out = capsys.readouterr().out
        assert "fit: rounds ~" in out
        assert "measured" in out

    def test_compare(self, capsys):
        assert main(["compare", "--family", "cycle", "--n", "10"]) == 0
        out = capsys.readouterr().out
        assert "Stoer-Wagner (ground truth)" in out
        assert "this paper, exact" in out

    def test_file_input(self, tmp_path, capsys):
        g = WeightedGraph([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
        path = tmp_path / "triangle.edges"
        write_edge_list(g, path)
        assert main(["exact", "--file", str(path)]) == 0
        assert "minimum cut value : 2" in capsys.readouterr().out

    def test_bounds(self, capsys):
        assert main(["bounds", "--family", "complete", "--n", "8"]) == 0
        out = capsys.readouterr().out
        assert "certified interval" in out
        assert "edge-disjoint trees: 4" in out

    def test_disconnected_file_fails_cleanly(self, tmp_path, capsys):
        g = WeightedGraph([(0, 1), (2, 3)])
        path = tmp_path / "disc.edges"
        write_edge_list(g, path)
        assert main(["exact", "--file", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestRegistryDrivenCommands:
    def test_solvers_lists_registry(self, capsys):
        from repro.api import default_registry

        assert main(["solvers"]) == 0
        out = capsys.readouterr().out
        for name in default_registry().names():
            assert name in out

    def test_exact_with_alternate_solver(self, capsys):
        assert main(
            ["exact", "--family", "cycle", "--n", "12", "--solver", "stoer_wagner"]
        ) == 0
        out = capsys.readouterr().out
        assert "minimum cut value : 2" in out
        assert "packing trees" not in out  # no tree extras for Stoer-Wagner

    def test_approx_with_alternate_solver(self, capsys):
        assert main(
            ["approx", "--family", "cycle", "--n", "12", "--solver", "matula"]
        ) == 0
        assert "(2+eps) cut value : 2" in capsys.readouterr().out

    def test_approx_congest_mode_forwarded(self, capsys):
        assert main(
            ["approx", "--family", "cycle", "--n", "10", "--mode", "congest"]
        ) == 0
        out = capsys.readouterr().out
        assert "rounds" in out
        assert "charged" in out

    def test_compare_solver_filter(self, capsys):
        assert main(
            [
                "compare", "--family", "cycle", "--n", "10",
                "--solver", "exact", "--solver", "matula",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Stoer-Wagner (ground truth)" in out  # always included
        assert "this paper, exact" in out
        assert "Matula" in out
        assert "Karger" not in out

    def test_compare_explicitly_requested_heavy_solver_runs(self, capsys):
        assert main(
            ["compare", "--family", "cycle", "--n", "8",
             "--solver", "exact_congest_full"]
        ) == 0
        assert "this paper, fully distributed" in capsys.readouterr().out

    def test_compare_warns_about_inapplicable_requested_solver(self, capsys):
        assert main(
            ["compare", "--family", "gnp", "--n", "24", "--solver", "brute_force"]
        ) == 0
        captured = capsys.readouterr()
        assert "skipped (not applicable" in captured.err
        assert "brute_force" in captured.err

    def test_unknown_solver_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["exact", "--solver", "nope"])


class TestJsonOutput:
    def test_solvers_json(self, capsys):
        import json

        from repro.api import default_registry

        assert main(["solvers", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {spec["name"] for spec in payload["solvers"]} == set(
            default_registry().names()
        )
        assert all("guarantee" in spec for spec in payload["solvers"])
        assert set(payload) == {"solvers"}

    def test_solvers_json_cost_is_the_registry_model(self, capsys):
        # The cost column samples each registry model at (n, m) =
        # (100, 300), the units `solve(..., budget=...)` trades on.
        import json

        from repro.api import default_registry

        assert main(["solvers", "--json"]) == 0
        listed = {
            spec["name"]: spec["cost_at_100_300"]
            for spec in json.loads(capsys.readouterr().out)["solvers"]
        }
        for spec in default_registry():
            if spec.cost_model is None or (
                spec.max_nodes is not None and spec.max_nodes < 100
            ):
                assert listed[spec.name] is None, spec.name
            else:
                assert listed[spec.name] == int(spec.cost_model(100, 300))
        assert any(cost is not None for cost in listed.values())

    def test_cache_stats_json(self, tmp_path, capsys):
        import json

        cache_file = str(tmp_path / "cache_store")
        assert main(
            ["sweep", "--family", "cycle", "--n", "8", "--count", "2",
             "--cache-file", cache_file]
        ) == 0
        capsys.readouterr()
        assert main(["cache", "stats", cache_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 2
        assert payload["path"] == cache_file
        assert sum(payload["by_solver"].values()) == 2


class TestCacheStoreCli:
    """`repro cache` against segment-store directories (schema 3)."""

    def sweep_into(self, path, *, family="cycle", count=3):
        assert main(
            ["sweep", "--family", family, "--n", "8", "--count", str(count),
             "--solver", "stoer_wagner", "--cache-file", str(path)]
        ) == 0

    def test_merge_reports_counts(self, tmp_path, capsys):
        import json

        self.sweep_into(tmp_path / "a_store", family="cycle")
        self.sweep_into(tmp_path / "b_store", family="grid")
        newer = tmp_path / "future.json"
        newer.write_text(json.dumps({"schema": 99, "entries": {}}))
        capsys.readouterr()
        assert main(
            ["cache", "merge", "--out", str(tmp_path / "merged_store"),
             str(tmp_path / "a_store"), str(tmp_path / "a_store"),
             str(newer), str(tmp_path / "b_store")]
        ) == 0
        out = capsys.readouterr().out
        # First pass adds, the duplicate pass keeps ours, the newer
        # schema file is skipped with its reason — all reported.
        assert "a_store: added 3 entries, kept ours for 0" in out
        assert "a_store: added 0 entries, kept ours for 3" in out
        assert "future.json: skipped (" in out
        assert "schema 99" in out
        assert "6 entries (store schema 3" in out
        assert "1 input(s) skipped" in out

    def test_merge_fails_when_every_input_skipped(self, tmp_path, capsys):
        import json

        newer = tmp_path / "future.json"
        newer.write_text(json.dumps({"schema": 99, "entries": {}}))
        assert main(
            ["cache", "merge", "--out", str(tmp_path / "out_store"),
             str(newer)]
        ) == 2

    def test_stats_store_fields(self, tmp_path, capsys):
        import json

        self.sweep_into(tmp_path / "st")
        capsys.readouterr()
        assert main(["cache", "stats", str(tmp_path / "st"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 3
        assert payload["entries"] == 3
        store = payload["store"]
        assert store["segments"] == 1
        assert store["live_entries"] == 3
        assert store["dead_records"] == 0
        assert store["store_bytes"] > 0
        assert store["oldest_entry_age"] >= store["newest_entry_age"] >= 0

    def test_compact_gc_segments_flow(self, tmp_path, capsys):
        import json

        self.sweep_into(tmp_path / "st", count=4)
        capsys.readouterr()
        assert main(
            ["cache", "compact", str(tmp_path / "st"), "--max-entries", "2",
             "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kept_entries"] == 2
        assert report["dropped_entries"] == 2
        assert report["segments_after"] == 1
        # The compacted store itself is the warm-start artifact.
        assert len(load_cache_file(tmp_path / "st")) == 2

        assert main(["cache", "segments", str(tmp_path / "st"), "--json"]) == 0
        segments = json.loads(capsys.readouterr().out)["segments"]
        assert len(segments) == 1
        assert segments[0]["sealed"] is True
        assert segments[0]["puts"] == 2

        assert main(["cache", "gc", str(tmp_path / "st")]) == 0
        assert "kept 2 entries" in capsys.readouterr().out

    def test_compact_export_is_an_argparse_error(self, tmp_path, capsys):
        # The compacted store directory is the warm-start artifact; no
        # single-file export is written any more.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["cache", "compact", str(tmp_path / "st"),
                 "--export", str(tmp_path / "warm.json")]
            )
        assert excinfo.value.code == 2
        assert "--export" in capsys.readouterr().err

    def test_legacy_file_is_read_and_migrated_never_written(
        self, tmp_path, capsys
    ):
        import json

        self.sweep_into(tmp_path / "st", count=3)
        entries = load_cache_file(tmp_path / "st")
        legacy = tmp_path / "legacy.json"
        body = json.dumps({"schema": 2, "entries": entries})
        legacy.write_text(body, encoding="utf-8")
        capsys.readouterr()
        # stats still reads a schema-2 file ...
        assert main(["cache", "stats", str(legacy), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["entries"], payload["schema"]) == (3, 2)
        # ... a cache path that is such a file fails loudly, naming
        # the migration command, instead of starting cold ...
        assert main(
            ["sweep", "--family", "cycle", "--n", "8", "--count", "3",
             "--solver", "stoer_wagner", "--cache-file", str(legacy)]
        ) == 2
        assert f"repro cache merge --out DIR {legacy}" in (
            capsys.readouterr().err
        )
        assert legacy.read_text(encoding="utf-8") == body
        # ... and that command migrates it into a store.
        assert main(
            ["cache", "merge", "--out", str(tmp_path / "DIR"), str(legacy)]
        ) == 0
        assert "3 entries (store schema 3" in capsys.readouterr().out
        assert load_cache_file(tmp_path / "DIR") == entries

    def test_serve_warm_start_from_compacted_store_hits_every_replay(
        self, tmp_path, patch_create_server, capsys
    ):
        import threading

        from repro import service
        from repro.api import Engine
        from repro.graphs import build_family

        graphs = [build_family("cycle", 8, seed=s) for s in range(3)]
        graphs += [build_family("grid", 9, seed=s) for s in range(3)]
        Engine(cache=tmp_path / "st").solve_batch(graphs, "stoer_wagner")
        assert main(
            ["cache", "compact", str(tmp_path / "st"), "--max-entries", "5000"]
        ) == 0
        real_create_server = service.create_server
        replay = {}

        def drive(server):
            try:
                with service.ServiceClient(server.url, timeout=30.0) as client:
                    client.wait_until_ready()
                    replay["results"] = client.solve_batch(
                        graphs, "stoer_wagner"
                    )
                    replay["cache"] = client.health()["cache"]
            finally:
                server.shutdown()

        def create_and_drive(*args, **kwargs):
            server = real_create_server(*args, **kwargs)
            replay["thread"] = threading.Thread(target=drive, args=(server,))
            replay["thread"].start()
            return server

        patch_create_server(create_and_drive)
        assert main(
            ["serve", "--port", "0", "--warm-start", str(tmp_path / "st")]
        ) == 0
        assert "thread" in replay, "repro serve did not call the patched create_server"
        replay["thread"].join(timeout=30)
        assert not replay["thread"].is_alive()
        assert "adopted 6 cached result(s)" in capsys.readouterr().out
        assert replay["cache"]["hits"] == len(graphs)
        assert replay["cache"]["misses"] == 0
        for graph, result in zip(graphs, replay["results"]):
            assert result.matches(graph)

    def test_compact_policy_comes_from_config_flags_win(self, tmp_path,
                                                        capsys, monkeypatch):
        import json

        monkeypatch.delenv("REPRO_CACHE_MAX_ENTRIES", raising=False)
        self.sweep_into(tmp_path / "st", count=4)
        config = tmp_path / "repro.toml"
        config.write_text("[cache]\nmax_entries = 3\n")
        capsys.readouterr()
        assert main(
            ["--config", str(config), "cache", "compact", str(tmp_path / "st"),
             "--json"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["kept_entries"] == 3
        assert main(
            ["--config", str(config), "cache", "compact", str(tmp_path / "st"),
             "--max-entries", "1", "--json"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["kept_entries"] == 1

    def test_compact_env_beats_file(self, tmp_path, capsys, monkeypatch):
        import json

        self.sweep_into(tmp_path / "st", count=4)
        config = tmp_path / "repro.toml"
        config.write_text("[cache]\nmax_entries = 3\n")
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "2")
        capsys.readouterr()
        assert main(
            ["--config", str(config), "cache", "compact", str(tmp_path / "st"),
             "--json"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["kept_entries"] == 2

    def test_store_tools_reject_non_store_directories(self, tmp_path):
        (tmp_path / "plain").mkdir()
        assert main(["cache", "compact", str(tmp_path / "plain")]) == 2
        assert main(["cache", "segments", str(tmp_path / "plain")]) == 2


class TestStreamMode:
    def write_ops(self, tmp_path, text):
        path = tmp_path / "ops.txt"
        path.write_text(text)
        return str(path)

    def test_stream_replay(self, tmp_path, capsys):
        ops = self.write_ops(tmp_path, "\n".join([
            "# warm the witness first",
            "solve",
            "add_edge 0 5 2.0",
            "solve",
            "undo",
            "solve",
        ]))
        assert main(
            ["sweep", "--stream", ops, "--family", "grid", "--n", "16",
             "--cache", "--validate"]
        ) == 0
        out = capsys.readouterr().out
        assert "mutations/sec" in out
        assert "certificate" in out       # table column
        assert "index maintenance" in out
        assert "undo add_edge" in out
        assert "1 op(s), 1 undo(s), 3 solve(s)" in out

    def test_stream_solve_every(self, tmp_path, capsys):
        ops = self.write_ops(tmp_path, "\n".join([
            "solve",
            "reweight 0 1 3.0",
            "add_edge 0 5 2.0",
        ]))
        assert main(
            ["sweep", "--stream", ops, "--family", "grid", "--n", "16",
             "--solve-every", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "2 op(s), 0 undo(s), 3 solve(s)" in out

    def test_stream_malformed_ops_file_fails_cleanly(self, tmp_path, capsys):
        ops = self.write_ops(tmp_path, "explode 1 2\n")
        assert main(
            ["sweep", "--stream", ops, "--family", "grid", "--n", "16"]
        ) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "line 1" in err
