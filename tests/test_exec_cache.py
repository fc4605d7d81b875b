"""Result cache: keys, LRU behaviour, persistence, façade integration."""

import pytest

from repro.api import CutResult, SolverRegistry, solve, solve_batch
from repro.errors import AlgorithmError
from repro.exec import CacheKey, ResultCache
from repro.graphs import WeightedGraph, build_family
from repro.store import ACTIVE_SEGMENT, SegmentStore


def _grid(seed=0):
    graph = build_family("grid", 9, seed=seed)
    graph.require_connected()
    return graph


class TestCacheKey:
    def test_insertion_order_invariant(self):
        a = WeightedGraph([(0, 1, 2.0), (1, 2, 1.0), (2, 0, 1.0)])
        b = WeightedGraph([(2, 0, 1.0), (2, 1, 1.0), (1, 0, 2.0)])
        key_a = CacheKey.for_solve(a, "exact", seed=3)
        key_b = CacheKey.for_solve(b, "exact", seed=3)
        assert key_a == key_b
        assert key_a.digest() == key_b.digest()

    def test_every_knob_separates_keys(self):
        graph = _grid()
        base = CacheKey.for_solve(graph, "exact", seed=0)
        assert base != CacheKey.for_solve(graph, "stoer_wagner", seed=0)
        assert base != CacheKey.for_solve(graph, "exact", seed=1)
        assert base != CacheKey.for_solve(graph, "exact", epsilon=0.5)
        assert base != CacheKey.for_solve(graph, "exact", mode="congest")
        assert base != CacheKey.for_solve(graph, "exact", budget=4)
        assert base != CacheKey.for_solve(
            graph, "exact", options={"tree_count": 3}
        )

    def test_graph_content_separates_keys(self):
        light = WeightedGraph([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
        heavy = WeightedGraph([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 2.0)])
        assert CacheKey.for_solve(light, "exact") != CacheKey.for_solve(
            heavy, "exact"
        )

    def test_numeric_knobs_canonicalised_in_digest(self):
        graph = _grid()
        as_int = CacheKey.for_solve(graph, "exact", epsilon=1, budget=2)
        as_float = CacheKey.for_solve(graph, "exact", epsilon=1.0, budget=2)
        assert as_int == as_float
        assert as_int.digest() == as_float.digest()

    def test_digest_is_stable_hex(self):
        digest = CacheKey.for_solve(_grid(), "exact").digest()
        assert len(digest) == 64
        assert int(digest, 16) >= 0


class TestResultCacheCore:
    def test_maxsize_validated(self):
        with pytest.raises(AlgorithmError, match="maxsize"):
            ResultCache(maxsize=0)

    def test_lru_eviction(self):
        cache = ResultCache(maxsize=2)
        keys = [
            CacheKey.for_solve(_grid(), "exact", seed=s) for s in range(3)
        ]
        result = CutResult(value=1.0, side=frozenset({0}))
        for key in keys:
            cache.put(key, result)
        assert len(cache) == 2
        assert keys[0] not in cache  # oldest evicted
        assert keys[1] in cache and keys[2] in cache

    def test_get_touches_recency(self):
        cache = ResultCache(maxsize=2)
        keys = [
            CacheKey.for_solve(_grid(), "exact", seed=s) for s in range(3)
        ]
        result = CutResult(value=1.0, side=frozenset({0}))
        cache.put(keys[0], result)
        cache.put(keys[1], result)
        assert cache.get(keys[0]) is not None  # refresh 0; 1 becomes LRU
        cache.put(keys[2], result)
        assert keys[0] in cache
        assert keys[1] not in cache

    def test_stats_and_clear(self):
        cache = ResultCache()
        key = CacheKey.for_solve(_grid(), "exact")
        assert cache.get(key) is None
        cache.put(key, CutResult(value=1.0, side=frozenset({0})))
        assert cache.get(key) is not None
        assert cache.stats() == {
            "hits": 1,
            "misses": 1,
            "memory_entries": 1,
            "disk_entries": 0,
        }
        cache.clear()
        assert cache.stats()["hits"] == 0
        assert len(cache) == 0


class TestFacadeIntegration:
    def test_repeated_solve_hits_and_reproduces(self):
        cache = ResultCache()
        graph = _grid()
        first = solve(graph, cache=cache)
        second = solve(graph, cache=cache)
        assert first.extras["cache"]["hit"] is False
        assert second.extras["cache"]["hit"] is True
        assert cache.hits == 1 and cache.misses == 1
        assert (second.value, second.side, second.solver, second.seed) == (
            first.value,
            first.side,
            first.solver,
            first.seed,
        )
        assert second.verify(graph) == pytest.approx(second.value)
        assert second.matches(graph)

    def test_counters_surface_in_extras(self):
        cache = ResultCache()
        graph = _grid()
        solve(graph, cache=cache)
        result = solve(graph, cache=cache)
        assert result.extras["cache"] == {"hit": True, "hits": 1, "misses": 1}

    def test_auto_resolution_shares_entries_with_explicit_name(self):
        cache = ResultCache()
        graph = _grid()
        auto = solve(graph, cache=cache)  # auto resolves to 'exact'
        named = solve(graph, solver=auto.solver, cache=cache)
        assert named.extras["cache"]["hit"] is True

    def test_structurally_equal_graph_hits(self):
        cache = ResultCache()
        graph = _grid()
        rebuilt = WeightedGraph(reversed(list(graph.edges())))
        first = solve(graph, cache=cache)
        second = solve(rebuilt, cache=cache)
        assert second.extras["cache"]["hit"] is True
        assert second.value == first.value

    def test_different_seed_misses(self):
        cache = ResultCache()
        graph = _grid()
        solve(graph, solver="karger", seed=1, cache=cache)
        result = solve(graph, solver="karger", seed=2, cache=cache)
        assert result.extras["cache"]["hit"] is False

    def test_batch_second_pass_all_hits_every_backend(self):
        cache = ResultCache()
        graphs = [build_family("cycle", 8, seed=s) for s in range(4)]
        first = solve_batch(graphs, cache=cache)
        assert all(r.extras["cache"]["hit"] is False for r in first)
        for backend in ("serial", "process"):
            again = solve_batch(graphs, backend=backend, cache=cache)
            assert all(r.extras["cache"]["hit"] is True for r in again)
            assert [r.value for r in again] == [r.value for r in first]
        for graph, result in zip(graphs, again):
            assert result.matches(graph)

    def test_congest_results_cached_in_memory(self):
        cache = ResultCache()
        graph = build_family("cycle", 10)
        first = solve(graph, solver="exact", mode="congest", cache=cache)
        second = solve(graph, solver="exact", mode="congest", cache=cache)
        assert second.extras["cache"]["hit"] is True
        assert second.metrics is not None
        assert second.metrics.total_rounds == first.metrics.total_rounds


class TestPersistence:
    """The persistence tier is a segment-store directory (schema 3)."""

    def test_disk_round_trip_across_cache_instances(self, tmp_path):
        path = tmp_path / "cache_store"
        graph = _grid()
        warm = ResultCache(path=path)
        first = solve(graph, solver="stoer_wagner", cache=warm)
        assert (path / ACTIVE_SEGMENT).exists()

        cold = ResultCache(path=path)
        second = solve(graph, solver="stoer_wagner", cache=cold)
        assert second.extras["cache"]["hit"] is True
        assert second.value == first.value
        assert second.side == first.side
        assert second.matches(graph)

    def test_congest_metrics_never_persisted(self, tmp_path):
        path = tmp_path / "cache_store"
        graph = build_family("cycle", 8)
        warm = ResultCache(path=path)
        solve(graph, solver="exact", mode="congest", cache=warm)
        cold = ResultCache(path=path)
        result = solve(graph, solver="exact", mode="congest", cache=cold)
        assert result.extras["cache"]["hit"] is False  # memory tier only

    def test_put_flush_false_defers_disk_write(self, tmp_path):
        path = tmp_path / "cache_store"
        cache = ResultCache(path=path)
        key = CacheKey.for_solve(_grid(), "fake")
        cache.put(key, CutResult(value=1.0, side=frozenset({0})), flush=False)
        assert not (path / ACTIVE_SEGMENT).exists()
        assert ResultCache(path=path).get(key) is None
        cache.flush()
        assert ResultCache(path=path).get(key) is not None

    def test_batch_persists_every_entry(self, tmp_path):
        path = tmp_path / "cache_store"
        cache = ResultCache(path=path)
        graphs = [build_family("cycle", 8, seed=s) for s in range(4)]
        solve_batch(graphs, "stoer_wagner", cache=cache)
        assert cache.stats()["disk_entries"] == 4
        assert cache.store.appended_records == 4
        assert len(SegmentStore(path, create=False).entries()) == 4

    def test_concurrent_writers_merge_instead_of_erasing(self, tmp_path):
        # Two caches open the same (empty) store, then flush in turn; the
        # later writer must append to — not erase — the earlier one's entry.
        path = tmp_path / "cache_store"
        first = ResultCache(path=path)
        second = ResultCache(path=path)
        key_a = CacheKey.for_solve(_grid(), "fake", seed=1)
        key_b = CacheKey.for_solve(_grid(), "fake", seed=2)
        first.put(key_a, CutResult(value=1.0, side=frozenset({0})))
        second.put(key_b, CutResult(value=2.0, side=frozenset({1})))
        merged = ResultCache(path=path)
        assert merged.get(key_a) is not None
        assert merged.get(key_b) is not None

    def test_interleaved_concurrent_flushes_lose_nothing(self, tmp_path):
        # flock is held per open file description, so two cache objects
        # flushing from separate threads exercise the same serialisation
        # that protects separate processes.
        from concurrent.futures import ThreadPoolExecutor

        path = tmp_path / "cache_store"
        writers = [ResultCache(path=path) for _ in range(4)]
        grid = _grid()

        def spam(writer_index):
            writer = writers[writer_index]
            for i in range(10):
                key = CacheKey.for_solve(
                    grid, "fake", seed=writer_index * 100 + i
                )
                writer.put(key, CutResult(value=1.0, side=frozenset({0})))

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(spam, range(4)))
        merged = SegmentStore(path, create=False)
        assert len(merged.entries()) == 40  # every writer's entries survived

    def test_failed_batch_still_caches_completed_results(self, tmp_path):
        registry = SolverRegistry()

        @registry.register("flaky", kind="exact", guarantee="exact")
        def _flaky(graph, **kw):
            if graph.number_of_nodes == 4:
                raise AlgorithmError("boom")
            node = graph.nodes[0]
            return CutResult(
                value=graph.weighted_degree(node), side=frozenset({node})
            )

        graphs = [
            build_family("cycle", 6),
            build_family("complete", 4),  # the failing instance
            build_family("cycle", 8),
        ]
        cache = ResultCache(path=tmp_path / "cache_store")
        # Custom registries cannot ship to the process backend; pin the
        # serial one so $REPRO_BACKEND never redirects this test.
        with pytest.raises(AlgorithmError, match=r"graph #1.*boom"):
            solve_batch(
                graphs, "flaky", registry=registry, cache=cache,
                backend="serial",
            )
        # The two completed results were cached (memory and disk) anyway.
        assert cache.stats()["memory_entries"] == 2
        assert cache.stats()["disk_entries"] == 2
        # Retrying the full batch recomputes only the failing graph.
        with pytest.raises(AlgorithmError, match=r"graph #1"):
            solve_batch(
                graphs, "flaky", registry=registry, cache=cache,
                backend="serial",
            )
        assert cache.hits == 2

    def test_tuple_extras_round_trip_exactly(self, tmp_path):
        # The paper solvers report tuple extras (e.g. per_tree_values);
        # the tagged encoding must restore them as tuples, not lists.
        path = tmp_path / "cache_store"
        cache = ResultCache(path=path)
        key = CacheKey.for_solve(_grid(), "fake")
        tupled = CutResult(
            value=1.0,
            side=frozenset({0}),
            extras={"pair": (1, 2), "nested": {"deep": (3.0, (4, 5))}},
        )
        cache.put(key, tupled)
        cold = ResultCache(path=path)
        restored = cold.get(key)
        assert restored is not None
        assert restored.extras == tupled.extras
        assert restored.extras["pair"] == (1, 2)
        assert restored.extras["nested"]["deep"][1] == (4, 5)

    def test_exact_solver_result_survives_disk_tier(self, tmp_path):
        # Regression: 'exact' carries per_tree_values (a tuple) in
        # extras; the disk tier must still serve it across instances.
        path = tmp_path / "cache_store"
        graph = _grid()
        warm = ResultCache(path=path)
        first = solve(graph, solver="exact", cache=warm)
        assert isinstance(first.extras["per_tree_values"], tuple)
        cold = ResultCache(path=path)
        second = solve(graph, solver="exact", cache=cold)
        assert second.extras["cache"]["hit"] is True
        assert second.value == first.value
        assert second.side == first.side
        assert (
            second.extras["per_tree_values"] == first.extras["per_tree_values"]
        )
        assert second.matches(graph)

    def test_unfaithful_extras_stay_memory_only(self, tmp_path):
        path = tmp_path / "cache_store"
        cache = ResultCache(path=path)
        for extras in (
            {"mapping": {1: "non-string key"}},
            {"clash": {"__tuple__": [1]}},  # reserved tag key
        ):
            key = CacheKey.for_solve(_grid(), "fake", options=extras)
            result = CutResult(value=1.0, side=frozenset({0}), extras=extras)
            cache.put(key, result)
            assert cache.get(key) is not None  # memory tier serves it
            cold = ResultCache(path=path)
            assert cold.get(key) is None  # JSON would mangle it
