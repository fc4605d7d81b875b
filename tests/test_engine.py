"""Engine API: configuration precedence, delegation, warm start, registry.

The PR-5 redesign: :class:`repro.api.Engine` owns registry, backend,
cache and default solver knobs; the module-level façade delegates to a
default engine; backends are registered, not hard-coded; the cache's
on-disk tier is versioned and mergeable.
"""

import json
import warnings

import pytest

from repro.api import CutResult, Engine, default_engine, solve, solve_batch
from repro.api.registry import SolverRegistry
from repro.errors import AlgorithmError, DisconnectedGraphError
from repro.exec import (
    BACKENDS,
    CACHE_SCHEMA_VERSION,
    Executor,
    ResultCache,
    SerialExecutor,
    load_cache_file,
    pack_tasks,
    register_backend,
    resolve_backend,
)
from repro.exec.task import SolveTask, run_task_captured
from repro.graphs import WeightedGraph, build_family


def _graphs(count, family="cycle", n=8):
    return [build_family(family, n, seed=s) for s in range(count)]


def _identity(results):
    return [
        (r.solver, r.value, tuple(sorted(r.side, key=repr)), r.seed)
        for r in results
    ]


class TestEngineDefaults:
    def test_engine_matches_facade(self):
        graph = build_family("gnp", 14, seed=2)
        engine = Engine()
        assert _identity([engine.solve(graph)]) == _identity([solve(graph)])
        batch = _graphs(3)
        assert _identity(engine.solve_batch(batch)) == _identity(
            solve_batch(batch)
        )

    def test_engine_default_solver_knobs_apply(self):
        graph = build_family("gnp", 14, seed=2)
        engine = Engine(solver="stoer_wagner", seed=5)
        result = engine.solve(graph)
        assert result.solver == "stoer_wagner"
        assert result.seed == 5

    def test_explicit_argument_beats_engine_default(self):
        graph = build_family("gnp", 14, seed=2)
        engine = Engine(solver="stoer_wagner", seed=5)
        result = engine.solve(graph, "brute_force", seed=1)
        assert result.solver == "brute_force"
        assert result.seed == 1

    def test_engine_default_beats_environment(self, monkeypatch):
        # Precedence: explicit arg > engine default > $REPRO_BACKEND.
        monkeypatch.setenv("REPRO_BACKEND", "nonsense")
        engine = Engine(backend="serial")
        results = engine.solve_batch(_graphs(2), "stoer_wagner")
        assert len(results) == 2
        # ... and with no engine default the env var is consulted (and
        # rejected here, proving it was read).
        bare = Engine()
        with pytest.raises(AlgorithmError, match="unknown execution backend"):
            bare.solve_batch(_graphs(2), "stoer_wagner")

    def test_engine_cache_default_applies(self):
        engine = Engine(cache=ResultCache())
        graphs = _graphs(3)
        first = engine.solve_batch(graphs, "stoer_wagner")
        again = engine.solve_batch(graphs, "stoer_wagner")
        assert all(not r.extras["cache"]["hit"] for r in first)
        assert all(r.extras["cache"]["hit"] for r in again)
        assert _identity(first) == _identity(again)

    def test_engine_cache_accepts_a_path(self, tmp_path):
        path = tmp_path / "cache_store"
        engine = Engine(cache=path)
        engine.solve(build_family("cycle", 8), "stoer_wagner")
        assert path.is_dir()
        warm = Engine(cache=str(path))
        result = warm.solve(build_family("cycle", 8), "stoer_wagner")
        assert result.extras["cache"]["hit"]

    def test_default_engine_is_a_singleton(self):
        assert default_engine() is default_engine()

    def test_compare_puts_ground_truth_first(self):
        graph = build_family("gnp", 12, seed=3)
        engine = Engine()
        results = engine.compare(graph, epsilon=0.5, seed=2)
        truth_name = engine.registry.ground_truth().name
        assert results[0].solver == truth_name
        assert len(results) >= 10
        truth = results[0].value
        exact = [r for r in results if r.guarantee == "exact"]
        assert all(r.value == pytest.approx(truth) for r in exact)

    def test_compare_inserts_ground_truth_when_filtered_out(self):
        graph = build_family("cycle", 8)
        engine = Engine()
        truth_name = engine.registry.ground_truth().name
        results = engine.compare(graph, names=["matula"])
        assert results[0].solver == truth_name
        assert {r.solver for r in results} == {truth_name, "matula"}


class TestRawKwargDeprecation:
    def test_explicit_engine_warns_on_raw_backend(self):
        engine = Engine()
        with pytest.warns(DeprecationWarning, match="backend"):
            engine.solve_batch(_graphs(2), "stoer_wagner", backend="serial")

    def test_explicit_engine_warns_on_raw_cache(self):
        engine = Engine()
        with pytest.warns(DeprecationWarning, match="cache"):
            engine.solve(
                build_family("cycle", 8), "stoer_wagner", cache=ResultCache()
            )

    def test_facade_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            solve_batch(
                _graphs(2), "stoer_wagner", backend="serial",
                cache=ResultCache(),
            )

    def test_solve_tasks_is_the_programmatic_seam_and_does_not_warn(self):
        engine = Engine()
        tasks = engine.build_batch_tasks(_graphs(2), solver="stoer_wagner")
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            results = engine.solve_tasks(
                tasks, backend="serial", cache=ResultCache()
            )
        assert len(results) == 2


class TestTaskPlane:
    def test_build_batch_tasks_freezes_seeds_and_solvers(self):
        engine = Engine()
        tasks = engine.build_batch_tasks(
            _graphs(3), solver="stoer_wagner", seed=10
        )
        assert [t.seed for t in tasks] == [10, 11, 12]
        assert all(t.solver == "stoer_wagner" for t in tasks)

    def test_per_task_overrides(self):
        engine = Engine()
        tasks = engine.build_batch_tasks(
            _graphs(3),
            seeds=[7, 3, 9],
            solvers=["stoer_wagner", "brute_force", "stoer_wagner"],
        )
        assert [t.seed for t in tasks] == [7, 3, 9]
        assert [t.solver for t in tasks] == [
            "stoer_wagner", "brute_force", "stoer_wagner",
        ]
        results = engine.solve_tasks(tasks)
        assert _identity(results) == _identity(
            [run_task_captured(t) for t in tasks]
        )

    def test_mismatched_override_lengths_raise_typed_error(self):
        engine = Engine()
        with pytest.raises(AlgorithmError, match="seeds override"):
            engine.build_batch_tasks(_graphs(2), seeds=[7])
        with pytest.raises(AlgorithmError, match="solvers override"):
            engine.build_batch_tasks(
                _graphs(2), solvers=["stoer_wagner"] * 3
            )

    def test_disconnected_graph_is_named_by_index(self):
        graphs = _graphs(3)
        graphs.insert(2, WeightedGraph([(0, 1), (2, 3)]))
        with pytest.raises(AlgorithmError, match="graph #2: .*connected"):
            Engine().build_batch_tasks(graphs, solver="stoer_wagner")

    def test_solve_tasks_equals_solve_batch(self):
        engine = Engine()
        graphs = _graphs(4, family="gnp", n=12)
        tasks = engine.build_batch_tasks(graphs, solver="stoer_wagner")
        assert _identity(engine.solve_tasks(tasks)) == _identity(
            engine.solve_batch(graphs, "stoer_wagner")
        )

    def test_task_cost_fn_packs_in_registry_cost_units(self):
        engine = Engine()
        graph = build_family("gnp", 12, seed=1)
        tasks = engine.build_batch_tasks([graph], solver="karger")
        cost = engine.task_cost_fn()
        spec = engine.registry.get("karger")
        assert cost(tasks[0]) == pytest.approx(
            spec.cost_model(graph.number_of_nodes, graph.number_of_edges)
        )

    def test_dynamic_session_rejects_patch_budget(self):
        graph = build_family("gnp", 16, seed=3)
        with pytest.raises(TypeError, match="patch_budget"):
            Engine().dynamic_session(graph, patch_budget=7)


def _registry_with_costs(unmodelled=False):
    registry = SolverRegistry()

    @registry.register(
        "cheap", kind="exact", guarantee="exact", cost_model=lambda n, m: 10.0 * m
    )
    def _cheap(graph, **kw):  # pragma: no cover - never run
        raise AssertionError

    @registry.register(
        "pricy",
        kind="exact",
        guarantee="exact",
        priority=1,
        cost_model=lambda n, m: 1000.0 * m,
    )
    def _pricy(graph, **kw):  # pragma: no cover - never run
        raise AssertionError

    if unmodelled:
        # Never skipped by a budget, so only the cost-function test has it.
        @registry.register("unmodelled", kind="exact", guarantee="exact")
        def _unmodelled(graph, **kw):  # pragma: no cover - never run
            raise AssertionError

    return registry


class TestOneCostModel:
    """The registry ``cost_model`` is the only cost model.

    Budgets, shard packing and dynamic sessions all read it directly;
    there is no fitted profile to load, so no variable or keyword can
    swap in a second one.
    """

    def test_engine_rejects_cost_profile_keyword(self):
        with pytest.raises(TypeError, match="cost_profile"):
            Engine(cost_profile="profile.json")

    @pytest.mark.parametrize("section", ["EngineConfig", "ServeConfig"])
    def test_config_has_no_cost_profile_field(self, section):
        import repro.config

        with pytest.raises(TypeError, match="cost_profile"):
            getattr(repro.config, section)(cost_profile="profile.json")

    @pytest.mark.parametrize(
        "content",
        [None, "{not json", "[]", json.dumps({"schema": 2, "entries": {}})],
        ids=["missing", "invalid-json", "list", "foreign-kind"],
    )
    def test_profile_variable_is_inert(self, tmp_path, monkeypatch, content):
        path = tmp_path / "profile.json"
        if content is not None:
            path.write_text(content, encoding="utf-8")
        monkeypatch.setenv("REPRO_COST_PROFILE", str(path))
        engine = Engine()
        graph = build_family("gnp", 12, seed=1)
        (task,) = engine.build_batch_tasks([graph], solver="stoer_wagner")
        spec = engine.registry.get("stoer_wagner")
        assert engine.task_cost_fn()(task) == pytest.approx(
            spec.cost_model(graph.number_of_nodes, graph.number_of_edges)
        )

    def test_task_cost_fn_unmodelled_solver_costs_one(self):
        registry = _registry_with_costs(unmodelled=True)
        graph = build_family("gnp", 12, seed=0)
        cost = Engine(registry=registry).task_cost_fn()
        modelled = SolveTask(graph=graph, solver="cheap")
        assert cost(modelled) == pytest.approx(10.0 * graph.number_of_edges)
        assert cost(SolveTask(graph=graph, solver="unmodelled")) == 1.0
        assert cost(SolveTask(graph=graph, solver="no_such_solver")) == 1.0

    def test_task_cost_fn_plan_isolates_the_heaviest_task(self):
        engine = Engine()
        graphs = [build_family("gnp", 40, seed=0)] + _graphs(
            5, family="gnp", n=10
        )
        tasks = engine.build_batch_tasks(graphs, solver="stoer_wagner")
        plan = pack_tasks(tasks, 2, engine.task_cost_fn())
        assert sorted(i for ix in plan.assignments for i in ix) == list(
            range(len(tasks))
        )
        assert (0,) in plan.assignments

    def test_select_auto_budget_in_cost_units(self):
        registry = _registry_with_costs()
        graph = build_family("gnp", 12, seed=0)
        m = graph.number_of_edges
        # Without a budget the priority tie-break prefers "pricy".
        assert registry.select_auto(graph).name == "pricy"
        # A budget between the two models' costs rules "pricy" out.
        assert registry.select_auto(graph, budget=100.0 * m).name == "cheap"
        # Everything over budget: degrade to the cheapest, not refuse.
        assert registry.select_auto(graph, budget=1.0).name == "cheap"

    def test_select_auto_rejects_cost_fn_keyword(self):
        graph = build_family("gnp", 12, seed=0)
        with pytest.raises(TypeError, match="cost_fn"):
            _registry_with_costs().select_auto(
                graph, budget=1.0, cost_fn=lambda spec: 0.0
            )


class TestBackendRegistry:
    def test_builtins_registered(self):
        assert {"serial", "process", "remote"} <= set(BACKENDS)

    def test_duplicate_name_rejected(self):
        with pytest.raises(AlgorithmError, match="already registered"):
            register_backend("serial", SerialExecutor)

    def test_registered_backend_usable_by_name(self):
        calls = []

        class CountingExecutor(Executor):
            name = "counting_test"

            def run_tasks(self, tasks, registry=None, keep_going=False):
                calls.append(len(tasks))
                return [
                    run_task_captured(task, registry=registry)
                    for task in tasks
                ]

        if "counting_test" not in BACKENDS:
            register_backend("counting_test", CountingExecutor)
        try:
            results = solve_batch(
                _graphs(3), "stoer_wagner", backend="counting_test"
            )
            assert calls == [3]
            assert _identity(results) == _identity(
                solve_batch(_graphs(3), "stoer_wagner")
            )
        finally:
            BACKENDS.pop("counting_test", None)

    def test_remote_resolves_without_workers(self):
        # Construction must succeed (resolution happens before the pool
        # is known); only running tasks without a pool fails.
        executor = resolve_backend("remote")
        assert executor.name == "remote"


class TestCacheSchemaAndMerge:
    def test_on_disk_store_is_versioned(self, tmp_path):
        from repro.store import MANIFEST_NAME, STORE_SCHEMA_VERSION

        path = tmp_path / "cache_store"
        cache = ResultCache(path=path)
        cache.put(
            _key(build_family("cycle", 8)),
            CutResult(value=1.0, side=frozenset({0})),
        )
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        assert manifest["schema"] == STORE_SCHEMA_VERSION
        assert len(load_cache_file(path)) == 1

    def test_legacy_unversioned_file_still_loads(self, tmp_path):
        # Schema-2 envelopes and unversioned bare dicts are read-only
        # warm-start and migration inputs.
        key = _key(build_family("cycle", 8))
        recorder = ResultCache(path=tmp_path / "st")
        recorder.put(key, CutResult(value=1.0, side=frozenset({0})))
        entries = load_cache_file(tmp_path / "st")
        versioned = tmp_path / "v2.json"
        versioned.write_text(
            json.dumps({"schema": CACHE_SCHEMA_VERSION, "entries": entries})
        )
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(entries))
        for legacy in (versioned, bare):
            assert load_cache_file(legacy) == entries
            engine = Engine()
            assert engine.warm_start(legacy) == 1
            assert engine.cache.get(key) is not None

    def test_newer_schema_left_untouched(self, tmp_path):
        path = tmp_path / "cache.json"
        body = json.dumps({"schema": 99, "entries": {"x": {}}})
        path.write_text(body)
        with pytest.raises(AlgorithmError, match="repro cache merge --out"):
            ResultCache(path=path)
        with pytest.raises(AlgorithmError, match="schema"):
            load_cache_file(path)
        assert path.read_text() == body

    def test_merge_from_files_ours_win(self, tmp_path):
        # gnp graphs differ per seed, so the two recorders share exactly
        # the (graph #2, seed 0) entry: b replays graphs[2] at index 0.
        graphs = _graphs(4, family="gnp", n=10)
        a = ResultCache(path=tmp_path / "a_store")
        b = ResultCache(path=tmp_path / "b_store")
        solve_batch(graphs[:3], "stoer_wagner", seed=0, cache=a)
        solve_batch(graphs[2:], "stoer_wagner", seed=2, cache=b)
        merged = ResultCache(path=tmp_path / "merged_store")
        assert merged.merge_from(tmp_path / "a_store") == 3
        assert merged.merge_from(tmp_path / "b_store") == 1  # overlap skipped
        assert merged.stats()["disk_entries"] == 4

    def test_merge_from_live_memory_cache(self):
        source = ResultCache()  # memory-only
        graphs = _graphs(2)
        solve_batch(graphs, "stoer_wagner", cache=source)
        target = ResultCache()
        assert target.merge_from(source) == 2
        hits = solve_batch(graphs, "stoer_wagner", cache=target)
        assert all(r.extras["cache"]["hit"] for r in hits)

    def test_merge_from_is_strict_about_bad_files(self, tmp_path):
        cache = ResultCache()
        with pytest.raises(AlgorithmError, match="cannot read"):
            cache.merge_from(tmp_path / "missing.json")
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text("{not json")
        with pytest.raises(AlgorithmError, match="not valid JSON"):
            cache.merge_from(corrupt)
        foreign = tmp_path / "foreign.json"
        foreign.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(AlgorithmError, match="not a result cache"):
            cache.merge_from(foreign)

    def test_warm_started_engine_replays_all_hits(self, tmp_path):
        graphs = _graphs(3, family="grid", n=9)
        recorder = Engine(cache=tmp_path / "record_store")
        recorded = recorder.solve_batch(graphs, "stoer_wagner")
        warm = Engine()
        assert warm.warm_start(tmp_path / "record_store") == 3
        replayed = warm.solve_batch(graphs, "stoer_wagner")
        assert all(r.extras["cache"]["hit"] for r in replayed)
        assert _identity(replayed) == _identity(recorded)


class TestHitPath:
    """The cache is consulted before the connectivity check."""

    def test_hit_skips_the_connectivity_check(self):
        engine = Engine(cache=ResultCache())
        graph = build_family("gnp", 20, seed=4)
        first = engine.solve(graph, "stoer_wagner")
        again = WeightedGraph(list(graph.edges()))  # same content, no index yet
        assert again._index_cache is None
        result = engine.solve(again, "stoer_wagner")
        assert result.extras["cache"]["hit"] is True
        assert result.value == first.value
        assert again._index_cache is None

    def test_disconnected_graph_raises_and_is_not_cached(self):
        cache = ResultCache()
        engine = Engine(cache=cache)
        graph = WeightedGraph([(0, 1), (2, 3)])
        for _ in range(2):
            with pytest.raises(DisconnectedGraphError):
                engine.solve(graph, "stoer_wagner")
        assert len(cache) == 0
        assert cache.hits == 0

    @pytest.mark.parametrize("cache", [None, ResultCache()])
    def test_inapplicable_solver_wins_over_disconnection(self, cache):
        # Solver resolution precedes the lookup, and the connectivity
        # check follows it: a named solver that cannot run on the graph
        # is reported first, as AlgorithmError, not DisconnectedGraphError.
        graph = WeightedGraph([(i, i + 1) for i in range(0, 24, 2)])
        assert not graph.is_connected()
        engine = Engine(cache=cache)
        with pytest.raises(AlgorithmError, match="limited to 18 nodes"):
            engine.solve(graph, "brute_force")


def _key(graph):
    from repro.exec import CacheKey

    return CacheKey.for_solve(graph, "stoer_wagner", seed=0)
