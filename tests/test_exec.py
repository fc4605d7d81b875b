"""Execution backends: resolution, determinism, ordering, error labelling."""

import pickle

import pytest

from repro.api import SolverRegistry, solve, solve_all, solve_batch
from repro.errors import AlgorithmError, ConfigError
from repro.exec import (
    BACKENDS,
    ProcessExecutor,
    REPRO_BACKEND_ENV,
    SerialExecutor,
    SolveTask,
    resolve_backend,
    run_task,
)
from repro.graphs import WeightedGraph, build_family


def _graphs(count, family="gnp", n=10):
    out = []
    for s in range(count):
        graph = build_family(family, n, seed=s)
        graph.require_connected()
        out.append(graph)
    return out


def _identity(results):
    """The value/side/seed/solver/guarantee fingerprint of a result list."""
    return [
        (r.value, tuple(sorted(r.side, key=repr)), r.seed, r.solver, r.guarantee)
        for r in results
    ]


class TestBackendResolution:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(REPRO_BACKEND_ENV, raising=False)
        assert isinstance(resolve_backend(None), SerialExecutor)

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv(REPRO_BACKEND_ENV, "process")
        assert isinstance(resolve_backend(None), ProcessExecutor)

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(REPRO_BACKEND_ENV, "process")
        assert isinstance(resolve_backend("serial"), SerialExecutor)

    def test_executor_instance_passes_through(self):
        executor = ProcessExecutor(max_workers=2)
        assert resolve_backend(executor) is executor

    def test_unknown_backend_raises_with_choices(self):
        with pytest.raises(AlgorithmError, match="serial"):
            resolve_backend("gpu")

    def test_thread_backend_is_gone(self):
        assert "thread" not in BACKENDS
        with pytest.raises(
            AlgorithmError,
            match=r"unknown execution backend 'thread'; choose one of "
                  r"process, remote, serial",
        ):
            resolve_backend("thread")
        # A keyword backend is checked when the engine is built.
        with pytest.raises(
            ConfigError,
            match=r"engine\.backend must be one of 'serial', 'process', "
                  r"'remote', got 'thread'",
        ):
            solve_batch(_graphs(1, family="cycle", n=6), backend="thread")

    def test_unknown_env_backend_raises(self, monkeypatch):
        monkeypatch.setenv(REPRO_BACKEND_ENV, "nope")
        with pytest.raises(AlgorithmError, match="unknown execution backend"):
            resolve_backend(None)

    def test_every_backend_name_resolves(self):
        for name in BACKENDS:
            assert resolve_backend(name).name == name

    def test_invalid_backend_raises_even_when_cache_is_warm(self):
        from repro.exec import ResultCache

        cache = ResultCache()
        graphs = _graphs(2, family="cycle", n=6)
        solve_batch(graphs, "stoer_wagner", cache=cache)
        with pytest.raises(ConfigError, match=r"engine\.backend must be one of"):
            solve_batch(graphs, "stoer_wagner", cache=cache, backend="gpu")


class TestBackendDeterminism:
    def test_twenty_graph_sweep_identical_across_backends(self):
        graphs = _graphs(20)
        serial = solve_batch(graphs, backend="serial")
        process = solve_batch(graphs, backend="process")
        assert _identity(serial) == _identity(process)
        assert [r.seed for r in serial] == list(range(20))
        for graph, result in zip(graphs, serial):
            assert result.matches(graph)

    def test_randomized_solver_identical_across_backends(self):
        graphs = _graphs(6, family="grid", n=9)
        runs = [
            solve_batch(graphs, "karger", seed=7, budget=16, backend=name)
            for name in ("serial", "process")
        ]
        assert _identity(runs[0]) == _identity(runs[1])

    def test_order_follows_input_order(self):
        # Distinct per-instance answers so a shuffled result list is visible.
        graphs = [build_family("complete", n) for n in (4, 6, 8, 10, 12)]
        for name in ("serial", "process"):
            results = solve_batch(graphs, backend=name)
            assert [r.value for r in results] == [3.0, 5.0, 7.0, 9.0, 11.0]

    def test_solve_all_identical_across_backends(self):
        graph = build_family("gnp", 12, seed=3)
        serial = solve_all(graph, epsilon=0.5, seed=2, backend="serial")
        process = solve_all(graph, epsilon=0.5, seed=2, backend="process")
        assert _identity(serial) == _identity(process)
        assert len(serial) >= 10  # registration order preserved, none dropped


class TestBatchErrors:
    def test_disconnected_graph_named_by_index(self):
        triangle = WeightedGraph([(0, 1), (1, 2), (2, 0)])
        broken = WeightedGraph([(0, 1), (2, 3)])
        with pytest.raises(AlgorithmError, match=r"graph #1"):
            solve_batch([triangle, broken, triangle])

    def test_capability_failure_named_by_index(self):
        graphs = [_graphs(1, n=8)[0], build_family("gnp", 24, seed=1)]
        with pytest.raises(AlgorithmError, match=r"graph #1.*limited"):
            solve_batch(graphs, "brute_force")

    def test_mid_batch_solver_error_named_by_index(self):
        # Unknown extra option only detonates inside the solver adapter.
        graphs = _graphs(3, family="cycle", n=8)
        for name in ("serial", "process"):
            with pytest.raises(AlgorithmError, match=r"graph #0.*stoer_wagner"):
                solve_batch(graphs, "stoer_wagner", backend=name, bogus=1)

    def test_serial_fails_fast_without_cache(self):
        from repro.api import CutResult

        registry = SolverRegistry()
        calls = []

        @registry.register("counting", kind="exact", guarantee="exact")
        def _counting(graph, **kw):
            calls.append(graph.number_of_nodes)
            if graph.number_of_nodes == 4:
                raise AlgorithmError("boom")
            node = graph.nodes[0]
            return CutResult(
                value=graph.weighted_degree(node), side=frozenset({node})
            )

        graphs = [
            build_family("complete", 4),  # fails
            build_family("cycle", 6),
            build_family("cycle", 8),
        ]
        with pytest.raises(AlgorithmError, match=r"graph #0"):
            solve_batch(graphs, "counting", registry=registry, backend="serial")
        assert calls == [4]  # later graphs were never solved
        graphs = _graphs(3, family="cycle", n=8)
        results = solve_batch(g for g in graphs)
        assert len(results) == 3
        assert [r.seed for r in results] == [0, 1, 2]

    def test_sequence_not_double_iterated(self):
        class CountingSequence:
            def __init__(self, items):
                self.items = items
                self.iterations = 0

            def __iter__(self):
                self.iterations += 1
                return iter(self.items)

            def __len__(self):
                return len(self.items)

        seq = CountingSequence(_graphs(3, family="cycle", n=8))
        solve_batch(seq)
        assert seq.iterations == 1


class TestProcessBackend:
    def test_custom_registry_rejected(self):
        registry = SolverRegistry()

        @registry.register("only", kind="exact", guarantee="exact")
        def _only(graph, **kw):  # pragma: no cover - rejected before running
            raise AssertionError

        graphs = _graphs(1, family="cycle", n=6)
        with pytest.raises(AlgorithmError, match="custom registry"):
            solve_batch(graphs, "only", registry=registry, backend="process")

    def test_custom_registry_fine_on_serial(self):
        registry = SolverRegistry()

        @registry.register("first_node", kind="exact", guarantee="exact")
        def _first_node(graph, **kw):
            from repro.api import CutResult

            node = graph.nodes[0]
            return CutResult(
                value=graph.weighted_degree(node), side=frozenset({node})
            )

        graphs = _graphs(2, family="cycle", n=6)
        results = solve_batch(
            graphs, "first_node", registry=registry, backend="serial"
        )
        assert [r.value for r in results] == [2.0, 2.0]

    def test_task_round_trips_pickle(self):
        graph = build_family("grid", 9, seed=0)
        task = SolveTask(graph=graph, solver="stoer_wagner", seed=4)
        clone = pickle.loads(pickle.dumps(task))
        direct = solve(graph, solver="stoer_wagner", seed=4)
        shipped = run_task(clone)
        assert shipped.value == direct.value
        assert shipped.side == direct.side
        assert shipped.seed == direct.seed

    def test_empty_batch(self):
        for name in ("serial", "process"):
            assert solve_batch([], backend=name) == []
