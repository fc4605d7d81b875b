"""The ``remote`` backend: sharding, determinism, failover, fallbacks.

Real ``repro serve`` workers (:func:`create_server`) are spun up
in-process (the same harness the service tests use), so these tests
exercise the full HTTP path: `Engine.build_batch_tasks` → shard
slices with frozen seeds/solvers → worker-side `Engine.solve_tasks` →
reassembly.
"""

import gc
import socket
import threading
import warnings

import pytest

from repro.api import solve_all, solve_batch
from repro.api.registry import SolverRegistry
from repro.errors import AlgorithmError
from repro.exec.remote import RemoteExecutor
from repro.graphs import build_family
from repro.service import ServiceConfig, create_server


def _identity(results):
    return [
        (r.solver, r.value, tuple(sorted(r.side, key=repr)), r.seed)
        for r in results
    ]


@pytest.fixture
def workers():
    """Two live service workers; yields (urls, servers)."""
    servers = [create_server(port=0) for _ in range(2)]
    threads = [
        threading.Thread(target=server.serve_forever, daemon=True)
        for server in servers
    ]
    for thread in threads:
        thread.start()
    try:
        yield [server.url for server in servers], servers
    finally:
        for server in servers:
            try:
                server.shutdown()
                server.server_close()
            except OSError:
                pass


def _graphs(count, family="gnp", n=12):
    return [build_family(family, n, seed=s) for s in range(count)]


class TestRemoteDeterminism:
    def test_batch_identical_to_serial(self, workers):
        urls, _ = workers
        graphs = _graphs(7)
        serial = solve_batch(graphs, "stoer_wagner")
        remote = solve_batch(
            graphs, "stoer_wagner", backend=RemoteExecutor(urls)
        )
        assert _identity(remote) == _identity(serial)
        for graph, result in zip(graphs, remote):
            assert result.matches(graph)

    def test_auto_and_randomized_solvers_identical_to_serial(self, workers):
        urls, _ = workers
        graphs = _graphs(5, family="grid", n=9)
        serial = solve_batch(graphs, "karger", seed=7, budget=16)
        remote = solve_batch(
            graphs, "karger", seed=7, budget=16, backend=RemoteExecutor(urls)
        )
        assert _identity(remote) == _identity(serial)
        auto_serial = solve_batch(graphs)
        auto_remote = solve_batch(graphs, backend=RemoteExecutor(urls))
        assert _identity(auto_remote) == _identity(auto_serial)

    def test_solve_all_fan_out_identical_to_serial(self, workers):
        urls, _ = workers
        graph = build_family("gnp", 12, seed=3)
        serial = solve_all(graph, epsilon=0.5, seed=2)
        remote = solve_all(
            graph, epsilon=0.5, seed=2, backend=RemoteExecutor(urls)
        )
        assert _identity(remote) == _identity(serial)

    def test_single_worker_pool_works(self, workers):
        urls, _ = workers
        graphs = _graphs(4)
        remote = solve_batch(
            graphs, "stoer_wagner", backend=RemoteExecutor(urls[:1])
        )
        assert _identity(remote) == _identity(
            solve_batch(graphs, "stoer_wagner")
        )

    def test_config_section_configures_the_pool(self, workers):
        from repro.api import Engine
        from repro.config import EngineConfig, RemoteConfig, ReproConfig

        urls, _ = workers
        engine = Engine.from_config(
            ReproConfig(
                engine=EngineConfig(backend="remote"),
                remote=RemoteConfig(workers=tuple(urls)),
            )
        )
        graphs = _graphs(4)
        remote = engine.solve_batch(graphs, "stoer_wagner")
        assert engine.backend.last_plan["workers"] == 2
        assert _identity(remote) == _identity(
            solve_batch(graphs, "stoer_wagner")
        )

    def test_sweep_closes_its_connections(self, workers):
        # Each streaming dispatcher thread holds a keep-alive connection
        # and ends with the sweep; it must close it, not leave the
        # socket to the garbage collector (an unclosed-socket warning).
        urls, _ = workers
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            solve_batch(_graphs(4), "stoer_wagner", backend=RemoteExecutor(urls))
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestRemoteFailover:
    def test_worker_killed_before_sweep(self, workers):
        urls, servers = workers
        serial = solve_batch(_graphs(6), "stoer_wagner")
        servers[1].shutdown()
        servers[1].server_close()
        remote = solve_batch(
            _graphs(6), "stoer_wagner", backend=RemoteExecutor(urls)
        )
        assert _identity(remote) == _identity(serial)

    def test_worker_dies_mid_sweep(self, workers):
        # A "worker" that accepts the connection and slams it shut is
        # the observable shape of a worker dying mid-batch: the client
        # sees a dropped connection (status 0) and must fail the shard
        # over to the survivor.
        urls, _ = workers
        killer = socket.socket()
        killer.bind(("127.0.0.1", 0))
        killer.listen(8)
        dying_url = f"http://127.0.0.1:{killer.getsockname()[1]}"
        accepted = []

        def slam():
            try:
                while True:
                    conn, _addr = killer.accept()
                    accepted.append(1)
                    conn.close()  # mid-request hangup
            except OSError:
                pass

        thread = threading.Thread(target=slam, daemon=True)
        thread.start()
        try:
            graphs = _graphs(6)
            serial = solve_batch(graphs, "stoer_wagner")
            remote = solve_batch(
                graphs,
                "stoer_wagner",
                backend=RemoteExecutor([dying_url, urls[0]]),
            )
            assert _identity(remote) == _identity(serial)
            assert accepted  # the dying worker really was contacted
        finally:
            killer.close()

    def test_all_workers_dead_raises(self):
        executor = RemoteExecutor(
            ["http://127.0.0.1:9", "http://127.0.0.1:10"], timeout=2.0
        )
        with pytest.raises(AlgorithmError, match="every worker failed"):
            solve_batch(_graphs(2), "stoer_wagner", backend=executor)

    def test_exhausted_shard_captures_failures_per_task(self):
        # The executor contract: run_tasks never raises mid-map — a
        # shard that exhausts every worker records a captured
        # AlgorithmError per task, so sibling shards' completed results
        # survive for the caller to cache before re-raising.
        from repro.api import Engine

        executor = RemoteExecutor(["http://127.0.0.1:9"], timeout=2.0)
        tasks = Engine().build_batch_tasks(_graphs(3), solver="stoer_wagner")
        outcomes = executor.run_tasks(tasks)
        assert len(outcomes) == 3
        assert all(isinstance(o, AlgorithmError) for o in outcomes)
        assert all("every worker failed" in str(o) for o in outcomes)

    def test_no_workers_configured_raises(self):
        with pytest.raises(AlgorithmError, match="worker URLs"):
            solve_batch(_graphs(2), "stoer_wagner", backend="remote")

    def test_custom_registry_rejected(self):
        registry = SolverRegistry()

        @registry.register("only", kind="exact", guarantee="exact")
        def _only(graph, **kw):  # pragma: no cover - rejected before running
            raise AssertionError

        with pytest.raises(AlgorithmError, match="custom registry"):
            solve_batch(
                _graphs(1),
                "only",
                registry=registry,
                backend=RemoteExecutor(["http://127.0.0.1:9"]),
            )


class TestCostPlanning:
    """Cost-packed shards stay bit-identical to striped and serial runs."""

    def _skewed_graphs(self):
        # Mixed sizes give strongly skewed per-task costs under the
        # registry's hand-fit models (cost ~ poly(n, m)).
        return [
            build_family("gnp", 24 if i % 3 == 0 else 10, seed=i)
            for i in range(7)
        ]

    def test_cost_and_stripe_plans_identical_to_serial(self, workers):
        urls, _ = workers
        graphs = self._skewed_graphs()
        serial = solve_batch(graphs, "stoer_wagner")
        cost_exec = RemoteExecutor(urls)
        # A uniform cost function asks for the historic round-robin stripe.
        stripe_exec = RemoteExecutor(urls, cost_fn=lambda task: 1.0)
        assert _identity(
            solve_batch(graphs, "stoer_wagner", backend=cost_exec)
        ) == _identity(serial)
        assert _identity(
            solve_batch(graphs, "stoer_wagner", backend=stripe_exec)
        ) == _identity(serial)
        assert cost_exec.last_plan["plan"] == "cost"
        assert stripe_exec.last_plan["loads"] == [4.0, 3.0]  # 7 tasks, i % 2
        # The engine attached its registry cost function, so the cost
        # plan saw non-uniform predictions and isolated the heavy tasks.
        assert len(set(cost_exec.last_plan["loads"])) > 1

    def test_plan_keyword_is_gone(self):
        # A stripe is a uniform cost function, not a separate mode.
        with pytest.raises(TypeError, match="plan"):
            RemoteExecutor(["http://127.0.0.1:9"], plan="stripe")

    def test_last_plan_records_prediction_and_actuals(self, workers):
        urls, _ = workers
        graphs = self._skewed_graphs()
        executor = RemoteExecutor(urls)
        solve_batch(graphs, "stoer_wagner", backend=executor)
        plan = executor.last_plan
        assert plan["tasks"] == len(graphs)
        assert plan["bins"] == len(plan["actual_loads"]) == 2
        assert sum(plan["sizes"]) == len(graphs)
        assert plan["workers"] == 2
        assert plan["makespan"] >= plan["lower_bound"] > 0
        assert plan["actual_makespan"] >= max(plan["actual_loads"]) - 1e-9

    def test_cost_plan_survives_worker_kill(self, workers):
        urls, servers = workers
        graphs = self._skewed_graphs()
        serial = solve_batch(graphs, "stoer_wagner")
        servers[0].shutdown()
        servers[0].server_close()
        executor = RemoteExecutor(urls)
        remote = solve_batch(graphs, "stoer_wagner", backend=executor)
        assert _identity(remote) == _identity(serial)

    def test_explicit_cost_fn_wins_over_engine(self, workers):
        urls, _ = workers
        graphs = self._skewed_graphs()
        serial = solve_batch(graphs, "stoer_wagner")
        executor = RemoteExecutor(urls, cost_fn=lambda task: 1.0)
        remote = solve_batch(graphs, "stoer_wagner", backend=executor)
        assert _identity(remote) == _identity(serial)
        # The explicit uniform cost function won over the engine's
        # skewed registry predictions: every task cost exactly 1.0 and
        # the layout degenerated to the 4/3 stripe.
        assert executor.last_plan["plan"] == "cost"
        assert sorted(executor.last_plan["loads"], reverse=True) == [4.0, 3.0]

    def test_process_backend_packs_chunks_by_cost(self):
        from repro.exec.backends import ProcessExecutor

        graphs = self._skewed_graphs()
        serial = solve_batch(graphs, "stoer_wagner")
        executor = ProcessExecutor(max_workers=2)
        packed = solve_batch(graphs, "stoer_wagner", backend=executor)
        assert _identity(packed) == _identity(serial)
        plan = executor.last_plan
        assert plan is not None
        assert sum(plan["sizes"]) == len(graphs)
        assert len(set(plan["loads"])) > 1  # engine cost fn was attached


class TestRemoteFallbacks:
    def test_shard_over_max_batch_recovers_per_task(self):
        # A worker with --max-batch 1 rejects every multi-task shard
        # with 413; the executor must degrade to per-task POSTs and
        # still return the full, correctly ordered batch.
        server = create_server(port=0, config=ServiceConfig(max_batch=1))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            graphs = _graphs(4)
            serial = solve_batch(graphs, "stoer_wagner")
            remote = solve_batch(
                graphs, "stoer_wagner", backend=RemoteExecutor([server.url])
            )
            assert _identity(remote) == _identity(serial)
        finally:
            server.shutdown()
            server.server_close()

    def test_max_shard_chunks_requests_under_the_limit(self):
        server = create_server(port=0, config=ServiceConfig(max_batch=2))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            graphs = _graphs(5)
            remote = solve_batch(
                graphs,
                "stoer_wagner",
                backend=RemoteExecutor([server.url], max_shard=2),
            )
            assert _identity(remote) == _identity(
                solve_batch(graphs, "stoer_wagner")
            )
            # Every request stayed under the worker's limit: no error
            # was counted (the 413 path bumps the error counter).
            assert server.service.counters["errors"] == 0
        finally:
            server.shutdown()
            server.server_close()

    def test_workers_refuse_distribution_backends_per_request(self, workers):
        # A request must not be able to turn a worker into a shard
        # router (or a client of itself): the per-request backend knob
        # is whitelisted to local executors, structured 400 otherwise.
        from repro.errors import ServiceError
        from repro.service import ServiceClient

        urls, _ = workers
        client = ServiceClient(urls[0], timeout=10.0)
        try:
            with pytest.raises(ServiceError, match="backend") as info:
                client.solve_batch(
                    _graphs(2), "stoer_wagner", backend="remote"
                )
        finally:
            client.close()
        assert info.value.status == 400

    def test_solver_failure_named_by_graph_index(self, workers):
        urls, _ = workers
        graphs = _graphs(3, family="cycle", n=8)
        # An unknown option detonates inside the solver adapter on the
        # worker; the executor captures it per task and the engine
        # raises the first failure in task order, naming the graph.
        with pytest.raises(AlgorithmError, match=r"graph #0.*stoer_wagner"):
            solve_batch(
                graphs,
                "stoer_wagner",
                backend=RemoteExecutor(urls),
                bogus=1,
            )


class _StubClient:
    """A worker stub that answers every chunk in process.

    Each answer takes a few milliseconds (an ``Event`` wait, not
    ``time.sleep``), so the sweep is still in flight when its caller
    starts waiting for it.
    """

    def __init__(self, url, fault=None):
        self.base_url = url
        self.fault = fault

    def solve_tasks(self, tasks):
        threading.Event().wait(0.005)
        if self.fault is not None:
            raise self.fault
        return [("solved", task.seed) for task in tasks]

    def close(self):
        pass


class TestSignalledCompletion:
    URLS = ["http://stub-a", "http://stub-b"]

    def _executor(self, monkeypatch, fault=None):
        executor = RemoteExecutor(self.URLS)
        clients = {url: _StubClient(url, fault) for url in self.URLS}
        monkeypatch.setattr(executor, "_client", clients.__getitem__)
        return executor

    def _tasks(self, count=8):
        from repro.api import Engine

        return Engine().build_batch_tasks(_graphs(count), solver="stoer_wagner")

    def test_completion_is_not_polled(self, monkeypatch):
        # The sweep learns it is done from the dispatchers' notifies:
        # no fixed-interval sleep runs between the last result and the
        # return.
        executor = self._executor(monkeypatch)
        tasks = self._tasks()

        def no_sleep(_seconds):
            raise AssertionError("sweep completion was polled with sleep")

        monkeypatch.setattr("repro.exec.remote.time.sleep", no_sleep)
        outcomes = executor._run_stream(tasks, self.URLS, None)
        assert outcomes == [("solved", task.seed) for task in tasks]
        plan = executor.last_plan
        assert plan["workers"] == 2
        assert plan["dead"] == []

    def test_unexpected_fault_fails_over_instead_of_hanging(self, monkeypatch):
        # A fault that is not a ServiceError still releases the chunk:
        # every worker ends up dead and each task a captured failure.
        executor = self._executor(monkeypatch, fault=RuntimeError("stub fault"))
        tasks = self._tasks(4)
        box = []
        runner = threading.Thread(
            target=lambda: box.append(executor.run_tasks(tasks)), daemon=True
        )
        runner.start()
        runner.join(timeout=30)
        assert not runner.is_alive(), "the sweep hung on a dispatcher fault"
        (outcomes,) = box
        assert all(isinstance(o, AlgorithmError) for o in outcomes)
        assert all("stub fault" in str(o) for o in outcomes)
        assert executor.last_plan["dead"] == sorted(self.URLS)
