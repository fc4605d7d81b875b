"""Worker membership + tail-latency machinery.

Covers the PR 9 service-core contracts end to end over real HTTP:

* ``POST /register`` / ``GET /workers`` (heartbeats, TTL pruning,
  withdrawal) and the :class:`WorkerPool` / :class:`Heartbeat` pair;
* queue-depth backpressure — the structured 429 envelope with
  ``retry_after`` in the body and a ``Retry-After`` header, and the
  executor's bounded backoff against it;
* streaming dispatch under membership churn: a straggler's remainder
  re-packed mid-sweep, a worker killed mid-``solve_batch``, a worker
  joining via discovery — all bit-identical to the serial backend.
"""

import http.client
import json
import threading
import time

import pytest

from repro.api import solve_batch
from repro.config import ServeConfig
from repro.errors import AlgorithmError, ConfigError, ServiceError
from repro.exec.remote import RemoteExecutor
from repro.graphs import build_family
from repro.service import (
    Heartbeat,
    ServiceClient,
    WorkerPool,
    create_server,
)
from repro.service.protocol import parse_register_request


def start_server(**config_kwargs):
    """One live async-transport server on a free port."""
    server = create_server(ServeConfig(port=0, **config_kwargs))
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server


def stop_server(server):
    try:
        server.shutdown()
        server.server_close()
    except OSError:
        pass


@pytest.fixture
def manager():
    server = start_server(worker_ttl=0.6)
    yield server
    stop_server(server)


def _identity(results):
    return [
        (r.solver, r.value, tuple(sorted(r.side, key=repr)), r.seed)
        for r in results
    ]


def _graphs(count, n=12):
    return [build_family("gnp", n, seed=s) for s in range(count)]


class TestRegistration:
    def test_register_lists_and_withdraws(self, manager):
        with ServiceClient(manager.url) as client:
            reply = client.register("http://10.0.0.1:8101/")
            assert reply["workers"] == ["http://10.0.0.1:8101"]
            client.register("http://10.0.0.2:8102")
            assert client.workers() == [
                "http://10.0.0.1:8101", "http://10.0.0.2:8102",
            ]
            client.register("http://10.0.0.1:8101", leaving=True)
            assert client.workers() == ["http://10.0.0.2:8102"]

    def test_reregistration_is_a_heartbeat_not_a_duplicate(self, manager):
        with ServiceClient(manager.url) as client:
            client.register("http://10.0.0.1:8101")
            client.register("http://10.0.0.1:8101")
            assert client.workers() == ["http://10.0.0.1:8101"]

    def test_silent_worker_expires_after_ttl(self, manager):
        with ServiceClient(manager.url) as client:
            client.register("http://10.0.0.1:8101")
            deadline = time.monotonic() + 5.0
            while client.workers() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert client.workers() == []  # worker_ttl=0.6 pruned it

    def test_health_reports_registered_worker_count(self, manager):
        with ServiceClient(manager.url) as client:
            client.register("http://10.0.0.1:8101")
            assert client.health()["workers"] == 1

    def test_register_bypasses_backpressure_gate(self):
        # queue_depth=1 with one solve in flight: /register still works.
        server = start_server(queue_depth=1, delay=0.4)
        try:
            graph = build_family("gnp", 12, seed=0)
            worker = threading.Thread(
                target=lambda: ServiceClient(server.url, keep_alive=False).solve(graph),
                daemon=True,
            )
            worker.start()
            time.sleep(0.1)
            reply = ServiceClient(server.url, keep_alive=False).register(
                "http://10.0.0.9:1"
            )
            assert "http://10.0.0.9:1" in reply["workers"]
            worker.join()
        finally:
            stop_server(server)

    @pytest.mark.parametrize(
        "body",
        [
            "not a dict",
            {},
            {"url": 7},
            {"url": ""},
            {"url": "http://x", "leaving": "yes"},
            {"url": "http://x", "extra": 1},
        ],
    )
    def test_bad_register_bodies_rejected(self, body):
        with pytest.raises(ServiceError):
            parse_register_request(body)


class TestWorkerPool:
    def test_needs_seeds_or_manager(self):
        with pytest.raises(ConfigError, match="seed worker URLs"):
            WorkerPool()

    def test_seed_probing_and_recovery(self):
        a, b = start_server(), start_server()
        pool = WorkerPool([a.url, b.url], fail_after=1)
        try:
            assert pool.members() == [a.url, b.url]
            stop_server(b)
            assert pool.wait_for(1) == [a.url]
        finally:
            pool.stop()
            stop_server(a)

    def test_fail_after_grace_keeps_flapping_member(self, monkeypatch):
        a = start_server()
        pool = WorkerPool([a.url, "http://127.0.0.1:1"], fail_after=3)
        try:
            # The dead URL was never a member, so no grace: only `a`.
            assert pool.refresh() == [a.url]
            # An existing member surviving transient probe failures:
            member_urls = [a.url]
            pool._members = list(member_urls) + ["http://127.0.0.1:1"]
            pool._failures["http://127.0.0.1:1"] = 0
            assert pool.refresh() == member_urls + ["http://127.0.0.1:1"]
            assert pool.refresh() == member_urls + ["http://127.0.0.1:1"]
            assert pool.refresh() == member_urls  # third strike ejects
        finally:
            pool.stop()
            stop_server(a)

    def test_manager_discovery_and_background_refresh(self, manager):
        worker = start_server()
        pool = WorkerPool(manager=manager.url, interval=0.05)
        try:
            assert pool.members() == []  # nobody registered yet
            with Heartbeat(manager.url, worker.url, interval=0.1):
                pool.start()
                assert pool.wait_for(1) == [worker.url]
                deadline = time.monotonic() + 5.0
                while not pool.current() and time.monotonic() < deadline:
                    time.sleep(0.02)
                assert pool.current() == [worker.url]
            # Heartbeat.stop() withdrew the registration.
            assert pool.wait_for(0) == []
        finally:
            pool.stop()
            stop_server(worker)

    def test_manager_blip_does_not_empty_pool(self, manager):
        worker = start_server()
        try:
            ServiceClient(manager.url, keep_alive=False).register(worker.url)
            pool = WorkerPool(manager=manager.url, fail_after=2)
            assert pool.members() == [worker.url]
            stop_server(manager)
            # Manager gone: fall back to probing known members directly.
            assert pool.refresh() == [worker.url]
            pool.stop()
        finally:
            stop_server(worker)

    def test_wait_for_timeout_raises(self):
        a = start_server()
        try:
            pool = WorkerPool([a.url])
            with pytest.raises(ServiceError, match="did not converge"):
                pool.wait_for(2, timeout=0.3)
            pool.stop()
        finally:
            stop_server(a)


class TestBackpressure:
    def test_429_envelope_and_retry_after_header(self):
        server = start_server(queue_depth=1, delay=0.5, retry_after=2.0)
        try:
            graph = build_family("gnp", 12, seed=0)
            hold = threading.Thread(
                target=lambda: ServiceClient(server.url, keep_alive=False).solve(graph),
                daemon=True,
            )
            hold.start()
            time.sleep(0.15)  # let the first request take the only slot
            with pytest.raises(ServiceError) as excinfo:
                ServiceClient(server.url, keep_alive=False).solve(graph)
            exc = excinfo.value
            assert exc.status == 429
            assert exc.retry_after == 2.0
            assert "queue is full" in str(exc)
            error = exc.payload["error"]
            assert error["status"] == 429
            assert error["retry_after"] == 2.0

            # The raw HTTP response carries a Retry-After header.
            host, port = server.server_address[:2]
            conn = http.client.HTTPConnection(host, port, timeout=10.0)
            body = json.dumps(
                {"graph": {"edges": [[0, 1, 1.0]]}}
            ).encode()
            conn.request(
                "POST", "/solve", body,
                {"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            response.read()
            assert response.status == 429
            assert response.getheader("Retry-After") == "2"
            conn.close()
            hold.join()
        finally:
            stop_server(server)

    def test_throttled_counter_and_health_passthrough(self):
        server = start_server(queue_depth=1, delay=0.4)
        try:
            graph = build_family("gnp", 12, seed=0)
            hold = threading.Thread(
                target=lambda: ServiceClient(server.url, keep_alive=False).solve(graph),
                daemon=True,
            )
            hold.start()
            time.sleep(0.1)
            with pytest.raises(ServiceError):
                ServiceClient(server.url, keep_alive=False).solve(graph)
            # /healthz bypasses the gate even while the queue is full.
            health = ServiceClient(server.url, keep_alive=False).health()
            assert health["requests"]["throttled"] == 1
            hold.join()
        finally:
            stop_server(server)

    def test_executor_backs_off_and_completes(self):
        """429s from a contended worker delay the sweep, never fail it."""
        server = start_server(queue_depth=1, delay=0.03, retry_after=0.05)
        try:
            graphs = _graphs(6)
            serial = solve_batch(graphs, "stoer_wagner")
            stop = threading.Event()

            def contend():
                # Fresh graphs: a repeated one would be an ungated hit.
                seeds = iter(range(99, 10_000))
                with ServiceClient(server.url) as client:
                    while not stop.is_set():
                        try:
                            client.solve(
                                build_family("gnp", 20, seed=next(seeds)),
                                "stoer_wagner",
                            )
                        except ServiceError:
                            time.sleep(0.01)

            contender = threading.Thread(target=contend, daemon=True)
            contender.start()
            try:
                executor = RemoteExecutor([server.url])
                remote = solve_batch(
                    graphs, "stoer_wagner", backend=executor
                )
            finally:
                stop.set()
                contender.join()
            assert _identity(remote) == _identity(serial)
            with ServiceClient(server.url, keep_alive=False) as client:
                assert client.health()["requests"]["throttled"] >= 1
        finally:
            stop_server(server)

    def test_duplicate_worker_urls_deduped_in_stream(self):
        server = start_server()
        try:
            graphs = _graphs(5)
            serial = solve_batch(graphs, "stoer_wagner")
            executor = RemoteExecutor([server.url, server.url])
            remote = solve_batch(graphs, "stoer_wagner", backend=executor)
            assert _identity(remote) == _identity(serial)
            assert executor.last_plan["workers"] == 1
        finally:
            stop_server(server)

    def test_backoff_gives_up_past_limit(self):
        calls = []

        def always_throttled():
            calls.append(time.monotonic())
            raise ServiceError("queue is full", status=429, retry_after=0.05)

        executor = RemoteExecutor(["http://unused:1"], backoff_limit=0.2)
        with pytest.raises(ServiceError) as excinfo:
            executor._post_throttled(always_throttled)
        assert excinfo.value.status == 429
        assert len(calls) >= 3  # retried several times before giving up


class TestHitPath:
    """A warm ``/solve`` is answered on the event loop, never behind a solve."""

    def test_hit_is_answered_while_a_miss_holds_the_solve_lock(self):
        server = start_server(delay=1.5)
        try:
            warm = build_family("gnp", 20, seed=1)
            server.service.engine.solve(warm)  # cached without the delay
            finished = []

            def miss():
                with ServiceClient(server.url, keep_alive=False) as client:
                    client.solve(build_family("gnp", 20, seed=2))
                finished.append(time.monotonic())

            holder = threading.Thread(target=miss, daemon=True)
            holder.start()
            deadline = time.monotonic() + 10.0
            while not server.service._solve_lock.locked():
                assert time.monotonic() < deadline, "the miss never took the lock"
                time.sleep(0.005)
            started = time.monotonic()
            with ServiceClient(server.url, keep_alive=False) as client:
                result = client.solve(warm)
            answered = time.monotonic()
            assert result.extras["cache"]["hit"] is True
            assert not finished  # the miss is still sleeping in its solve
            assert answered - started < 1.0
            holder.join(timeout=30)
            assert finished and finished[0] > answered
        finally:
            stop_server(server)

    def test_a_duplicate_miss_reads_the_result_solved_while_it_waited(self):
        server = start_server(delay=0.5)
        try:
            graph = build_family("gnp", 20, seed=4)
            results = []

            def cold():
                with ServiceClient(server.url, keep_alive=False) as client:
                    results.append(client.solve(graph))

            first = threading.Thread(target=cold, daemon=True)
            first.start()
            deadline = time.monotonic() + 10.0
            while not server.service._solve_lock.locked():
                assert time.monotonic() < deadline, "the miss never took the lock"
                time.sleep(0.005)
            second = threading.Thread(target=cold, daemon=True)
            second.start()  # probes a miss, then waits for the lock
            first.join(timeout=30)
            second.join(timeout=30)
            assert sorted(r.extras["cache"]["hit"] for r in results) == [False, True]
            assert results[0].value == results[1].value
            with ServiceClient(server.url, keep_alive=False) as client:
                cache = client.health()["cache"]
            assert (cache["hits"], cache["misses"]) == (0, 2)  # one count each
        finally:
            stop_server(server)

    def test_each_request_is_counted_once(self):
        server = start_server()
        try:
            graph = build_family("gnp", 12, seed=3)
            with ServiceClient(server.url) as client:
                cold = client.solve(graph)
                warm = client.solve(graph)
                health = client.health()
            assert cold.extras["cache"] == {"hit": False, "hits": 0, "misses": 1}
            assert warm.extras["cache"] == {"hit": True, "hits": 1, "misses": 1}
            assert health["requests"]["solve"] == 2
            assert health["requests"]["errors"] == 0
            assert (health["cache"]["hits"], health["cache"]["misses"]) == (1, 1)
        finally:
            stop_server(server)


class TestStreamingChurn:
    def test_straggler_remainder_repacked_mid_sweep(self):
        """One slow worker: survivors steal its chunks; results are
        bit-identical to serial and the plan records the theft."""
        fast = start_server()
        slow = start_server(delay=0.15)
        try:
            graphs = _graphs(12)
            serial = solve_batch(graphs, "stoer_wagner")
            executor = RemoteExecutor([fast.url, slow.url])
            remote = solve_batch(graphs, "stoer_wagner", backend=executor)
            assert _identity(remote) == _identity(serial)
            plan = executor.last_plan
            assert plan["stolen"] >= 1
            assert plan["dead"] == []
            assert plan["workers"] == 2
            assert len(plan["actual_loads"]) == plan["bins"] == 2
        finally:
            stop_server(fast)
            stop_server(slow)

    def test_worker_killed_mid_sweep_is_bit_identical(self):
        a = start_server(delay=0.02)
        b = start_server(delay=0.02)
        try:
            graphs = _graphs(14)
            serial = solve_batch(graphs, "stoer_wagner")
            executor = RemoteExecutor([a.url, b.url])
            killer = threading.Timer(0.15, lambda: stop_server(b))
            killer.start()
            remote = solve_batch(graphs, "stoer_wagner", backend=executor)
            killer.join()
            assert _identity(remote) == _identity(serial)
        finally:
            stop_server(a)

    def test_worker_joins_mid_sweep_via_discovery(self, manager):
        a = start_server(delay=0.05)
        late = start_server()
        pool = WorkerPool([a.url], manager=manager.url, interval=0.05)
        pool.start()
        try:
            graphs = _graphs(12)
            serial = solve_batch(graphs, "stoer_wagner")
            executor = RemoteExecutor(pool=pool)

            def join_later():
                time.sleep(0.2)
                ServiceClient(manager.url, keep_alive=False).register(late.url)

            threading.Thread(target=join_later, daemon=True).start()
            remote = solve_batch(graphs, "stoer_wagner", backend=executor)
            assert _identity(remote) == _identity(serial)
            # The join is best-effort timing-wise, but when it landed it
            # must be recorded (and either way results are identical).
            plan = executor.last_plan
            assert plan["joined"] in ([], [late.url])
        finally:
            pool.stop()
            stop_server(a)
            stop_server(late)

    def test_all_workers_dead_is_captured_per_task(self):
        a = start_server()
        stop_server(a)
        executor = RemoteExecutor([a.url])
        graphs = _graphs(3)
        with pytest.raises(AlgorithmError, match="every worker failed"):
            solve_batch(graphs, "stoer_wagner", backend=executor)


class TestWorkerDiscovery:
    def test_env_variable_is_ignored(self, monkeypatch, recwarn):
        # Workers come from workers=, a WorkerPool or [remote] only: the
        # retired $REPRO_REMOTE_WORKERS names a live worker here, and
        # the executor still reports that it has none.
        server = start_server()
        try:
            monkeypatch.setenv("REPRO_REMOTE_WORKERS", server.url)
            executor = RemoteExecutor()
            with pytest.raises(AlgorithmError, match="worker URLs"):
                solve_batch(_graphs(2), "stoer_wagner", backend=executor)
            assert executor.last_plan is None
            assert not [w for w in recwarn if w.category is DeprecationWarning]
        finally:
            stop_server(server)
