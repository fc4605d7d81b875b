"""Service-layer tests: protocol, transport-free dispatch, live HTTP.

Three tiers mirroring the architecture:

* protocol round trips (graph payload forms, CutResult JSON fidelity);
* ``ReproService.dispatch`` — the full request surface without sockets
  (validation 4xx bodies, limits, cache counters);
* one real asyncio server + ``ServiceClient`` exercising the
  acceptance round-trip property against direct ``repro.solve``, and
  raw sockets for the request-head framing and its bounds.
"""

import json
import select
import socket
import sys
import threading
import time

import pytest

from repro.api import default_registry, solve
from repro.config import ServeConfig
from repro.errors import ConfigError, GraphError, ServiceError
from repro.exec import ResultCache
from repro.graphs import (
    WeightedGraph,
    graph_from_json,
    graph_to_json,
    planted_cut_graph,
)
from repro.service import (
    ReproService,
    ServiceClient,
    create_server,
    cut_result_from_json,
    cut_result_to_json,
    parse_graph,
    parse_solve_request,
)


def small_graph():
    """Small, integer-weighted, within every non-heavy solver's limits."""
    return planted_cut_graph((6, 6), cut_value=2, seed=3)


def post(service, path, body):
    """Dispatch a JSON body and decode the reply."""
    blob = body if isinstance(body, bytes) else json.dumps(body).encode()
    return service.dispatch("POST", path, blob)


class TestGraphJson:
    def test_round_trip(self):
        graph = small_graph()
        again = graph_from_json(graph_to_json(graph))
        assert again.content_hash() == graph.content_hash()

    def test_isolated_nodes_survive(self):
        graph = WeightedGraph([(0, 1, 2.0)])
        graph.add_node(7)
        assert graph_from_json(graph_to_json(graph)).nodes == graph.nodes

    @pytest.mark.parametrize(
        "data",
        [
            "not a dict",
            {"edges": [[0]]},                    # arity
            {"edges": [[0, 1, 2, 3]]},           # arity
            {"edges": [[0, 1, "x"]]},            # weight type
            {"edges": [[0, 1, True]]},           # bool weight
            {"edges": [[0, 1, float("nan")]]},   # json.loads lets NaN in
            {"edges": [[0, 1, float("inf")]]},   # ... and Infinity
            {"edges": [[True, 1]]},              # bool node
            {"edges": [[0, [1], 1.0]]},          # node type
            {"edges": [], "nodes": 3},           # nodes not a list
            {"edges": [], "extra": 1},           # unknown key
        ],
    )
    def test_bad_payloads_rejected(self, data):
        with pytest.raises(GraphError):
            graph_from_json(data)

    def test_non_json_nodes_rejected_on_encode(self):
        graph = WeightedGraph([((0, 0), (0, 1), 1.0)])
        with pytest.raises(GraphError):
            graph_to_json(graph)


class TestParseGraph:
    def test_edge_list_text(self):
        graph = parse_graph("0 1 2.0\n1 2 1.0\n2 0 1.0\n")
        assert graph.number_of_edges == 3
        assert graph.weight(0, 1) == 2.0

    def test_bare_edge_array(self):
        graph = parse_graph([[0, 1, 1.0], [1, 2]])
        assert graph.weight(1, 2) == 1.0

    def test_bad_edge_list_text(self):
        with pytest.raises(GraphError):
            parse_graph("0 1\n")  # two tokens: neither node line nor edge

    def test_non_finite_edge_list_text(self):
        with pytest.raises(GraphError):
            parse_graph("0 1 nan\n")
        with pytest.raises(GraphError):
            parse_graph("0 1 inf\n")

    def test_unsupported_type(self):
        with pytest.raises(ServiceError):
            parse_graph(42)


class TestCutResultJson:
    def test_round_trip_fidelity(self):
        graph = small_graph()
        direct = solve(graph, solver="exact", seed=5)
        again = cut_result_from_json(
            json.loads(json.dumps(cut_result_to_json(direct)))
        )
        assert again == direct  # dataclass equality: every field, extras too
        assert again.matches(graph)

    def test_tuple_extras_survive(self):
        graph = small_graph()
        direct = solve(graph, solver="exact")
        assert any(
            isinstance(value, tuple) for value in direct.extras.values()
        ), "exact solver extras lost their tuples; adjust the fixture"
        again = cut_result_from_json(cut_result_to_json(direct))
        assert again.extras == direct.extras

    def test_congest_metrics_become_summary(self):
        graph = small_graph()
        direct = solve(graph, solver="exact", mode="congest")
        again = cut_result_from_json(cut_result_to_json(direct))
        assert again.metrics is None
        assert again.extras["congest"] == direct.metrics.summary()

    def test_malformed_payload(self):
        with pytest.raises(ServiceError):
            cut_result_from_json({"value": 1.0})  # missing fields


class TestParseSolveRequest:
    @pytest.mark.parametrize(
        "body,fragment",
        [
            ([], "must be a JSON object"),
            ({}, "missing the 'graph'"),
            ({"graph": [[0, 1]], "nope": 1}, "unknown solve request fields"),
            ({"graph": [[0, 1]], "solver": 3}, "'solver' must be a string"),
            ({"graph": [[0, 1]], "epsilon": "x"}, "'epsilon'"),
            ({"graph": [[0, 1]], "epsilon": float("nan")}, "'epsilon'"),
            ({"graph": [[0, 1]], "mode": "turbo"}, "'mode'"),
            ({"graph": [[0, 1]], "seed": 1.5}, "'seed'"),
            ({"graph": [[0, 1]], "seed": True}, "'seed'"),
            ({"graph": [[0, 1]], "budget": -1}, "'budget'"),
            ({"graph": [[0, 1]], "options": [1]}, "'options'"),
        ],
    )
    def test_envelope_validation(self, body, fragment):
        with pytest.raises(ServiceError) as excinfo:
            parse_solve_request(body)
        assert fragment in str(excinfo.value)


class TestDispatch:
    def test_health(self):
        service = ReproService()
        status, payload = service.dispatch("GET", "/healthz", b"")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["cache"] == {
            "hits": 0, "misses": 0, "memory_entries": 0, "disk_entries": 0,
        }
        assert payload["solvers"] == len(default_registry())

    def test_health_reports_store_counters(self, tmp_path):
        # With the cache persisted to a segment-store directory, the
        # store's segment/compaction counters ride along in /healthz.
        service = ReproService(cache=ResultCache(path=tmp_path / "store"))
        post(service, "/solve", {"graph": graph_to_json(small_graph())})
        status, payload = service.dispatch("GET", "/healthz", b"")
        assert status == 200
        cache = payload["cache"]
        assert cache["disk_entries"] == 1
        assert cache["segments"] == 1
        assert cache["live_entries"] == 1
        assert cache["compactions"] == 0
        assert cache["store_bytes"] > 0

    def test_solvers_listing(self):
        service = ReproService()
        status, payload = service.dispatch("GET", "/solvers", b"")
        assert status == 200
        names = {spec["name"] for spec in payload["solvers"]}
        assert names == set(default_registry().names())

    def test_solve_matches_direct(self):
        service = ReproService()
        graph = small_graph()
        status, payload = post(service, "/solve", {"graph": graph_to_json(graph)})
        assert status == 200
        remote = cut_result_from_json(payload["result"])
        direct = solve(graph)
        assert remote.value == direct.value
        assert remote.side == direct.side
        assert remote.solver == direct.solver

    def test_cache_hit_on_identical_requests(self):
        service = ReproService()
        body = {"graph": graph_to_json(small_graph())}
        _, first = post(service, "/solve", body)
        assert first["result"]["extras"]["cache"] == {
            "hit": False, "hits": 0, "misses": 1,
        }
        _, second = post(service, "/solve", body)
        assert second["result"]["extras"]["cache"] == {
            "hit": True, "hits": 1, "misses": 1,
        }
        health = service.dispatch("GET", "/healthz", b"")[1]
        assert health["cache"]["hits"] == 1
        assert health["requests"]["solve"] == 2

    def test_batch_with_backend(self):
        service = ReproService()
        graphs = [graph_to_json(planted_cut_graph((5, 5), 2, seed=s)) for s in (1, 2)]
        status, payload = post(
            service, "/solve_batch",
            {"graphs": graphs, "solver": "stoer_wagner", "backend": "process"},
        )
        assert status == 200
        assert [r["value"] for r in payload["results"]] == [2.0, 2.0]

    def test_batch_accepts_every_backend_the_client_offers(self):
        from repro.cli import build_parser
        from repro.config import REQUEST_BACKENDS

        parser = build_parser()
        graphs = [graph_to_json(small_graph())]
        for name in REQUEST_BACKENDS:
            args = parser.parse_args(
                ["client", "batch", "--url", "http://127.0.0.1:1", "--backend", name]
            )
            status, payload = post(
                ReproService(), "/solve_batch",
                {"graphs": graphs, "solver": "stoer_wagner", "backend": args.backend},
            )
            assert status == 200, payload
            assert payload["results"][0]["value"] == 2.0
        with pytest.raises(SystemExit):  # what the server refuses is not offered
            parser.parse_args(
                ["client", "batch", "--url", "http://127.0.0.1:1", "--backend", "remote"]
            )

    def test_hit_skips_the_queue_gate_and_the_straggler_delay(self):
        service = ReproService(config=ServeConfig(queue_depth=1, delay=5.0))
        warm = {"graph": graph_to_json(small_graph())}
        service.engine.solve(small_graph())  # warm the cache without the delay
        service._admit_slots.acquire()  # a solve holds the only slot
        try:
            started = time.monotonic()
            status, payload = post(service, "/solve", warm)
            assert time.monotonic() - started < 2.0  # no 5 s delay
            assert status == 200
            assert payload["result"]["extras"]["cache"]["hit"] is True
            cold = {"graph": graph_to_json(planted_cut_graph((5, 5), 2, seed=9))}
            status, payload = post(service, "/solve", cold)
            assert status == 429  # a miss still meets the gate
        finally:
            service._admit_slots.release()
        health = service.dispatch("GET", "/healthz", b"")[1]
        assert health["requests"]["solve"] == 2
        assert health["requests"]["throttled"] == 1
        # One miss warming the cache, the hit, and the throttled miss.
        assert (health["cache"]["hits"], health["cache"]["misses"]) == (1, 2)

    def test_probe_answers_hits_and_hands_misses_on(self):
        service = ReproService()
        body = json.dumps({"graph": graph_to_json(small_graph())}).encode()
        rest = service.probe("POST", "/solve", body)
        assert callable(rest)  # a miss: the solve stage is left to the caller
        assert service.cache.stats()["misses"] == 1
        status, first = rest()
        assert status == 200
        assert first["result"]["extras"]["cache"] == {
            "hit": False, "hits": 0, "misses": 1,
        }
        status, second = service.probe("POST", "/solve", body)  # answered
        assert status == 200
        assert second["result"]["extras"]["cache"] == {
            "hit": True, "hits": 1, "misses": 1,
        }
        assert service.probe("POST", "/solve", b"{no")[0] == 400
        assert callable(service.probe("GET", "/healthz", b""))
        assert service.counters["solve"] == 2

    def test_probe_leaves_an_over_bound_solve_body_to_the_pool(self):
        from repro.graphs import build_family
        from repro.service import server as server_module

        bound = server_module._LOOP_SOLVE_BYTES
        service = ReproService()
        # A serve-warm-sized hit (a gnp n=60 body) is answered by probe.
        warm_graph = build_family("gnp", 60, seed=1)
        service.engine.solve(warm_graph)
        warm = json.dumps({"graph": graph_to_json(warm_graph)}).encode()
        assert 4096 < len(warm) <= bound
        status, payload = service.probe("POST", "/solve", warm)
        assert status == 200
        assert payload["result"]["extras"]["cache"]["hit"] is True
        # The same hit padded past the bound is left whole to the pool:
        # probe decodes, parses and looks up nothing of it.
        graph = small_graph()
        service.engine.solve(graph)
        small = json.dumps({"graph": graph_to_json(graph)}).encode()
        status, on_loop = service.probe("POST", "/solve", small)
        assert status == 200
        big = small + b" " * bound
        before = service.cache.stats()["hits"]
        rest = service.probe("POST", "/solve", big)
        assert callable(rest)
        assert service.cache.stats()["hits"] == before
        status, off_loop = rest()
        assert status == 200
        assert off_loop["result"]["extras"]["cache"]["hit"] is True
        for field in ("value", "side", "solver", "guarantee", "seed"):
            assert off_loop["result"][field] == on_loop["result"][field]
        # An over-bound miss is solved whole by the same callable.
        cold = planted_cut_graph((5, 5), 2, seed=9)
        body = json.dumps({"graph": graph_to_json(cold)}).encode() + b" " * bound
        status, payload = service.probe("POST", "/solve", body)()
        assert status == 200
        assert payload["result"]["extras"]["cache"]["hit"] is False
        assert payload["result"]["value"] == 2
        assert service.dispatch("POST", "/solve", body)[1]["result"]["extras"][
            "cache"]["hit"] is True

    def test_batch_with_thread_backend_is_structured_400(self):
        graphs = [graph_to_json(small_graph())]
        # Named by the request: refused against the local backends.
        status, payload = post(
            ReproService(), "/solve_batch", {"graphs": graphs, "backend": "thread"}
        )
        assert status == 400
        assert payload["error"]["type"] == "ServiceError"
        assert "['process', 'serial']" in payload["error"]["message"]
        # Named as the server default: refused when the config is built.
        with pytest.raises(ConfigError, match="serve.backend must be one of"):
            ServeConfig(backend="thread")

    def error_type(self, payload):
        return payload["error"]["type"]

    def test_malformed_json_body(self):
        service = ReproService()
        status, payload = service.dispatch("POST", "/solve", b"{not json")
        assert status == 400
        assert self.error_type(payload) == "ServiceError"
        assert payload["error"]["status"] == 400

    def test_bad_edge_list_is_400(self):
        service = ReproService()
        status, payload = post(service, "/solve", {"graph": [[0, 1, "x"]]})
        assert status == 400
        assert self.error_type(payload) == "GraphError"

    def test_nan_weight_is_400_not_500(self):
        service = ReproService()
        status, payload = service.dispatch(
            "POST", "/solve", b'{"graph": [[0, 1, NaN], [1, 2, 1.0], [2, 0, 1.0]]}'
        )
        assert status == 400
        assert self.error_type(payload) == "GraphError"

    def test_batch_error_names_the_offending_graph(self):
        service = ReproService()
        status, payload = post(
            service, "/solve_batch",
            {"graphs": [[[0, 1]], [[0, 1, "x"]]]},
        )
        assert status == 400
        assert "graph #1" in payload["error"]["message"]

    def test_unknown_solver_is_400(self):
        service = ReproService()
        status, payload = post(
            service, "/solve",
            {"graph": graph_to_json(small_graph()), "solver": "nope"},
        )
        assert status == 400
        assert self.error_type(payload) == "AlgorithmError"
        assert "unknown solver" in payload["error"]["message"]

    def test_disconnected_graph_is_400(self):
        # The connectivity check follows the cache lookup, so a repeat
        # of the request must fail the same way, never hit.
        service = ReproService()
        for _ in range(2):
            status, payload = post(
                service, "/solve", {"graph": [[0, 1], [2, 3]]}
            )
            assert status == 400
            assert self.error_type(payload) == "DisconnectedGraphError"
        assert len(service.cache) == 0
        assert service.cache.hits == 0

    def test_warm_hit_builds_no_graph_index(self, monkeypatch):
        # A hit is keyed by the content hash alone: the connectivity
        # check (a GraphIndex build) runs only on a miss.
        from repro.service import server as server_module

        parsed = []

        def recording_parse(body):
            request = parse_solve_request(body)
            parsed.append(request["graph"])
            return request

        monkeypatch.setattr(server_module, "parse_solve_request", recording_parse)
        service = ReproService()
        body = {"graph": graph_to_json(small_graph()), "solver": "stoer_wagner"}
        _, first = post(service, "/solve", body)
        status, second = post(service, "/solve", body)
        assert status == 200
        assert first["result"]["extras"]["cache"]["hit"] is False
        assert second["result"]["extras"]["cache"]["hit"] is True
        assert second["result"]["value"] == first["result"]["value"]
        miss_graph, hit_graph = parsed
        assert miss_graph._index_cache is not None
        assert hit_graph._index_cache is None

    def test_over_node_limit_is_413(self):
        service = ReproService(config=ServeConfig(max_nodes=4))
        status, payload = post(
            service, "/solve", {"graph": graph_to_json(small_graph())}
        )
        assert status == 413
        assert "over this service's limit" in payload["error"]["message"]

    def test_over_batch_limit_is_413(self):
        service = ReproService(config=ServeConfig(max_batch=1))
        graphs = [graph_to_json(small_graph())] * 2
        status, payload = post(service, "/solve_batch", {"graphs": graphs})
        assert status == 413

    def test_unknown_path_and_method(self):
        service = ReproService()
        assert service.dispatch("GET", "/nope", b"")[0] == 404
        assert service.dispatch("GET", "/solve", b"")[0] == 405
        assert service.dispatch("POST", "/healthz", b"")[0] == 405

    def test_trailing_slash_and_query_string_tolerated(self):
        service = ReproService()
        assert service.dispatch("GET", "/healthz/", b"")[0] == 200
        assert service.dispatch("GET", "/healthz?verbose=1", b"")[0] == 200


@pytest.fixture(scope="module")
def live():
    """One shared server + client for the HTTP tier."""
    server = create_server(ServeConfig(port=0))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(server.url, timeout=30.0)
    client.wait_until_ready()
    yield server, client
    client.close()
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


class TestHTTP:
    def test_round_trip_property_every_non_heavy_solver(self, live):
        """The acceptance criterion: remote == direct, solver by solver."""
        _server, client = live
        graph = small_graph()
        registry = default_registry()
        specs = [
            spec
            for spec in registry.applicable(graph, include_heavy=False)
            if spec.kind in ("exact", "approx")
        ]
        assert len(specs) >= 8, "fixture graph filters out too many solvers"
        for spec in specs:
            epsilon = 0.5 if spec.kind == "approx" else None
            direct = solve(graph, solver=spec.name, epsilon=epsilon, seed=0)
            remote = client.solve(graph, solver=spec.name, epsilon=epsilon, seed=0)
            assert remote.value == direct.value, spec.name
            assert remote.side == direct.side, spec.name
            assert remote.solver == direct.solver == spec.name
            assert remote.guarantee == direct.guarantee
            assert remote.seed == direct.seed
            remote_extras = {
                key: value
                for key, value in remote.extras.items()
                if key != "cache"
            }
            assert remote_extras == direct.extras, spec.name
            assert remote.matches(graph)

    def test_batch_matches_direct_and_caches(self, live):
        _server, client = live
        graphs = [planted_cut_graph((5, 5), 2, seed=s) for s in (10, 11, 12)]
        first = client.solve_batch(graphs, solver="stoer_wagner")
        again = client.solve_batch(graphs, solver="stoer_wagner")
        assert [r.value for r in first] == [r.value for r in again] == [2.0] * 3
        assert all(r.extras["cache"]["hit"] for r in again)

    def test_error_payload_surfaces(self, live):
        _server, client = live
        with pytest.raises(ServiceError) as excinfo:
            client.solve(small_graph(), solver="nope")
        assert excinfo.value.status == 400
        assert excinfo.value.payload["error"]["type"] == "AlgorithmError"

    def test_health_and_solvers(self, live):
        _server, client = live
        health = client.health()
        assert health["status"] == "ok"
        assert health["uptime_seconds"] >= 0
        assert {spec["name"] for spec in client.solvers()} == set(
            default_registry().names()
        )

    def test_unreachable_service(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(ServiceError) as excinfo:
            client.health()
        assert excinfo.value.status == 0

    def test_edge_list_text_payload_over_http(self, live):
        _server, client = live
        result = client.solve("0 1 1.0\n1 2 1.0\n2 0 1.0\n", solver="stoer_wagner")
        assert result.value == 2.0

    def test_oversized_body_is_413_before_parsing(self):
        server = create_server(ServeConfig(port=0, max_body_bytes=1024))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with ServiceClient(server.url, timeout=10.0) as client:
                client.wait_until_ready()
                with pytest.raises(ServiceError) as excinfo:
                    client.solve([[0, 1, 1.0]] * 2000)
            assert excinfo.value.status == 413
            assert "over this service's limit" in str(excinfo.value)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_non_object_error_body_still_raises_service_error(self, live):
        # A proxy may answer a non-2xx with a JSON array/scalar body;
        # the client must still raise the typed error.
        import http.server

        class Proxyish(http.server.BaseHTTPRequestHandler):
            def do_GET(self):
                blob = b'["busy"]'
                self.send_response(503)
                self.send_header("Content-Length", str(len(blob)))
                self.end_headers()
                self.wfile.write(blob)

            def log_message(self, *args):
                pass

        server = http.server.HTTPServer(("127.0.0.1", 0), Proxyish)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            client = ServiceClient(f"http://{host}:{port}", timeout=10.0)
            with pytest.raises(ServiceError) as excinfo:
                client.health()
            assert excinfo.value.status == 503
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


def _raw_exchange(server, request: bytes) -> bytes:
    """Send raw request bytes; read until the server closes."""
    host, port = server.server_address[:2]
    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                return b"".join(chunks)
            chunks.append(data)


def _status_and_body(response: bytes):
    head, _, body = response.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


class TestRequestHead:
    """Header framing: line endings, the header cap, one head deadline."""

    def test_lf_only_request_is_served(self, live):
        server, _ = live
        response = _raw_exchange(
            server, b"GET /healthz HTTP/1.1\nHost: x\nConnection: close\n\n"
        )
        status, body = _status_and_body(response)
        assert status == 200
        assert body["status"] == "ok"

    def test_header_less_request_is_served(self, live):
        server, _ = live
        status, _ = _status_and_body(
            _raw_exchange(server, b"GET /healthz HTTP/1.0\r\n\r\n")
        )
        assert status == 200

    def test_header_cap_is_inclusive(self, live):
        server, _ = live
        lines = b"".join(b"X-Pad-%d: v\r\n" % i for i in range(99))
        request = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n" + lines
        status, _ = _status_and_body(_raw_exchange(server, request + b"\r\n"))
        assert status == 200

    def test_too_many_headers_is_structured_431(self, live):
        server, _ = live
        lines = b"".join(b"X-Pad-%d: v\r\n" % i for i in range(101))
        request = b"GET /healthz HTTP/1.1\r\n" + lines + b"\r\n"
        status, body = _status_and_body(_raw_exchange(server, request))
        assert status == 431
        assert body["error"]["status"] == 431
        assert body["error"]["type"] == "ServiceError"
        assert "header lines" in body["error"]["message"]

    @pytest.mark.parametrize("line", ["request", "header"])
    def test_over_long_line_drops_the_connection_quietly(
        self, live, line, caplog
    ):
        server, _ = live
        big = b"a" * 70_000
        request = (
            b"GET /" + big + b" HTTP/1.1\r\n\r\n"
            if line == "request"
            else b"GET /healthz HTTP/1.1\r\nX-Big: " + big + b"\r\n\r\n"
        )
        with caplog.at_level("ERROR", logger="asyncio"):
            try:
                reply = _raw_exchange(server, request)
            except ConnectionResetError:
                reply = b""  # the hang-up raced the tail of our send
            time.sleep(0.1)  # let the server's handler finish
        assert reply == b""
        assert not caplog.records

    def test_trickled_headers_past_the_deadline_drop_the_connection(
        self, monkeypatch
    ):
        # Each line arrives well inside any per-line timeout; the head
        # as a whole does not, so the server hangs up without answering.
        from repro.service import server as server_module

        monkeypatch.setattr(server_module, "_HEAD_TIMEOUT", 0.3)
        server = create_server(ServeConfig(port=0))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            with socket.create_connection((host, port), timeout=10.0) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\n")
                started = time.monotonic()
                reply = None
                for i in range(40):
                    try:
                        sock.sendall(b"X-Slow-%d: v\r\n" % i)
                    except OSError:
                        reply = b""
                        break
                    if select.select([sock], [], [], 0.1)[0]:
                        try:
                            reply = sock.recv(65536)
                        except OSError:
                            reply = b""
                        break
                elapsed = time.monotonic() - started
            assert reply == b"", "the trickled head got an answer"
            assert 0.25 <= elapsed < 3.0
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_short_body_past_the_deadline_drops_the_connection(
        self, monkeypatch
    ):
        # The head promises 100 body bytes and only one arrives: the
        # server hangs up once the body deadline passes, unanswered.
        from repro.service import server as server_module

        monkeypatch.setattr(server_module, "_BODY_TIMEOUT", 0.3)
        server = create_server(ServeConfig(port=0))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            with socket.create_connection((host, port), timeout=10.0) as sock:
                sock.sendall(
                    b"POST /solve HTTP/1.1\r\nContent-Length: 100\r\n\r\n{"
                )
                started = time.monotonic()
                readable = select.select([sock], [], [], 5.0)[0]
                try:
                    reply = sock.recv(65536) if readable else None
                except OSError:
                    reply = b""
                elapsed = time.monotonic() - started
            assert reply == b"", "the short body got an answer or was held"
            assert 0.25 <= elapsed < 3.0
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


def _serving(config: ServeConfig):
    """A started server and its thread; stop with :func:`_stop`."""
    server = create_server(config)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def _stop(server, thread) -> None:
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _read_response(sock, pending: bytearray):
    """One ``(status, headers, body)`` off ``sock``; ``pending`` carries
    bytes read past it to the next call."""
    while b"\r\n\r\n" not in pending:
        data = sock.recv(65536)
        assert data, "connection closed before a response head"
        pending += data
    head, _, rest = bytes(pending).partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers["content-length"])
    while len(rest) < length:
        data = sock.recv(65536)
        assert data, "connection closed inside a response body"
        rest += data
    pending[:] = rest[length:]
    return int(lines[0].split()[1]), headers, json.loads(rest[:length])


def _post(path: str, payload: object, *extra: bytes) -> bytes:
    body = json.dumps(payload).encode()
    head = b"POST %s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n" % (
        path.encode(), len(body)
    )
    return head + b"".join(extra) + b"\r\n" + body


_TRIANGLE = {"graph": [[0, 1, 1.0], [1, 2, 1.0], [2, 0, 1.0]], "solver": "stoer_wagner"}


#: The status line reason phrases the service has always sent: those of
#: ``http.client.responses`` (413 was renamed in Python 3.13).
_PHRASES = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Content Too Large" if sys.version_info >= (3, 13) else "Request Entity Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
}


def test_status_lines_keep_their_reason_phrases():
    # max_nodes=4 makes a 5-node /solve a 413; max_sessions=0 makes every
    # /mutate open a 429.
    server, thread = _serving(ServeConfig(port=0, max_nodes=4, max_sessions=0))
    close = b"Connection: close\r\n"
    path = [[0, 1, 1.0], [1, 2, 1.0], [2, 3, 1.0], [3, 4, 1.0]]
    requests = {
        200: b"GET /healthz HTTP/1.1\r\n" + close + b"\r\n",
        400: b"POST /solve HTTP/1.1\r\nContent-Length: 1\r\n" + close + b"\r\n{",
        404: b"GET /nope HTTP/1.1\r\n" + close + b"\r\n",
        405: b"GET /solve HTTP/1.1\r\n" + close + b"\r\n",
        413: _post("/solve", {"graph": path, "solver": "stoer_wagner"}, close),
        429: _post("/mutate", {"open": {"graph": path[:2]}}, close),
        431: b"GET /healthz HTTP/1.1\r\n"
        + b"".join(b"X-Pad-%d: v\r\n" % i for i in range(101))
        + b"\r\n",
    }
    try:
        lines = {
            status: _raw_exchange(server, request).split(b"\r\n", 1)[0]
            for status, request in requests.items()
        }
    finally:
        _stop(server, thread)
    assert lines == {
        status: b"HTTP/1.1 %d %s" % (status, phrase.encode())
        for status, phrase in _PHRASES.items()
    }


class TestConnection:
    """Keep-alive, pipelining and lifecycle of one connection."""

    def test_pipelined_requests_are_answered_in_order(self, live):
        server, _ = live
        host, port = server.server_address[:2]
        request = (
            _post("/solve", _TRIANGLE)
            + b"GET /solvers HTTP/1.1\r\nHost: x\r\n\r\n"
            + b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        with socket.create_connection((host, port), timeout=10.0) as sock:
            sock.sendall(request)  # all three in one write
            pending = bytearray()
            answers = [_read_response(sock, pending) for _ in range(3)]
            assert sock.recv(65536) == b""
        assert [status for status, _, _ in answers] == [200, 200, 200]
        assert answers[0][2]["result"]["value"] == 2.0
        assert "solvers" in answers[1][2]
        assert answers[2][2]["status"] == "ok"
        assert [h["connection"] for _, h, _ in answers] == [
            "keep-alive", "keep-alive", "close",
        ]

    def test_request_sent_one_byte_per_write_is_served(self, live):
        server, _ = live
        host, port = server.server_address[:2]
        request = _post("/solve", _TRIANGLE, b"Connection: close\r\n")
        with socket.create_connection((host, port), timeout=10.0) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for i in range(len(request)):
                sock.sendall(request[i : i + 1])
                time.sleep(0.001)  # so the server reads each byte alone
            pending = bytearray()
            status, _, body = _read_response(sock, pending)
            assert sock.recv(65536) == b""
        assert status == 200
        assert body["result"]["value"] == 2.0

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
            b"GET /healthz HTTP/1.0\r\nHost: x\r\n\r\n",
        ],
        ids=["connection-close", "http-1.0"],
    )
    def test_close_and_http10_answer_then_eof(self, live, request_bytes):
        server, _ = live
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(request_bytes)
            pending = bytearray()
            status, headers, body = _read_response(sock, pending)
            assert sock.recv(65536) == b""  # EOF, not a timeout
        assert status == 200 and body["status"] == "ok"
        assert headers["connection"] == "close"
        assert not pending

    def test_idle_keep_alive_connection_closes_after_idle_timeout(
        self, monkeypatch
    ):
        server, thread = _serving(ServeConfig(port=0))
        monkeypatch.setattr(server, "idle_timeout", 0.3)
        host, port = server.server_address[:2]
        try:
            with socket.create_connection((host, port), timeout=10.0) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                status, headers, _ = _read_response(sock, bytearray())
                assert status == 200 and headers["connection"] == "keep-alive"
                started = time.monotonic()
                readable = select.select([sock], [], [], 5.0)[0]
                try:
                    reply = sock.recv(65536) if readable else None
                except OSError:
                    reply = b""
                elapsed = time.monotonic() - started
            assert reply == b"", "the idle connection was held open"
            assert 0.25 <= elapsed < 3.0
        finally:
            _stop(server, thread)

    def test_request_behind_a_pool_dispatch_is_answered_after_it(self):
        # The batch sleeps on the pool (delay per task); the health
        # check pipelined behind it must still come second.
        server, thread = _serving(ServeConfig(port=0, delay=0.2))
        host, port = server.server_address[:2]
        batch = {"graphs": [_TRIANGLE["graph"]], "solver": "stoer_wagner"}
        request = _post("/solve_batch", batch) + (
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        try:
            with socket.create_connection((host, port), timeout=10.0) as sock:
                sock.sendall(request)
                pending = bytearray()
                first = _read_response(sock, pending)
                second = _read_response(sock, pending)
                assert sock.recv(65536) == b""
        finally:
            _stop(server, thread)
        assert first[0] == 200 and first[2]["results"][0]["value"] == 2.0
        assert second[0] == 200 and second[2]["status"] == "ok"

    def test_server_close_with_an_open_keep_alive_connection(self):
        import gc
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            server, thread = _serving(ServeConfig(port=0))
            host, port = server.server_address[:2]
            with socket.create_connection((host, port), timeout=10.0) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                status, _, _ = _read_response(sock, bytearray())
                assert status == 200
                _stop(server, thread)  # the client still holds its end open
                assert not thread.is_alive()
                assert sock.recv(65536) == b""
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
