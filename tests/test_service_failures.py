"""ServiceClient failure paths: refused, dropped, over-limit, garbage.

The client contract under test: every failure a caller can hit is a
typed :class:`~repro.errors.ServiceError` — ``status=0`` when the
worker is unreachable or drops the connection mid-exchange, the HTTP
status for structured rejections (413 over ``--max-batch``), and the
response status for 2xx bodies that are not valid JSON — never a bare
``URLError``/``HTTPException``/``ValueError`` leaking from the
transport.  The ``remote`` backend's failover logic is built on
exactly these classifications.
"""

import json
import socket
import threading

import pytest

from repro.config import ServeConfig
from repro.errors import ServiceError
from repro.graphs import build_family
from repro.service import ServiceClient, create_server


def _free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


@pytest.fixture
def stub_server():
    """A raw-socket 'server' whose per-connection behaviour is scripted.

    ``start(responder)`` launches it; the responder gets the accepted
    connection and may write bytes, close immediately, or anything a
    broken worker might do.
    """
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    sock.listen(8)
    url = f"http://127.0.0.1:{sock.getsockname()[1]}"
    threads = []

    def start(responder):
        def loop():
            try:
                while True:
                    conn, _addr = sock.accept()
                    try:
                        responder(conn)
                    finally:
                        conn.close()
            except OSError:
                pass

        thread = threading.Thread(target=loop, daemon=True)
        threads.append(thread)
        thread.start()

    yield url, start
    sock.close()


def _http_response(body: bytes, status: str = "200 OK") -> bytes:
    return (
        f"HTTP/1.1 {status}\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    ).encode() + body


def _drain_request(conn) -> None:
    conn.settimeout(2.0)
    try:
        while b"\r\n\r\n" not in conn.recv(65536):
            pass
    except (OSError, ValueError):
        pass


class TestConnectionRefused:
    def test_health_raises_status_zero(self):
        with ServiceClient(f"http://127.0.0.1:{_free_port()}", timeout=2.0) as client:
            with pytest.raises(ServiceError, match="unreachable") as info:
                client.health()
            assert info.value.status == 0

    def test_solve_raises_status_zero(self):
        with ServiceClient(f"http://127.0.0.1:{_free_port()}", timeout=2.0) as client:
            with pytest.raises(ServiceError) as info:
                client.solve(build_family("cycle", 6))
            assert info.value.status == 0


class TestDroppedMidExchange:
    def test_connection_slammed_after_accept(self, stub_server):
        url, start = stub_server
        start(lambda conn: None)  # accept, say nothing, close
        with ServiceClient(url, timeout=2.0) as client:
            with pytest.raises(ServiceError) as info:
                client.solve(build_family("cycle", 6))
            assert info.value.status == 0

    def test_connection_dropped_after_headers_read(self, stub_server):
        url, start = stub_server

        def read_then_die(conn):
            _drain_request(conn)  # looks alive, then vanishes

        start(read_then_die)
        with ServiceClient(url, timeout=2.0) as client:
            with pytest.raises(ServiceError) as info:
                client.health()
            assert info.value.status == 0


class TestOverLimit:
    def test_batch_over_max_batch_is_structured_413(self):
        server = create_server(ServeConfig(port=0, max_batch=2))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with ServiceClient(server.url, timeout=10.0) as client:
                graphs = [build_family("cycle", 6, seed=s) for s in range(3)]
                with pytest.raises(ServiceError, match="limit of 2") as info:
                    client.solve_batch(graphs, "stoer_wagner")
                assert info.value.status == 413
                assert info.value.payload["error"]["type"] == "ServiceError"
                # Under the limit still works on the same connection/client.
                results = client.solve_batch(graphs[:2], "stoer_wagner")
                assert len(results) == 2
        finally:
            server.shutdown()
            server.server_close()


class TestMalformedResponses:
    def test_garbage_2xx_body_is_a_service_error(self, stub_server):
        url, start = stub_server

        def garbage(conn):
            _drain_request(conn)
            conn.sendall(_http_response(b"<html>not json</html>"))

        start(garbage)
        with ServiceClient(url, timeout=2.0) as client:
            with pytest.raises(ServiceError, match="not valid JSON"):
                client.health()

    def test_json_with_wrong_shape_is_a_service_error(self, stub_server):
        url, start = stub_server

        def wrong_shape(conn):
            _drain_request(conn)
            conn.sendall(
                _http_response(json.dumps({"result": "not an object"}).encode())
            )

        start(wrong_shape)
        with ServiceClient(url, timeout=2.0) as client:
            with pytest.raises(ServiceError, match="result payload"):
                client.solve(build_family("cycle", 6))

    def test_non_json_4xx_body_still_raises_typed_error(self, stub_server):
        url, start = stub_server

        def html_error(conn):
            _drain_request(conn)
            conn.sendall(
                _http_response(b"<h1>Bad Gateway</h1>", status="502 Bad Gateway")
            )

        start(html_error)
        with ServiceClient(url, timeout=2.0) as client:
            with pytest.raises(ServiceError) as info:
                client.health()
            assert info.value.status == 502
