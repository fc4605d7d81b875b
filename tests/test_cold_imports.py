"""Cold-start import sets: a process imports only what its command runs.

Under pytest every module is already imported, so each check runs a
fresh interpreter and reads its ``sys.modules`` at the end.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro
from repro.api import Engine
from repro.exec.cache import ResultCache
from repro.graphs import build_family
from repro.graphs.io import graph_to_json

SRC = Path(repro.__file__).resolve().parents[1]

#: Packages of the paper's pipeline and the baselines: nothing a warm
#: ``/solve`` hit touches.
PAPER_PACKAGES = (
    "core", "primitives", "fragments", "mst", "packing", "mincut",
    "baselines", "analysis", "dynamic",
)


#: Appended to every script: its ``sys.modules`` and its ``extra`` dict.
_REPORT = """
import json, sys
print(json.dumps({"modules": sorted(sys.modules), **extra}))
"""


def _modules_after(script: str, *args: str) -> dict:
    """Run ``script`` (which sets ``extra``) in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("REPRO_CONFIG", None)
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script) + _REPORT, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _in_package(module: str, package: str) -> bool:
    return module == f"repro.{package}" or module.startswith(f"repro.{package}.")


def test_warm_serve_loads_no_paper_module(tmp_path):
    graph = build_family("gnp", 20, seed=3)
    store = tmp_path / "store"
    cache = ResultCache(path=store)
    expected = Engine(cache=cache).solve(graph, "stoer_wagner")
    cache.flush()
    body = json.dumps({"graph": graph_to_json(graph), "solver": "stoer_wagner"})
    out = _modules_after(
        """
        import http.client, json, sys, threading
        from repro.config import ServeConfig
        from repro.service.server import create_server

        server = create_server(ServeConfig(port=0, cache_file=sys.argv[1]))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.url.split("//")[1].split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=30)
        conn.request("POST", "/solve", body=sys.argv[2],
                     headers={"Content-Type": "application/json"})
        reply = json.loads(conn.getresponse().read())
        conn.close()
        server.shutdown()
        server.server_close()
        extra = {"reply": reply}
        """,
        str(store), body,
    )
    result = out["reply"]["result"]
    assert result["extras"]["cache"]["hit"] is True
    assert result["value"] == expected.value
    modules = out["modules"]
    loaded = [m for m in modules if any(_in_package(m, p) for p in PAPER_PACKAGES)]
    assert loaded == []
    assert "repro.congest.network" not in modules
    assert "multiprocessing" not in modules
    assert "concurrent.futures.process" not in modules


#: What a ``repro serve`` worker runs none of: the HTTP client (with the
#: ``email`` parser it imports), ``uuid`` (with ``platform``), the worker
#: pool, the graph generators, the library façade, the batch planner and
#: the CONGEST metrics types.
SERVE_UNUSED = (
    "http.client", "email.parser", "uuid", "platform",
    "repro.service.client", "repro.service.pool",
    "repro.graphs.generators", "repro.graphs.trees", "repro.graphs.properties",
    "repro.api.facade", "repro.exec.plan", "repro.congest.metrics",
)


def test_cli_serve_loads_only_what_serving_runs(tmp_path):
    # Launched as a worker is (``repro serve --port 0 --cache-file``), and
    # spoken to over a raw socket so the script loads no HTTP client.
    graph = build_family("gnp", 20, seed=5)
    store = tmp_path / "store"
    cache = ResultCache(path=store)
    expected = Engine(cache=cache).solve(graph, "stoer_wagner")
    cache.flush()
    body = json.dumps({"graph": graph_to_json(graph), "solver": "stoer_wagner"})
    out = _modules_after(
        """
        import io, json, os, signal, socket, sys, threading
        from repro.cli import main

        class Stdout(io.StringIO):
            def write(self, text):
                if "listening on" in text:
                    url.append(text.split()[-1])
                    listening.set()
                return super().write(text)

        url, listening, answers = [], threading.Event(), []

        def recv(sock):
            data = sock.recv(65536)
            if not data:
                raise ConnectionError("the server closed the connection")
            return data

        def read_response(sock, pending):
            while b"\\r\\n\\r\\n" not in pending:
                pending += recv(sock)
            head, _, rest = bytes(pending).partition(b"\\r\\n\\r\\n")
            length = int(head.lower().split(b"content-length:")[1].split()[0])
            while len(rest) < length:
                rest += recv(sock)
            pending[:] = rest[length:]
            return head.split(b"\\r\\n")[0].decode(), json.loads(rest[:length])

        def drive():
            try:
                listening.wait(60)
                host, port = url[0].split("//")[1].rsplit(":", 1)
                body = sys.argv[2].encode()
                with socket.create_connection((host, int(port)), timeout=30) as sock:
                    pending = bytearray()
                    sock.sendall(b"GET /healthz HTTP/1.1\\r\\nHost: x\\r\\n\\r\\n")
                    answers.append(read_response(sock, pending))
                    sock.sendall(
                        b"POST /solve HTTP/1.1\\r\\nHost: x\\r\\nContent-Length: %d\\r\\n\\r\\n"
                        % len(body) + body
                    )
                    answers.append(read_response(sock, pending))
                answers.append(sorted(sys.modules))
            finally:
                os.kill(os.getpid(), signal.SIGINT)  # what stops a foreground serve

        threading.Thread(target=drive, daemon=True).start()
        sys.stdout = Stdout()
        code = main([
            "serve", "--host", "127.0.0.1", "--port", "0",
            "--cache-file", sys.argv[1], "--access-log", os.devnull,
        ])
        sys.stdout = sys.__stdout__
        extra = {"code": code, "answers": answers[:2], "served": answers[2]}
        """,
        str(store), body,
    )
    assert out["code"] == 0
    (health_line, health), (solve_line, reply) = out["answers"]
    assert health_line == solve_line == "HTTP/1.1 200 OK"
    assert health["status"] == "ok"
    result = reply["result"]
    assert result["extras"]["cache"]["hit"] is True
    assert result["value"] == expected.value
    served = out["served"]
    assert [m for m in SERVE_UNUSED if m in served] == []
    assert not [m for m in served if any(_in_package(m, p) for p in PAPER_PACKAGES)]
    # It does serve through the engine and the wire decoder.
    assert "repro.service.server" in served
    assert "repro.graphs.io" in served


def test_cli_exact_congest_loads_no_serving_module():
    out = _modules_after(
        """
        import contextlib, io
        from repro.cli import main

        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(["exact", "--family", "regular", "--n", "16", "--mode", "congest"])
        extra = {"code": code, "stdout": stdout.getvalue()}
        """
    )
    assert out["code"] == 0
    assert "minimum cut value : 4" in out["stdout"]
    modules = out["modules"]
    for package in ("service", "store", "dynamic", "analysis", "baselines"):
        assert not [m for m in modules if _in_package(m, package)], package
    assert "repro.exec.remote" not in modules
    assert "concurrent.futures.process" not in modules
    # It does run the paper's pipeline on the CONGEST simulator.
    assert "repro.mincut.exact" in modules
    assert "repro.congest.network" in modules
