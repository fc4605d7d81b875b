"""A small typed client for the repro service (stdlib ``http.client``).

Used by the test suite, the ``python -m repro client`` CLI and the CI
service-smoke job; also the reference implementation for anyone talking
to the service from another process::

    from repro.service import ServiceClient
    from repro.graphs import planted_cut_graph

    client = ServiceClient("http://127.0.0.1:8000")
    client.wait_until_ready()
    graph = planted_cut_graph((12, 12), cut_value=3, seed=7)
    result = client.solve(graph)             # -> repro.CutResult
    assert result.matches(graph)             # witness verifies locally

Transport: one persistent keep-alive connection **per thread** (the
remote backend posts shards from many threads at once), so repeated
small requests stop paying TCP connection setup — which dominated
small-graph p99 latency under the old one-``urlopen``-per-request
transport.  A reused connection the server has since closed is retried
once on a fresh one; ``keep_alive=False`` restores the historical
connection-per-request behaviour (the P3 benchmark measures the gap).

Every non-2xx response raises :class:`~repro.errors.ServiceError` with
the HTTP status and the decoded structured error body in ``payload``
(backpressure 429s carry ``retry_after``); an unreachable service
raises it with ``status=0``.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Any, Iterable, Optional, Sequence, Union
from urllib.parse import urlsplit

from ..api.result import CutResult
from ..errors import AlgorithmError, ServiceError
from ..exec.task import SolveTask
from ..graphs.graph import WeightedGraph
from ..graphs.io import graph_to_json
from .protocol import cut_result_from_json

#: Accepted graph arguments: a live graph, edge-list text, an edge
#: array, or the JSON form — the latter three pass through verbatim.
GraphPayload = Union[WeightedGraph, str, list, dict]


def _graph_payload(graph: GraphPayload):
    if isinstance(graph, WeightedGraph):
        return graph_to_json(graph)
    return graph


class ServiceClient:
    """JSON-over-HTTP client bound to one service base URL.

    ``keep_alive=True`` (default) holds one persistent connection per
    calling thread and reuses it across requests; ``False`` opens a
    fresh connection per request, the pre-PR 9 behaviour.
    """

    def __init__(
        self, base_url: str, timeout: float = 60.0, *, keep_alive: bool = True
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.keep_alive = keep_alive
        split = urlsplit(self.base_url)
        self._scheme = split.scheme or "http"
        try:
            self._host, self._port = split.hostname, split.port
        except ValueError:
            self._host = self._port = None
        self._prefix = split.path.rstrip("/")
        self._local = threading.local()

    # -- transport -----------------------------------------------------

    def _connection(self) -> tuple:
        """This thread's live connection, or a freshly opened one.

        Returns ``(connection, fresh)``; connect-time failures raise
        the ``status=0`` "unreachable" error (the failover cue the
        remote backend keys on).
        """
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            return conn, False
        if self._host is None or self._scheme not in ("http", "https"):
            raise ServiceError(
                f"service at {self.base_url} unreachable: not a valid "
                "http(s) URL",
                status=0,
            )
        factory = (
            http.client.HTTPSConnection
            if self._scheme == "https"
            else http.client.HTTPConnection
        )
        conn = factory(self._host, self._port, timeout=self.timeout)
        try:
            conn.connect()
        except OSError as exc:
            conn.close()
            raise ServiceError(
                f"service at {self.base_url} unreachable: {exc}", status=0
            ) from None
        self._local.conn = conn
        return conn, True

    def _drop(self) -> None:
        conn = getattr(self._local, "conn", None)
        self._local.conn = None
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass

    def close(self) -> None:
        """Close the calling thread's persistent connection, if any."""
        self._drop()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _request(self, method: str, path: str, payload: Optional[dict] = None):
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if not self.keep_alive:
            headers["Connection"] = "close"
        for first_try in (True, False):
            conn, fresh = self._connection()
            try:
                conn.request(
                    method, (self._prefix + path) or "/", body=data, headers=headers
                )
                response = conn.getresponse()
                body = response.read()
                will_close = response.will_close
            except (http.client.HTTPException, OSError) as exc:
                self._drop()
                if not fresh and first_try:
                    # The server closed an idle keep-alive connection
                    # between requests; retry once on a fresh one.  A
                    # *fresh* connection dying mid-exchange is a real
                    # failure and is never retried.
                    continue
                raise ServiceError(
                    f"service at {self.base_url} dropped the connection: "
                    f"{type(exc).__name__}: {exc}",
                    status=0,
                ) from None
            break
        if will_close or not self.keep_alive:
            self._drop()
        status = response.status
        if 200 <= status < 300:
            try:
                return json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                # A 2xx with a non-JSON body is a broken (or dying,
                # or non-repro) server, not a client bug: surface it
                # as the typed error with a body snippet, so callers
                # handling ServiceError cover this path too.
                snippet = body[:120].decode("utf-8", "replace")
                raise ServiceError(
                    f"{method} {path} -> {status}: response is "
                    f"not valid JSON: {snippet!r}",
                    status=status,
                ) from None
        try:
            decoded = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            decoded = None
        if not isinstance(decoded, dict):
            # A proxy (or a non-repro server) may answer with
            # non-JSON or a JSON array/scalar; still raise the
            # typed error, with the raw body as the message.
            decoded = {"error": {"message": body.decode("utf-8", "replace")}}
        error = decoded.get("error")
        if not isinstance(error, dict):
            error = {"message": repr(error)}
        message = error.get("message", response.reason)
        retry_after = error.get("retry_after")
        if isinstance(retry_after, bool) or not isinstance(
            retry_after, (int, float)
        ):
            retry_after = None
        raise ServiceError(
            f"{method} {path} -> {status}: {message}",
            status=status,
            payload=decoded,
            retry_after=retry_after,
        )

    # -- endpoints -----------------------------------------------------

    def health(self) -> dict:
        """``GET /healthz`` — version, uptime, cache counters."""
        return self._request("GET", "/healthz")

    def solvers(self) -> list[dict]:
        """``GET /solvers`` — the registry with capability metadata."""
        return self._request("GET", "/solvers")["solvers"]

    def workers(self) -> list[str]:
        """``GET /workers`` — live registered workers (pool managers)."""
        return self._request("GET", "/workers")["workers"]

    def register(self, url: str, *, leaving: bool = False) -> dict:
        """``POST /register`` — announce (or withdraw) a worker URL.

        Doubles as the heartbeat: re-post every few seconds to stay
        listed past the manager's ``worker_ttl``.
        """
        return self._request("POST", "/register", {"url": url, "leaving": leaving})

    def solve(
        self,
        graph: GraphPayload,
        solver: str = "auto",
        *,
        epsilon: Optional[float] = None,
        mode: str = "reference",
        seed: int = 0,
        budget: Optional[int] = None,
        **options: Any,
    ) -> CutResult:
        """``POST /solve`` — remote :func:`repro.api.solve`.

        Same signature and semantics as the façade call; the returned
        :class:`CutResult` additionally carries the server cache's
        outcome under ``extras["cache"]``.
        """
        payload = {
            "graph": _graph_payload(graph),
            "solver": solver,
            "epsilon": epsilon,
            "mode": mode,
            "seed": seed,
            "budget": budget,
            "options": options,
        }
        response = self._request("POST", "/solve", payload)
        return cut_result_from_json(response["result"])

    def solve_batch(
        self,
        graphs: Iterable[GraphPayload],
        solver: str = "auto",
        *,
        epsilon: Optional[float] = None,
        mode: str = "reference",
        seed: int = 0,
        budget: Optional[int] = None,
        backend: Optional[str] = None,
        **options: Any,
    ) -> list[CutResult]:
        """``POST /solve_batch`` — remote :func:`repro.api.solve_batch`.

        ``backend`` names the *server-side* execution backend for the
        fan-out (``serial``/``thread``/``process``); ``None`` uses the
        server's configured default.
        """
        payload = {
            "graphs": [_graph_payload(graph) for graph in graphs],
            "solver": solver,
            "epsilon": epsilon,
            "mode": mode,
            "seed": seed,
            "budget": budget,
            "backend": backend,
            "options": options,
        }
        response = self._request("POST", "/solve_batch", payload)
        return [cut_result_from_json(result) for result in response["results"]]

    # -- batch-slice helpers (the remote backend's wire form) ----------

    def solve_task(self, task: SolveTask) -> CutResult:
        """``POST /solve`` one frozen :class:`SolveTask` verbatim.

        The task's seed, resolved solver name and options cross the
        wire untouched, so the worker runs the identical
        :func:`repro.exec.task.run_task` path a local backend would —
        the per-task fallback the ``remote`` backend uses when a shard
        cannot be posted wholesale.
        """
        return self.solve(
            task.graph,
            task.solver,
            epsilon=task.epsilon,
            mode=task.mode,
            seed=task.seed,
            budget=task.budget,
            **dict(task.options),
        )

    def solve_tasks(self, tasks: Sequence[SolveTask]) -> list[CutResult]:
        """``POST /solve_batch`` a slice of frozen tasks in one request.

        The tasks' per-task seeds and solver names travel as the
        protocol's ``seeds`` / ``solvers`` lists, so the worker
        reproduces each task exactly instead of re-deriving seeds as
        ``seed + index`` — a shard of a larger batch keeps its original
        frozen seeds.  Epsilon, mode, budget and options must be
        uniform across the slice (they are for any slice built from
        one façade call); mixed slices raise
        :class:`~repro.errors.AlgorithmError` before any request is
        sent.
        """
        if not tasks:
            return []
        head = tasks[0]
        shared = (head.epsilon, head.mode, head.budget, head.options)
        for task in tasks[1:]:
            if (task.epsilon, task.mode, task.budget, task.options) != shared:
                raise AlgorithmError(
                    "solve_tasks needs uniform epsilon/mode/budget/options "
                    "across the slice; split mixed task lists per knob set"
                )
        payload = {
            "graphs": [_graph_payload(task.graph) for task in tasks],
            "solvers": [task.solver for task in tasks],
            "seeds": [task.seed for task in tasks],
            "epsilon": head.epsilon,
            "mode": head.mode,
            "budget": head.budget,
            "options": dict(head.options),
        }
        response = self._request("POST", "/solve_batch", payload)
        return [cut_result_from_json(result) for result in response["results"]]

    # -- dynamic-graph sessions ----------------------------------------

    def mutate(
        self,
        *,
        session: Optional[str] = None,
        open: Optional[dict] = None,  # noqa: A002 - protocol field name
        ops: Sequence = (),
        undo: int = 0,
        solve: bool = False,
        close: bool = False,
    ) -> dict:
        """``POST /mutate`` — drive one dynamic-graph session.

        Arguments mirror the protocol envelope (see
        :func:`repro.service.protocol.parse_mutate_request`); ``ops``
        entries may be :class:`~repro.dynamic.ops.MutationOp` objects
        or raw JSON dicts.  Returns the decoded response with
        ``result`` (when ``solve=True``) upgraded to a
        :class:`CutResult`.
        """
        payload: dict = {
            "ops": [
                op if isinstance(op, dict) else op.to_json() for op in ops
            ],
            "undo": undo,
            "solve": solve,
            "close": close,
        }
        if open is not None:
            open = dict(open)
            if "graph" in open:
                open["graph"] = _graph_payload(open["graph"])
            payload["open"] = open
        if session is not None:
            payload["session"] = session
        response = self._request("POST", "/mutate", payload)
        if response.get("result") is not None:
            response["result"] = cut_result_from_json(response["result"])
        return response

    def open_session(
        self,
        graph: GraphPayload,
        solver: str = "auto",
        *,
        epsilon: Optional[float] = None,
        mode: str = "reference",
        seed: int = 0,
    ) -> "RemoteDynamicSession":
        """Open a server-side dynamic session; returns the typed handle."""
        response = self.mutate(
            open={
                "graph": graph,
                "solver": solver,
                "epsilon": epsilon,
                "mode": mode,
                "seed": seed,
            }
        )
        return RemoteDynamicSession(self, response["session"], response)

    # -- convenience ---------------------------------------------------

    def wait_until_ready(self, timeout: float = 10.0, interval: float = 0.1) -> dict:
        """Poll ``/healthz`` until the service answers (startup races).

        Returns the first healthy payload; raises
        :class:`ServiceError` when ``timeout`` elapses first.
        """
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.health()
            except ServiceError as exc:
                if exc.status != 0 or time.monotonic() >= deadline:
                    raise
            time.sleep(interval)


class RemoteDynamicSession:
    """Typed handle to one server-side dynamic-graph session.

    The remote mirror of :class:`~repro.dynamic.session.DynamicSession`:
    ``apply``/``undo`` return the server's per-op acknowledgement
    (with the resulting graph hash), ``solve`` a :class:`CutResult`
    whose ``extras`` carry certificate/cache provenance.  Batched
    round trips go through :meth:`step` (one ``/mutate`` envelope).
    """

    def __init__(
        self, client: ServiceClient, session_id: str, opened: dict
    ) -> None:
        self.client = client
        self.session_id = session_id
        self.last_response = opened
        self.closed = False

    @property
    def graph_hash(self) -> Optional[str]:
        """The server's content hash after the last round trip."""
        return self.last_response.get("graph_hash")

    def step(
        self,
        ops: Sequence = (),
        *,
        undo: int = 0,
        solve: bool = False,
        close: bool = False,
    ) -> dict:
        """One ``/mutate`` round trip (undo, then ops, then solve)."""
        response = self.client.mutate(
            session=self.session_id, ops=ops, undo=undo, solve=solve,
            close=close,
        )
        self.last_response = response
        self.closed = response.get("closed", False)
        return response

    def apply(self, op) -> dict:
        """Apply one op; returns its acknowledgement record."""
        return self.step([op])["acks"][0]

    def undo(self) -> dict:
        """Revert the most recent op; returns its acknowledgement."""
        return self.step(undo=1)["acks"][0]

    def solve(self) -> CutResult:
        """Solve the current graph (certificate/cache-served when possible)."""
        return self.step(solve=True)["result"]

    def stats(self) -> dict:
        """Server-side session counters from the last round trip."""
        return self.last_response.get("stats", {})

    def close(self) -> dict:
        """Drop the server-side session."""
        return self.step(close=True)


__all__ = ["GraphPayload", "RemoteDynamicSession", "ServiceClient"]
