"""The request/response server over the :mod:`repro.api` façade.

Architecture — three layers, separable on purpose:

* :class:`ReproService` is the transport-free core: a ``dispatch``
  method mapping ``(method, path, body bytes)`` onto
  ``(status, payload dict)``.  Its long-lived state is **one**
  :class:`~repro.api.engine.Engine` — the session object owning the
  solver registry, the shared :class:`~repro.exec.cache.ResultCache`
  consulted by every request (optionally disk-backed, optionally
  warm-started from merged cache stores) and the default batch backend
  — plus request counters and the start timestamp.  All algorithm work
  funnels through the engine (:meth:`Engine.solve` /
  :meth:`Engine.build_batch_tasks` + :meth:`Engine.solve_tasks`), so
  requests become the same :class:`~repro.exec.task.SolveTask` fan-out
  the CLI's ``sweep`` uses, on the same ``serial``/``process``
  backends — including shard slices whose per-task seeds and solvers
  arrive frozen (the ``remote`` backend's wire form).
* One transport wraps the core: :class:`AsyncHTTPServer`, an asyncio
  event loop where idle keep-alive connections cost a coroutine, not
  an OS thread, and dispatch runs on a bounded worker pool.  JSON over
  HTTP, no new dependencies, optional access-log file, lifecycle
  ``serve_forever`` / ``shutdown`` / ``server_close``.
* :mod:`repro.service.client` speaks the same protocol back.

Endpoints::

    POST /solve        one graph  -> one CutResult
    POST /solve_batch  many graphs -> many CutResults (backend knob)
    POST /mutate       dynamic-graph sessions: open/ops/undo/solve/close,
                       each op acknowledged with the resulting graph hash
    POST /register     worker-pool membership: announce/renew/withdraw a
                       worker URL (heartbeat; TTL-expired entries drop)
    GET  /workers      the live registered worker URLs
    GET  /solvers      the registry with capability + cost metadata
    GET  /healthz      version, uptime, cache hit/miss counters, sessions

Error contract: every non-2xx response is a structured JSON body
``{"error": {"type", "message", "status"}}`` where ``type`` is the
:mod:`repro.errors` class name — envelope problems are 400
(:class:`~repro.errors.ServiceError`), instances over the configured
limits are 413, a request head of more than ``_MAX_HEADERS`` header
lines is 431, unknown paths 404, wrong verbs 405, and anything a
solver raises on a validated instance is a 400 naming the library
exception (``AlgorithmError``, ``DisconnectedGraphError``, ...).
Backpressure is part of the contract too: past ``queue_depth``
concurrently queued-or-running solver requests, the service answers a
structured 429 whose body (and ``Retry-After`` header) carries the
seconds to wait — bounded memory instead of unbounded thread growth.

Concurrency model: the transport multiplexes connections, but solver
work is serialised behind one lock — CPU-bound pure-Python solvers gain
nothing from interleaving, and the shared cache's LRU bookkeeping is
not thread-safe.  Parallelism belongs to the *backend* knob (a batch
request fans out across processes) and to the pool of workers
(``/register``-discovered, consumed by the ``remote`` backend's
streaming dispatch).  ``/healthz``, ``/workers`` and ``/register``
bypass both the queue gate and the solver lock, so membership probing
keeps working while the solver path is saturated.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import math
import socket
import sys
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from ..api.engine import Engine
from ..api.registry import SolverRegistry
from ..errors import ConfigError, ReproError, ServiceError
from ..exec.cache import ResultCache
from .protocol import (
    PROTOCOL_VERSION,
    cut_result_to_json,
    error_body,
    json_default,
    parse_batch_request,
    parse_mutate_request,
    parse_register_request,
    parse_solve_request,
)


#: Backend names a *request* may select for the server-side fan-out.
#: Local executors only — see the 400 in ``_handle_batch`` for why.
_REQUEST_BACKENDS = frozenset({"serial", "process"})

#: Header lines one request head may carry before it is refused (431).
_MAX_HEADERS = 100

#: Seconds a request's header lines may take, all together, to arrive.
_HEAD_TIMEOUT = 10.0

#: Seconds a request's body may take to arrive once its head is read.
_BODY_TIMEOUT = 30.0


def _retry_after_header(payload: object) -> Optional[str]:
    """``Retry-After`` delta-seconds for a backpressure body, if any."""
    error = payload.get("error") if isinstance(payload, dict) else None
    if isinstance(error, dict):
        value = error.get("retry_after")
        if not isinstance(value, bool) and isinstance(value, (int, float)):
            return str(max(0, math.ceil(value)))
    return None


@dataclass(frozen=True)
class ServiceConfig:
    """Operator-facing limits and defaults for one service process.

    ``max_nodes`` / ``max_batch`` bound a single request's instance size
    and batch length (over-limit requests get a structured 413 instead
    of tying up the solver lock); ``max_body_bytes`` bounds the raw
    request body and is enforced from the ``Content-Length`` header
    *before* any byte is read or parsed, so an oversized POST cannot
    make a handler thread buffer it first.  ``max_sessions`` bounds the
    number of concurrently open ``/mutate`` dynamic-graph sessions
    (each pins a live graph + index in server memory); opening one more
    answers 429 until a session is closed.  ``backend`` is the default
    execution backend for ``/solve_batch`` when the request does not
    name one (``None`` defers to ``$REPRO_BACKEND`` / serial); its
    chunks are packed by the registry's cost models.

    ``queue_depth`` bounds solver-path requests concurrently queued or
    running: one more gets a structured 429 telling the client to come
    back in ``retry_after`` seconds (``None`` disables the gate).
    ``worker_ttl`` is how long a ``/register``-ed worker stays listed
    without a fresh heartbeat.  ``delay`` injects that many seconds of
    sleep per task solved — the straggler-worker knob the P3 benchmark
    and the CI latency-smoke use; leave it 0 in production.
    """

    max_nodes: Optional[int] = 4096
    max_batch: Optional[int] = 256
    max_body_bytes: Optional[int] = 32 * 1024 * 1024
    max_sessions: Optional[int] = 32
    backend: Optional[str] = None
    queue_depth: Optional[int] = 32
    retry_after: float = 1.0
    worker_ttl: float = 15.0
    delay: float = 0.0


class ReproService:
    """Transport-free request handling over one :class:`Engine`.

    ``warm_start`` paths are merged into the engine's cache before the
    first request is served — the deployment story for sharded sweeps:
    merge the workers' ``--cache-file`` tiers (``python -m repro cache
    merge``) and hand the result to the next fleet so it starts warm.
    """

    def __init__(
        self,
        registry: Optional[SolverRegistry] = None,
        cache: Optional[ResultCache] = None,
        config: Optional[ServiceConfig] = None,
        warm_start: tuple = (),
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.engine = Engine(
            registry=registry,
            cache=cache if cache is not None else ResultCache(),
            backend=self.config.backend,
        )
        self.warm_start_adopted = (
            self.engine.warm_start(*warm_start) if warm_start else 0
        )
        self.started = time.time()
        self.counters = {
            "solve": 0, "solve_batch": 0, "mutate": 0, "register": 0,
            "errors": 0, "throttled": 0,
        }
        #: Open dynamic-graph sessions by id; guarded by the solve lock
        #: (session state and the shared cache are not thread-safe).
        self.sessions: dict[str, object] = {}
        #: Registered worker URLs -> last heartbeat (monotonic seconds);
        #: guarded by the stats lock, pruned lazily against worker_ttl.
        self.workers_seen: dict[str, float] = {}
        self._solve_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        depth = self.config.queue_depth
        if depth is not None and depth < 1:
            raise ConfigError(f"queue_depth must be >= 1 or None, got {depth}")
        self._admit_slots = (
            threading.BoundedSemaphore(depth) if depth is not None else None
        )

    @property
    def registry(self) -> SolverRegistry:
        return self.engine.registry

    @property
    def cache(self) -> ResultCache:
        return self.engine.cache

    # -- dispatch ------------------------------------------------------

    def dispatch(self, method: str, path: str, body: bytes) -> tuple[int, dict]:
        """Route one request; never raises — errors become 4xx/5xx bodies."""
        path = path.split("?", 1)[0].rstrip("/") or "/"
        routes = {
            "/healthz": ("GET", self._handle_health),
            "/solvers": ("GET", self._handle_solvers),
            "/workers": ("GET", self._handle_workers),
            "/solve": ("POST", self._handle_solve),
            "/solve_batch": ("POST", self._handle_batch),
            "/mutate": ("POST", self._handle_mutate),
            "/register": ("POST", self._handle_register),
        }
        try:
            if path not in routes:
                raise ServiceError(f"unknown path {path!r}", status=404)
            expected, handler = routes[path]
            if method != expected:
                raise ServiceError(
                    f"{path} expects {expected}, got {method}", status=405
                )
            payload = self._decode_body(body) if expected == "POST" else None
            return 200, handler(payload)
        except ServiceError as exc:
            return self._error(exc, exc.status)
        except ReproError as exc:
            # A library-raised condition on an otherwise well-formed
            # request (disconnected graph, unknown solver, solver
            # precondition): the client's fault, structurally reported.
            return self._error(exc, 400)
        except Exception as exc:  # noqa: BLE001 - the server must answer
            return self._error(exc, 500)

    def _decode_body(self, body: bytes) -> object:
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise ServiceError("request body is not valid JSON") from None

    def _error(self, exc: Exception, status: int) -> tuple[int, dict]:
        with self._stats_lock:
            self.counters["errors"] += 1
        return status, error_body(exc, status)

    def _count(self, endpoint: str) -> None:
        with self._stats_lock:
            self.counters[endpoint] += 1

    # -- backpressure --------------------------------------------------

    @contextmanager
    def _admit(self):
        """One slot on the solver path, or a structured 429.

        The gate sits *before* the solver lock: requests past
        ``queue_depth`` are bounced immediately with ``retry_after``
        seconds in the body (and the ``Retry-After`` header), instead
        of each parking a transport thread on the lock.  ``/healthz``,
        ``/workers`` and ``/register`` never pass through here, so
        health probing — the pool manager's livelihood — keeps working
        while the solver path is saturated.
        """
        slots = self._admit_slots
        if slots is None:
            yield
            return
        if not slots.acquire(blocking=False):
            with self._stats_lock:
                self.counters["throttled"] += 1
            retry_after = self.config.retry_after
            raise ServiceError(
                f"solver queue is full ({self.config.queue_depth} "
                f"request(s) queued or running); retry after "
                f"{retry_after:g}s",
                status=429,
                retry_after=retry_after,
            )
        try:
            yield
        finally:
            slots.release()

    def _straggle(self, units: int) -> None:
        """The injected-straggler knob: ``delay`` seconds per task."""
        if self.config.delay > 0:
            time.sleep(self.config.delay * units)

    # -- endpoints -----------------------------------------------------

    def _check_size(self, graph, label: str = "graph") -> None:
        limit = self.config.max_nodes
        if limit is not None and graph.number_of_nodes > limit:
            raise ServiceError(
                f"{label} has {graph.number_of_nodes} nodes, over this "
                f"service's limit of {limit}",
                status=413,
            )

    def _handle_solve(self, body: object) -> dict:
        request = parse_solve_request(body)
        graph = request["graph"]
        self._check_size(graph)
        self._count("solve")
        with self._admit(), self._solve_lock:
            self._straggle(1)
            result = self.engine.solve(
                graph,
                request["solver"],
                epsilon=request["epsilon"],
                mode=request["mode"],
                seed=request["seed"],
                budget=request["budget"],
                **request["options"],
            )
        return {"result": cut_result_to_json(result)}

    def _handle_batch(self, body: object) -> dict:
        request = parse_batch_request(body)
        graphs = request["graphs"]
        limit = self.config.max_batch
        if limit is not None and len(graphs) > limit:
            raise ServiceError(
                f"batch of {len(graphs)} graphs is over this service's "
                f"limit of {limit}",
                status=413,
            )
        for position, graph in enumerate(graphs):
            self._check_size(graph, label=f"graph #{position}")
        self._count("solve_batch")
        backend = request["backend"]
        if backend is not None and backend not in _REQUEST_BACKENDS:
            # The per-request knob selects how *this worker* fans out.
            # Distribution-class backends ("remote") are refused: a
            # request must not be able to turn a worker into an HTTP
            # client of other machines (or of itself, deadlocking on
            # the solve lock) — that topology is the operator's call,
            # via the server-side default.
            raise ServiceError(
                f"'backend' must be one of {sorted(_REQUEST_BACKENDS)} "
                f"(or null for the server default), got {backend!r}"
            )
        backend = backend or self.config.backend
        with self._admit(), self._solve_lock:
            self._straggle(len(graphs))
            # Freeze the batch into tasks, honouring the protocol's
            # per-task seed/solver overrides when a shard slice arrives,
            # then run them on the engine's backend + shared cache.
            tasks = self.engine.build_batch_tasks(
                graphs,
                solver=request["solver"],
                epsilon=request["epsilon"],
                mode=request["mode"],
                seed=request["seed"],
                budget=request["budget"],
                options=request["options"],
                seeds=request["seeds"],
                solvers=request["solvers"],
            )
            results = self.engine.solve_tasks(tasks, backend=backend)
        return {"results": [cut_result_to_json(result) for result in results]}

    def _handle_mutate(self, body: object) -> dict:
        """Dynamic-graph sessions: pod-style per-op-acknowledged mutation.

        Execution order within one request: undo, then ops, then solve,
        then close.  Each op is individually applied and acknowledged
        with the resulting graph ``content_hash``; on a mid-request
        failure the ops already acknowledged *remain applied* (the log
        is append-only — the error body says how many committed, and
        ``undo`` can rewind them).
        """
        from ..dynamic.ops import AddEdge, AddNode

        request = parse_mutate_request(body)
        self._count("mutate")
        with self._admit(), self._solve_lock:
            if request["open"] is not None:
                opened = request["open"]
                limit = self.config.max_sessions
                if limit is not None and len(self.sessions) >= limit:
                    raise ServiceError(
                        f"{len(self.sessions)} sessions already open, at "
                        f"this service's limit of {limit}; close one first",
                        status=429,
                    )
                graph = opened["graph"]
                self._check_size(graph)
                session_id = uuid.uuid4().hex[:12]
                session = self.engine.dynamic_session(
                    graph,
                    solver=opened["solver"],
                    epsilon=opened["epsilon"],
                    mode=opened["mode"],
                    seed=opened["seed"],
                    copy=False,  # the graph was parsed for this session
                )
                self.sessions[session_id] = session
            else:
                session_id = request["session"]
                session = self.sessions.get(session_id)
                if session is None:
                    raise ServiceError(
                        f"unknown session {session_id!r} (expired or never "
                        "opened)",
                        status=404,
                    )
            acks = []
            committed = 0
            try:
                for _ in range(request["undo"]):
                    acks.append(session.undo())
                    committed += 1
                node_limit = self.config.max_nodes
                for position, op in enumerate(request["ops"]):
                    if node_limit is not None and isinstance(
                        op, (AddEdge, AddNode)
                    ):
                        growth = sum(
                            1
                            for x in {getattr(op, "u", None),
                                      getattr(op, "v", None)}
                            if x is not None and x not in session.graph
                        )
                        if session.graph.number_of_nodes + growth > node_limit:
                            raise ServiceError(
                                f"op #{position} would grow the graph past "
                                f"this service's limit of {node_limit} nodes",
                                status=413,
                            )
                    acks.append(session.apply(op))
                    committed += 1
            except ServiceError as exc:
                raise ServiceError(
                    f"{exc} ({committed} earlier action(s) in this request "
                    "remain applied)",
                    status=exc.status,
                ) from exc
            except ReproError as exc:
                raise ServiceError(
                    f"{exc} ({committed} earlier action(s) in this request "
                    "remain applied)",
                    status=400,
                ) from exc
            result = None
            if request["solve"]:
                result = cut_result_to_json(session.solve())
            stats = session.stats()
            graph_hash = session.graph.content_hash()
            if request["close"]:
                del self.sessions[session_id]
        return {
            "session": session_id,
            "closed": request["close"],
            "acks": acks,
            "graph_hash": graph_hash,
            "result": result,
            "stats": stats,
        }

    # -- worker-pool membership ----------------------------------------

    def _live_workers_locked(self, now: float) -> list[str]:
        """Prune TTL-lapsed heartbeats; stats lock held by the caller."""
        ttl = self.config.worker_ttl
        expired = [
            url for url, seen in self.workers_seen.items() if now - seen > ttl
        ]
        for url in expired:
            del self.workers_seen[url]
        return list(self.workers_seen)

    def _handle_register(self, body: object) -> dict:
        request = parse_register_request(body)
        self._count("register")
        now = time.monotonic()
        with self._stats_lock:
            if request["leaving"]:
                self.workers_seen.pop(request["url"], None)
            else:
                self.workers_seen[request["url"]] = now
            workers = self._live_workers_locked(now)
        return {"workers": workers, "ttl": self.config.worker_ttl}

    def _handle_workers(self, _body: object) -> dict:
        with self._stats_lock:
            workers = self._live_workers_locked(time.monotonic())
        return {"workers": workers, "ttl": self.config.worker_ttl}

    def _handle_solvers(self, _body: object) -> dict:
        return {
            "solvers": [
                {
                    "name": spec.name,
                    "kind": spec.kind,
                    "guarantee": spec.guarantee,
                    "display": spec.display,
                    "summary": spec.summary,
                    "supports_congest": spec.supports_congest,
                    "requires_integer_weights": spec.requires_integer_weights,
                    "randomized": spec.randomized,
                    "max_nodes": spec.max_nodes,
                    "heavy": spec.heavy,
                    "cost@(100,300)": (
                        spec.cost_model(100, 300)
                        if spec.cost_model is not None
                        else None
                    ),
                }
                for spec in self.registry
            ]
        }

    def _handle_health(self, _body: object) -> dict:
        # ``cache`` carries the ResultCache counters; with a segment
        # store attached (``--cache-file`` naming a directory) the
        # store's counters — segments, live/dead records, bytes,
        # compactions — ride along in the same dict.
        from .. import __version__

        with self._stats_lock:
            counters = dict(self.counters)
            workers = self._live_workers_locked(time.monotonic())
        return {
            "status": "ok",
            "version": __version__,
            "protocol": PROTOCOL_VERSION,
            "uptime_seconds": time.time() - self.started,
            "solvers": len(self.registry),
            "sessions": len(self.sessions),
            "workers": len(workers),
            "cache": self.cache.stats(),
            "requests": counters,
        }


class AsyncHTTPServer:
    """Asyncio transport over one :class:`ReproService`.

    Lifecycle: the socket binds eagerly in the constructor so
    ``port=0`` resolves before ``serve_forever()`` runs,
    ``serve_forever()`` blocks until ``shutdown()`` is called from
    another thread, and ``server_close()`` releases the socket, the
    dispatch pool and the access log.

    Why asyncio when solver work is lock-serialised anyway: keep-alive
    clients (every :class:`~repro.service.client.ServiceClient`) hold
    their connection open between requests.  A thread-per-connection
    server would pin an OS thread for each of those idle connections;
    here one costs a parked coroutine, and actual dispatch
    work runs on a bounded :class:`~concurrent.futures.ThreadPoolExecutor`
    sized just above the service's ``queue_depth`` — so memory stays
    flat no matter how many clients connect, and the queue gate (429 +
    ``Retry-After``) is what says no, not thread exhaustion.

    Every read is bounded in time: ``idle_timeout`` seconds for the
    next request line of a keep-alive connection, then
    ``_HEAD_TIMEOUT`` seconds for all of that request's header lines
    together (a slow-header trickle is dropped, however it is paced),
    then ``_BODY_TIMEOUT`` seconds for its ``Content-Length`` body (a
    short or trickled body is dropped the same way).
    """

    def __init__(
        self,
        address: tuple[str, int],
        service: ReproService,
        access_log_path: Union[str, Path, None] = None,
        *,
        pool_workers: Optional[int] = None,
        idle_timeout: float = 60.0,
    ) -> None:
        self.service = service
        self._socket = socket.create_server(address, backlog=128)
        self._socket.setblocking(False)
        self.server_address = self._socket.getsockname()
        self.access_log = (
            open(access_log_path, "a", encoding="utf-8")
            if access_log_path is not None
            else None
        )
        if pool_workers is None:
            depth = service.config.queue_depth or 8
            # Headroom above the queue gate so /healthz + /workers still
            # get a thread while `queue_depth` solver requests sit in
            # the gate (429s themselves are answered without dispatch).
            pool_workers = max(4, min(depth + 4, 64))
        self._pool = ThreadPoolExecutor(
            max_workers=pool_workers, thread_name_prefix="repro-dispatch"
        )
        self.idle_timeout = float(idle_timeout)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._shutdown_requested = threading.Event()
        self._started = threading.Event()
        self._stopped = threading.Event()

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    # -- lifecycle -----------------------------------------------------

    def serve_forever(self, poll_interval: float = 0.5) -> None:  # noqa: ARG002
        """Run the event loop until :meth:`shutdown` (thread-safe) fires."""
        asyncio.run(self._serve())

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._started.set()
        try:
            if self._shutdown_requested.is_set():
                return  # shut down before the loop even started
            try:
                server = await asyncio.start_server(
                    self._handle_connection, sock=self._socket
                )
            except OSError:
                # ``server_close`` raced us and closed the listening
                # socket before the loop attached to it; nothing to do.
                if self._shutdown_requested.is_set():
                    return
                raise
            try:
                await self._stop_event.wait()
            finally:
                server.close()
                await server.wait_closed()
        finally:
            self._loop = None
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop ``serve_forever`` from another thread (idempotent)."""
        self._shutdown_requested.set()
        loop, stop = self._loop, self._stop_event
        if loop is not None and stop is not None:
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:
                pass  # the loop already exited between the check and the call
        if self._started.is_set():
            self._stopped.wait(timeout=10.0)

    def server_close(self) -> None:
        self._pool.shutdown(wait=False, cancel_futures=True)
        try:
            self._socket.close()
        except OSError:
            pass
        if self.access_log is not None:
            self.access_log.close()
            self.access_log = None

    # -- one connection ------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while await self._handle_one(reader, writer):
                pass
        except asyncio.CancelledError:
            pass  # loop shutting down mid-request: just drop the connection
        except (
            OSError,
            asyncio.TimeoutError,
            asyncio.IncompleteReadError,
            ValueError,  # readline's error for a line over 64 KiB
        ):
            # Peer gone, idle, head or body timed out, or an over-long line:
            # just drop the connection.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass

    async def _handle_one(self, reader, writer) -> bool:
        """Read one request, dispatch off-loop, write one response.

        Returns True to keep the connection for another request.
        """
        request_line = await asyncio.wait_for(
            reader.readline(), timeout=self.idle_timeout
        )
        if not request_line.strip():
            return False  # EOF (or a bare CRLF) between requests
        try:
            method, target, version = request_line.decode("latin-1").split()
        except ValueError:
            exc = ServiceError("malformed HTTP request line", status=400)
            await self._write_response(
                writer, 400, error_body(exc, 400), False, "<malformed>"
            )
            return False
        request_repr = f"{method} {target} {version}"
        # One deadline for the whole head: a timeout drops the connection.
        headers = await asyncio.wait_for(
            _read_headers(reader), timeout=_HEAD_TIMEOUT
        )
        if headers is None:
            # The unread rest of the head makes the connection unusable.
            exc = ServiceError(
                f"request head has more than {_MAX_HEADERS} header lines",
                status=431,
            )
            await self._write_response(
                writer, 431, error_body(exc, 431), False, request_repr
            )
            return False
        try:
            length = int(headers.get("content-length") or 0)
        except ValueError:
            length = 0
        keep = (
            version == "HTTP/1.1"
            and headers.get("connection", "").lower() != "close"
        )
        limit = self.service.config.max_body_bytes
        if limit is not None and length > limit:
            # Refuse before buffering a byte; the unread body makes the
            # connection unusable, so close it (pinned by the
            # failure-mode tests).
            exc = ServiceError(
                f"request body of {length} bytes is over this "
                f"service's limit of {limit}",
                status=413,
            )
            await self._write_response(
                writer, 413, error_body(exc, 413), False, request_repr
            )
            return False
        body = b""
        if length > 0:
            body = await asyncio.wait_for(
                reader.readexactly(length), timeout=_BODY_TIMEOUT
            )
        status, payload = await asyncio.get_running_loop().run_in_executor(
            self._pool, self.service.dispatch, method, target, body
        )
        await self._write_response(writer, status, payload, keep, request_repr)
        return keep

    async def _write_response(
        self, writer, status: int, payload: dict, keep: bool, request_repr: str
    ) -> None:
        blob = json.dumps(payload, default=json_default).encode("utf-8")
        reason = http.client.responses.get(status, "")
        head = [
            f"HTTP/1.1 {status} {reason}".rstrip(),
            "Content-Type: application/json",
            f"Content-Length: {len(blob)}",
            f"Connection: {'keep-alive' if keep else 'close'}",
        ]
        retry_after = _retry_after_header(payload)
        if retry_after is not None:
            head.append(f"Retry-After: {retry_after}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + blob)
        await writer.drain()
        self._log(writer, request_repr, status)

    def _log(self, writer, request_repr: str, status: int) -> None:
        peer = writer.get_extra_info("peername")
        host = peer[0] if peer else "-"
        stamp = time.strftime("%d/%b/%Y %H:%M:%S")
        line = '%s - - [%s] "%s" %d\n' % (host, stamp, request_repr, status)
        stream = self.access_log or sys.stderr
        try:
            stream.write(line)
            stream.flush()
        except ValueError:
            pass  # the log was closed mid-shutdown


async def _read_headers(reader) -> Optional[dict]:
    """Header lines up to the blank line (CRLF or bare LF) or EOF.

    Names are lower-cased; ``None`` once there are more than
    ``_MAX_HEADERS`` lines.
    """
    headers = {}
    for _ in range(_MAX_HEADERS + 1):
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return None


def create_server(
    host: str = "127.0.0.1",
    port: int = 8000,
    *,
    registry: Optional[SolverRegistry] = None,
    cache: Optional[ResultCache] = None,
    config: Optional[ServiceConfig] = None,
    access_log: Union[str, Path, None] = None,
    warm_start: tuple = (),
    pool_workers: Optional[int] = None,
) -> AsyncHTTPServer:
    """Build a ready-to-serve :class:`AsyncHTTPServer` (``port=0`` picks a free port).

    The caller owns the lifecycle: ``serve_forever()`` to block (or run
    it in a thread, as the tests do) and ``server_close()`` to release
    the socket and the access log.  ``warm_start`` paths are merged into
    the shared cache before the socket accepts its first request.
    """
    service = ReproService(
        registry=registry, cache=cache, config=config, warm_start=warm_start
    )
    return AsyncHTTPServer(
        (host, port), service, access_log_path=access_log,
        pool_workers=pool_workers,
    )


__all__ = [
    "AsyncHTTPServer",
    "ReproService",
    "ServiceConfig",
    "create_server",
]
