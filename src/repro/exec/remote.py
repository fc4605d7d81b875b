"""The ``remote`` backend: sharded fan-out over ``repro serve`` workers.

This is the ROADMAP's "sharded/distributed execution" item made
concrete: a fourth :class:`~repro.exec.backends.Executor` that ships
:class:`~repro.exec.task.SolveTask` batches to a pool of service
workers (:mod:`repro.service`) instead of local processes.
The shape is exactly the seam PR 4 recorded — "a shard router is a
``ServiceClient`` pool behind the same dispatch contract":

* **Sharding** — tasks are packed into one bin per worker by the
  shared LPT planner (:func:`repro.exec.plan.pack_tasks`) using the
  attached cost function, so predicted work — not task count — is what
  balances; without a cost function the pack degenerates *exactly* to
  the historic round-robin stripe (task ``i`` homes on worker
  ``i % W``); ``cost_fn=lambda task: 1.0`` asks for that stripe
  explicitly.
* **Streaming dispatch** — each bin is split into a queue of chunks
  and every worker gets its own dispatcher thread: post a chunk (one
  HTTP ``/solve_batch`` carrying the tasks' frozen per-task seeds and
  resolved solver names), consume the result, take the next chunk.  A dispatcher that drains its own
  queue *steals the tail chunk of the most-loaded sibling* — which is
  exactly the LPT planner re-packing a straggler's remainder mid-sweep
  — so batch latency tracks max-of-shards instead of sum-of-stragglers
  (one slow worker ends up holding one chunk, not its whole bin).
  When a :class:`~repro.service.pool.WorkerPool` is attached, workers
  that join mid-sweep get dispatcher threads of their own and start
  stealing immediately; workers that die fall out (below).
* **Determinism** — because every task's seed and solver were frozen
  before dispatch, the workers run the identical
  :func:`repro.exec.task.run_task` path the serial backend runs, and
  results are re-assembled in input order — so ``backend="remote"`` is
  bit-identical (solver, value, partition, seed) to ``"serial"`` on
  the same inputs, regardless of pool size, stealing, or which worker
  served which chunk.
* **Failover** — a worker that refuses connections or dies mid-batch
  is marked dead for the sweep; its in-flight chunk goes back on the
  steal queue and survivors (or mid-sweep joiners) drain it.  Work
  that exhausts every worker records a captured failure per task —
  the executor contract — so sibling shards' completed results
  survive (and get cached) before the caller raises.  Deterministic tasks make retries safe: re-running a chunk
  elsewhere cannot change its results.
* **Backpressure** — a worker answering the service's structured 429
  (queue full) is backed off for its advertised ``retry_after`` and
  retried, bounded by ``backoff_limit`` seconds; past that the chunk
  fails over like a connectivity failure (the worker is alive but has
  no capacity for us).
* **Per-task fallback** — a chunk rejected wholesale with a non-429
  4xx (over the worker's ``--max-batch`` limit, or a task that fails
  inside a solver, which the batch endpoint reports as one structured
  error) is retried task by task over ``POST /solve``, so one
  poisoned task degrades that task — not its chunk — and over-limit
  chunks still complete.  Per-task solver failures come back as
  captured :class:`~repro.errors.AlgorithmError` outcomes, matching
  the executor contract.

Workers are plain ``python -m repro serve`` processes.  Membership, in
precedence order: an explicit ``pool``
(:class:`~repro.service.pool.WorkerPool` — health-driven, discovers
``/register``-ed workers via a manager), explicit ``workers`` URLs, or
the ``[remote]`` section of a config file
(:meth:`RemoteExecutor.from_config`)::

    from repro.api import solve_batch
    from repro.exec.remote import RemoteExecutor
    from repro.service import WorkerPool

    pool = RemoteExecutor(["http://127.0.0.1:8101", "http://127.0.0.1:8102"])
    results = solve_batch(graphs, backend=pool)

    # health-driven membership: workers join/leave without restarts
    discovered = RemoteExecutor(
        pool=WorkerPool(manager="http://127.0.0.1:8100").start()
    )

Custom registries cannot cross the wire (same restriction as the
process backend): workers resolve solver names through their own
default registry.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from pathlib import Path
from typing import Optional, Sequence

from ..config import RemoteConfig, check_field
from ..errors import AlgorithmError, ServiceError
from .backends import Executor
from .plan import pack_tasks
from .task import SolveTask

#: Streaming dispatch splits each worker's bin into about this many
#: chunks: enough steal granularity that a straggler's remainder can be
#: re-packed mid-sweep, few enough that per-request overhead stays
#: negligible next to solver work.
_STREAM_SPLIT = 4

#: With a :class:`~repro.service.pool.WorkerPool` attached, the sweep's
#: monitor re-reads membership at least this often (seconds) to admit
#: mid-sweep joiners; completion itself is signalled, never polled.
_POOL_TICK = 0.02


class RemoteExecutor(Executor):
    """Fan ``SolveTask`` batches out across a pool of service workers.

    Parameters
    ----------
    workers:
        Base URLs of running ``repro serve`` processes.  ``None`` defers
        to the attached ``pool`` at :meth:`run_tasks` time (so
        ``resolve_backend("remote")`` can construct the executor before
        the pool is known).
    timeout:
        Per-request timeout in seconds, forwarded to every
        :class:`~repro.service.client.ServiceClient`.  ``timeout`` and
        ``max_shard`` are checked as their :class:`~repro.config.RemoteConfig`
        fields are (:class:`~repro.errors.ConfigError` otherwise).
    max_shard:
        Optional ceiling on tasks per HTTP request.  A worker's shard is
        sub-chunked to this size, keeping requests under the workers'
        ``--max-batch`` limit up front (over-limit requests still
        recover via the per-task fallback, just more slowly).
    cost_fn:
        Optional explicit ``cost_fn(task) -> float`` packing shards by
        predicted cost.  Normally left unset: the engine attaches its
        registry cost models before dispatch.  A uniform cost
        (``lambda task: 1.0``) gives the historic round-robin stripe.
    pool:
        Optional :class:`~repro.service.pool.WorkerPool` for
        health-driven membership; mid-sweep joiners are picked up by
        the streaming dispatch.  Mutually composable with ``workers``
        being ``None``.
    backoff_limit:
        Total seconds to spend backing off on a worker's 429s before
        treating it as having no capacity and failing the chunk over.
    """

    name = "remote"

    def __init__(
        self,
        workers: Optional[Sequence[str]] = None,
        *,
        timeout: float = 300.0,
        max_shard: Optional[int] = None,
        cost_fn=None,
        pool=None,
        backoff_limit: float = 30.0,
    ) -> None:
        self.workers = [str(url).rstrip("/") for url in workers] if workers else None
        self.timeout = check_field(RemoteConfig, "timeout", timeout)
        self.max_shard = check_field(RemoteConfig, "max_shard", max_shard)
        self.cost_fn = cost_fn
        self.pool = pool
        self.backoff_limit = float(backoff_limit)
        self.last_plan: Optional[dict] = None
        self._client_cache: dict[str, object] = {}
        self._client_lock = threading.Lock()

    @classmethod
    def from_config(cls, config=None) -> "RemoteExecutor":
        """Build an executor from the schema's ``[remote]`` section.

        ``config`` may be a :class:`~repro.config.RemoteConfig`, a full
        :class:`~repro.config.ReproConfig`, a config-file path, or
        ``None`` (load via ``$REPRO_CONFIG``/defaults).  A configured
        ``manager`` URL becomes a started
        :class:`~repro.service.pool.WorkerPool`, so membership is
        health-driven from the first sweep.
        """
        from ..config import ReproConfig, load_config

        if config is None or isinstance(config, (str, Path)):
            config = load_config(config)
        if isinstance(config, ReproConfig):
            config = config.remote
        pool = None
        if config.manager:
            from ..service.pool import WorkerPool

            pool = WorkerPool(
                config.workers,
                manager=config.manager,
                interval=config.health_interval,
                timeout=min(config.timeout, 10.0),
            ).start()
        return cls(
            config.workers or None if pool is None else None,
            timeout=config.timeout,
            max_shard=config.max_shard,
            pool=pool,
        )

    # -- pool plumbing ---------------------------------------------------

    def _client(self, url: str):
        """One cached keep-alive client per worker URL (reused across
        sweeps, so repeat requests skip connection setup)."""
        from ..service.client import ServiceClient

        with self._client_lock:
            client = self._client_cache.get(url)
            if client is None:
                client = ServiceClient(url, timeout=self.timeout)
                self._client_cache[url] = client
            return client

    def _membership(self) -> list[str]:
        if self.pool is not None:
            urls = self.pool.members()
            if not urls:
                raise AlgorithmError(
                    "the remote backend's worker pool has no live members; "
                    "check the worker URLs / the pool manager"
                )
            return urls
        if self.workers:
            return list(self.workers)
        raise AlgorithmError(
            "the remote backend needs worker URLs: pass "
            "RemoteExecutor([...]) or configure [remote] workers/manager "
            "in a config file (repro --config)"
        )

    # -- the Executor contract -------------------------------------------

    def run_tasks(
        self,
        tasks: Sequence[SolveTask],
        registry=None,
        keep_going: bool = False,
    ) -> list:
        from ..api.registry import DEFAULT_REGISTRY

        if registry is not None and registry is not DEFAULT_REGISTRY:
            raise AlgorithmError(
                "the remote backend cannot ship a custom registry to service "
                "workers; use backend='serial' instead"
            )
        if not tasks:
            return []
        return self._run_stream(tasks, self._membership(), self.cost_fn)

    # -- streaming dispatch (max-of-shards latency) ----------------------

    def _run_stream(self, tasks, urls, cost_fn) -> list:
        """Chunked per-worker queues + mid-sweep work stealing.

        One dispatcher thread per worker keeps exactly one chunk in
        flight on it (workers serialise solver work anyway, so deeper
        pipelining buys nothing); a dispatcher whose own queue drains
        steals the *tail* chunk of the most-loaded sibling — the chunk
        its home worker would otherwise reach last.  A worker dying
        mid-chunk puts the chunk back on the steal queue; a worker
        joining mid-sweep (via the attached pool) gets a dispatcher and
        steals its way in.  Results land by original task position, so
        the outcome list is bit-identical to a serial run no matter who
        solved what.

        Completion is signalled, not polled: every chunk finished,
        every worker death and every dispatcher exit notifies the one
        dispatch condition, and the calling thread, blocked on it,
        returns as soon as nothing is in flight and every queue is
        drained.  Only a pool attachment adds a timed wake-up (every
        ``_POOL_TICK`` seconds) to look for joiners.
        """
        chunk_cost = cost_fn if cost_fn is not None else (lambda _task: 1.0)
        # Dispatch state is keyed by URL, so a duplicated worker URL
        # would silently shadow its first bin; one dispatcher per
        # distinct worker is also all a duplicate could buy.
        urls = list(dict.fromkeys(urls))
        bins = min(len(urls), len(tasks))
        pack = pack_tasks(tasks, bins, cost_fn)
        queues: dict[str, deque] = {}
        total_chunks = 0
        for home, indices in enumerate(pack.assignments):
            shard = [(i, tasks[i]) for i in indices]
            size = max(1, -(-len(shard) // _STREAM_SPLIT))
            if self.max_shard is not None:
                size = min(size, self.max_shard)
            chunks = deque(
                shard[lo: lo + size] for lo in range(0, len(shard), size)
            )
            queues[urls[home]] = chunks
            total_chunks += len(chunks)

        outcomes: list = [None] * len(tasks)
        cond = threading.Condition()
        # Shared mutable dispatch state, all guarded by ``cond``:
        state = {
            "inflight": 0,
            "running": 0,  # dispatcher threads not yet exited
            "stolen": 0,
            "stranded": deque(),  # chunks whose worker died mid-flight
            "dead": {},  # url -> failure message
        }
        busy: dict[str, float] = {url: 0.0 for url in queues}
        joined: list[str] = []
        threads: dict[str, threading.Thread] = {}

        def _remaining_load(url: str) -> float:
            return sum(
                chunk_cost(task)
                for chunk in queues.get(url, ())
                for _pos, task in chunk
            )

        def _all_drained() -> bool:
            return (
                not state["stranded"]
                and all(not q for q in queues.values())
            )

        def _next_chunk(url: str):
            """Own queue first, then orphaned work, then steal a tail."""
            with cond:
                while True:
                    if url in state["dead"]:
                        return None
                    own = queues.get(url)
                    if own:
                        state["inflight"] += 1
                        return own.popleft()
                    if state["stranded"]:
                        state["inflight"] += 1
                        state["stolen"] += 1
                        return state["stranded"].popleft()
                    victim = max(
                        (u for u in queues if u != url and queues[u]),
                        key=_remaining_load,
                        default=None,
                    )
                    if victim is not None:
                        state["inflight"] += 1
                        state["stolen"] += 1
                        return queues[victim].pop()
                    if state["inflight"] == 0:
                        return None  # every chunk placed and finished
                    # In-flight work may still fail back onto the steal
                    # queue; its completion or failure notifies.
                    cond.wait()

        def _dispatcher(url: str) -> None:
            client = self._client(url)
            try:
                while True:
                    chunk = _next_chunk(url)
                    if chunk is None:
                        return
                    started = time.perf_counter()
                    try:
                        self._shard_on_worker(client, chunk, outcomes)
                    except Exception as exc:  # noqa: BLE001
                        # A ServiceError is the worker failing; anything
                        # else is a fault that must fail the chunk over
                        # rather than strand it and hang the sweep.
                        with cond:
                            state["dead"][url] = f"{client.base_url}: {exc}"
                            state["inflight"] -= 1
                            state["stranded"].appendleft(chunk)
                            cond.notify_all()
                        busy[url] += time.perf_counter() - started
                        return
                    with cond:
                        state["inflight"] -= 1
                        cond.notify_all()
                    busy[url] += time.perf_counter() - started
            finally:
                # Keep-alive connections are per thread, and this thread
                # ends with the sweep: close its connection rather than
                # leave the socket to the garbage collector.
                client.close()
                with cond:
                    state["running"] -= 1
                    cond.notify_all()

        def _spawn(url: str) -> None:
            """Start ``url``'s dispatcher; the caller holds ``cond``."""
            busy.setdefault(url, 0.0)
            queues.setdefault(url, deque())
            thread = threading.Thread(
                target=_dispatcher, args=(url,),
                name=f"repro-stream-{len(threads)}", daemon=True,
            )
            threads[url] = thread
            state["running"] += 1
            thread.start()

        # The monitor: wait for completion, admit mid-sweep joiners from
        # the pool, and bound the all-workers-dead case.  Everything it
        # waits for notifies ``cond``; only joiners need a timed wake-up.
        stranded_since: Optional[float] = None
        grace = max(3.0, 3 * getattr(self.pool, "interval", 1.0))
        tick = None if self.pool is None else _POOL_TICK
        with cond:
            for url in list(queues):
                _spawn(url)
            while state["inflight"] or not _all_drained():
                if self.pool is not None:
                    for url in self.pool.current():
                        if url not in threads and url not in state["dead"]:
                            joined.append(url)
                            _spawn(url)
                if state["running"] == 0:
                    # Work remains but every dispatcher is gone: without
                    # a pool nobody can join, so the leftovers are
                    # failures; with one, give a joiner a grace window.
                    if self.pool is None:
                        break
                    now = time.monotonic()
                    if stranded_since is None:
                        stranded_since = now
                    elif now - stranded_since > grace:
                        break
                else:
                    stranded_since = None
                cond.wait(tick)
        for thread in threads.values():
            thread.join()

        # Anything still unplaced exhausted (or never had) a live
        # worker: captured per-task failures, the executor contract.
        failures = list(state["dead"].values())
        leftovers = list(state["stranded"])
        for queue in queues.values():
            leftovers.extend(queue)
            queue.clear()
        state["stranded"].clear()
        for chunk in leftovers:
            error = AlgorithmError(
                f"remote backend: every worker failed for a shard of "
                f"{len(chunk)} task(s); " + "; ".join(failures)
            )
            for position, _task in chunk:
                if outcomes[position] is None:
                    outcomes[position] = error

        summary = pack.summary()
        summary["plan"] = "stripe" if cost_fn is None else "cost"
        summary["workers"] = len(threads)
        summary["chunks"] = total_chunks
        summary["stolen"] = state["stolen"]
        summary["joined"] = joined
        summary["dead"] = sorted(state["dead"])
        loads = [busy[url] for url in urls if url in busy]
        loads += [busy[url] for url in joined]
        summary["actual_loads"] = [round(s, 6) for s in loads]
        summary["actual_makespan"] = round(max(loads, default=0.0), 6)
        self.last_plan = summary
        return outcomes

    # -- one chunk on one worker -----------------------------------------

    def _shard_on_worker(self, client, shard, outcomes) -> None:
        """One shard on one worker: batch fast path, per-task fallback.

        Raises :class:`ServiceError` only for connectivity-class
        failures (unreachable, 5xx, throttling past ``backoff_limit``)
        — the caller's cue to fail over.  A 429 means the worker is
        saturated: honour its ``retry_after`` and try again, bounded.
        Any other 4xx answer means the worker is alive but rejected
        the request (over ``--max-batch``, or one task failed inside a
        solver and poisoned the batch response), so the shard is
        retried task by task on the same worker and solver failures
        become captured ``AlgorithmError`` outcomes per the executor
        contract.
        """
        tasks = [task for _, task in shard]
        try:
            results = self._post_throttled(lambda: client.solve_tasks(tasks))
        except ServiceError as exc:
            if not _worker_rejected(exc):
                raise
            results = None
        if results is not None:
            for (position, _task), result in zip(shard, results):
                outcomes[position] = result
            return
        for position, task in shard:
            try:
                outcomes[position] = self._post_throttled(
                    lambda task=task: client.solve_task(task)
                )
            except ServiceError as exc:
                if not _worker_rejected(exc):
                    raise
                label = task.label or f"task (solver {task.solver!r})"
                outcomes[position] = AlgorithmError(
                    f"{label} failed in solver {task.solver!r}: "
                    f"{_error_message(exc)}"
                )

    def _post_throttled(self, post):
        """Run one request, honouring 429 + ``retry_after`` backpressure.

        Total backoff is bounded by ``backoff_limit``; a worker still
        throttling past it raises the 429 to the caller, which treats
        it as connectivity-class (no capacity for us ≈ not there).
        """
        waited = 0.0
        while True:
            try:
                return post()
            except ServiceError as exc:
                if exc.status != 429 or waited >= self.backoff_limit:
                    raise
                pause = exc.retry_after if exc.retry_after else 0.2
                pause = max(0.05, min(pause, 5.0, self.backoff_limit - waited))
                time.sleep(pause)
                waited += pause


def _worker_rejected(exc: ServiceError) -> bool:
    """True when the worker is alive but rejected the request (4xx).

    429 is excluded: a saturated worker did not *reject* the work, it
    asked us to come back later — after bounded backoff it is handled
    like a connectivity failure (fail the chunk over), never like a
    poisoned task.  Everything else — unreachable (status 0), 5xx, or
    a 2xx whose body was not valid JSON (a dying or non-repro server)
    — is a worker failure, and the caller should fail the shard over
    to a survivor.
    """
    return 400 <= exc.status < 500 and exc.status != 429


def _error_message(exc: ServiceError) -> str:
    """The server-side message from a structured error body, if any."""
    if isinstance(exc.payload, dict):
        error = exc.payload.get("error")
        if isinstance(error, dict) and error.get("message"):
            return str(error["message"])
    return str(exc)


__all__ = ["RemoteExecutor"]
