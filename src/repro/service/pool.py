"""Health-driven worker-pool membership (discovery without restarts).

Two cooperating pieces let the remote backend's workers come and go
without a static URL list:

* :class:`WorkerPool` — the *consumer* side.  Tracks which workers are
  alive right now, from two membership sources that compose freely:
  explicit ``seeds`` URLs (each probed over ``GET /healthz``) and/or a
  ``manager`` URL (any ``repro serve`` process, polled over
  ``GET /workers`` for the URLs workers have ``POST /register``-ed).
  A member leaves after ``fail_after`` consecutive failed probes and
  rejoins on the first healthy one — no restart, no config change.
  Run :meth:`refresh` synchronously, or :meth:`start` a background
  refresher and let :meth:`current` answer from the last sweep; the
  :class:`~repro.exec.remote.RemoteExecutor`'s streaming dispatch
  polls :meth:`current` mid-sweep, which is how a worker that joins
  during an active ``solve_batch`` starts receiving chunks.
* :class:`Heartbeat` — the *producer* side, run inside each worker
  (``repro serve --register MANAGER --advertise URL``).  Re-registers
  the worker's advertised URL every ``interval`` seconds — the
  manager's ``worker_ttl`` drops silent workers — and withdraws it
  (``leaving=true``) on clean shutdown.

The manager needs no dedicated process: any service instance can play
the role, since ``/register``/``/workers`` bypass the solver lock and
the backpressure gate.
"""

from __future__ import annotations

import threading
import time
from typing import Optional, Sequence

from ..errors import ConfigError, ServiceError
from .client import ServiceClient


class WorkerPool:
    """Live membership over health probes and/or a registration manager.

    Thread-safe; all state transitions happen under one lock and
    :meth:`members`/:meth:`current` hand out copies.
    """

    def __init__(
        self,
        seeds: Sequence[str] = (),
        *,
        manager: Optional[str] = None,
        interval: float = 1.0,
        fail_after: int = 2,
        timeout: float = 5.0,
    ) -> None:
        self.seeds = tuple(str(url).rstrip("/") for url in seeds)
        self.manager = str(manager).rstrip("/") if manager else None
        if not self.seeds and self.manager is None:
            raise ConfigError(
                "WorkerPool needs seed worker URLs and/or a manager URL"
            )
        if fail_after < 1:
            raise ConfigError(f"fail_after must be >= 1, got {fail_after}")
        self.interval = float(interval)
        self.fail_after = int(fail_after)
        self.timeout = float(timeout)
        self._lock = threading.Lock()
        self._members: list[str] = []
        self._failures: dict[str, int] = {}
        self._refreshed = False
        self._clients: dict[str, ServiceClient] = {}
        self._thread: Optional[threading.Thread] = None
        self._wake = threading.Event()

    # -- probing -------------------------------------------------------

    def _client(self, url: str) -> ServiceClient:
        client = self._clients.get(url)
        if client is None:
            client = self._clients[url] = ServiceClient(url, timeout=self.timeout)
        return client

    def _probe(self, url: str) -> bool:
        try:
            self._client(url).health()
            return True
        except ServiceError:
            return False

    def refresh(self) -> list[str]:
        """One synchronous membership sweep; returns the live members.

        Order is stable: seeds first (in the given order), then
        manager-listed workers in first-listed order.
        """
        targets = list(self.seeds)
        if self.manager is not None:
            try:
                for url in self._client(self.manager).workers():
                    url = str(url).rstrip("/")
                    if url not in targets:
                        targets.append(url)
            except ServiceError:
                # Manager unreachable: fall back to probing whoever we
                # already know about, so a manager blip does not empty
                # the pool mid-sweep.
                with self._lock:
                    for url in self._members:
                        if url not in targets:
                            targets.append(url)
        alive = {url: self._probe(url) for url in targets}
        with self._lock:
            previous = set(self._members)
            members = []
            for url in targets:
                if alive[url]:
                    self._failures[url] = 0
                    members.append(url)
                else:
                    count = self._failures.get(url, 0) + 1
                    self._failures[url] = count
                    # Grace period: an existing member survives up to
                    # fail_after-1 consecutive failed probes (one slow
                    # GC pause should not eject a worker); a newcomer
                    # must answer its first probe to get in at all.
                    if url in previous and count < self.fail_after:
                        members.append(url)
            self._members = members
            self._refreshed = True
            return list(members)

    # -- membership views ----------------------------------------------

    def members(self) -> list[str]:
        """Live members; runs the first sweep synchronously if needed."""
        with self._lock:
            if self._refreshed:
                return list(self._members)
        return self.refresh()

    def current(self) -> list[str]:
        """Last-known members without probing (cheap, mid-sweep safe)."""
        with self._lock:
            return list(self._members)

    def wait_for(self, count: int, timeout: float = 10.0) -> list[str]:
        """Block until membership converges to exactly ``count``.

        The convergence assert for tests and the CI latency-smoke:
        after killing a worker, ``wait_for(n - 1)``; after starting a
        registering one, ``wait_for(n + 1)``.
        """
        deadline = time.monotonic() + timeout
        while True:
            members = self.refresh()
            if len(members) == count:
                return members
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"worker pool did not converge to {count} member(s) "
                    f"within {timeout:g}s; have {len(members)}: {members}",
                    status=0,
                )
            time.sleep(min(max(self.interval, 0.05), 0.25))

    # -- background refresh --------------------------------------------

    def start(self) -> "WorkerPool":
        """Refresh membership every ``interval`` seconds in a daemon
        thread until :meth:`stop` (idempotent; returns ``self``)."""
        with self._lock:
            if self._thread is not None:
                return self
            self._wake.clear()
            self._thread = threading.Thread(
                target=self._run, name="repro-worker-pool", daemon=True
            )
            self._thread.start()
        return self

    def _run(self) -> None:
        try:
            while True:
                try:
                    self.refresh()
                except Exception:  # noqa: BLE001 - the refresher must survive
                    pass
                if self._wake.wait(self.interval):
                    return
        finally:
            # Keep-alive connections are per thread; this one is ending.
            for client in list(self._clients.values()):
                client.close()

    def stop(self) -> None:
        """Stop the background refresh, and close the probe connections
        that synchronous :meth:`refresh` calls opened on this thread."""
        with self._lock:
            thread, self._thread = self._thread, None
        if thread is not None:
            self._wake.set()
            thread.join(timeout=self.timeout + self.interval)
        for client in list(self._clients.values()):
            client.close()

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class Heartbeat:
    """Keep one worker registered with a pool manager.

    ``beat()`` once posts ``{"url": advertise}`` to the manager's
    ``/register``; :meth:`start` re-posts every ``interval`` seconds in
    a daemon thread and :meth:`stop` withdraws the registration
    (best-effort — the manager's TTL is the backstop for ungraceful
    exits).
    """

    def __init__(
        self,
        manager: str,
        advertise: str,
        *,
        interval: float = 5.0,
        timeout: float = 5.0,
    ) -> None:
        self.manager = str(manager).rstrip("/")
        self.advertise = str(advertise).rstrip("/")
        self.interval = float(interval)
        self._client = ServiceClient(self.manager, timeout=timeout)
        self._thread: Optional[threading.Thread] = None
        self._wake = threading.Event()

    def beat(self) -> bool:
        """One registration round trip; False when the manager is down."""
        try:
            self._client.register(self.advertise)
            return True
        except ServiceError:
            return False

    def start(self) -> "Heartbeat":
        if self._thread is None:
            self._wake.clear()
            self._thread = threading.Thread(
                target=self._run, name="repro-heartbeat", daemon=True
            )
            self._thread.start()
        return self

    def _run(self) -> None:
        try:
            while True:
                self.beat()
                if self._wake.wait(self.interval):
                    return
        finally:
            self._client.close()  # this thread's keep-alive connection

    def stop(self) -> None:
        thread, self._thread = self._thread, None
        if thread is not None:
            self._wake.set()
            thread.join(timeout=self.interval + 5.0)
        try:
            self._client.register(self.advertise, leaving=True)
        except ServiceError:
            pass
        finally:
            self._client.close()  # the withdrawal ran on this thread

    def __enter__(self) -> "Heartbeat":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


__all__ = ["Heartbeat", "WorkerPool"]
