"""Service layer: the façade served over JSON-per-request HTTP.

The ROADMAP's "service layer over the façade" — a stdlib-only
request/response server where batching and sharding land without
touching any solver:

* :mod:`~repro.service.protocol` — the wire format (graph payloads in
  three forms, :class:`~repro.api.result.CutResult` JSON with the
  cache's tagged extras encoding, structured error bodies);
* :mod:`~repro.service.server` — :class:`ReproService` (transport-free
  dispatch over :func:`repro.api.solve`/``solve_batch`` with **one**
  shared :class:`~repro.exec.cache.ResultCache` across connections)
  behind one transport, :class:`AsyncHTTPServer` (asyncio, keep-alive
  multiplexing, bounded dispatch pool + queue-depth backpressure);
* :mod:`~repro.service.client` — :class:`ServiceClient`, the matching
  typed client (persistent keep-alive connections per thread);
* :mod:`~repro.service.pool` — :class:`WorkerPool` (health-driven
  membership over ``/healthz`` probes and/or a ``/register`` manager)
  and :class:`Heartbeat` (the worker-side registration loop).

Run one with ``python -m repro serve`` and talk to it with
``python -m repro client`` or plain curl; see the README's
"Service layer" and "Tail latency & worker pools" sections for the
endpoint tour.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".client": ("RemoteDynamicSession", "ServiceClient"),
    ".pool": ("Heartbeat", "WorkerPool"),
    ".protocol": (
        "PROTOCOL_VERSION", "cut_result_from_json", "cut_result_to_json",
        "parse_batch_request", "parse_graph", "parse_mutate_request",
        "parse_register_request", "parse_solve_request",
    ),
    ".server": ("AsyncHTTPServer", "ReproService", "create_server"),
})
