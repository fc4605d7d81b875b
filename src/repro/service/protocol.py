"""Wire format for the service layer: JSON envelopes in, JSON out.

This module is pure data plumbing — no sockets, no threads — so the
request/response shapes can be unit-tested (and reused by future
transports) without an HTTP server in sight:

* :func:`parse_graph` — accept a graph as edge-list text, a bare
  ``[[u, v, w], ...]`` edge array, or the :mod:`repro.graphs.io` JSON
  form, and return a :class:`~repro.graphs.graph.WeightedGraph`;
* :func:`parse_solve_request` / :func:`parse_batch_request` — validate
  a request envelope field by field, raising
  :class:`~repro.errors.ServiceError` (for envelope problems) or
  letting :class:`~repro.errors.GraphError` bubble (for graph payload
  problems); the server maps both onto structured 4xx bodies;
* :func:`cut_result_to_json` / :func:`cut_result_from_json` — carry a
  :class:`~repro.api.result.CutResult` across the wire faithfully.
  ``extras`` use the same tagged tuple encoding as the result cache's
  persistence tier (:func:`repro.exec.cache.encode_extras`), so
  everything the cache can persist the service can serve; CONGEST
  metrics travel as their summary dict (the per-phase objects stay
  server-side).
"""

from __future__ import annotations

import math
from typing import Any

from ..api.result import CutResult
from ..errors import ReproError, ServiceError
from ..exec.cache import decode_extras, encode_extras
from ..graphs.graph import WeightedGraph
from ..graphs.io import edge_list_from_text, graph_from_json

#: Bumped whenever the request/response shapes change incompatibly;
#: surfaced by ``GET /healthz`` so clients can check before talking.
#: Version 2 added the optional per-task ``seeds`` / ``solvers`` lists
#: on ``/solve_batch`` — the shard-slice form the ``remote`` backend
#: posts.  Version 3 added ``POST /mutate`` dynamic-graph sessions
#: (requests valid under an older version stay valid under a newer).
#: Version 4 added worker-pool membership (``POST /register``
#: heartbeats + ``GET /workers``) and the ``retry_after`` field on
#: backpressure (429) error bodies.  Version 5 dropped the
#: ``patch_budget`` field of a ``/mutate`` open (now an unknown field).
PROTOCOL_VERSION = 5

_SOLVE_FIELDS = ("graph", "solver", "epsilon", "mode", "seed", "budget", "options")
_BATCH_FIELDS = (
    "graphs", "solver", "epsilon", "mode", "seed", "budget", "options", "backend",
    "seeds", "solvers",
)
_MUTATE_FIELDS = ("session", "open", "ops", "undo", "solve", "close")
_REGISTER_FIELDS = ("url", "leaving")
_OPEN_FIELDS = ("graph", "solver", "epsilon", "mode", "seed")
_MODES = ("reference", "congest")


def parse_graph(payload: Any) -> WeightedGraph:
    """Decode one graph payload (three accepted forms).

    * ``str`` — edge-list text, the :func:`repro.graphs.io.read_edge_list`
      file format;
    * ``list`` — a bare edge array ``[[u, v, weight], ...]``;
    * ``dict`` — the full JSON form ``{"nodes": ..., "edges": ...}``.
    """
    if isinstance(payload, str):
        return edge_list_from_text(payload)
    if isinstance(payload, list):
        return graph_from_json({"edges": payload})
    if isinstance(payload, dict):
        return graph_from_json(payload)
    raise ServiceError(
        "graph payload must be edge-list text, an edge array, or a "
        f"{{'nodes', 'edges'}} object, got {type(payload).__name__}"
    )


def _require_envelope(body: Any, allowed: tuple[str, ...], what: str) -> dict:
    if not isinstance(body, dict):
        raise ServiceError(
            f"{what} request body must be a JSON object, got {type(body).__name__}"
        )
    unknown = sorted(set(body) - set(allowed))
    if unknown:
        raise ServiceError(
            f"unknown {what} request fields: {', '.join(map(repr, unknown))} "
            f"(allowed: {', '.join(allowed)})"
        )
    return body


def _parse_knobs(body: dict) -> dict:
    """Validate the solver knobs shared by ``/solve`` and ``/solve_batch``."""
    solver = body.get("solver", "auto")
    if not isinstance(solver, str):
        raise ServiceError(f"'solver' must be a string, got {solver!r}")
    epsilon = body.get("epsilon")
    if epsilon is not None and (
        isinstance(epsilon, bool)
        or not isinstance(epsilon, (int, float))
        or not math.isfinite(epsilon)  # json.loads lets NaN/Infinity through
    ):
        raise ServiceError(
            f"'epsilon' must be a finite number or null, got {epsilon!r}"
        )
    mode = body.get("mode", "reference")
    if mode not in _MODES:
        raise ServiceError(f"'mode' must be one of {_MODES}, got {mode!r}")
    seed = body.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ServiceError(f"'seed' must be an integer, got {seed!r}")
    budget = body.get("budget")
    if budget is not None and (
        isinstance(budget, bool) or not isinstance(budget, int) or budget < 0
    ):
        raise ServiceError(
            f"'budget' must be a non-negative integer or null, got {budget!r}"
        )
    options = body.get("options", {})
    if not isinstance(options, dict) or not all(
        isinstance(key, str) for key in options
    ):
        raise ServiceError(
            f"'options' must be an object with string keys, got {options!r}"
        )
    return {
        "solver": solver,
        "epsilon": None if epsilon is None else float(epsilon),
        "mode": mode,
        "seed": seed,
        "budget": budget,
        "options": options,
    }


def parse_solve_request(body: Any) -> dict:
    """Validate a ``POST /solve`` envelope → ``{"graph": ..., knobs...}``."""
    body = _require_envelope(body, _SOLVE_FIELDS, "solve")
    if "graph" not in body:
        raise ServiceError("solve request is missing the 'graph' field")
    parsed = _parse_knobs(body)
    parsed["graph"] = parse_graph(body["graph"])
    return parsed


def parse_batch_request(body: Any) -> dict:
    """Validate a ``POST /solve_batch`` envelope → ``{"graphs": [...], ...}``.

    Besides the shared knobs, a batch may carry the per-task override
    lists ``seeds`` (integers) and ``solvers`` (registry names), each
    exactly as long as ``graphs``.  They express a *shard slice*: tasks
    whose seeds/solvers were frozen elsewhere (by an
    :class:`~repro.api.engine.Engine` building the batch) and must be
    reproduced verbatim rather than re-derived as ``seed + index`` —
    the contract the ``remote`` backend's determinism rests on.
    """
    body = _require_envelope(body, _BATCH_FIELDS, "solve_batch")
    if "graphs" not in body:
        raise ServiceError("solve_batch request is missing the 'graphs' field")
    payloads = body["graphs"]
    if not isinstance(payloads, list) or not payloads:
        raise ServiceError("'graphs' must be a non-empty list of graph payloads")
    backend = body.get("backend")
    if backend is not None and not isinstance(backend, str):
        raise ServiceError(f"'backend' must be a string or null, got {backend!r}")
    seeds = body.get("seeds")
    if seeds is not None:
        if not isinstance(seeds, list) or len(seeds) != len(payloads):
            raise ServiceError(
                "'seeds' must be a list as long as 'graphs', got "
                f"{seeds!r}"
            )
        for position, seed in enumerate(seeds):
            if isinstance(seed, bool) or not isinstance(seed, int):
                raise ServiceError(
                    f"'seeds' must hold integers; entry #{position} is {seed!r}"
                )
    solvers = body.get("solvers")
    if solvers is not None:
        if not isinstance(solvers, list) or len(solvers) != len(payloads):
            raise ServiceError(
                "'solvers' must be a list as long as 'graphs', got "
                f"{solvers!r}"
            )
        for position, name in enumerate(solvers):
            if not isinstance(name, str):
                raise ServiceError(
                    f"'solvers' must hold solver names; entry #{position} "
                    f"is {name!r}"
                )
    parsed = _parse_knobs(body)
    graphs = []
    for position, payload in enumerate(payloads):
        try:
            graphs.append(parse_graph(payload))
        except ReproError as exc:
            # GraphError as much as ServiceError: in a long batch the
            # client needs to know *which* graph was malformed.
            raise ServiceError(f"graph #{position}: {exc}") from exc
    parsed["graphs"] = graphs
    parsed["backend"] = backend
    parsed["seeds"] = seeds
    parsed["solvers"] = solvers
    return parsed


def parse_mutate_request(body: Any) -> dict:
    """Validate a ``POST /mutate`` envelope (dynamic-graph sessions).

    One request drives one session through a fixed execution order —
    **undo, then ops, then solve, then close** — so a client can rewind
    and replay in a single round trip.  Fields:

    * ``open`` — open a new session: ``{"graph": payload}`` plus the
      optional knobs ``solver``/``epsilon``/``mode``/``seed``.
      Mutually exclusive with ``session``;
    * ``session`` — the id of an existing session to drive;
    * ``undo`` — number of most-recent ops to revert (default 0);
    * ``ops`` — list of mutation ops in their canonical JSON form
      (``{"op": "add_edge", "u": 0, "v": 5, "weight": 2.0}``, see
      :mod:`repro.dynamic.ops`), applied in order, each individually
      acknowledged with the resulting graph hash (pod-style);
    * ``solve`` — solve the mutated graph after the ops (default
      false); the result may be certificate-served from cache;
    * ``close`` — drop the session after this request (default false).
    """
    from ..dynamic.ops import op_from_json

    body = _require_envelope(body, _MUTATE_FIELDS, "mutate")
    session = body.get("session")
    if session is not None and not isinstance(session, str):
        raise ServiceError(f"'session' must be a string id, got {session!r}")
    open_body = body.get("open")
    if open_body is not None:
        if session is not None:
            raise ServiceError(
                "'open' and 'session' are mutually exclusive: a request "
                "either opens a new session or drives an existing one"
            )
        open_body = _require_envelope(open_body, _OPEN_FIELDS, "mutate open")
        if "graph" not in open_body:
            raise ServiceError("mutate 'open' is missing the 'graph' field")
        knobs = _parse_knobs(
            {k: v for k, v in open_body.items()
             if k in ("solver", "epsilon", "mode", "seed")}
        )
        open_body = {
            "graph": parse_graph(open_body["graph"]),
            "solver": knobs["solver"],
            "epsilon": knobs["epsilon"],
            "mode": knobs["mode"],
            "seed": knobs["seed"],
        }
    elif session is None:
        raise ServiceError(
            "mutate request needs 'open' (new session) or 'session' (id)"
        )
    raw_ops = body.get("ops", [])
    if not isinstance(raw_ops, list):
        raise ServiceError(f"'ops' must be a list, got {raw_ops!r}")
    ops = []
    for position, raw in enumerate(raw_ops):
        try:
            ops.append(op_from_json(raw))
        except ReproError as exc:
            raise ServiceError(f"op #{position}: {exc}") from exc
    undo = body.get("undo", 0)
    if isinstance(undo, bool) or not isinstance(undo, int) or undo < 0:
        raise ServiceError(
            f"'undo' must be a non-negative integer, got {undo!r}"
        )
    solve = body.get("solve", False)
    if not isinstance(solve, bool):
        raise ServiceError(f"'solve' must be a boolean, got {solve!r}")
    close = body.get("close", False)
    if not isinstance(close, bool):
        raise ServiceError(f"'close' must be a boolean, got {close!r}")
    return {
        "session": session,
        "open": open_body,
        "ops": ops,
        "undo": undo,
        "solve": solve,
        "close": close,
    }


def parse_register_request(body: Any) -> dict:
    """Validate a ``POST /register`` envelope (worker-pool membership).

    A worker announces (or renews) its membership by posting its own
    base URL; the same request with ``leaving=true`` withdraws it
    immediately instead of waiting for the TTL to lapse.  Registration
    doubles as the heartbeat: workers re-post every few seconds and the
    manager drops any URL whose last heartbeat is older than its
    ``worker_ttl``.
    """
    body = _require_envelope(body, _REGISTER_FIELDS, "register")
    url = body.get("url")
    if not isinstance(url, str) or not url.strip():
        raise ServiceError(
            f"register request needs a non-empty 'url' string, got {url!r}"
        )
    leaving = body.get("leaving", False)
    if not isinstance(leaving, bool):
        raise ServiceError(f"'leaving' must be a boolean, got {leaving!r}")
    return {"url": url.strip().rstrip("/"), "leaving": leaving}


def cut_result_to_json(result: CutResult) -> dict:
    """The JSON form of a :class:`CutResult` (see module docstring)."""
    return {
        "value": result.value,
        "side": sorted(result.side, key=repr),
        "solver": result.solver,
        "guarantee": result.guarantee,
        "seed": result.seed,
        "wall_time": result.wall_time,
        "extras": encode_extras(dict(result.extras)),
        "metrics": result.metrics.summary() if result.metrics is not None else None,
    }


def cut_result_from_json(payload: Any) -> CutResult:
    """Rebuild a :class:`CutResult` from :func:`cut_result_to_json` output.

    The reconstructed result is witness-verifiable (``verify(graph)``
    works), and for reference-mode runs it equals the server-side
    result field for field.  CONGEST runs come back with
    ``metrics=None``: only the summary crossed the wire, and it is
    surfaced under ``extras["congest"]`` rather than impersonating a
    full :class:`~repro.congest.metrics.RunMetrics`.
    """
    if not isinstance(payload, dict):
        raise ServiceError(
            f"result payload must be an object, got {type(payload).__name__}"
        )
    try:
        extras = decode_extras(dict(payload.get("extras", {})))
        summary = payload.get("metrics")
        if summary is not None:
            extras = dict(extras)
            extras["congest"] = summary
        return CutResult(
            value=float(payload["value"]),
            side=frozenset(payload["side"]),
            solver=str(payload["solver"]),
            guarantee=str(payload["guarantee"]),
            seed=payload["seed"],
            metrics=None,
            wall_time=float(payload["wall_time"]),
            extras=extras,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(f"malformed result payload: {exc}") from exc


def error_body(exc: Exception, status: int) -> dict:
    """The structured error body every non-2xx response carries.

    Backpressure rejections additionally carry ``retry_after`` (seconds
    to wait before retrying), mirrored into the HTTP ``Retry-After``
    header by both transports.
    """
    error = {
        "type": type(exc).__name__,
        "message": str(exc),
        "status": status,
    }
    retry_after = getattr(exc, "retry_after", None)
    if retry_after is not None:
        error["retry_after"] = retry_after
    return {"error": error}


def json_default(value: Any) -> str:
    """``json.dumps`` fallback so exotic extras degrade to ``repr``
    instead of failing the whole response."""
    return repr(value)


__all__ = [
    "PROTOCOL_VERSION",
    "cut_result_from_json",
    "cut_result_to_json",
    "error_body",
    "json_default",
    "parse_batch_request",
    "parse_graph",
    "parse_mutate_request",
    "parse_register_request",
    "parse_solve_request",
]
