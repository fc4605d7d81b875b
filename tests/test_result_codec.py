"""One JSON codec for :class:`CutResult`, two callers.

``CutResult.to_json``/``from_json`` encode and decode the seven fields
once.  The cache's disk tier persists only what the codec's strict
mode returns (an exact JSON round trip); the wire uses the lenient mode,
adds the CONGEST metrics summary, and lets :func:`json_default` degrade
what JSON cannot carry.  These tests drive both callers end to end: a
real HTTP server whose shared cache is a segment store.
"""

import json
import math
import threading

import pytest

from repro.api import CutResult, Engine
from repro.api.registry import SolverRegistry
from repro.config import ServeConfig
from repro.exec import ResultCache
from repro.graphs import build_family
from repro.service import (
    ServiceClient,
    create_server,
    cut_result_from_json,
    cut_result_to_json,
)

EXTRAS = {
    "tupled": {"per_tree": (2.0, 3.0), "nested": {"pair": (1, "a")}},
    "nan": {"ratio": math.nan},
    "int_key": {"by_tree": {1: 2.0}},
}


def _registry():
    registry = SolverRegistry()
    for name, extras in EXTRAS.items():

        def run(graph, *, _extras=extras, **_knobs):
            node = graph.nodes[0]
            return CutResult(
                value=graph.weighted_degree(node),
                side=frozenset({node}),
                extras=dict(_extras),
            )

        registry.register(name, kind="exact", guarantee="exact")(run)
    return registry


@pytest.fixture
def served(tmp_path):
    """A live server whose shared cache persists to a segment store."""
    registry = _registry()
    store = tmp_path / "store"
    server = create_server(
        ServeConfig(port=0), registry=registry, cache=ResultCache(path=store)
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with ServiceClient(server.url, timeout=30.0) as client:
            client.wait_until_ready()
            yield client, registry, store
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _without_cache_info(extras):
    return {key: value for key, value in extras.items() if key != "cache"}


def test_tuple_extras_round_trip_through_wire_and_store(served):
    client, registry, store = served
    graph = build_family("cycle", 8)
    remote = client.solve(graph, solver="tupled")
    assert _without_cache_info(remote.extras) == EXTRAS["tupled"]
    assert isinstance(remote.extras["per_tree"], tuple)
    assert isinstance(remote.extras["nested"]["pair"], tuple)

    # Persisted: a fresh process-local engine on the same store hits.
    engine = Engine(registry=registry, cache=ResultCache(path=store))
    again = engine.solve(graph, "tupled")
    assert again.extras["cache"]["hit"]
    assert _without_cache_info(again.extras) == EXTRAS["tupled"]
    assert isinstance(again.extras["per_tree"], tuple)


@pytest.mark.parametrize("solver", ["nan", "int_key"])
def test_lossy_extras_are_served_but_not_persisted(served, solver):
    client, _, store = served
    graph = build_family("cycle", 8)
    remote = client.solve(graph, solver=solver)
    assert remote.value == 2.0
    if solver == "nan":
        assert math.isnan(remote.extras["ratio"])
    else:
        assert remote.extras["by_tree"] == {"1": 2.0}  # JSON keys are strings
    assert ResultCache(path=store).stats()["disk_entries"] == 0


def test_strict_mode_refuses_what_the_wire_carries():
    for name in ("nan", "int_key"):
        result = CutResult(value=1.0, side=frozenset({0}), extras=EXTRAS[name])
        assert result.to_json(strict=True) is None
        assert result.to_json()["extras"] == EXTRAS[name]
    exact = CutResult(value=1.0, side=frozenset({0}), extras=EXTRAS["tupled"])
    assert exact.to_json(strict=True) == exact.to_json()
    assert CutResult.from_json(exact.to_json(strict=True)) == exact


def test_wire_form_is_the_codec_plus_metrics():
    result = CutResult(
        value=3.0, side=frozenset({1, 2}), solver="exact", seed=4,
        wall_time=0.5, extras=EXTRAS["tupled"],
    )
    wire = cut_result_to_json(result)
    assert wire.pop("metrics") is None
    assert wire == result.to_json()
    again = cut_result_from_json(json.loads(json.dumps(cut_result_to_json(result))))
    assert again == result
