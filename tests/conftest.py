"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import threading

import pytest

from repro.graphs import (
    RootedTree,
    WeightedGraph,
    connected_gnp_graph,
    planted_cut_graph,
    random_spanning_tree,
)


@pytest.fixture
def triangle() -> WeightedGraph:
    """K3 with distinct weights — smallest interesting cut instance."""
    return WeightedGraph([(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])


@pytest.fixture
def small_planted() -> WeightedGraph:
    """Two dense blobs joined by exactly 3 unit edges (λ = 3)."""
    return planted_cut_graph((10, 12), 3, seed=7)


@pytest.fixture
def medium_graph() -> WeightedGraph:
    """A connected ER graph used by the heavier integration tests."""
    return connected_gnp_graph(28, 0.25, seed=11)


@pytest.fixture
def medium_tree(medium_graph) -> RootedTree:
    return random_spanning_tree(medium_graph, seed=3)


@pytest.fixture
def caterpillar() -> RootedTree:
    """A path 0-1-2-3-4 with a leaf hanging off every spine node."""
    parent = {}
    for i in range(1, 5):
        parent[i] = i - 1
    for i in range(5, 10):
        parent[i] = i - 5
    return RootedTree(0, parent)


#: Longest a real server started under :func:`patch_create_server` runs
#: before it is shut down, so that a missed patch fails the test instead
#: of blocking the suite.
SERVE_DEADLINE_S = 30.0


@pytest.fixture
def patch_create_server(monkeypatch):
    """``patch(replacement)`` swaps ``create_server`` for ``repro serve``.

    Both the ``repro.service`` package attribute and the defining
    ``repro.service.server`` one are patched, so the CLI reaches the
    replacement whichever it imports from.  Any real server still
    started under the fixture shuts down after :data:`SERVE_DEADLINE_S`.
    """
    from repro.service.server import AsyncHTTPServer

    serve_forever = AsyncHTTPServer.serve_forever

    def bounded_serve_forever(self, *args, **kwargs):
        deadline = threading.Timer(SERVE_DEADLINE_S, self.shutdown)
        deadline.daemon = True
        deadline.start()
        try:
            serve_forever(self, *args, **kwargs)
        finally:
            deadline.cancel()

    monkeypatch.setattr(AsyncHTTPServer, "serve_forever", bounded_serve_forever)

    def patch(replacement):
        monkeypatch.setattr("repro.service.create_server", replacement)
        monkeypatch.setattr("repro.service.server.create_server", replacement)

    return patch
