"""Graph serialisation and (optional) networkx interoperability.

Two wire formats, both restricted to integer and string node labels so
payloads stay human-editable and JSON-safe:

* the *edge-list* text format — one edge per line, ``u v weight``
  (:func:`write_edge_list` / :func:`read_edge_list` /
  :func:`edge_list_from_text`);
* the *JSON* form — ``{"nodes": [...], "edges": [[u, v, w], ...]}``
  (:func:`graph_to_json` / :func:`graph_from_json`), the shape the
  service layer (:mod:`repro.service`) accepts and emits.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable, Union

from ..errors import GraphError
from .graph import WeightedGraph


def write_edge_list(graph: WeightedGraph, path: Union[str, Path]) -> None:
    """Write ``graph`` as a whitespace-separated edge list.

    Isolated nodes are recorded on their own line as ``node`` with no
    weight so they survive a round trip.
    """
    lines: list[str] = []
    with_edges = set()
    for u, v, w in graph.edges():
        with_edges.add(u)
        with_edges.add(v)
        lines.append(f"{u} {v} {w!r}")
    for u in graph.nodes:
        if u not in with_edges:
            lines.append(f"{u}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_edge_list(path: Union[str, Path]) -> WeightedGraph:
    """Read a graph written by :func:`write_edge_list`.

    Node tokens that parse as integers become ``int`` nodes; everything
    else stays a string.
    """
    return edge_list_from_text(Path(path).read_text(encoding="utf-8"))


def edge_list_from_text(text: str) -> WeightedGraph:
    """Parse edge-list *text* (the :func:`read_edge_list` file format).

    The service layer uses this for requests that ship a graph as an
    edge-list string instead of the JSON form.  Lines are tokenised
    here; the graph itself comes from the same validated builder as
    :func:`graph_from_json`.
    """
    nodes: list = []
    edges: list = []
    lines: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) == 1:
            nodes.append(_parse_node(parts[0]))
        elif len(parts) == 3:
            try:
                weight = float(parts[2])
            except ValueError:
                raise GraphError(f"malformed edge-list line: {raw!r}") from None
            u, v = _parse_node(parts[0]), _parse_node(parts[1])
            # Endpoints join ``nodes`` too, so a bare-node line keeps its
            # place in the node order relative to the edges around it.
            nodes += (u, v)
            edges.append([u, v, weight])
            lines.append(raw)
        else:
            raise GraphError(f"malformed edge-list line: {raw!r}")
    return _graph_from_wire(
        nodes,
        edges,
        lambda position, _weight: (
            f"non-finite weight in edge-list line: {lines[position]!r}"
        ),
    )


def _parse_node(token: str):
    try:
        return int(token)
    except ValueError:
        return token


def _check_json_node(node) -> None:
    """Reject nodes the JSON form cannot carry faithfully.

    ``bool`` is excluded explicitly: it *is* an ``int`` subclass, but a
    graph whose node ``True`` silently merges with node ``1`` on the far
    side of a JSON hop would corrupt cuts.
    """
    if isinstance(node, bool) or not isinstance(node, (int, str)):
        raise GraphError(
            f"JSON graph nodes must be integers or strings, got {node!r}"
        )


def graph_to_json(graph: WeightedGraph) -> dict:
    """The JSON form of ``graph``: ``{"nodes": [...], "edges": [...]}``.

    ``nodes`` lists every node (so isolated nodes survive); ``edges``
    holds ``[u, v, weight]`` triples.  Raises :class:`GraphError` when a
    node is neither an integer nor a string.
    """
    nodes = list(graph.nodes)
    for node in nodes:
        _check_json_node(node)
    return {
        "nodes": nodes,
        "edges": [[u, v, w] for u, v, w in graph.edges()],
    }


def graph_from_json(data: dict) -> WeightedGraph:
    """Build a graph from the :func:`graph_to_json` form.

    ``data`` must be a dict with an ``"edges"`` list of ``[u, v]`` or
    ``[u, v, weight]`` entries and an optional ``"nodes"`` list;
    anything else — unknown keys, malformed edges, non-JSON node types,
    non-numeric weights — raises :class:`GraphError` with a message
    naming the offending entry (the service layer surfaces these as
    structured 4xx bodies).
    """
    if not isinstance(data, dict):
        raise GraphError(
            f"JSON graph must be an object with 'edges', got {type(data).__name__}"
        )
    unknown = sorted(set(data) - {"nodes", "edges"})
    if unknown:
        raise GraphError(f"unknown JSON graph keys: {', '.join(map(repr, unknown))}")
    edges = data.get("edges", [])
    nodes = data.get("nodes", [])
    if not isinstance(edges, list) or not isinstance(nodes, list):
        raise GraphError("JSON graph 'nodes' and 'edges' must be lists")
    return _graph_from_wire(
        nodes,
        edges,
        lambda position, weight: (
            f"edge #{position} weight must be a finite number, got {weight!r}"
        ),
    )


_INF = math.inf


def _graph_from_wire(
    nodes: list, edges: list, bad_weight: Callable[[int, object], str]
) -> WeightedGraph:
    """The one validated graph builder behind both wire forms.

    Inserts ``nodes`` in order, then each ``[u, v]`` / ``[u, v, weight]``
    entry of ``edges``, filling the adjacency map directly in one loop:
    the map comes out in exactly the order repeated
    :meth:`~WeightedGraph.add_node` / :meth:`~WeightedGraph.add_edge`
    calls would give it, so the :class:`~repro.graphs.index.GraphIndex`
    built from it is unchanged, and parallel edges merge by summing.

    The common entry — a 3-element list with int/str endpoints and a
    float weight in ``(0, inf)`` — costs one unpack and one range
    check.  Every other entry goes to :func:`_wire_edge`, which checks
    it in full and raises the first failing rule's message: malformed
    entries and non-JSON nodes, then non-numeric or non-finite weights
    (``bad_weight(position, weight)``), then self-loops and non-positive
    weights (the messages :meth:`~WeightedGraph.add_edge` uses).
    """
    graph = WeightedGraph()
    adj = graph._adj
    for node in nodes:
        # ``type(...) is`` admits plain ints and strings on the fast
        # path; bools and subclasses fall through to the full check.
        if type(node) is not int and type(node) is not str:
            _check_json_node(node)
        if node not in adj:
            adj[node] = {}
    for position, edge in enumerate(edges):
        if type(edge) is list and len(edge) == 3:
            u, v, weight = edge
            if not (
                type(weight) is float
                and 0.0 < weight < _INF
                and (type(u) is int or type(u) is str)
                and (type(v) is int or type(v) is str)
                and u != v
            ):
                u, v, weight = _wire_edge(position, edge, bad_weight)
        else:
            u, v, weight = _wire_edge(position, edge, bad_weight)
        try:
            row_u = adj[u]
        except KeyError:
            row_u = adj[u] = {}
        try:
            row_v = adj[v]
        except KeyError:
            row_v = adj[v] = {}
        if v in row_u:
            weight += row_u[v]
        row_u[v] = row_v[u] = weight
    graph._mutated()
    return graph


def _wire_edge(
    position: int, edge: object, bad_weight: Callable[[int, object], str]
) -> tuple:
    """``(u, v, weight)`` of an edge entry off the fast path, or the
    :class:`GraphError` of the first rule it breaks."""
    if not isinstance(edge, (list, tuple)) or len(edge) not in (2, 3):
        raise GraphError(
            f"edge #{position} must be [u, v] or [u, v, weight], got {edge!r}"
        )
    u, v = edge[0], edge[1]
    if type(u) is not int and type(u) is not str:
        _check_json_node(u)
    if type(v) is not int and type(v) is not str:
        _check_json_node(v)
    weight = edge[2] if len(edge) == 3 else 1.0
    if (
        type(weight) is not float
        and (isinstance(weight, bool) or not isinstance(weight, (int, float)))
        # json.loads accepts NaN/Infinity by default, and NaN slips
        # past the `weight <= 0` guard to poison every cut.
        or not math.isfinite(weight)
    ):
        raise GraphError(bad_weight(position, weight))
    weight = float(weight)
    if u == v:
        raise GraphError(f"self-loop on node {u!r} is not allowed")
    if weight <= 0:
        raise GraphError(f"edge weight must be positive, got {weight!r}")
    return u, v, weight


def to_networkx(graph: WeightedGraph):
    """Convert to a ``networkx.Graph`` (weights under the ``"weight"`` key).

    Raises :class:`ImportError` when networkx is unavailable; the core
    library never requires it.
    """
    import networkx as nx

    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(graph.nodes)
    nx_graph.add_weighted_edges_from(graph.edges())
    return nx_graph


def from_networkx(nx_graph) -> WeightedGraph:
    """Convert a ``networkx.Graph``; missing weights default to 1.0."""
    graph = WeightedGraph()
    for u in nx_graph.nodes:
        graph.add_node(u)
    for u, v, data in nx_graph.edges(data=True):
        graph.add_edge(u, v, float(data.get("weight", 1.0)))
    return graph
