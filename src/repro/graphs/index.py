"""Indexed graph core: flat CSR-style arrays over a :class:`WeightedGraph`.

The adjacency-map representation of :class:`~repro.graphs.graph.
WeightedGraph` is convenient to build and mutate, but every consumer
that iterates it pays dict churn: the CONGEST engine used to key
per-edge FIFOs on ``(u, v)`` tuples, and every network construction
rebuilt neighbour lists and weight dicts from scratch.  A
:class:`GraphIndex` is the flat, read-only view those hot paths index
into instead:

* a stable node <-> int mapping (``nodes[i]`` / ``node_id[u]``) in the
  graph's insertion order, so integer-labelled generator graphs map to
  themselves;
* CSR adjacency: directed edge ids ``adj_start[i] .. adj_start[i+1]``
  belong to node ``i``, with ``adj_target[e]`` the neighbour's int id
  and ``adj_weight[e]`` the edge weight;
* a reverse-edge index ``reverse_edge[e]`` — the directed edge id of
  the opposite direction, so engines can pair up (u, v) and (v, u)
  without tuple keys;
* cached per-node neighbour lists / weight maps in *original node id*
  space, so the :class:`~repro.congest.node.NodeContext` API stays
  source-compatible while the engine runs on ints.

An index is built once per graph content and cached on the graph
(:meth:`WeightedGraph.index`); any mutation invalidates it.  All arrays
are plain Python lists — the point is eliminating per-round dict and
tuple-key overhead, not C acceleration.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..errors import GraphError

if TYPE_CHECKING:  # pragma: no cover
    from .graph import Node, WeightedGraph


class GraphIndex:
    """Flat-array view of a :class:`WeightedGraph`.

    Build via :meth:`WeightedGraph.index` (cached) rather than directly;
    the constructor snapshots the graph, so a stale index silently
    describes an old graph — the cache's version check prevents that.

    Consumers treat an index as immutable.  The only sanctioned writer
    is :mod:`repro.dynamic.incremental`, which patches the weights in
    place after a single-edge reweight and re-registers the index via
    ``WeightedGraph._adopt_caches`` (asserting equivalence with a
    from-scratch rebuild in its validation mode).
    """

    #: Every field of the index; ``dynamic.incremental.index_equal``
    #: compares them all.
    CORE_FIELDS = (
        "nodes",
        "node_id",
        "adj_start",
        "adj_target",
        "adj_weight",
        "edge_source",
        "reverse_edge",
        "neighbor_lists",
        "weight_maps",
        "edge_id_maps",
    )

    __slots__ = CORE_FIELDS

    def __init__(self, graph: "WeightedGraph") -> None:
        adj = graph._adj
        self.nodes: tuple[Any, ...] = tuple(adj)
        self.node_id: dict[Any, int] = {u: i for i, u in enumerate(self.nodes)}
        node_id = self.node_id

        n = len(self.nodes)
        adj_start = [0] * (n + 1)
        adj_target: list[int] = []
        adj_weight: list[float] = []
        edge_source: list[int] = []
        neighbor_lists: list[tuple] = []
        weight_maps: list[dict] = []
        edge_id_maps: list[dict] = []
        for i, u in enumerate(self.nodes):
            nbrs = adj[u]
            edge_ids: dict[Any, int] = {}
            base = len(adj_target)
            for v, w in nbrs.items():
                edge_ids[v] = len(adj_target)
                adj_target.append(node_id[v])
                adj_weight.append(w)
                edge_source.append(i)
            adj_start[i + 1] = base + len(nbrs)
            neighbor_lists.append(tuple(nbrs))
            weight_maps.append(dict(nbrs))
            edge_id_maps.append(edge_ids)

        reverse_edge = [0] * len(adj_target)
        for e, j in enumerate(adj_target):
            reverse_edge[e] = edge_id_maps[j][self.nodes[edge_source[e]]]

        self.adj_start = adj_start
        self.adj_target = adj_target
        self.adj_weight = adj_weight
        self.edge_source = edge_source
        self.reverse_edge = reverse_edge
        self.neighbor_lists = tuple(neighbor_lists)
        self.weight_maps = tuple(weight_maps)
        self.edge_id_maps = tuple(edge_id_maps)

    # -- sizes ----------------------------------------------------------
    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def directed_edge_count(self) -> int:
        """Number of directed edge slots (2x the undirected edge count)."""
        return len(self.adj_target)

    def __len__(self) -> int:
        return len(self.nodes)

    # -- per-node queries (int id space) --------------------------------
    def degree_of(self, i: int) -> int:
        return self.adj_start[i + 1] - self.adj_start[i]

    def weighted_degree_of(self, i: int) -> float:
        start, stop = self.adj_start[i], self.adj_start[i + 1]
        return sum(self.adj_weight[start:stop])

    def edge_id(self, u: "Node", v: "Node") -> int:
        """Directed edge id of ``u -> v``; raises on a missing edge."""
        try:
            return self.edge_id_maps[self.node_id[u]][v]
        except KeyError:
            raise GraphError(f"edge ({u!r}, {v!r}) does not exist") from None

    # -- traversal ------------------------------------------------------
    def bfs_distances_from(self, source_id: int) -> list[int]:
        """Hop distances from int node ``source_id``; -1 = unreachable.

        The flat-array analogue of
        :func:`repro.graphs.properties.bfs_distances`, used by the
        centralized diameter/eccentricity helpers so one shared index
        serves every layer of a solve.
        """
        adj_start, adj_target = self.adj_start, self.adj_target
        dist = [-1] * len(self.nodes)
        dist[source_id] = 0
        frontier = [source_id]
        depth = 0
        while frontier:
            depth += 1
            nxt: list[int] = []
            for i in frontier:
                for e in range(adj_start[i], adj_start[i + 1]):
                    j = adj_target[e]
                    if dist[j] < 0:
                        dist[j] = depth
                        nxt.append(j)
            frontier = nxt
        return dist

    def eccentricity_of(self, source_id: int) -> int:
        """Max hop distance from ``source_id``; raises when disconnected."""
        dist = self.bfs_distances_from(source_id)
        out = 0
        for d in dist:
            if d < 0:
                raise GraphError("eccentricity undefined on disconnected graphs")
            if d > out:
                out = d
        return out


__all__ = ["GraphIndex"]
