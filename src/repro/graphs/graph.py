"""Weighted undirected graph used by every algorithm in the library.

The representation is a plain adjacency map ``{u: {v: weight}}``.  Parallel
edges are merged by *summing* weights, which is the correct semantics for
cut problems: the capacity crossing a cut is the total weight of crossing
edges, so a multigraph and its weighted simple projection have identical
cut functions.

Design notes
------------
* Nodes may be any hashable object, although the generators in
  :mod:`repro.graphs.generators` produce consecutive integers.
* Weights must be strictly positive and finite (zero-weight edges are
  cut-irrelevant and would poison minimum-spanning-tree tie-breaking; a
  NaN or infinite weight makes cut values incomparable).
* The class is deliberately small and dependency-free; ``networkx`` enters
  the code base only through :mod:`repro.graphs.io` conversion helpers.
"""

from __future__ import annotations

import hashlib
from collections.abc import Hashable, Iterable, Iterator
from typing import Optional

from ..errors import DisconnectedGraphError, GraphError
from .index import GraphIndex

Node = Hashable
Edge = tuple[Node, Node]
WeightedEdge = tuple[Node, Node, float]

_INF = float("inf")


def edge_key(u: Node, v: Node) -> Edge:
    """Return a canonical (order-independent) key for the edge ``{u, v}``.

    Sorting is done on ``repr`` when the nodes are not mutually orderable,
    so mixed node types never raise.
    """
    try:
        return (u, v) if u <= v else (v, u)  # type: ignore[operator]
    except TypeError:
        return (u, v) if repr(u) <= repr(v) else (v, u)


def _weight_error(weight: float) -> GraphError:
    """The error for an edge weight outside ``0 < w < inf`` (NaN included)."""
    kind = "positive" if weight <= 0 else "finite"
    return GraphError(f"edge weight must be {kind}, got {weight!r}")


class WeightedGraph:
    """An undirected graph with strictly positive edge weights.

    Parameters
    ----------
    edges:
        Optional iterable of ``(u, v)`` or ``(u, v, weight)`` tuples used
        to populate the graph.  Parallel edges are merged by summing.
    """

    def __init__(self, edges: Optional[Iterable] = None) -> None:
        self._adj: dict[Node, dict[Node, float]] = {}
        self._version = 0
        self._index_cache: Optional[tuple[int, "GraphIndex"]] = None
        self._hash_cache: Optional[tuple[int, str]] = None
        self._connected_cache: Optional[tuple[int, bool]] = None
        if edges is not None:
            for edge in edges:
                if len(edge) == 2:
                    u, v = edge
                    self.add_edge(u, v)
                else:
                    u, v, w = edge
                    self.add_edge(u, v, w)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _mutated(self) -> None:
        """Invalidate content-derived caches (index, hash, connectivity)."""
        self._version += 1

    def add_node(self, u: Node) -> None:
        """Insert an isolated node ``u`` (no-op if already present)."""
        if u not in self._adj:
            self._adj[u] = {}
            self._mutated()

    def add_edge(self, u: Node, v: Node, weight: float = 1.0) -> None:
        """Insert the undirected edge ``{u, v}``.

        If the edge already exists its weight is *increased* by ``weight``
        (multigraph-merge semantics).  Self-loops are rejected because
        they can never cross a cut.
        """
        if u == v:
            raise GraphError(f"self-loop on node {u!r} is not allowed")
        if not 0 < weight < _INF:
            raise _weight_error(weight)
        self.add_node(u)
        self.add_node(v)
        new_weight = self._adj[u].get(v, 0.0) + weight
        self._adj[u][v] = new_weight
        self._adj[v][u] = new_weight
        self._mutated()

    def set_edge_weight(self, u: Node, v: Node, weight: float) -> None:
        """Overwrite the weight of an existing edge ``{u, v}``.

        Setting an edge to its current weight is a no-op: the graph
        content is unchanged, so the cached :meth:`index` and
        :meth:`content_hash` stay valid and downstream result caches
        keep serving their entries.  Any other weight bumps the version
        but carries the cached connectivity verdict across: a positive
        reweight of an existing edge cannot connect or split the graph.
        """
        if not 0 < weight < _INF:
            raise _weight_error(weight)
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u!r}, {v!r}) does not exist")
        if self._adj[u][v] == weight:
            return
        self._adj[u][v] = weight
        self._adj[v][u] = weight
        connected = self._connected_cache
        self._mutated()
        if connected is not None and connected[0] == self._version - 1:
            self._connected_cache = (self._version, connected[1])

    def remove_edge(self, u: Node, v: Node) -> None:
        """Delete the edge ``{u, v}``; raise :class:`GraphError` if absent."""
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u!r}, {v!r}) does not exist")
        del self._adj[u][v]
        del self._adj[v][u]
        self._mutated()

    def remove_node(self, u: Node) -> None:
        """Delete node ``u`` and all incident edges."""
        if u not in self._adj:
            raise GraphError(f"node {u!r} does not exist")
        for v in list(self._adj[u]):
            del self._adj[v][u]
        del self._adj[u]
        self._mutated()

    # ------------------------------------------------------------------
    # Seams for the dynamic subsystem (:mod:`repro.dynamic`)
    # ------------------------------------------------------------------
    def _adopt_caches(
        self,
        index: Optional["GraphIndex"] = None,
        content_hash: Optional[str] = None,
    ) -> None:
        """Install externally maintained caches for the *current* version.

        The incremental maintainer in :mod:`repro.dynamic.incremental`
        keeps a content digest live across mutations and patches a
        :class:`GraphIndex` in place after a weight overwrite; this seam
        re-registers them so :meth:`index` and :meth:`content_hash` serve
        the maintained values instead of rebuilding.  Callers are responsible for equivalence with a
        from-scratch rebuild.
        """
        if index is not None:
            self._index_cache = (self._version, index)
        if content_hash is not None:
            self._hash_cache = (self._version, content_hash)

    def _index_at(self, version: int) -> Optional["GraphIndex"]:
        """The cached index if it describes ``version``, else ``None``."""
        cached = self._index_cache
        return cached[1] if cached is not None and cached[0] == version else None

    def _insert_edge_at(
        self, u: Node, v: Node, weight: float, pos_u: int, pos_v: int
    ) -> None:
        """Re-insert edge ``{u, v}`` at exact adjacency positions.

        Plain :meth:`add_edge` appends the neighbour at the *end* of each
        adjacency map, so undoing a removal with it would permute the
        insertion order the CSR index is built from.  Mutation-log undo
        uses this instead to restore bit-identical adjacency order.
        """
        if self.has_edge(u, v):
            raise GraphError(f"edge ({u!r}, {v!r}) already exists")
        for node, other, pos in ((u, v, pos_u), (v, u, pos_v)):
            items = list(self._adj[node].items())
            items.insert(pos, (other, weight))
            self._adj[node] = dict(items)
        self._mutated()

    def _restore_node_at(
        self,
        u: Node,
        pos: int,
        incident: Iterable[tuple[Node, float, int]],
    ) -> None:
        """Re-insert node ``u`` at position ``pos`` with its old edges.

        ``incident`` lists ``(neighbour, weight, position-in-neighbour)``
        in the node's original adjacency order; together with ``pos``
        (the node's slot in the graph's node order) this restores the
        exact pre-:meth:`remove_node` insertion order.
        """
        if u in self._adj:
            raise GraphError(f"node {u!r} already exists")
        incident = list(incident)
        items = list(self._adj.items())
        items.insert(pos, (u, {v: w for v, w, _ in incident}))
        self._adj = dict(items)
        for v, w, pos_v in incident:
            nbr_items = list(self._adj[v].items())
            nbr_items.insert(pos_v, (u, w))
            self._adj[v] = dict(nbr_items)
        self._mutated()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> list[Node]:
        """All nodes, in insertion order."""
        return list(self._adj)

    def __contains__(self, u: Node) -> bool:
        return u in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    @property
    def number_of_nodes(self) -> int:
        return len(self._adj)

    @property
    def number_of_edges(self) -> int:
        return sum(map(len, self._adj.values())) // 2

    def has_edge(self, u: Node, v: Node) -> bool:
        return u in self._adj and v in self._adj[u]

    def weight(self, u: Node, v: Node) -> float:
        """Weight of edge ``{u, v}``; raises if the edge is absent."""
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u!r}, {v!r}) does not exist")
        return self._adj[u][v]

    def neighbors(self, u: Node) -> list[Node]:
        """Neighbours of ``u`` in insertion order."""
        if u not in self._adj:
            raise GraphError(f"node {u!r} does not exist")
        return list(self._adj[u])

    def degree(self, u: Node) -> int:
        """Number of incident edges (unweighted degree)."""
        if u not in self._adj:
            raise GraphError(f"node {u!r} does not exist")
        return len(self._adj[u])

    def weighted_degree(self, u: Node) -> float:
        """Total weight of edges incident to ``u`` — δ(u) in the paper."""
        if u not in self._adj:
            raise GraphError(f"node {u!r} does not exist")
        return sum(self._adj[u].values())

    def total_weight(self) -> float:
        """Sum of all edge weights."""
        return sum(w for _, _, w in self.edges())

    def edges(self) -> Iterator[WeightedEdge]:
        """Iterate over every undirected edge exactly once as ``(u, v, w)``.

        An edge is yielded from its endpoint that comes first in node
        insertion order, so ``u`` precedes ``v`` there; edges come in
        node order, then in ``u``'s adjacency order.
        """
        adj = self._adj
        rank = {u: i for i, u in enumerate(adj)}
        for u, nbrs in adj.items():
            ru = rank[u]
            for v, w in nbrs.items():
                if rank[v] > ru:
                    yield (u, v, w)

    def edge_list(self) -> list[WeightedEdge]:
        """Materialised, canonically sorted list of edges (stable output)."""
        return sorted(
            ((min(u, v), max(u, v), w) for u, v, w in self.edges()),
            key=lambda e: (repr(e[0]), repr(e[1])),
        ) if not all(isinstance(n, int) for n in self._adj) else sorted(
            ((u, v, w) if u <= v else (v, u, w) for u, v, w in self.edges())
        )

    def index(self) -> "GraphIndex":
        """The cached :class:`~repro.graphs.index.GraphIndex` of this graph.

        Built on first access and reused until the graph mutates (any
        ``add_*``/``remove_*``/``set_edge_weight`` call invalidates it),
        so every layer of a solve — the CONGEST engine, centralized
        distance helpers, the baselines — shares one flat view instead
        of rebuilding adjacency dicts per call.
        """
        cached = self._index_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        built = GraphIndex(self)
        self._index_cache = (self._version, built)
        return built

    def content_hash(self) -> str:
        """SHA-256 hex digest of the canonical (node set, edge list) content.

        The digest is computed over the sorted node set and the sorted
        edge list with weights, so it is stable across node/edge
        insertion order and multigraph merge history: two graphs with
        the same nodes and the same merged edge weights hash
        identically.  This is the identity the execution layer's result
        cache keys on (:mod:`repro.exec.cache`).  Like :meth:`index`,
        the digest is cached until the graph mutates.

        Nodes are canonicalised via ``repr``, so distinct nodes must
        have distinct reprs (true for the int/str nodes the generators
        produce); weights are canonicalised via ``repr(float(w))``,
        which round-trips exactly.

        The node reprs are sorted once; each node's rank in that order
        stands in for its repr, so the edges sort as integer keys
        ``rank(u) * n + rank(v)`` (equal reprs share a rank, which keeps
        the order the repr triples had), and ``repr(float(w))`` is
        computed once per distinct weight.  The canonical text — and so
        the digest — is the same as it has always been, so existing
        result stores, warm artifacts and the incremental digest in
        :mod:`repro.dynamic.incremental` keep hitting.
        """
        cached = self._hash_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        adj = self._adj
        reprs = {u: repr(u) for u in adj}
        texts = sorted(reprs.values())
        ranks = {text: rank for rank, text in enumerate(dict.fromkeys(texts))}
        n = len(ranks)
        rank_of = {u: ranks[text] for u, text in reprs.items()}
        weight_texts: dict[float, str] = {}
        edges = []
        for u, nbrs in adj.items():
            ru = rank_of[u]
            base = ru * n
            ref = reprs[u]
            for v, w in nbrs.items():
                rv = rank_of[v]
                if ru < rv:
                    text = weight_texts.get(w)
                    if text is None:
                        text = weight_texts[w] = repr(float(w))
                    edges.append((base + rv, f"e:{ref}|{reprs[v]}|{text}"))
        edges.sort()
        lines = [f"n:{text}" for text in texts]
        lines.extend([line for _key, line in edges])
        digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
        self._hash_cache = (self._version, digest)
        return digest

    # ------------------------------------------------------------------
    # Cut machinery
    # ------------------------------------------------------------------
    def cut_value(self, node_set: Iterable[Node]) -> float:
        """Total weight of edges with exactly one endpoint in ``node_set``.

        This is the function ``C(X)`` defined in Section 1 of the paper.
        Nodes of ``node_set`` that are not in the graph raise
        :class:`GraphError`; an empty or full set raises
        :class:`GraphError` because the paper's minimisation excludes the
        trivial cuts.
        """
        members = set(node_set)
        for u in members:
            if u not in self._adj:
                raise GraphError(f"node {u!r} does not exist")
        if not members or len(members) == len(self._adj):
            raise GraphError("cut side must be a proper nonempty node subset")
        total = 0.0
        for u in members:
            for v, w in self._adj[u].items():
                if v not in members:
                    total += w
        return total

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "WeightedGraph":
        """Deep copy (adjacency maps are duplicated; nodes are shared)."""
        clone = WeightedGraph()
        for u in self._adj:
            clone.add_node(u)
        for u, v, w in self.edges():
            clone.add_edge(u, v, w)
        return clone

    def subgraph(self, nodes: Iterable[Node]) -> "WeightedGraph":
        """The induced subgraph on ``nodes``."""
        keep = set(nodes)
        sub = WeightedGraph()
        for u in keep:
            if u not in self._adj:
                raise GraphError(f"node {u!r} does not exist")
            sub.add_node(u)
        for u, v, w in self.edges():
            if u in keep and v in keep:
                sub.add_edge(u, v, w)
        return sub

    def reweighted(self, weight_of) -> "WeightedGraph":
        """A copy whose edge ``(u, v)`` has weight ``weight_of(u, v, w)``.

        Used by the tree-packing code to build load-based metrics.
        """
        clone = WeightedGraph()
        for u in self._adj:
            clone.add_node(u)
        for u, v, w in self.edges():
            clone.add_edge(u, v, weight_of(u, v, w))
        return clone

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------
    def connected_components(self) -> list[set[Node]]:
        """Connected components as a list of node sets (BFS-based)."""
        remaining = set(self._adj)
        components: list[set[Node]] = []
        while remaining:
            start = next(iter(remaining))
            seen = {start}
            frontier = [start]
            while frontier:
                nxt: list[Node] = []
                for u in frontier:
                    for v in self._adj[u]:
                        if v not in seen:
                            seen.add(v)
                            nxt.append(v)
                frontier = nxt
            components.append(seen)
            remaining -= seen
        return components

    def is_connected(self) -> bool:
        """True when the graph has exactly one connected component.

        One traversal of the adjacency map per graph version: the
        verdict is cached next to :meth:`index` and :meth:`content_hash`
        until the graph mutates, so the checks a solve repeats (engine,
        packing, solver) cost one traversal, and a graph that is only
        checked never builds a :class:`GraphIndex`.
        """
        cached = self._connected_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        adj = self._adj
        connected = False
        if adj:
            start = next(iter(adj))
            seen = {start}
            stack = [start]
            while stack:
                for v in adj[stack.pop()]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            connected = len(seen) == len(adj)
        self._connected_cache = (self._version, connected)
        return connected

    def require_connected(self) -> None:
        """Raise :class:`DisconnectedGraphError` unless connected."""
        if not self.is_connected():
            raise DisconnectedGraphError(
                "algorithm requires a connected graph with at least one node"
            )

    # ------------------------------------------------------------------
    # Pickling (process-backend tasks ship graphs to workers)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Drop derived caches: workers rebuild them on demand."""
        return {"_adj": self._adj, "_version": self._version}

    def __setstate__(self, state: dict) -> None:
        self._adj = state["_adj"]
        self._version = state.get("_version", 0)
        self._index_cache = None
        self._hash_cache = None
        self._connected_cache = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WeightedGraph(n={self.number_of_nodes}, "
            f"m={self.number_of_edges})"
        )
