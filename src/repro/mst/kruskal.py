"""Centralized minimum spanning tree (Kruskal) with deterministic ties.

Thorup's greedy tree packing repeatedly computes MSTs with respect to
evolving load metrics, so the MST routine must be *deterministic* under
ties — we order edges lexicographically by ``(key, min endpoint, max
endpoint)``.  The same total order is used by the distributed Borůvka
implementation, which keeps the two in exact agreement (tested).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Optional

from ..errors import AlgorithmError
from ..graphs.graph import Node, WeightedGraph
from ..graphs.trees import RootedTree

EdgeKeyFn = Callable[[Node, Node, float], float]


class DisjointSets:
    """Union–find with path halving and union by size."""

    def __init__(self, items) -> None:
        self._parent = {x: x for x in items}
        self._size = {x: 1 for x in items}

    def find(self, x):
        parent = self._parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b) -> bool:
        """Merge the sets of ``a`` and ``b``; False when already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        return True


def edge_total_order(u: Node, v: Node, key: float):
    """The library-wide deterministic edge order (ties by endpoints)."""
    lo, hi = (u, v) if _ord(u) <= _ord(v) else (v, u)
    return (key, _ord(lo), _ord(hi))


def _ord(node: Node):
    return node if isinstance(node, int) else repr(node)


def minimum_spanning_tree(
    graph: WeightedGraph,
    key: Optional[EdgeKeyFn] = None,
    root: Optional[Node] = None,
) -> RootedTree:
    """Kruskal MST under an arbitrary edge key (default: the weight).

    ``key(u, v, w)`` lets callers supply load-based metrics (tree
    packing) without mutating the graph.  The result is rooted at
    ``root`` (default: minimum node id).
    """
    graph.require_connected()
    if graph.number_of_nodes == 1:
        only = graph.nodes[0]
        return RootedTree(only, {})
    key_fn = key if key is not None else (lambda u, v, w: w)
    ranked = sorted(
        ((edge_total_order(u, v, key_fn(u, v, w)), u, v) for u, v, w in graph.edges()),
    )
    chosen_root = root if root is not None else min(graph.nodes, key=_ord)
    return kruskal_tree(
        graph.nodes, ((u, v) for _rank, u, v in ranked), chosen_root
    )


def kruskal_tree(nodes, ranked_edges, root: Node) -> RootedTree:
    """Kruskal's union pass over edges already sorted cheapest first.

    Keeps each ``(u, v)`` of ``ranked_edges`` that joins two components
    and roots the spanning tree at ``root``.  Shared by
    :func:`minimum_spanning_tree` and callers that rank edges under a
    precomputed order (greedy tree packing).
    """
    ds = DisjointSets(nodes)
    needed = len(nodes) - 1
    chosen: list[tuple[Node, Node]] = []
    for u, v in ranked_edges:
        if ds.union(u, v):
            chosen.append((u, v))
            if len(chosen) == needed:
                break
    if len(chosen) != needed:
        raise AlgorithmError("graph is not connected; MST does not exist")
    return RootedTree.from_edges(root, chosen)


def tree_weight(graph: WeightedGraph, tree: RootedTree) -> float:
    """Total graph weight of the tree's edges."""
    return sum(graph.weight(child, parent) for child, parent in tree.edges())
