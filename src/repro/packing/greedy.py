"""Thorup's greedy tree packing [Combinatorica 2007] (system S7).

Generate trees ``T_1, T_2, …`` where ``T_i`` is the minimum spanning
tree with respect to the *relative loads* induced by ``T_1 … T_{i-1}``:
the load of edge ``e`` after ``i`` trees is ``use_i(e) / w(e)`` with
``use_i(e)`` the number of earlier trees containing ``e`` (weights act
as capacities).  Thorup's theorem (the form the paper uses): greedily
packing ``Θ(λ^7 log^3 n)`` trees guarantees that at least one tree
contains **exactly one edge** of some minimum cut — i.e. 1-respects it —
which reduces minimum cut to the 1-respecting problem of Theorem 2.1.

Ties in the MST computation are broken by the library's deterministic
edge order, making packings reproducible.  That order's endpoint part
never changes between trees, so the packing computes it once per edge
and each tree is one sort of ``(load, lo, hi, u, v)`` rows — the exact
order :func:`~repro.mst.kruskal.minimum_spanning_tree` would rank them
in under the relative-load key.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

from ..errors import AlgorithmError
from ..graphs.graph import WeightedGraph, edge_key
from ..graphs.trees import RootedTree
from ..mst.kruskal import _ord, kruskal_tree


class GreedyTreePacking:
    """Incrementally grown greedy packing with per-edge load tracking.

    Use :meth:`next_tree` (or iterate) to extend the packing lazily —
    the exact-min-cut driver consumes trees one at a time and usually
    stops long before any theoretical bound.  The edge set and weights
    are read once, at construction: the graph must not change while
    the packing grows.
    """

    def __init__(self, graph: WeightedGraph) -> None:
        graph.require_connected()
        if graph.number_of_nodes < 2:
            raise AlgorithmError("tree packing needs at least two nodes")
        self.graph = graph
        self.usage: dict = {}
        # Per edge, once: its endpoint tie-break, endpoints as
        # ``graph.edges()`` yields them, weight and usage key.
        self._edges = []
        for u, v, w in graph.edges():
            key = edge_key(u, v)
            self.usage[key] = 0
            ou, ov = _ord(u), _ord(v)
            lo, hi = (ou, ov) if ou <= ov else (ov, ou)
            self._edges.append((lo, hi, u, v, w, key))
        self._root = min(graph.nodes, key=_ord)
        self.trees: list[RootedTree] = []

    def relative_load(self, u, v) -> float:
        """``use(e) / w(e)`` — the greedy packing's edge metric."""
        return self.usage[edge_key(u, v)] / self.graph.weight(u, v)

    def next_tree(self) -> RootedTree:
        """Compute the next greedy tree and update loads.

        The minimum spanning tree under :meth:`relative_load`, with the
        library's tie order, rooted at the minimum node.
        """
        usage = self.usage
        ranked = sorted(
            (usage[key] / w, lo, hi, u, v)
            for lo, hi, u, v, w, key in self._edges
        )
        tree = kruskal_tree(
            self.graph.nodes, ((row[3], row[4]) for row in ranked), self._root
        )
        for child, parent in tree.edges():
            usage[edge_key(child, parent)] += 1
        self.trees.append(tree)
        return tree

    def grow_to(self, count: int) -> list[RootedTree]:
        """Extend the packing to ``count`` trees; returns all trees."""
        while len(self.trees) < count:
            self.next_tree()
        return list(self.trees)

    def __iter__(self) -> Iterator[RootedTree]:
        while True:
            yield self.next_tree()


def greedy_tree_packing(graph: WeightedGraph, count: int) -> list[RootedTree]:
    """Convenience wrapper: the first ``count`` greedy packing trees."""
    if count < 1:
        raise AlgorithmError("tree count must be positive")
    return GreedyTreePacking(graph).grow_to(count)


def thorup_tree_bound(min_cut: float, n: int) -> int:
    """The theorem's tree count ``Θ(λ^7 log^3 n)`` with unit constants.

    Astronomical in practice — the packing experiments (E4) measure how
    many trees are *actually* needed, which is typically a handful.
    """
    lam = max(1.0, float(min_cut))
    logs = math.log2(max(2, n)) ** 3
    return int(math.ceil(lam ** 7 * logs))
