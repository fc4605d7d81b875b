"""Gomory–Hu cut trees — the all-pairs min-cut oracle baseline.

A Gomory–Hu tree is a weighted tree on the graph's nodes such that for
every pair ``(s, t)`` the minimum s–t cut value equals the smallest
edge weight on the tree path between them, and the corresponding tree
edge's sides realise a minimum s–t cut.  The *global* minimum cut is
therefore the lightest Gomory–Hu tree edge — giving an exact baseline
built on an entirely different principle (n−1 max-flows) from both
Stoer–Wagner (MA orderings) and this paper (tree packings), which makes
it a strong independent cross-check.

Implementation: Gusfield's simplification — no node contractions; for
node ``i``, run a max-flow against its current tree parent and re-hang
neighbours that fall on ``i``'s side.  Produces a valid equivalent-flow
tree for undirected graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..api.result import CutResult
from ..errors import AlgorithmError
from ..graphs.graph import Node, WeightedGraph
from .maxflow import max_flow_min_cut


@dataclass(frozen=True)
class GomoryHuTree:
    """Parent/weight maps of the cut tree, rooted at ``root``."""

    root: Node
    parent: dict
    weight: dict

    def min_cut_value(self, s: Node, t: Node) -> float:
        """Minimum s–t cut: lightest edge on the tree path s → t."""
        if s == t:
            raise AlgorithmError("endpoints must differ")
        depth = self._depths()
        best = float("inf")
        while s != t:
            if depth[s] >= depth[t]:
                best = min(best, self.weight[s])
                s = self.parent[s]
            else:
                best = min(best, self.weight[t])
                t = self.parent[t]
        return best

    def _depths(self) -> dict:
        depth = {self.root: 0}
        pending = [u for u in self.parent]
        while pending:
            remaining = []
            for u in pending:
                p = self.parent[u]
                if p in depth:
                    depth[u] = depth[p] + 1
                else:
                    remaining.append(u)
            if len(remaining) == len(pending):
                raise AlgorithmError("cycle in Gomory-Hu parent map")
            pending = remaining
        return depth

    def lightest_edge(self) -> tuple[Node, Node, float]:
        """The tree edge realising the global minimum cut."""
        child = min(self.weight, key=lambda u: (self.weight[u], repr(u)))
        return (child, self.parent[child], self.weight[child])


def gomory_hu_tree(graph: WeightedGraph) -> GomoryHuTree:
    """Build the cut tree with n−1 max-flow computations (Gusfield)."""
    graph.require_connected()
    nodes = graph.nodes
    if len(nodes) < 2:
        raise AlgorithmError("a cut tree needs at least two nodes")
    root = nodes[0]
    parent: dict[Node, Node] = {u: root for u in nodes[1:]}
    weight: dict[Node, float] = {}
    for i, u in enumerate(nodes[1:], start=1):
        target = parent[u]
        flow = max_flow_min_cut(graph, u, target)
        weight[u] = flow.value
        side = flow.source_side
        for v in nodes[i + 1 :]:
            if v in side and parent[v] == target:
                parent[v] = u
    return GomoryHuTree(root=root, parent=parent, weight=weight)


def gomory_hu_min_cut(graph: WeightedGraph) -> CutResult:
    """Global minimum cut via the cut tree's lightest edge.

    The witness side is recomputed with one extra max-flow across the
    lightest tree edge (keeps the tree construction simple)."""
    tree = gomory_hu_tree(graph)
    child, parent, value = tree.lightest_edge()
    flow = max_flow_min_cut(graph, child, parent)
    if abs(flow.value - value) > 1e-9:
        raise AlgorithmError(
            f"cut tree inconsistency: edge weight {value} vs flow {flow.value}"
        )
    return CutResult(value=value, side=frozenset(flow.source_side))
