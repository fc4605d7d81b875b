"""Exhaustive minimum cut for tiny graphs — the base of the validation
pyramid (Stoer–Wagner is checked against it; everything else against
Stoer–Wagner)."""

from __future__ import annotations

from itertools import combinations

from ..api.result import CutResult
from ..api.solvers import MAX_BRUTE_FORCE_NODES
from ..errors import AlgorithmError
from ..graphs.graph import WeightedGraph


def brute_force_min_cut(graph: WeightedGraph) -> CutResult:
    """Try every proper nonempty side containing the first node.

    Fixing the first node on one side halves the work and enumerates
    every cut exactly once.  Limited to ``MAX_BRUTE_FORCE_NODES`` nodes.
    """
    graph.require_connected()
    nodes = graph.nodes
    n = len(nodes)
    if n < 2:
        raise AlgorithmError("minimum cut requires at least two nodes")
    if n > MAX_BRUTE_FORCE_NODES:
        raise AlgorithmError(
            f"brute force is limited to {MAX_BRUTE_FORCE_NODES} nodes, got {n}"
        )
    anchor, *rest = nodes
    best_value = float("inf")
    best_side: frozenset = frozenset()
    for take in range(len(rest) + 1):
        for extra in combinations(rest, take):
            side = {anchor, *extra}
            if len(side) == n:
                continue
            value = graph.cut_value(side)
            if value < best_value:
                best_value = value
                best_side = frozenset(side)
    return CutResult(value=best_value, side=best_side)
