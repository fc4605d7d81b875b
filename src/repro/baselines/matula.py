"""Matula's (2+ε) minimum-cut approximation — the Ghaffari–Kuhn analog.

The paper's headline comparison is against Ghaffari–Kuhn [DISC 2013],
whose (2+ε) guarantee comes from distributing Matula's certificate
argument.  We reproduce the *approximation behaviour* with the
centralized algorithm (DESIGN.md §5):

repeat until two super-nodes remain:
  1. the minimum weighted degree of the current contracted graph is a
     genuine cut of the original graph — track the best;
  2. with threshold ``k = best/(2+ε)``, contract every edge whose NI
     scan interval starts at or above ``k`` (its endpoints are
     k-edge-connected, so no cut smaller than ``k`` is destroyed);
  3. if nothing was contractible, fall back to one Stoer–Wagner phase
     (contract the last two nodes of a maximum-adjacency order, after
     recording the phase cut) — this preserves correctness and
     guarantees progress.

The returned value lies in ``[λ, (2+ε)·λ]``; experiment E3 measures the
realised ratios against the ground truth and against this library's
(1+ε) algorithm.
"""

from __future__ import annotations

from ..api.result import CutResult
from ..errors import AlgorithmError
from ..graphs.graph import Node, WeightedGraph
from .nagamochi_ibaraki import scan_intervals


def matula_approx_min_cut(graph: WeightedGraph, epsilon: float = 0.5) -> CutResult:
    """(2+ε)-approximate minimum cut (value and witness side)."""
    if epsilon <= 0:
        raise AlgorithmError(f"epsilon must be positive, got {epsilon}")
    graph.require_connected()
    if graph.number_of_nodes < 2:
        raise AlgorithmError("minimum cut requires at least two nodes")

    work = graph.copy()
    members: dict[Node, set[Node]] = {u: {u} for u in graph.nodes}
    best_value = float("inf")
    best_side: frozenset = frozenset()

    def consider(value: float, side: set[Node]) -> None:
        nonlocal best_value, best_side
        if value < best_value:
            best_value = value
            best_side = frozenset(side)

    while work.number_of_nodes > 1:
        arg = min(work.nodes, key=lambda u: (work.weighted_degree(u), repr(u)))
        consider(work.weighted_degree(arg), members[arg])
        if work.number_of_nodes == 2:
            break
        threshold = best_value / (2.0 + epsilon)
        contracted = _contract_above(work, members, threshold)
        if not contracted:
            _stoer_wagner_phase_fallback(work, members, consider)
    return CutResult(value=best_value, side=best_side)


def _contract_above(work: WeightedGraph, members, threshold: float) -> bool:
    """Contract all edges whose scan interval starts at/above threshold.

    Returns True when at least one contraction happened.  Contractions
    are applied through a union–find so that edges invalidated by
    earlier merges fold into the surviving super-node.
    """
    edges = [
        (u, v)
        for (u, v), (start, _w) in scan_intervals(work).items()
        if start >= threshold
    ]
    if not edges:
        return False
    leader = {u: u for u in work.nodes}

    def find(x):
        while leader[x] != x:
            leader[x] = leader[leader[x]]
            x = leader[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            leader[rv] = ru
    groups: dict[Node, list[Node]] = {}
    for u in work.nodes:
        groups.setdefault(find(u), []).append(u)
    for keep, group in groups.items():
        for absorb in group:
            if absorb != keep:
                _merge_nodes(work, members, keep, absorb)
    return True


def _stoer_wagner_phase_fallback(work: WeightedGraph, members, consider) -> None:
    """One maximum-adjacency phase: record the phase cut, contract the
    last two nodes (classic progress guarantee)."""
    order: list[Node] = []
    in_order: set[Node] = set()
    weights = {u: 0.0 for u in work.nodes}
    for _ in range(work.number_of_nodes):
        pick = max(
            (u for u in work.nodes if u not in in_order),
            key=lambda u: (weights[u], -_ord_rank(u)),
        )
        order.append(pick)
        in_order.add(pick)
        for v in work.neighbors(pick):
            if v not in in_order:
                weights[v] += work.weight(pick, v)
    last, second_last = order[-1], order[-2]
    consider(work.weighted_degree(last), members[last])
    _merge_nodes(work, members, second_last, last)


def _ord_rank(node: Node) -> float:
    return node if isinstance(node, int) else float(len(repr(node)))


def _merge_nodes(work: WeightedGraph, members, keep: Node, absorb: Node) -> None:
    for v in work.neighbors(absorb):
        if v != keep:
            work.add_edge(keep, v, work.weight(absorb, v))
    work.remove_node(absorb)
    members[keep] |= members.pop(absorb)
