"""Karger's randomized contraction and the Karger–Stein refinement.

Contraction picks a random edge with probability proportional to its
weight and merges its endpoints; after n−2 contractions the two
remaining super-nodes define a cut that is a minimum cut with
probability ≥ 2/n².  Karger–Stein recurses on two independent copies
once the graph shrinks below ``n/√2 + 1``, lifting the success
probability to Ω(1/log n) per run.

Both return the best cut over ``repetitions`` runs; seeds make them
reproducible.  These are *Monte Carlo* baselines: tests compare them to
Stoer–Wagner with enough repetitions to make failure vanishingly rare.
"""

from __future__ import annotations

import math
import random
from typing import Optional

from ..api.result import CutResult
from ..errors import AlgorithmError
from ..graphs.graph import Node, WeightedGraph


class _ContractedGraph:
    """Mutable contraction state: super-node adjacency + member sets."""

    def __init__(self, graph: WeightedGraph) -> None:
        self.adjacency: dict[Node, dict[Node, float]] = {
            u: {v: graph.weight(u, v) for v in graph.neighbors(u)}
            for u in graph.nodes
        }
        self.members: dict[Node, set[Node]] = {u: {u} for u in graph.nodes}

    def copy(self) -> "_ContractedGraph":
        clone = object.__new__(_ContractedGraph)
        clone.adjacency = {u: dict(nbrs) for u, nbrs in self.adjacency.items()}
        clone.members = {u: set(m) for u, m in self.members.items()}
        return clone

    @property
    def size(self) -> int:
        return len(self.adjacency)

    def random_edge(self, rng: random.Random) -> tuple[Node, Node]:
        """Sample an edge with probability proportional to weight."""
        total = 0.0
        edges: list[tuple[Node, Node, float]] = []
        seen = set()
        for u, nbrs in self.adjacency.items():
            for v, w in nbrs.items():
                key = (u, v) if repr(u) <= repr(v) else (v, u)
                if key in seen:
                    continue
                seen.add(key)
                edges.append((key[0], key[1], w))
                total += w
        pick = rng.random() * total
        acc = 0.0
        for u, v, w in edges:
            acc += w
            if pick <= acc:
                return u, v
        return edges[-1][0], edges[-1][1]

    def contract(self, keep: Node, absorb: Node) -> None:
        for v, w in self.adjacency[absorb].items():
            if v == keep:
                continue
            self.adjacency[keep][v] = self.adjacency[keep].get(v, 0.0) + w
            self.adjacency[v][keep] = self.adjacency[keep][v]
            del self.adjacency[v][absorb]
        self.adjacency[keep].pop(absorb, None)
        del self.adjacency[absorb]
        self.members[keep] |= self.members.pop(absorb)

    def contract_down_to(self, target: int, rng: random.Random) -> None:
        while self.size > target:
            u, v = self.random_edge(rng)
            self.contract(u, v)

    def as_cut(self) -> CutResult:
        if self.size != 2:
            raise AlgorithmError("cut extraction requires exactly two super-nodes")
        u, v = self.adjacency
        return CutResult(
            value=self.adjacency[u][v], side=frozenset(self.members[u])
        )


def karger_min_cut(
    graph: WeightedGraph,
    repetitions: Optional[int] = None,
    seed: int = 0,
) -> CutResult:
    """Best cut over ``repetitions`` basic contraction runs.

    The default repetition count ``⌈n² ln n / 2⌉`` makes the failure
    probability O(1/n); tests use smaller counts on tiny graphs.
    """
    graph.require_connected()
    n = graph.number_of_nodes
    if n < 2:
        raise AlgorithmError("minimum cut requires at least two nodes")
    runs = repetitions if repetitions is not None else _default_runs(n)
    rng = random.Random(seed)
    best: Optional[CutResult] = None
    base = _ContractedGraph(graph)
    for _ in range(runs):
        state = base.copy()
        state.contract_down_to(2, rng)
        candidate = state.as_cut()
        if best is None or candidate.value < best.value:
            best = candidate
    assert best is not None
    return best


def karger_stein_min_cut(
    graph: WeightedGraph,
    repetitions: Optional[int] = None,
    seed: int = 0,
) -> CutResult:
    """Best cut over ``repetitions`` Karger–Stein recursions (default
    ``⌈log2(n)²⌉`` runs)."""
    graph.require_connected()
    n = graph.number_of_nodes
    if n < 2:
        raise AlgorithmError("minimum cut requires at least two nodes")
    runs = (
        repetitions
        if repetitions is not None
        else max(1, int(math.ceil(math.log2(max(2, n)) ** 2)))
    )
    rng = random.Random(seed)
    base = _ContractedGraph(graph)
    best: Optional[CutResult] = None
    for _ in range(runs):
        candidate = _recursive_contract(base.copy(), rng)
        if best is None or candidate.value < best.value:
            best = candidate
    assert best is not None
    return best


def _recursive_contract(state: _ContractedGraph, rng: random.Random) -> CutResult:
    n = state.size
    if n <= 6:
        state.contract_down_to(2, rng)
        return state.as_cut()
    target = int(math.ceil(n / math.sqrt(2))) + 1
    first = state.copy()
    first.contract_down_to(target, rng)
    second = state
    second.contract_down_to(target, rng)
    left = _recursive_contract(first, rng)
    right = _recursive_contract(second, rng)
    return left if left.value <= right.value else right


def _default_runs(n: int) -> int:
    return max(1, int(math.ceil(n * n * math.log(max(2, n)) / 2)))
