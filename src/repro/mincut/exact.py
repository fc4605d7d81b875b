"""Exact minimum cut via tree packing + 1-respecting cuts (main result).

The paper's exact algorithm: greedily pack trees (Thorup), compute the
minimum 1-respecting cut of each (Theorem 2.1), and return the best.
Thorup's theorem guarantees that once ``Θ(λ^7 log^3 n)`` trees are
packed, some tree 1-respects a minimum cut — so the best per-tree value
*is* λ.  The theoretical count is astronomical; empirically a handful of
trees suffice (experiment E4 quantifies this), so the driver defaults to
an *adaptive* schedule: keep packing until ``patience`` consecutive
trees fail to improve the best cut, up to ``max_trees``.  Passing
``tree_count`` pins the schedule (e.g. to the Thorup bound, if you have
the patience).

Modes
-----
``reference``
    Per-tree 1-respecting cuts are computed centrally — fast, used for
    skeleton post-processing and ground-truth-adjacent workflows.
``congest``
    Every tree's Theorem 2.1 run executes on the CONGEST simulator
    (real messages, measured rounds) and each tree's construction is
    charged the Kutten–Peleg MST cost, reproducing the paper's
    ``O~((√n + D)·#trees)`` total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..config import MODES
from ..errors import AlgorithmError
from ..congest.metrics import RunMetrics
from ..congest.network import CongestNetwork
from ..core.one_respect_congest import one_respecting_min_cut_congest
from ..core.one_respect_reference import one_respecting_min_cut_reference
from ..graphs.graph import WeightedGraph
from ..graphs.trees import RootedTree
from ..mst.kutten_peleg import kutten_peleg_round_cost
from ..packing.greedy import GreedyTreePacking


@dataclass(frozen=True)
class ExactMinCut:
    """Result of the packing-based exact algorithm.

    ``tree_index`` is the 1-based index of the packing tree whose
    1-respecting minimum realised the best value; ``per_tree_values``
    records each tree's ``c*`` in packing order; ``metrics`` is present
    in congest mode (measured + charged rounds).
    """

    value: float
    side: frozenset
    tree_index: int
    per_tree_values: tuple[float, ...]
    metrics: Optional[RunMetrics]

    @property
    def trees_used(self) -> int:
        return len(self.per_tree_values)


def default_tree_schedule(n: int) -> tuple[int, int]:
    """(patience, max_trees) for the adaptive schedule: stop after 4
    stale trees, never exceed ``2·⌈log2 n⌉ + 8``."""
    return 4, 2 * math.ceil(math.log2(max(2, n))) + 8


def minimum_cut_exact(
    graph: WeightedGraph,
    mode: str = "reference",
    tree_count: Optional[int] = None,
    patience: Optional[int] = None,
    max_trees: Optional[int] = None,
    diameter_hint: Optional[int] = None,
) -> ExactMinCut:
    """Run the paper's exact algorithm (see module docstring)."""
    if mode not in MODES:
        raise AlgorithmError(f"mode must be one of {MODES}, got {mode!r}")
    graph.require_connected()
    n = graph.number_of_nodes
    if n < 2:
        raise AlgorithmError("minimum cut requires at least two nodes")

    default_patience, default_max = default_tree_schedule(n)
    stale_limit = patience if patience is not None else default_patience
    limit = max_trees if max_trees is not None else default_max
    if tree_count is not None:
        stale_limit = tree_count  # never stop early
        limit = tree_count

    network = CongestNetwork(graph) if mode == "congest" else None
    packing = GreedyTreePacking(graph)
    best_value = float("inf")
    best_tree: Optional[RootedTree] = None
    best_node = None
    best_index = 0
    per_tree: list[float] = []
    stale = 0
    if mode == "congest" and diameter_hint is None:
        from ..graphs.properties import eccentricity

        diameter_hint = eccentricity(graph, graph.nodes[0])

    while len(per_tree) < limit:
        tree = packing.next_tree()
        if mode == "congest":
            assert network is not None
            network.charge(
                kutten_peleg_round_cost(n, diameter_hint or 0),
                f"Kutten-Peleg MST for packing tree {len(per_tree) + 1}",
            )
            outcome = one_respecting_min_cut_congest(graph, tree, network=network)
            value, witness = outcome.best_value, outcome.best_node
        else:
            outcome = one_respecting_min_cut_reference(graph, tree)
            value, witness = outcome.best_value, outcome.best_node
        per_tree.append(value)
        if value < best_value - 1e-12:
            best_value = value
            best_tree = tree
            best_node = witness
            best_index = len(per_tree)
            stale = 0
        else:
            stale += 1
            if tree_count is None and stale >= stale_limit:
                break

    assert best_tree is not None
    return ExactMinCut(
        value=best_value,
        side=frozenset(best_tree.subtree(best_node)),
        tree_index=best_index,
        per_tree_values=tuple(per_tree),
        metrics=network.metrics if network is not None else None,
    )
