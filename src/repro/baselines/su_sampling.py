"""Su's SPAA 2014 approach: sampling + bridge finding (concurrent result).

The paper's "Concurrent Result" section describes Su's independent
(1+ε)-approximation: sample edges at increasing rates until the sampled
graph's minimum cut drops to one, then find a *bridge* of the sampled
graph (Thurimella's algorithm, here Tarjan's — DESIGN.md §5); the bridge's
side is w.h.p. an approximate minimum cut of the original graph.  Unlike
the paper's own algorithm this cannot return the exact cut even for
small λ — the drawback the paper notes — which experiment E3 makes
visible as a ratio strictly above 1 on some seeds.

This implementation sweeps a geometric schedule of sampling rates; for
each rate it draws a few skeletons, and every skeleton that is
disconnected (rate too low — the component is itself a cut candidate)
or has a bridge contributes the *original-graph* value of the induced
side.  The best candidate over the sweep is returned.
"""

from __future__ import annotations

import random

from ..api.result import CutResult
from ..errors import AlgorithmError
from ..graphs.graph import WeightedGraph
from ..sampling.skeleton import sample_skeleton
from .bridges import bridge_component, find_bridges

DEFAULT_RATE_STEPS = 12
DEFAULT_TRIALS_PER_RATE = 3


def su_approx_min_cut(
    graph: WeightedGraph,
    seed: int = 0,
    rate_steps: int = DEFAULT_RATE_STEPS,
    trials_per_rate: int = DEFAULT_TRIALS_PER_RATE,
) -> CutResult:
    """Sampling + bridge baseline (see module docstring).

    Always returns a valid cut (candidates are re-evaluated in the
    original graph), falling back to the best singleton cut if no sampled
    skeleton produced a candidate — so the result is an upper bound on λ
    that concentrates near λ with enough trials.
    """
    graph.require_connected()
    if graph.number_of_nodes < 2:
        raise AlgorithmError("minimum cut requires at least two nodes")
    rng = random.Random(seed)
    node_set = set(graph.nodes)

    best = _best_singleton(graph)
    for step in range(rate_steps):
        probability = 2.0 ** (-(step + 1))
        for _ in range(trials_per_rate):
            skeleton = sample_skeleton(graph, probability, rng=rng)
            candidate_sides = []
            components = skeleton.connected_components()
            if len(components) > 1:
                candidate_sides.extend(components[:-1])
            else:
                bridges = find_bridges(skeleton)
                if bridges:
                    candidate_sides.append(bridge_component(skeleton, bridges[0]))
            for side in candidate_sides:
                if 0 < len(side) < len(node_set):
                    value = graph.cut_value(side)
                    if value < best.value:
                        best = CutResult(value=value, side=frozenset(side))
    return best


def _best_singleton(graph: WeightedGraph) -> CutResult:
    node = min(graph.nodes, key=lambda u: (graph.weighted_degree(u), repr(u)))
    return CutResult(
        value=graph.weighted_degree(node), side=frozenset({node})
    )
