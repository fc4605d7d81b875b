"""The exact oracle (``stoer_wagner_min_cut``) against independent solvers.

Every family of :data:`FAMILY_BUILDERS`, with unit, integer and random
float weights, is cross-checked against brute force (n ≤ 12) and
against the lightest Gomory–Hu tree edge (n up to 40).  A hypothesis
reweight walk drives one graph through arbitrary weight changes.  The
error contract and witness determinism are pinned too.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import (
    brute_force_min_cut,
    gomory_hu_tree,
    stoer_wagner_min_cut,
)
from repro.errors import AlgorithmError, DisconnectedGraphError
from repro.graphs import WeightedGraph
from repro.graphs.generators import FAMILY_BUILDERS, build_family, caveman_graph

WEIGHTINGS = ("unit", "int", "dyadic", "float")


def reweighted(graph: WeightedGraph, weighting: str, seed: int) -> WeightedGraph:
    """``graph``'s topology and insertion order with fresh edge weights."""
    rng = random.Random(f"{weighting}:{seed}")
    out = WeightedGraph()
    for u in graph.nodes:
        out.add_node(u)
    for u, v, w in graph.edges():
        if weighting == "int":
            w = float(rng.randint(1, 9))
        elif weighting == "dyadic":
            w = rng.randint(1, 32) / 8
        elif weighting == "float":
            w = rng.uniform(0.05, 3.0)
        out.add_edge(u, v, w)
    return out


def family_graph(family: str, n: int, seed: int):
    """The family instance at ~``n``, or ``None`` when it has < 2 nodes or
    cannot be built that small (``regular`` needs n > 4).  The family
    builder keeps caveman at ≥ 18 nodes, so small sizes use 3 caves of 4."""
    if family == "caveman" and n <= 12:
        return caveman_graph(3, 4)
    try:
        graph = build_family(family, n, seed=seed)
    except AlgorithmError:
        return None
    return graph if graph.number_of_nodes >= 2 else None


def agrees(oracle: float, other: float, weighting: str) -> bool:
    """Integer and dyadic sums are exact; float sums may differ by ulps."""
    if weighting == "float":
        return oracle == pytest.approx(other, rel=1e-9)
    return oracle == other


def check_witness(graph: WeightedGraph, result) -> None:
    # The value is the witness re-valued on the graph, bit for bit.
    assert result.verify(graph) == result.value


@pytest.mark.parametrize("weighting", WEIGHTINGS)
@pytest.mark.parametrize("family", sorted(FAMILY_BUILDERS))
def test_matches_brute_force(family, weighting):
    checked = 0
    for n in (5, 8, 12):
        for seed in range(3):
            graph = family_graph(family, n, seed)
            if graph is None or graph.number_of_nodes > 12:
                continue
            graph = reweighted(graph, weighting, seed)
            result = stoer_wagner_min_cut(graph)
            check_witness(graph, result)
            truth = brute_force_min_cut(graph).value
            assert agrees(result.value, truth, weighting), (family, n, seed)
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("weighting", WEIGHTINGS)
@pytest.mark.parametrize("family", sorted(FAMILY_BUILDERS))
def test_matches_lightest_gomory_hu_edge(family, weighting):
    for n, seed in ((20, 1), (40, 2)):
        graph = family_graph(family, n, seed)
        if graph is None:
            continue
        graph = reweighted(graph, weighting, seed)
        result = stoer_wagner_min_cut(graph)
        check_witness(graph, result)
        lightest = gomory_hu_tree(graph).lightest_edge()[2]
        assert agrees(result.value, lightest, weighting), (family, n)


def walk_graph() -> WeightedGraph:
    graph = build_family("gnp", 10, seed=4)
    if not graph.has_edge(0, 9):
        graph.add_edge(0, 9, 0.5)
    return graph


WALK_EDGES = [(u, v) for u, v, _w in walk_graph().edges()]


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(
        st.tuples(
            st.integers(0, len(WALK_EDGES) - 1),
            st.one_of(
                st.integers(1, 12).map(float),
                st.integers(1, 64).map(lambda k: k / 16),
                st.floats(0.01, 20.0, allow_nan=False, allow_infinity=False),
            ),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_reweight_walk_matches_brute_force(steps):
    graph = walk_graph()
    for edge, weight in steps:
        graph.set_edge_weight(*WALK_EDGES[edge], weight)
        result = stoer_wagner_min_cut(graph)
        check_witness(graph, result)
        assert result.value == pytest.approx(
            brute_force_min_cut(graph).value, rel=1e-9
        )


class TestContract:
    def test_disconnected_raises_disconnected_error(self):
        with pytest.raises(DisconnectedGraphError):
            stoer_wagner_min_cut(WeightedGraph([(0, 1), (2, 3)]))

    def test_empty_graph_raises_disconnected_error(self):
        with pytest.raises(DisconnectedGraphError):
            stoer_wagner_min_cut(WeightedGraph())

    def test_one_node_raises_algorithm_error(self):
        graph = WeightedGraph()
        graph.add_node("solo")
        with pytest.raises(AlgorithmError, match="at least two nodes"):
            stoer_wagner_min_cut(graph)

    @pytest.mark.parametrize("family", ["gnp", "grid", "cycle", "complete", "caveman"])
    def test_repeated_solves_return_the_same_witness(self, family):
        graph = reweighted(build_family(family, 24, seed=5), "int", 5)
        first = stoer_wagner_min_cut(graph)
        assert stoer_wagner_min_cut(graph) == first
        assert stoer_wagner_min_cut(graph.copy()).side == first.side

    def test_tied_cuts_pick_a_proper_side(self):
        # Every node of a cycle is a min-degree witness and every pair
        # of edges a minimum cut: the witness must still be proper.
        graph = build_family("cycle", 12)
        result = stoer_wagner_min_cut(graph)
        assert result.value == 2.0
        assert 0 < len(result.side) < 12
        check_witness(graph, result)
