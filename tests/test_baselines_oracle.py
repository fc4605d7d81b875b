"""The exact oracle (``stoer_wagner_min_cut``) against independent solvers.

Every family of :data:`FAMILY_BUILDERS`, with unit, integer and random
float weights, is cross-checked against brute force (n ≤ 12) and
against the lightest Gomory–Hu tree edge (n up to 40).  A hypothesis
reweight walk drives one graph through arbitrary weight changes.  The
error contract and witness determinism are pinned too.

The oracle's scan once kept a lazy-deletion heap for every pick; that
version is kept here as :func:`_reference_min_cut`, and the shipped
oracle must return its value and side bit for bit (``TestIdentity``).
Nothing else guards that: the benchmark's expected answers come from
the shipped oracle itself.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.result import CutResult
from repro.baselines import (
    brute_force_min_cut,
    gomory_hu_tree,
    stoer_wagner_min_cut,
)
from repro.baselines.stoer_wagner import SPARSE_DEGREE, _scan
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


def _reference_min_cut(graph: WeightedGraph) -> CutResult:
    """The oracle as it was before its scan dropped the heap, verbatim.
    Kept as the reference the shipped oracle must match bit for bit."""
    graph.require_connected()
    if graph.number_of_nodes < 2:
        raise AlgorithmError("minimum cut requires at least two nodes")
    index = graph.index()
    n = index.node_count
    starts, targets, weights = index.adj_start, index.adj_target, index.adj_weight
    adjacency = {
        i: dict(zip(targets[starts[i]:starts[i + 1]], weights[starts[i]:starts[i + 1]]))
        for i in range(n)
    }
    members = {i: [i] for i in range(n)}
    degree = {i: sum(nbrs.values()) for i, nbrs in adjacency.items()}
    best = min(degree, key=degree.__getitem__)
    bound, best_side = degree[best], [best]

    while len(adjacency) > 2:
        parent = list(range(n))
        last, second_last, phase_cut, contracted = _reference_scan(
            adjacency, n, bound, parent
        )
        if phase_cut < bound:
            bound, best_side = phase_cut, list(members[last])
        if not contracted:
            parent[last] = second_last
        for root in _reference_contract(adjacency, members, parent):
            degree = sum(adjacency[root].values())
            if degree < bound and len(adjacency) > 1:
                bound, best_side = degree, list(members[root])

    side = frozenset(index.nodes[i] for i in best_side)
    return CutResult(value=graph.cut_value(side), side=side)


def _reference_find(parent: list, x: int) -> int:
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _reference_scan(adjacency: dict, n: int, bound: float, parent: list):
    """The heap scan: one push per edge increment, stale pops skipped."""
    r = [0.0] * n
    scanned = [False] * n
    start = next(iter(adjacency))
    heap = [(0.0, start)]
    last = second_last = start
    contracted = False
    while heap:
        x = heappop(heap)[1]
        if scanned[x]:
            continue
        scanned[x] = True
        second_last, last = last, x
        for y, w in adjacency[x].items():
            if not scanned[y]:
                q = r[y] = r[y] + w
                if q >= bound:
                    a, b = _reference_find(parent, x), _reference_find(parent, y)
                    if a != b:
                        parent[b] = a
                    contracted = True
                heappush(heap, (-q, y))
    return last, second_last, r[last], contracted


def _reference_contract(adjacency: dict, members: dict, parent: list) -> list:
    merged = {}
    for v in list(adjacency):
        keep = _reference_find(parent, v)
        if keep == v:
            continue
        merged[keep] = None
        kept = adjacency[keep]
        for u, w in adjacency.pop(v).items():
            neighbour = adjacency[u]
            del neighbour[v]
            if u != keep:
                kept[u] = neighbour[keep] = kept.get(u, 0.0) + w
        members[keep] += members.pop(v)
    return list(merged)


def assert_same_cut(graph: WeightedGraph) -> None:
    result, reference = stoer_wagner_min_cut(graph), _reference_min_cut(graph)
    assert (result.value, result.side) == (reference.value, reference.side)


#: Edge weights for the identity checks: integers, dyadic and
#: non-dyadic fractions (float sums whose rounding depends on order).
IDENTITY_WEIGHTS = st.one_of(
    st.integers(1, 9).map(float),
    st.integers(1, 64).map(lambda k: k / 8),
    st.sampled_from([0.1, 0.2, 0.3, 1 / 3, 2 / 3]),
    st.floats(0.01, 20.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def connected_graphs(draw) -> WeightedGraph:
    """A random spanning tree plus random chords, nodes added in a random
    order (so index ids differ from labels), sparse up to complete."""
    n = draw(st.integers(2, 24))
    order = draw(st.permutations(range(n)))
    graph = WeightedGraph()
    for u in order:
        graph.add_node(u)
    for v in range(1, n):
        graph.add_edge(draw(st.integers(0, v - 1)), v, draw(IDENTITY_WEIGHTS))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    for u, v in draw(st.lists(st.sampled_from(pairs), max_size=n * (n - 1) // 2)):
        graph.add_edge(u, v, draw(IDENTITY_WEIGHTS))
    return graph


def reweight_walk(seed: int, states: int) -> list:
    """Serve-mutate-style states of one gnp n=64 graph: each state lowers
    four random edges by a factor of 0.5–0.9 (rounded to 6 places; an
    edge under 0.05 restarts at 1–2)."""
    rng = random.Random(f"walk:{seed}")
    graph = build_family("gnp", 64, seed=seed)
    edges = sorted((u, v) for u, v, _w in graph.edges())
    out = []
    for _ in range(states):
        for _ in range(4):
            u, v = edges[rng.randrange(len(edges))]
            weight = round(graph.weight(u, v) * rng.choice((0.5, 0.6, 0.7, 0.8, 0.9)), 6)
            if weight < 0.05:
                weight = round(rng.uniform(1.0, 2.0), 6)
            graph.set_edge_weight(u, v, weight)
        out.append(graph.copy())
    return out


class TestIdentity:
    """The block/heap scan returns the heap scan's value and side."""

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(connected_graphs())
    def test_random_graphs(self, graph):
        assert_same_cut(graph)

    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    @pytest.mark.parametrize("family", sorted(FAMILY_BUILDERS))
    def test_every_family_and_weighting(self, family, weighting):
        for n, seed in ((12, 0), (40, 1), (100, 2)):
            graph = family_graph(family, n, seed)
            if graph is not None:
                assert_same_cut(reweighted(graph, weighting, seed))

    @pytest.mark.parametrize("weighting", ["unit", "float"])
    def test_complete_graphs(self, weighting):
        for n in range(2, 41):
            assert_same_cut(reweighted(build_family("complete", n), weighting, n))

    def test_serve_mutate_reweight_walk(self):
        for graph in reweight_walk(seed=11, states=200):
            assert_same_cut(graph)

    @pytest.mark.parametrize("degree", [3, SPARSE_DEGREE - 1, SPARSE_DEGREE, 16])
    def test_scan_matches_on_both_sides_of_the_density_switch(self, degree):
        # One scan over a half-contracted id space, with tied scan
        # values: the same last two nodes, phase cut and unions as the
        # heap scan, whichever pick the live graph's density selects.
        rng = random.Random(degree)
        n = 200
        live = sorted(rng.sample(range(n), 100))
        adjacency = {v: {} for v in live}
        for i, v in enumerate(live):
            u = live[i - 1]
            adjacency[u][v] = adjacency[v][u] = rng.randint(1, 4) / 2
        while sum(map(len, adjacency.values())) < degree * len(live):
            u, v = rng.sample(live, 2)
            adjacency[u][v] = adjacency[v][u] = adjacency[u].get(v, 0.0) + rng.randint(1, 4) / 4
        unscanned = [-float("inf")] * n
        for v in live:
            unscanned[v] = 0.0
        bound = sorted(sum(nbrs.values()) for nbrs in adjacency.values())[10]
        parent, reference_parent = list(range(n)), list(range(n))
        assert _scan(adjacency, unscanned, bound, parent) == _reference_scan(
            adjacency, n, bound, reference_parent
        )
        assert parent == reference_parent
