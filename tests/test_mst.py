"""MST substrate tests: Kruskal, Prim, distributed Borůvka, KP wrapper."""

import pytest

from repro.congest import CongestNetwork
from repro.errors import AlgorithmError
from repro.graphs import (
    WeightedGraph,
    complete_graph,
    connected_gnp_graph,
    cycle_graph,
    is_spanning_tree,
    path_graph,
)
from repro.mst import (
    boruvka_mst,
    edge_total_order,
    kutten_peleg_mst,
    kutten_peleg_round_cost,
    log_star,
    minimum_spanning_tree,
    minimum_spanning_tree_prim,
    tree_weight,
)


def _edge_set(tree):
    return {frozenset(e) for e in tree.edges()}


class TestKruskal:
    def test_known_mst(self):
        g = WeightedGraph(
            [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0), (2, 3, 1.0), (1, 3, 4.0)]
        )
        tree = minimum_spanning_tree(g)
        assert _edge_set(tree) == {
            frozenset({0, 1}),
            frozenset({1, 2}),
            frozenset({2, 3}),
        }
        assert tree_weight(g, tree) == 4.0

    def test_spans(self):
        g = connected_gnp_graph(30, 0.2, seed=1, weight_range=(1.0, 9.0))
        tree = minimum_spanning_tree(g)
        assert is_spanning_tree(g, list(tree.edges()))

    def test_custom_key_overrides_weight(self):
        g = WeightedGraph([(0, 1, 10.0), (1, 2, 1.0), (0, 2, 1.0)])
        # Inverted key prefers the heavy edge.
        tree = minimum_spanning_tree(g, key=lambda u, v, w: -w)
        assert frozenset({0, 1}) in _edge_set(tree)

    def test_root_parameter(self):
        g = cycle_graph(5)
        tree = minimum_spanning_tree(g, root=3)
        assert tree.root == 3

    def test_disconnected_rejected(self):
        g = WeightedGraph([(0, 1), (2, 3)])
        with pytest.raises(Exception):
            minimum_spanning_tree(g)

    def test_single_node(self):
        g = WeightedGraph()
        g.add_node(4)
        tree = minimum_spanning_tree(g)
        assert tree.nodes == [4]

    def test_deterministic_under_ties(self):
        g = complete_graph(8)  # all weights equal
        t1 = minimum_spanning_tree(g)
        t2 = minimum_spanning_tree(g)
        assert _edge_set(t1) == _edge_set(t2)


class TestPrimAgreement:
    @pytest.mark.parametrize("seed", range(6))
    def test_same_weight_as_kruskal(self, seed):
        g = connected_gnp_graph(25, 0.3, seed=seed, weight_range=(1.0, 9.0))
        k = minimum_spanning_tree(g)
        p = minimum_spanning_tree_prim(g)
        assert tree_weight(g, k) == pytest.approx(tree_weight(g, p))

    def test_same_edges_with_distinct_weights(self):
        g = WeightedGraph()
        weight = 1.0
        for u in range(6):
            for v in range(u + 1, 6):
                g.add_edge(u, v, weight)
                weight += 0.5
        assert _edge_set(minimum_spanning_tree(g)) == _edge_set(
            minimum_spanning_tree_prim(g)
        )

    def test_prim_unknown_root(self):
        with pytest.raises(AlgorithmError):
            minimum_spanning_tree_prim(path_graph(3), root=9)


class TestBoruvkaCongest:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_kruskal_exactly(self, seed):
        g = connected_gnp_graph(22, 0.3, seed=seed, weight_range=(1.0, 9.0))
        net = CongestNetwork(g)
        b = boruvka_mst(net)
        k = minimum_spanning_tree(g)
        assert _edge_set(b) == _edge_set(k)

    def test_all_equal_weights_tie_break(self):
        g = complete_graph(9)
        net = CongestNetwork(g)
        b = boruvka_mst(net)
        k = minimum_spanning_tree(g)
        assert _edge_set(b) == _edge_set(k)

    @pytest.mark.parametrize("seed", range(3))
    def test_tuple_node_ids_match_kruskal(self, seed):
        base = connected_gnp_graph(25, 0.3, seed=seed, weight_range=(1.0, 9.0))
        g = WeightedGraph([(divmod(u, 5), divmod(v, 5), w) for u, v, w in base.edges()])
        b = boruvka_mst(CongestNetwork(g))
        assert _edge_set(b) == _edge_set(minimum_spanning_tree(g))

    def test_custom_edge_key(self):
        g = WeightedGraph([(0, 1, 10.0), (1, 2, 1.0), (0, 2, 1.0)])
        net = CongestNetwork(g)
        b = boruvka_mst(net, edge_key=lambda ctx, v: -ctx.edge_weight(v))
        assert frozenset({0, 1}) in _edge_set(b)

    def test_marked_edges_in_node_memory(self):
        g = cycle_graph(6)
        net = CongestNetwork(g)
        b = boruvka_mst(net)
        for child, parent in b.edges():
            assert parent in net.memory[child]["mst:marked"]
            assert child in net.memory[parent]["mst:marked"]

    def test_iteration_count_logarithmic(self):
        g = path_graph(32)
        net = CongestNetwork(g)
        boruvka_mst(net)
        comp_phases = [p for p in net.metrics.phases if p.name.startswith("mst:comp")]
        assert len(comp_phases) <= 7  # ceil(log2 32) + safety


class TestKuttenPelegWrapper:
    def test_same_tree_with_charged_cost(self):
        g = connected_gnp_graph(20, 0.3, seed=2, weight_range=(1.0, 9.0))
        net = CongestNetwork(g)
        tree = kutten_peleg_mst(g, network=net, diameter_hint=4)
        assert _edge_set(tree) == _edge_set(minimum_spanning_tree(g))
        assert net.metrics.charged_rounds == kutten_peleg_round_cost(20, 4)

    def test_no_network_no_charge(self):
        g = cycle_graph(5)
        tree = kutten_peleg_mst(g)
        assert is_spanning_tree(g, list(tree.edges()))

    def test_log_star_values(self):
        assert log_star(2) == 1
        assert log_star(4) == 2
        assert log_star(16) == 3
        assert log_star(65536) == 4

    def test_cost_grows_with_sqrt_n(self):
        small = kutten_peleg_round_cost(100, 5)
        large = kutten_peleg_round_cost(10000, 5)
        assert large > small
        assert large <= 10 * small + 100

    def test_edge_total_order(self):
        assert edge_total_order(3, 1, 2.0) == (2.0, 1, 3)
        assert edge_total_order(1, 3, 2.0) == (2.0, 1, 3)
        assert edge_total_order(1, 2, 1.0) < edge_total_order(1, 2, 2.0)
