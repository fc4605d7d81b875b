"""Tree packing tests: greedy loads, respect predicates, Thorup behaviour."""

import pytest

from repro.errors import AlgorithmError
from repro.graphs import (
    RootedTree,
    complete_graph,
    connected_gnp_graph,
    cycle_graph,
    edge_key,
    is_spanning_tree,
    planted_cut_graph,
    planted_cut_sides,
)
from repro.packing import (
    GreedyTreePacking,
    crossing_count,
    crossing_tree_edges,
    greedy_tree_packing,
    one_respects,
    respecting_subtree_node,
    thorup_tree_bound,
    trees_until_one_respecting,
)


def _kruskal_packing(graph, count):
    """The packing spelled out: Kruskal under the relative-load key."""
    from repro.mst import minimum_spanning_tree

    usage = {edge_key(u, v): 0 for u, v, _w in graph.edges()}
    trees = []
    for _ in range(count):
        tree = minimum_spanning_tree(
            graph, key=lambda u, v, w: usage[edge_key(u, v)] / w
        )
        for child, parent in tree.edges():
            usage[edge_key(child, parent)] += 1
        trees.append(tree)
    return trees


class TestGreedyPacking:
    @pytest.mark.parametrize(
        "graph",
        [
            complete_graph(7),  # all ties: the endpoint order decides
            connected_gnp_graph(18, 0.35, seed=2),
            planted_cut_graph((6, 6), cut_value=2, seed=3),
        ],
        ids=["complete-7", "gnp-18", "planted-12"],
    )
    def test_trees_equal_kruskal_under_relative_load(self, graph):
        expected = _kruskal_packing(graph, 6)
        packed = greedy_tree_packing(graph, 6)
        assert [(t.root, list(t.edges())) for t in packed] == [
            (t.root, list(t.edges())) for t in expected
        ]

    def test_string_nodes_keep_the_repr_tie_order(self):
        from repro.graphs import WeightedGraph

        g = WeightedGraph(
            [("b", "a"), ("a", "c"), ("c", "b"), ("c", "d", 2.0), ("d", "a")]
        )
        expected = _kruskal_packing(g, 4)
        packed = greedy_tree_packing(g, 4)
        assert [(t.root, list(t.edges())) for t in packed] == [
            (t.root, list(t.edges())) for t in expected
        ]

    def test_trees_are_spanning(self):
        g = connected_gnp_graph(18, 0.35, seed=2)
        for tree in greedy_tree_packing(g, 4):
            assert is_spanning_tree(g, list(tree.edges()))

    def test_loads_count_tree_usage(self):
        g = cycle_graph(5)
        packing = GreedyTreePacking(g)
        packing.grow_to(3)
        total_usage = sum(packing.usage.values())
        assert total_usage == 3 * 4  # 3 trees x (n-1) edges

    def test_second_tree_minimises_reuse_on_dense_graph(self):
        g = complete_graph(6)
        packing = GreedyTreePacking(g)
        t1 = packing.next_tree()
        t2 = packing.next_tree()
        e1 = {frozenset(e) for e in t1.edges()}
        e2 = {frozenset(e) for e in t2.edges()}
        # The first K6 tree is the star at node 0 (ties by endpoint
        # order), which exhausts node 0's edges — so the second tree must
        # reuse exactly one loaded edge (to reach node 0) and no more.
        assert len(e1 & e2) == 1
        (reused,) = e1 & e2
        assert 0 in reused

    def test_relative_load_uses_weight_as_capacity(self):
        g = cycle_graph(4)
        g.set_edge_weight(0, 1, 4.0)
        packing = GreedyTreePacking(g)
        packing.grow_to(2)
        # The heavy edge absorbs usage at a quarter of the load cost.
        assert packing.relative_load(0, 1) == packing.usage[edge_key(0, 1)] / 4.0

    def test_cycle_packing_rotates_excluded_edge(self):
        g = cycle_graph(4)
        packing = GreedyTreePacking(g)
        excluded = []
        for tree in packing.grow_to(4):
            tree_edges = {frozenset(e) for e in tree.edges()}
            all_edges = {frozenset({u, v}) for u, v, _ in g.edges()}
            (missing,) = all_edges - tree_edges
            excluded.append(missing)
        assert len(set(excluded)) >= 3  # different edges get excluded

    def test_invalid_count(self):
        with pytest.raises(AlgorithmError):
            greedy_tree_packing(cycle_graph(4), 0)

    def test_iterator_protocol(self):
        packing = GreedyTreePacking(cycle_graph(5))
        it = iter(packing)
        first = next(it)
        second = next(it)
        assert len(packing.trees) == 2
        assert first is packing.trees[0]
        assert second is packing.trees[1]


class TestRespectPredicates:
    def test_crossing_edges_on_path(self):
        tree = RootedTree.path(6)
        assert crossing_tree_edges(tree, {3, 4, 5}) == [(3, 2)]
        assert crossing_count(tree, {0, 2, 4}) == 5

    def test_one_respects(self):
        tree = RootedTree.path(6)
        assert one_respects(tree, {4, 5})
        assert not one_respects(tree, {1, 4})

    def test_respecting_subtree_node(self):
        tree = RootedTree.path(6)
        assert respecting_subtree_node(tree, {2, 3, 4, 5}) == 2

    def test_respecting_subtree_node_requires_one_crossing(self):
        tree = RootedTree.path(6)
        with pytest.raises(AlgorithmError):
            respecting_subtree_node(tree, {1, 3})

    def test_unknown_nodes_rejected(self):
        tree = RootedTree.path(4)
        with pytest.raises(AlgorithmError):
            crossing_count(tree, {0, 99})


class TestThorupBehaviour:
    @pytest.mark.parametrize("cut,seed", [(1, 0), (2, 1), (3, 2), (4, 3)])
    def test_packing_finds_one_respecting_tree_fast(self, cut, seed):
        g = planted_cut_graph((12, 13), cut, seed=seed)
        side = planted_cut_sides((12, 13))
        packing = GreedyTreePacking(g)
        index = trees_until_one_respecting(packing.grow_to(30), side)
        # Thorup's bound allows λ^7·log³n trees; empirically a handful.
        assert index <= 3 * cut + 4

    def test_trees_until_raises_when_absent(self):
        tree = RootedTree.path(4)
        with pytest.raises(AlgorithmError):
            trees_until_one_respecting([tree], {1, 3})

    def test_bound_monotonic(self):
        assert thorup_tree_bound(1, 100) < thorup_tree_bound(2, 100)
        assert thorup_tree_bound(2, 100) < thorup_tree_bound(2, 10000)

    def test_bound_is_large(self):
        # The theoretical bound dwarfs practical needs — documenting the
        # gap the adaptive schedule exploits.
        assert thorup_tree_bound(3, 1000) > 10**5
