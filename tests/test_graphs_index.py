"""Tests for the indexed graph core (GraphIndex + caching on the graph)."""

import pickle

import pytest

from repro.errors import GraphError
from repro.graphs import (
    GraphIndex,
    WeightedGraph,
    build_family,
    diameter,
    eccentricity,
    grid_graph,
    path_graph,
)


class TestCSRLayout:
    def test_nodes_in_insertion_order(self):
        g = WeightedGraph([(3, 1), (1, 7)])
        idx = g.index()
        assert idx.nodes == (3, 1, 7)
        assert idx.node_id == {3: 0, 1: 1, 7: 2}

    def test_adjacency_slices_match_graph(self):
        g = build_family("gnp", 40, seed=3)
        idx = g.index()
        for u in g.nodes:
            i = idx.node_id[u]
            start, stop = idx.adj_start[i], idx.adj_start[i + 1]
            targets = [idx.nodes[idx.adj_target[e]] for e in range(start, stop)]
            assert targets == g.neighbors(u)
            weights = idx.adj_weight[start:stop]
            assert weights == [g.weight(u, v) for v in targets]

    def test_directed_edge_count_is_twice_undirected(self):
        g = grid_graph(4, 5)
        assert g.index().directed_edge_count == 2 * g.number_of_edges

    def test_reverse_edge_is_involution(self):
        g = build_family("regular", 36, seed=1)
        idx = g.index()
        for e in range(idx.directed_edge_count):
            r = idx.reverse_edge[e]
            assert idx.reverse_edge[r] == e
            assert idx.edge_source[r] == idx.adj_target[e]
            assert idx.adj_target[r] == idx.edge_source[e]

    def test_edge_id_round_trip(self):
        g = WeightedGraph([(0, 1, 2.0), (1, 2, 3.0)])
        idx = g.index()
        e = idx.edge_id(1, 2)
        assert idx.adj_weight[e] == 3.0
        assert idx.nodes[idx.adj_target[e]] == 2
        with pytest.raises(GraphError):
            idx.edge_id(0, 2)

    def test_neighbor_lists_and_weight_maps(self):
        g = WeightedGraph([(0, 1, 2.0), (0, 2, 5.0)])
        idx = g.index()
        assert idx.neighbor_lists[0] == (1, 2)
        assert idx.weight_maps[0] == {1: 2.0, 2: 5.0}
        assert idx.degree_of(0) == 2
        assert idx.weighted_degree_of(0) == 7.0


class TestTraversal:
    def test_bfs_distances(self):
        g = path_graph(5)
        idx = g.index()
        assert idx.bfs_distances_from(0) == [0, 1, 2, 3, 4]
        assert idx.eccentricity_of(2) == 2

    def test_disconnected_marks_unreachable(self):
        g = WeightedGraph([(0, 1)])
        g.add_node(2)
        idx = g.index()
        assert idx.bfs_distances_from(0) == [0, 1, -1]
        with pytest.raises(GraphError):
            idx.eccentricity_of(0)

    def test_properties_agree_with_index(self):
        g = build_family("grid", 49, seed=0)
        assert diameter(g) == 12
        assert eccentricity(g, g.nodes[0]) == 12


class TestCaching:
    def test_index_is_cached(self):
        g = path_graph(4)
        assert g.index() is g.index()

    def test_mutation_invalidates_index(self):
        g = path_graph(4)
        first = g.index()
        g.add_edge(0, 3)
        second = g.index()
        assert second is not first
        assert second.degree_of(0) == 2

    def test_every_mutator_invalidates(self):
        g = WeightedGraph([(0, 1, 1.0), (1, 2, 1.0)])
        for mutate in (
            lambda: g.add_node(9),
            lambda: g.add_edge(0, 2),
            lambda: g.set_edge_weight(0, 1, 4.0),
            lambda: g.remove_edge(0, 2),
            lambda: g.remove_node(9),
        ):
            before = g.index()
            mutate()
            assert g.index() is not before

    def test_add_existing_node_keeps_cache(self):
        g = path_graph(3)
        before = g.index()
        g.add_node(1)
        assert g.index() is before

    def test_content_hash_cached_and_invalidated(self):
        g = WeightedGraph([(0, 1, 1.0)])
        first = g.content_hash()
        assert g.content_hash() == first
        g.add_edge(1, 2)
        assert g.content_hash() != first
        assert g.content_hash() == WeightedGraph(
            [(0, 1, 1.0), (1, 2, 1.0)]
        ).content_hash()

    def test_pickle_drops_caches_but_keeps_content(self):
        g = build_family("gnp", 24, seed=5)
        expected = g.content_hash()
        g.index()
        clone = pickle.loads(pickle.dumps(g))
        assert clone._index_cache is None
        assert clone.content_hash() == expected
        assert clone.index().nodes == g.index().nodes

    def test_direct_construction_snapshot(self):
        g = path_graph(3)
        idx = GraphIndex(g)
        assert idx.nodes == (0, 1, 2)
