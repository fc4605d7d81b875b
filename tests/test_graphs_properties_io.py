"""Unit tests for graph properties and edge-list IO."""

import hashlib
import json
import random

import pytest

from repro.dynamic.incremental import index_equal
from repro.errors import DisconnectedGraphError, GraphError
from repro.graphs import (
    FAMILY_BUILDERS,
    WeightedGraph,
    bfs_distances,
    bfs_tree_parents,
    complete_graph,
    connected_gnp_graph,
    cycle_graph,
    degree_statistics,
    diameter,
    eccentricity,
    edge_list_from_text,
    graph_from_json,
    graph_to_json,
    grid_graph,
    is_spanning_tree,
    min_weighted_degree,
    path_graph,
    read_edge_list,
    write_edge_list,
)


class TestDistances:
    def test_bfs_distances_path(self):
        g = path_graph(6)
        dist = bfs_distances(g, 0)
        assert dist == {i: i for i in range(6)}

    def test_bfs_distances_unreachable_omitted(self):
        g = WeightedGraph([(0, 1), (2, 3)])
        assert set(bfs_distances(g, 0)) == {0, 1}

    def test_bfs_unknown_source(self):
        with pytest.raises(GraphError):
            bfs_distances(WeightedGraph([(0, 1)]), 9)

    def test_bfs_tree_parents_consistent(self):
        g = grid_graph(4, 4)
        parent = bfs_tree_parents(g, 0)
        dist = bfs_distances(g, 0)
        assert len(parent) == 15
        for child, par in parent.items():
            assert dist[child] == dist[par] + 1

    def test_eccentricity(self):
        g = path_graph(9)
        assert eccentricity(g, 0) == 8
        assert eccentricity(g, 4) == 4

    def test_eccentricity_disconnected(self):
        g = WeightedGraph([(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            eccentricity(g, 0)


class TestDiameter:
    @pytest.mark.parametrize(
        "graph,expected",
        [
            (path_graph(10), 9),
            (cycle_graph(10), 5),
            (complete_graph(7), 1),
            (grid_graph(3, 5), 6),
        ],
    )
    def test_exact_diameters(self, graph, expected):
        assert diameter(graph) == expected

    def test_double_sweep_on_large_path(self):
        # Above the exact threshold the double-sweep estimate runs —
        # exact on trees/paths.
        g = path_graph(700)
        assert diameter(g) == 699

    def test_diameter_requires_connected(self):
        g = WeightedGraph([(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            diameter(g)


class TestDegreeStatistics:
    def test_statistics(self):
        g = WeightedGraph([(0, 1, 3.0), (1, 2, 1.0)])
        stats = degree_statistics(g)
        assert stats["min_degree"] == 1
        assert stats["max_degree"] == 2
        assert stats["min_weighted_degree"] == 1.0

    def test_min_weighted_degree_upper_bounds_cut(self):
        from repro.baselines import stoer_wagner_min_cut

        g = connected_gnp_graph(16, 0.4, seed=1, weight_range=(1.0, 3.0))
        assert stoer_wagner_min_cut(g).value <= min_weighted_degree(g) + 1e-9

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            degree_statistics(WeightedGraph())


class TestSpanningTreeCheck:
    def test_accepts_valid(self):
        g = cycle_graph(5)
        assert is_spanning_tree(g, [(0, 1), (1, 2), (2, 3), (3, 4)])

    def test_rejects_cycle(self):
        g = cycle_graph(4)
        assert not is_spanning_tree(g, [(0, 1), (1, 2), (2, 3), (3, 0)])

    def test_rejects_wrong_count(self):
        g = cycle_graph(4)
        assert not is_spanning_tree(g, [(0, 1), (1, 2)])

    def test_rejects_non_edges(self):
        g = path_graph(4)
        assert not is_spanning_tree(g, [(0, 1), (1, 2), (0, 3)])


class TestEdgeListIO:
    def test_round_trip(self, tmp_path):
        g = WeightedGraph([(0, 1, 1.5), (1, 2, 2.0)])
        g.add_node(7)
        path = tmp_path / "graph.edges"
        write_edge_list(g, path)
        back = read_edge_list(path)
        assert back.edge_list() == g.edge_list()
        assert 7 in back

    def test_read_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# header\n\n0 1 2.0\n", encoding="utf-8")
        g = read_edge_list(path)
        assert g.weight(0, 1) == 2.0

    def test_read_malformed_line(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 1\n", encoding="utf-8")
        with pytest.raises(GraphError):
            read_edge_list(path)

    def test_string_nodes_round_trip(self, tmp_path):
        g = WeightedGraph([("a", "b", 1.0)])
        path = tmp_path / "s.edges"
        write_edge_list(g, path)
        back = read_edge_list(path)
        assert back.has_edge("a", "b")


def _built_by_add_edge(data):
    """The reference builder: one ``add_node``/``add_edge`` call each."""
    graph = WeightedGraph()
    for node in data.get("nodes", []):
        graph.add_node(node)
    for edge in data["edges"]:
        graph.add_edge(edge[0], edge[1], float(edge[2]) if len(edge) == 3 else 1.0)
    return graph


def _adjacency(graph):
    """The adjacency map in insertion order, nested orders included."""
    return [(u, list(nbrs.items())) for u, nbrs in graph._adj.items()]


def _random_wire_graph(rng, forms):
    """A JSON graph with int and str nodes, parallel edges, isolated nodes.

    ``forms`` are the label makers a node index is drawn through.
    """
    labels = [rng.choice(forms)(i) for i in range(rng.randint(2, 24))]
    edges = []
    for _ in range(rng.randint(0, 60)):
        u, v = rng.sample(labels, 2)
        if rng.random() < 0.2:
            edges.append([u, v])
        else:
            edges.append([u, v, rng.choice([1, 3, 2.5, rng.uniform(0.01, 9.0)])])
    return {"nodes": rng.sample(labels, rng.randint(0, len(labels))), "edges": edges}


class TestContentHashAndBuilder:
    """The one-pass digest and the wire builder match the reference forms."""

    #: The canonical text of the graph built in ``test_golden_digest``:
    #: sorted node reprs, then sorted ``(min repr, max repr, weight)``
    #: edge tuples.  Stores and warm artifacts key on its digest.
    CANONICAL = (
        "n:'a'\nn:'b'\nn:'iso'\nn:0\nn:1\nn:2\n"
        "e:'a'|'b'|3.0\ne:'a'|1|0.5\ne:'b'|0|1.0\ne:'b'|2|1.25\ne:0|1|3.5"
    )
    GOLDEN = "3cf65db5cf8f333c6db7d8aab1fcba32fb840cfa341c08fc45045fad6b1b02d1"

    def test_golden_digest(self):
        g = WeightedGraph()
        g.add_edge(0, 1, 2.0)
        g.add_edge(1, "a", 0.5)
        g.add_edge("a", "b", 3)
        g.add_edge(2, "b", 1.25)
        g.add_edge(0, 1, 1.5)  # merged with the first edge: weight 3.5
        g.add_edge("b", 0, 1.0)
        g.add_node("iso")
        assert hashlib.sha256(self.CANONICAL.encode()).hexdigest() == self.GOLDEN
        assert g.content_hash() == self.GOLDEN
        assert graph_from_json(graph_to_json(g)).content_hash() == self.GOLDEN

    def assert_same_graph(self, built, reference):
        assert _adjacency(built) == _adjacency(reference)
        if len(reference):
            assert index_equal(built.index(), reference.index())
        assert built.content_hash() == reference.content_hash()

    @pytest.mark.parametrize("family", sorted(FAMILY_BUILDERS))
    def test_generator_families(self, family):
        for n, seed in ((9, 0), (24, 1), (40, 2)):
            graph = FAMILY_BUILDERS[family](n, seed=seed)
            data = json.loads(json.dumps(graph_to_json(graph)))
            self.assert_same_graph(graph_from_json(data), _built_by_add_edge(data))
            assert graph_from_json(data).content_hash() == graph.content_hash()

    def test_random_int_and_str_graphs(self):
        rng = random.Random(20131015)
        for _ in range(200):
            # "7" and 7 are distinct JSON nodes with distinct reprs.
            data = _random_wire_graph(rng, (int, str, "v{}".format))
            self.assert_same_graph(graph_from_json(data), _built_by_add_edge(data))
            # Edge-list text reads "7" back as 7, so no numeric strings.
            data = _random_wire_graph(rng, (int, "v{}".format))
            text = "\n".join(
                f"{u} {v} {float(rest[0]) if rest else 1.0!r}"
                for u, v, *rest in data["edges"]
            )
            self.assert_same_graph(
                edge_list_from_text(text), _built_by_add_edge(data | {"nodes": []})
            )

    def test_text_bare_node_keeps_its_place(self):
        graph = edge_list_from_text("0 1 1.0\n7\n2 3 1.0\n1 2 2.0\n")
        reference = WeightedGraph()
        reference.add_edge(0, 1, 1.0)
        reference.add_node(7)
        reference.add_edge(2, 3, 1.0)
        reference.add_edge(1, 2, 2.0)
        self.assert_same_graph(graph, reference)

    @pytest.mark.parametrize(
        "data,message",
        [
            ({"nodes": [True]}, "JSON graph nodes must be integers or strings, got True"),
            ({"edges": [[True, 1, 1]]}, "JSON graph nodes must be integers or strings, got True"),
            ({"edges": [[1, 2.0]]}, "JSON graph nodes must be integers or strings, got 2.0"),
            ({"edges": [[1, 2, True]]}, "edge #0 weight must be a finite number, got True"),
            ({"edges": [[1, 2, float("nan")]]}, "edge #0 weight must be a finite number, got nan"),
            ({"edges": [[1, 2, float("inf")]]}, "edge #0 weight must be a finite number, got inf"),
            ({"edges": [[1, 2, "3"]]}, "edge #0 weight must be a finite number, got '3'"),
            ({"edges": [[0, 1], [1, 2, 0]]}, "edge weight must be positive, got 0.0"),
            ({"edges": [[1, 2, -3]]}, "edge weight must be positive, got -3.0"),
            ({"edges": [[0, 1], ["a", "a", 1]]}, "self-loop on node 'a' is not allowed"),
            ({"edges": [[0, 1], [1]]}, "edge #1 must be [u, v] or [u, v, weight], got [1]"),
            ({"edges": [[1, 2, 3, 4]]}, "edge #0 must be [u, v] or [u, v, weight], got [1, 2, 3, 4]"),
            ({"edges": [5]}, "edge #0 must be [u, v] or [u, v, weight], got 5"),
            ({"edges": [], "weights": []}, "unknown JSON graph keys: 'weights'"),
            ({"edges": {}}, "JSON graph 'nodes' and 'edges' must be lists"),
            ([[0, 1]], "JSON graph must be an object with 'edges', got list"),
            # Two broken rules in one entry: the first in check order wins
            # (shape, nodes, weight type and finiteness, self-loop, sign).
            ({"edges": [[True, 1, float("nan")]]}, "JSON graph nodes must be integers or strings, got True"),
            ({"edges": [[1, 2.5, "x"]]}, "JSON graph nodes must be integers or strings, got 2.5"),
            ({"edges": [["a", "a", float("nan")]]}, "edge #0 weight must be a finite number, got nan"),
            ({"edges": [["a", "a", -1.0]]}, "self-loop on node 'a' is not allowed"),
            ({"edges": [(0, 1, 2.0), (1, 1, 1.0)]}, "self-loop on node 1 is not allowed"),
            ({"edges": [[0, 1, 1.0], [2, 3, -float("inf")]]}, "edge #1 weight must be a finite number, got -inf"),
        ],
    )
    def test_json_rejections_keep_their_messages(self, data, message):
        with pytest.raises(GraphError) as info:
            graph_from_json(data)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text,message",
        [
            ("0 1 nan", "non-finite weight in edge-list line: '0 1 nan'"),
            ("0 1 1\n1 2 -inf", "non-finite weight in edge-list line: '1 2 -inf'"),
            ("0 1 0", "edge weight must be positive, got 0.0"),
            ("0 1 -2", "edge weight must be positive, got -2.0"),
            ("x x 1", "self-loop on node 'x' is not allowed"),
            ("0 1", "malformed edge-list line: '0 1'"),
            ("0 1 heavy", "malformed edge-list line: '0 1 heavy'"),
            ("0 1 2 3", "malformed edge-list line: '0 1 2 3'"),
        ],
    )
    def test_text_rejections_keep_their_messages(self, text, message):
        with pytest.raises(GraphError) as info:
            edge_list_from_text(text)
        assert str(info.value) == message


class TestNetworkxBridge:
    def test_round_trip_via_networkx(self):
        nx = pytest.importorskip("networkx")
        from repro.graphs import from_networkx, to_networkx

        g = WeightedGraph([(0, 1, 2.0), (1, 2, 3.0)])
        nx_graph = to_networkx(g)
        assert nx_graph.number_of_edges() == 2
        back = from_networkx(nx_graph)
        assert back.edge_list() == g.edge_list()

    def test_from_networkx_default_weight(self):
        nx = pytest.importorskip("networkx")
        from repro.graphs import from_networkx

        nx_graph = nx.Graph()
        nx_graph.add_edge(0, 1)
        assert from_networkx(nx_graph).weight(0, 1) == 1.0
