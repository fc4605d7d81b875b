"""Unit tests for the WeightedGraph substrate."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DisconnectedGraphError, GraphError
from repro.graphs import WeightedGraph, edge_key


class TestConstruction:
    def test_empty_graph(self):
        g = WeightedGraph()
        assert g.number_of_nodes == 0
        assert g.number_of_edges == 0

    def test_from_edge_tuples(self):
        g = WeightedGraph([(0, 1), (1, 2, 2.5)])
        assert g.number_of_nodes == 3
        assert g.weight(1, 2) == 2.5
        assert g.weight(0, 1) == 1.0

    def test_add_node_idempotent(self):
        g = WeightedGraph()
        g.add_node(5)
        g.add_node(5)
        assert g.nodes == [5]

    def test_parallel_edges_merge_weights(self):
        g = WeightedGraph()
        g.add_edge(0, 1, 1.5)
        g.add_edge(1, 0, 2.5)
        assert g.weight(0, 1) == 4.0
        assert g.number_of_edges == 1

    def test_self_loop_rejected(self):
        g = WeightedGraph()
        with pytest.raises(GraphError):
            g.add_edge(3, 3)

    def test_nonpositive_weight_rejected(self):
        g = WeightedGraph()
        with pytest.raises(GraphError):
            g.add_edge(0, 1, 0.0)
        with pytest.raises(GraphError):
            g.add_edge(0, 1, -2.0)

    @pytest.mark.parametrize(
        "weight", [float("nan"), float("inf"), -float("inf")], ids=repr
    )
    def test_non_finite_weight_rejected_by_add_edge(self, weight):
        with pytest.raises(GraphError, match="edge weight must be"):
            WeightedGraph([(0, 1, 1.0), (1, 2, weight)])
        g = WeightedGraph([(0, 1, 1.0)])
        with pytest.raises(GraphError):
            g.add_edge(1, 2, weight)
        assert list(g._adj.items()) == [(0, {1: 1.0}), (1, {0: 1.0})]

    @pytest.mark.parametrize(
        "weight", [float("nan"), float("inf"), -float("inf")], ids=repr
    )
    def test_non_finite_weight_rejected_by_set_edge_weight(self, weight):
        g = WeightedGraph([(0, 1, 2.0), (1, 2, 1.0), (0, 2, 3.0)])
        digest = g.content_hash()
        version = g._version
        with pytest.raises(GraphError, match="edge weight must be"):
            g.set_edge_weight(0, 1, weight)
        assert g.weight(0, 1) == g.weight(1, 0) == 2.0
        assert g._version == version
        assert g._hash_cache == (version, digest)
        assert g.content_hash() == digest

    def test_set_edge_weight_overwrites(self):
        g = WeightedGraph([(0, 1, 2.0)])
        g.set_edge_weight(0, 1, 5.0)
        assert g.weight(1, 0) == 5.0

    def test_set_edge_weight_missing_edge(self):
        g = WeightedGraph([(0, 1)])
        with pytest.raises(GraphError):
            g.set_edge_weight(0, 2, 1.0)


class TestNoopMutators:
    """Mutators that provably change nothing must not invalidate caches."""

    def test_set_edge_weight_to_current_value_keeps_caches(self):
        g = WeightedGraph([(0, 1, 2.0), (1, 2, 1.0), (0, 2, 3.0)])
        index = g.index()
        digest = g.content_hash()
        g.set_edge_weight(0, 1, 2.0)
        g.set_edge_weight(1, 0, 2)  # either orientation, int spelling too
        assert g.index() is index          # same cached object, no rebuild
        assert g.content_hash() == digest

    def test_set_edge_weight_to_new_value_still_invalidates(self):
        g = WeightedGraph([(0, 1, 2.0), (1, 2, 1.0), (0, 2, 3.0)])
        index = g.index()
        digest = g.content_hash()
        g.set_edge_weight(0, 1, 2.5)
        assert g.index() is not index
        assert g.content_hash() != digest

    def test_add_existing_node_keeps_caches(self):
        g = WeightedGraph([(0, 1, 2.0)])
        index = g.index()
        digest = g.content_hash()
        g.add_node(0)
        assert g.index() is index
        assert g.content_hash() == digest


class TestMutation:
    def test_remove_edge(self):
        g = WeightedGraph([(0, 1), (1, 2)])
        g.remove_edge(0, 1)
        assert not g.has_edge(0, 1)
        assert g.has_edge(1, 2)
        assert g.number_of_nodes == 3

    def test_remove_missing_edge(self):
        g = WeightedGraph([(0, 1)])
        with pytest.raises(GraphError):
            g.remove_edge(0, 2)

    def test_remove_node_clears_incident_edges(self):
        g = WeightedGraph([(0, 1), (1, 2), (0, 2)])
        g.remove_node(1)
        assert 1 not in g
        assert g.has_edge(0, 2)
        assert g.degree(0) == 1

    def test_remove_missing_node(self):
        g = WeightedGraph()
        with pytest.raises(GraphError):
            g.remove_node(9)


class TestQueries:
    def test_degree_and_weighted_degree(self, triangle):
        assert triangle.degree(0) == 2
        assert triangle.weighted_degree(0) == 4.0
        assert triangle.weighted_degree(1) == 3.0

    def test_total_weight(self, triangle):
        assert triangle.total_weight() == 6.0

    def test_neighbors_order_is_insertion(self):
        g = WeightedGraph([(0, 2), (0, 1)])
        assert g.neighbors(0) == [2, 1]

    def test_unknown_node_queries_raise(self):
        g = WeightedGraph([(0, 1)])
        with pytest.raises(GraphError):
            g.neighbors(7)
        with pytest.raises(GraphError):
            g.degree(7)
        with pytest.raises(GraphError):
            g.weight(0, 7)

    def test_edges_iterates_each_once(self, triangle):
        edges = list(triangle.edges())
        assert len(edges) == 3
        keys = {edge_key(u, v) for u, v, _ in edges}
        assert len(keys) == 3

    @pytest.mark.parametrize("kind", ["int", "str", "mixed"])
    def test_edges_match_the_first_encounter_walk(self, kind):
        def reference_edges(graph):
            # The seen-set walk edges() replaced: first encounter wins.
            seen = set()
            for u, nbrs in graph._adj.items():
                for v, w in nbrs.items():
                    key = edge_key(u, v)
                    if key not in seen:
                        seen.add(key)
                        yield (u, v, w)

        label = {
            "int": lambda i: i,
            "str": lambda i: f"n{i}",
            "mixed": lambda i: i if i % 2 else f"n{i}",
        }[kind]
        rng = random.Random(5)
        g = WeightedGraph()
        for _ in range(60):
            u, v = rng.sample(range(12), 2)
            g.add_edge(label(u), label(v), rng.choice([1.0, 2.5, 3.0]))
        assert list(g.edges()) == list(reference_edges(g))
        # Removals and re-adds move nodes and edges in insertion order.
        for u, v, _w in list(g.edges())[::3]:
            g.remove_edge(u, v)
        g.remove_node(label(3))
        g.remove_node(label(0))
        g.add_edge(label(0), label(7), 4.0)
        g.add_edge(label(5), label(0), 1.5)
        g.add_edge(label(3), label(11), 2.0)
        for u, v, _w in list(g.edges())[1::4]:
            g.remove_edge(u, v)
            g.add_edge(v, u, 0.5)
        assert list(g.edges()) == list(reference_edges(g))
        assert len(list(g.edges())) == g.number_of_edges

    def test_edge_list_sorted_for_int_nodes(self, triangle):
        assert triangle.edge_list() == [(0, 1, 1.0), (0, 2, 3.0), (1, 2, 2.0)]

    def test_len_and_contains(self, triangle):
        assert len(triangle) == 3
        assert 2 in triangle
        assert 9 not in triangle


class TestCutValue:
    def test_triangle_cuts(self, triangle):
        assert triangle.cut_value({0}) == 4.0
        assert triangle.cut_value({1}) == 3.0
        assert triangle.cut_value({2}) == 5.0
        assert triangle.cut_value({0, 1}) == 5.0

    def test_cut_is_symmetric(self, small_planted):
        side = set(range(10))
        other = set(small_planted.nodes) - side
        assert small_planted.cut_value(side) == small_planted.cut_value(other)

    def test_planted_cut_value(self, small_planted):
        assert small_planted.cut_value(set(range(10))) == 3.0

    def test_trivial_cut_rejected(self, triangle):
        with pytest.raises(GraphError):
            triangle.cut_value(set())
        with pytest.raises(GraphError):
            triangle.cut_value({0, 1, 2})

    def test_cut_with_unknown_node_rejected(self, triangle):
        with pytest.raises(GraphError):
            triangle.cut_value({0, 99})


class TestDerivedGraphs:
    def test_copy_is_independent(self, triangle):
        clone = triangle.copy()
        clone.add_edge(0, 1, 10.0)
        assert triangle.weight(0, 1) == 1.0
        assert clone.weight(0, 1) == 11.0

    def test_copy_preserves_isolated_nodes(self):
        g = WeightedGraph()
        g.add_node(42)
        assert g.copy().nodes == [42]

    def test_subgraph_induced(self):
        g = WeightedGraph([(0, 1), (1, 2), (2, 3), (0, 3)])
        sub = g.subgraph({0, 1, 2})
        assert sub.number_of_nodes == 3
        assert sub.number_of_edges == 2
        assert not sub.has_edge(0, 3)

    def test_subgraph_unknown_node(self, triangle):
        with pytest.raises(GraphError):
            triangle.subgraph({0, 77})

    def test_reweighted(self, triangle):
        doubled = triangle.reweighted(lambda u, v, w: 2 * w)
        assert doubled.weight(1, 2) == 4.0
        assert triangle.weight(1, 2) == 2.0


class TestConnectivity:
    def test_connected_components(self):
        g = WeightedGraph([(0, 1), (2, 3)])
        g.add_node(4)
        comps = sorted(g.connected_components(), key=lambda s: min(s))
        assert comps == [{0, 1}, {2, 3}, {4}]

    def test_is_connected(self, triangle):
        assert triangle.is_connected()
        assert not WeightedGraph().is_connected()

    def test_require_connected_raises(self):
        g = WeightedGraph([(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            g.require_connected()

    def test_single_node_is_connected(self):
        g = WeightedGraph()
        g.add_node(0)
        assert g.is_connected()


class _CountingAdjacency(dict):
    """An adjacency map that counts the neighbour lookups made on it."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


class TestConnectivityCache:
    """One traversal per graph version; every content change re-checks."""

    @pytest.fixture
    def path(self):
        return WeightedGraph([(0, 1), (1, 2), (2, 3)])

    def test_verdict_is_cached_without_building_an_index(self, path):
        assert path.is_connected()
        assert path._connected_cache == (path._version, True)
        assert path._index_cache is None

    def test_remove_edge_disconnects(self, path):
        assert path.is_connected()
        path.remove_edge(1, 2)
        assert not path.is_connected()
        path.add_edge(1, 2)
        assert path.is_connected()

    def test_add_node_disconnects(self, path):
        assert path.is_connected()
        path.add_node(9)
        assert not path.is_connected()
        path.add_edge(9, 0)
        assert path.is_connected()

    def test_add_edge_reconnects(self):
        g = WeightedGraph([(0, 1), (2, 3)])
        assert not g.is_connected()
        g.add_edge(1, 2)
        assert g.is_connected()

    def test_remove_node_re_checks(self, path):
        assert path.is_connected()
        path.remove_node(1)
        assert not path.is_connected()

    def test_no_op_reweight_keeps_the_verdict(self, path):
        assert path.is_connected()
        cached = path._connected_cache
        path.set_edge_weight(0, 1, path.weight(0, 1))
        assert path._connected_cache is cached
        assert path.is_connected()
        path.set_edge_weight(0, 1, 5.0)  # a real reweight: still connected
        assert path.is_connected()

    def test_reweight_carries_the_verdict(self, path):
        assert path.is_connected()
        path.set_edge_weight(1, 2, 7.5)
        assert path._connected_cache == (path._version, True)
        path._adj = _CountingAdjacency(path._adj)
        assert path.is_connected()
        assert path._adj.reads == 0  # no traversal followed the reweight

    def test_reweight_carries_a_disconnected_verdict(self):
        g = WeightedGraph([(0, 1), (2, 3)])
        assert not g.is_connected()
        g.set_edge_weight(2, 3, 0.5)
        assert g._connected_cache == (g._version, False)
        with pytest.raises(DisconnectedGraphError):
            g.require_connected()

    def test_reweight_without_a_verdict_carries_none(self, path):
        path.set_edge_weight(0, 1, 3.0)
        assert path._connected_cache is None
        assert path.is_connected()

    @pytest.mark.parametrize(
        "op",
        [
            lambda g: g.remove_edge(1, 2),
            lambda g: g.add_edge(0, 3),
            lambda g: g.add_node(9),
            lambda g: g.remove_node(3),
        ],
        ids=["remove_edge", "add_edge", "add_node", "remove_node"],
    )
    def test_structural_ops_invalidate_the_verdict(self, path, op):
        assert path.is_connected()
        op(path)
        assert path._connected_cache[0] != path._version

    def test_pickle_resets_the_cache(self, path):
        import pickle

        assert path.is_connected()
        clone = pickle.loads(pickle.dumps(path))
        assert clone._connected_cache is None
        assert clone.is_connected()
        clone.remove_edge(0, 1)
        assert not clone.is_connected()
        assert path.is_connected()

    def test_unpickled_disconnected_graph(self):
        import pickle

        g = WeightedGraph([(0, 1), (2, 3)])
        assert not g.is_connected()
        clone = pickle.loads(pickle.dumps(g))
        with pytest.raises(DisconnectedGraphError):
            clone.require_connected()


class TestEdgeKey:
    def test_canonical_for_ints(self):
        assert edge_key(3, 1) == (1, 3)
        assert edge_key(1, 3) == (1, 3)

    def test_canonical_for_mixed_types(self):
        assert edge_key("b", "a") == ("a", "b")


class TestContentHash:
    def test_stable_hex_digest(self):
        g = WeightedGraph([(0, 1, 2.0), (1, 2, 1.0)])
        digest = g.content_hash()
        assert len(digest) == 64
        assert digest == g.content_hash()  # pure function of content

    def test_insertion_order_invariant(self):
        a = WeightedGraph([(0, 1, 2.0), (1, 2, 1.0), (2, 3, 4.0)])
        b = WeightedGraph([(2, 3, 4.0), (2, 1, 1.0), (1, 0, 2.0)])
        assert a.content_hash() == b.content_hash()

    def test_multigraph_merge_history_invariant(self):
        merged = WeightedGraph([(0, 1, 1.0), (0, 1, 1.0), (1, 2, 1.0)])
        direct = WeightedGraph([(0, 1, 2.0), (1, 2, 1.0)])
        assert merged.content_hash() == direct.content_hash()

    def test_weight_changes_hash(self):
        a = WeightedGraph([(0, 1, 1.0), (1, 2, 1.0)])
        b = WeightedGraph([(0, 1, 1.0), (1, 2, 2.0)])
        assert a.content_hash() != b.content_hash()

    def test_extra_edge_changes_hash(self):
        a = WeightedGraph([(0, 1), (1, 2)])
        b = WeightedGraph([(0, 1), (1, 2), (2, 0)])
        assert a.content_hash() != b.content_hash()

    def test_isolated_node_changes_hash(self):
        a = WeightedGraph([(0, 1)])
        b = WeightedGraph([(0, 1)])
        b.add_node(2)
        assert a.content_hash() != b.content_hash()

    def test_integer_and_float_weights_agree(self):
        # add_edge stores floats; repr(float(w)) canonicalises both spellings.
        a = WeightedGraph([(0, 1, 1), (1, 2, 3)])
        b = WeightedGraph([(0, 1, 1.0), (1, 2, 3.0)])
        assert a.content_hash() == b.content_hash()


def _reference_content_hash(graph: WeightedGraph) -> str:
    """The digest as computed before the rank-keyed rewrite: repr triples
    sorted as strings.  Kept as the reference the digest must match."""
    reprs = {u: repr(u) for u in graph._adj}
    edges = []
    for u, nbrs in graph._adj.items():
        ru = reprs[u]
        for v, w in nbrs.items():
            rv = reprs[v]
            if ru < rv:
                edges.append((ru, rv, repr(float(w))))
    edges.sort()
    lines = [f"n:{r}" for r in sorted(reprs.values())]
    lines.extend(f"e:{a}|{b}|{w}" for a, b, w in edges)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _pinned_graphs() -> dict:
    isolated = WeightedGraph([(5, 6, 1.5)])
    isolated.add_node(-1)
    isolated.add_node("z")
    return {
        "ints": WeightedGraph(
            [(0, 1, 1.0), (1, 2, 2.5), (2, 0, 3.0), (2, 3, 1.0), (3, 10, 4.0)]
        ),
        "strs": WeightedGraph(
            [("a", "b", 1.0), ("b", "c", 2.0), ("a", "c", 0.5), ("c", "d'q", 7.0)]
        ),
        "mixed": WeightedGraph(
            [(0, "0", 1.0), ("0", 1, 2.0), (1, "x", 3.0), (10, 2, 1.0), (2, "x", 5.0)]
        ),
        "merged": WeightedGraph(
            [(0, 1, 1.0), (1, 0, 2.0), (1, 2, 0.5), (2, 1, 0.25), (0, 2, 1)]
        ),
        "fractions": WeightedGraph(
            [(0, 1, 0.1), (1, 2, 0.2), (0, 2, 0.1 + 0.2), (2, 3, 1 / 3), (3, 0, 2)]
        ),
        "isolated": isolated,
        "empty": WeightedGraph(),
    }


class TestContentHashPinned:
    """Literal digests: a changed digest turns every existing store cold,
    which a suite that builds its stores with the same code cannot see."""

    PINNED = {
        "ints": "aaf770f1f077eda89bced461a895e12cdd262bce84d549ee1f53d398854501b7",
        "strs": "899afe020e1713729288dba81ef42fa8528e2ec6b9bc26871f91788c117ee88d",
        "mixed": "67c614f68d5577fb94155ed15fc63fb750b9822f3a351deaea905baebb506eb3",
        "merged": "39b1f93dc08fbda6809b7c2d32434df052f3b919ab817e4015bf76e09d5abf62",
        "fractions": "2b9d74f94339e4f81275d40da1b9a681eb76bcfdae02bfd1fc728558eea2ee0d",
        "isolated": "8aaf7e0e3454a4dae9822724196864d9583d2204d87bd856557d2982d168c0c0",
        "empty": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_literal_digest(self, name):
        graph = _pinned_graphs()[name]
        assert graph.content_hash() == self.PINNED[name]
        assert _reference_content_hash(graph) == self.PINNED[name]

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.integers(-30, 30), st.text(max_size=3)),
                st.one_of(st.integers(-30, 30), st.text(max_size=3)),
                st.one_of(
                    st.integers(1, 9),
                    st.floats(min_value=1e-9, max_value=1e9, allow_nan=False),
                    st.sampled_from([0.1, 0.2, 0.3, 1 / 3, 2 / 3]),
                ),
            ).filter(lambda edge: edge[0] != edge[1]),
            max_size=40,
        ),
        st.lists(st.one_of(st.integers(-30, 30), st.text(max_size=3)), max_size=4),
    )
    def test_matches_the_reference_digest(self, edges, isolated):
        graph = WeightedGraph(edges)
        for node in isolated:
            graph.add_node(node)
        assert graph.content_hash() == _reference_content_hash(graph)
