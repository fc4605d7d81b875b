"""Edge-case coverage for engine plumbing, metrics and tree specs."""

import pytest

from repro.congest import CongestNetwork, NodeProgram, PhaseMetrics, RunMetrics
from repro.graphs import RootedTree, path_graph, star_graph
from repro.primitives import (
    Convergecast,
    SPANNING_TREE,
    TreeSpec,
    load_tree_into_memory,
)


class TestRunMetrics:
    def test_extend_merges_everything(self):
        a = RunMetrics()
        a.add_phase(PhaseMetrics(name="p1", rounds=3, messages=5, words=7))
        a.charge(10, "x")
        b = RunMetrics()
        b.add_phase(PhaseMetrics(name="p2", rounds=2, messages=1, words=1))
        b.charge(4, "y")
        a.extend(b)
        assert a.measured_rounds == 5
        assert a.charged_rounds == 14
        assert len(a.phases) == 2
        assert len(a.charged_notes) == 2

    def test_max_words_and_backlog_aggregate(self):
        m = RunMetrics()
        m.add_phase(PhaseMetrics(name="a", max_message_words=2, max_edge_backlog=5))
        m.add_phase(PhaseMetrics(name="b", max_message_words=4, max_edge_backlog=1))
        assert m.max_message_words == 4
        assert m.max_edge_backlog == 5

    def test_empty_metrics(self):
        m = RunMetrics()
        assert m.total_rounds == 0
        assert m.max_message_words == 0

    def test_phase_metrics_are_slotted_picklable_and_timing_free(self):
        import pickle

        p = PhaseMetrics("x", rounds=3, messages=5, words=7, wall_time=0.25)
        assert not hasattr(p, "__dict__")
        copy = pickle.loads(pickle.dumps(p))
        assert copy == p and copy.wall_time == 0.25
        assert p == PhaseMetrics("x", rounds=3, messages=5, words=7, wall_time=9.0)

    def test_phase_merge_message(self):
        p = PhaseMetrics(name="x")
        p.merge_message(3)
        p.merge_message(1)
        assert p.messages == 2
        assert p.words == 4
        assert p.max_message_words == 3


class TestNetworkPlumbing:
    def test_memory_map_filters_missing(self):
        net = CongestNetwork(path_graph(3))
        net.memory[0]["k"] = 1
        net.memory[2]["k"] = 3
        assert net.memory_map("k") == {0: 1, 2: 3}

    def test_output_map(self):
        class Out(NodeProgram):
            def on_start(self, ctx):
                if ctx.node % 2 == 0:
                    ctx.output("even", ctx.node)

        net = CongestNetwork(path_graph(4))
        result = net.run_phase("o", lambda u: Out())
        assert result.output_map("even") == {0: 0, 2: 2}

    def test_nodes_property_is_cached_immutable(self):
        net = CongestNetwork(path_graph(3))
        nodes = net.nodes
        # Hot loops read this per access: no per-read copy, no mutation.
        assert nodes is net.nodes
        assert isinstance(nodes, tuple)
        assert nodes == (0, 1, 2)

    def test_size(self):
        assert CongestNetwork(star_graph(7)).size == 7


class TestTreeSpec:
    def test_key_names(self):
        spec = TreeSpec("foo")
        assert spec.parent_key == "foo:parent"
        assert spec.children_key == "foo:children"
        assert spec.depth_key == "foo:depth"

    def test_accessors_via_memory(self):
        tree = RootedTree(0, {1: 0, 2: 1})
        net = CongestNetwork(tree.to_graph())
        load_tree_into_memory(net, tree, SPANNING_TREE)

        class Probe(NodeProgram):
            def on_start(self, ctx):
                ctx.output("parent", SPANNING_TREE.parent(ctx))
                ctx.output("children", SPANNING_TREE.children(ctx))
                ctx.output("depth", SPANNING_TREE.depth(ctx))
                ctx.output("is_root", SPANNING_TREE.is_root(ctx))

        result = net.run_phase("probe", lambda u: Probe())
        assert result.output_map("parent") == {0: None, 1: 0, 2: 1}
        assert result.output_map("depth") == {0: 0, 1: 1, 2: 2}
        assert result.output_map("is_root") == {0: True, 1: False, 2: False}


class TestConvergecastErrors:
    def test_unexpected_child_value_raises(self):
        tree = RootedTree(0, {1: 0})
        graph = tree.to_graph()
        graph.add_edge(0, 1, 1.0)  # merged; still one edge

        class Rogue(NodeProgram):
            def on_start(self, ctx):
                if ctx.node == 1:
                    # Send a convergecast value twice — the second one
                    # arrives after node 0's pending set is empty.
                    ctx.send(0, "cc", 1)
                    ctx.send(0, "cc", 2)

        net = CongestNetwork(graph)
        load_tree_into_memory(net, tree, SPANNING_TREE)

        class Victim(Convergecast):
            pass

        with pytest.raises(ValueError):
            net.run_phase(
                "cc",
                lambda u: (
                    Victim(SPANNING_TREE, initial=lambda c: 0, out_key="s")
                    if u == 0
                    else Rogue()
                ),
            )
