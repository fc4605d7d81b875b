"""Tests for the message tracer and its engine hook."""

import hashlib

from repro.congest import CongestNetwork, MessageTracer, kind_filter, node_filter
from repro.graphs import RootedTree, build_family, path_graph, star_graph
from repro.primitives import SPANNING_TREE, build_bfs_tree, load_tree_into_memory
from repro.primitives.keyed_sums import PipelinedKeyedSum


def _traced_bfs(graph, tracer):
    net = CongestNetwork(graph, tracer=tracer)
    build_bfs_tree(net, root=0)
    return net


class TestRecording:
    def test_records_all_messages(self):
        tracer = MessageTracer()
        net = _traced_bfs(star_graph(6), tracer)
        assert len(tracer) == net.metrics.total_messages

    def test_event_fields(self):
        tracer = MessageTracer()
        _traced_bfs(path_graph(3), tracer)
        first = tracer.events[0]
        assert first.phase == "bfs-tree"
        assert first.round == 1
        assert first.src == 0
        assert first.dst == 1
        assert first.kind == "bfs"

    def test_kind_histogram(self):
        tracer = MessageTracer()
        _traced_bfs(star_graph(5), tracer)
        histogram = tracer.kind_histogram()
        assert histogram == {"bfs": 4, "adopt": 4}

    def test_between_preserves_delivery_order(self):
        tracer = MessageTracer()
        tree = RootedTree.path(4)
        net = CongestNetwork(tree.to_graph(), tracer=tracer)
        load_tree_into_memory(net, tree, SPANNING_TREE)
        net.run_phase(
            "ks",
            lambda u: PipelinedKeyedSum(
                SPANNING_TREE, lambda ctx: [(k, 1) for k in range(5)], out_key="k"
            ),
        )
        stream = tracer.between(1, 0)
        keys = [e.payload[0] for e in stream if e.kind == "ks"]
        assert keys == sorted(keys)  # monotone streaming, observed

    def test_phases_in_order(self):
        tracer = MessageTracer()
        net = CongestNetwork(star_graph(4), tracer=tracer)
        build_bfs_tree(net, root=0)
        net.run_phase("noop2", lambda u: __import__("repro.congest", fromlist=["NodeProgram"]).NodeProgram())
        assert tracer.phases() == ["bfs-tree"]


class TestFilters:
    def test_node_filter(self):
        tracer = MessageTracer(event_filter=node_filter(3))
        _traced_bfs(star_graph(6), tracer)
        assert all(e.src == 3 or e.dst == 3 for e in tracer.events)
        assert len(tracer) == 2  # bfs to 3, adopt from 3

    def test_kind_filter(self):
        tracer = MessageTracer(event_filter=kind_filter("adopt"))
        _traced_bfs(star_graph(6), tracer)
        assert tracer.kind_histogram() == {"adopt": 5}

    def test_max_events_cap(self):
        tracer = MessageTracer(max_events=3)
        _traced_bfs(star_graph(8), tracer)
        assert len(tracer) == 3
        assert tracer.dropped > 0


class TestTracedStream:
    """The traced event stream is pinned by a golden digest, frozen
    while three delivery loops existed and all three traced it alike."""

    GOLDEN_EVENTS = 724
    GOLDEN_SHA256 = "5c52aab3f8dd6e3cf8853beb7788771b32d832fa8f932e845eb38de09ac58f01"

    def test_traced_events_match_golden(self):
        tracer = MessageTracer()
        _traced_bfs(build_family("gnp", 36, seed=3), tracer)
        events = [
            (e.phase, e.round, e.src, e.dst, e.kind, e.payload)
            for e in tracer.events
        ]
        assert len(events) == self.GOLDEN_EVENTS
        assert hashlib.sha256(repr(events).encode()).hexdigest() == self.GOLDEN_SHA256

    def test_tracing_does_not_change_the_run(self):
        graph = build_family("gnp", 36, seed=3)
        traced = _traced_bfs(graph, MessageTracer())
        plain = CongestNetwork(graph)
        build_bfs_tree(plain, root=0)
        assert traced.metrics.phases == plain.metrics.phases
        assert traced.memory == plain.memory


class TestRendering:
    def test_render_contains_arrow_lines(self):
        tracer = MessageTracer()
        _traced_bfs(path_graph(3), tracer)
        text = tracer.render()
        assert "0 -> 1  bfs(0)" in text

    def test_render_truncation_note(self):
        tracer = MessageTracer()
        _traced_bfs(star_graph(10), tracer)
        text = tracer.render(limit=2)
        assert "more events" in text
