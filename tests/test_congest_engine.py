"""Unit tests for the CONGEST engine: delivery, pipelining, bandwidth."""

import pytest

from repro.errors import (
    BandwidthExceededError,
    CongestError,
    RoundLimitExceededError,
)
from repro.congest import (
    CongestNetwork,
    Message,
    MessageTracer,
    NodeProgram,
    check_message_size,
    payload_words,
    single_message,
)
from repro.graphs import RootedTree, WeightedGraph, cycle_graph, path_graph, star_graph
from repro.primitives import SPANNING_TREE, DowncastItems, load_tree_into_memory


class _Silent(NodeProgram):
    pass


class _PingOnce(NodeProgram):
    """Node 0 sends one ping to every neighbour; receivers record it."""

    def on_start(self, ctx):
        if ctx.node == 0:
            ctx.broadcast("ping", 42)

    def on_round(self, ctx, inbox):
        got = single_message(inbox, "ping")
        if got is not None:
            ctx.output("ping", got[1].payload[0])


class _Burst(NodeProgram):
    """Node 0 enqueues `count` messages to node 1 at start (pipelining)."""

    def __init__(self, count):
        self.count = count

    def on_start(self, ctx):
        if ctx.node == 0:
            for i in range(self.count):
                ctx.send(1, "item", i)

    def on_round(self, ctx, inbox):
        if ctx.node == 1:
            arrived = ctx.memory.setdefault("arrived", [])
            for _src, msg in inbox:
                arrived.append((ctx.round, msg.payload[0]))


class TestMessageSizing:
    def test_payload_words_scalars(self):
        assert payload_words(5) == 1
        assert payload_words(2.5) == 1
        assert payload_words("tag") == 1
        assert payload_words(None) == 0

    def test_payload_words_nested(self):
        assert payload_words((1, 2, (3, 4))) == 4

    def test_payload_words_rejects_dict(self):
        with pytest.raises(BandwidthExceededError):
            payload_words({"a": 1})

    def test_check_message_size(self):
        check_message_size(Message("k", (1, 2)), max_words=2)
        with pytest.raises(BandwidthExceededError):
            check_message_size(Message("k", (1, 2, 3)), max_words=2)

    def test_oversize_message_raises_in_strict_mode(self):
        class Oversend(NodeProgram):
            def on_start(self, ctx):
                if ctx.node == 0:
                    ctx.send(1, "big", *range(50))

        net = CongestNetwork(path_graph(2))
        with pytest.raises(BandwidthExceededError):
            net.run_phase("big", lambda u: Oversend())

    def test_oversize_allowed_when_not_strict(self):
        class Oversend(NodeProgram):
            def on_start(self, ctx):
                if ctx.node == 0:
                    ctx.send(1, "big", *range(50))

        net = CongestNetwork(path_graph(2), strict=False)
        result = net.run_phase("big", lambda u: Oversend())
        assert result.metrics.max_message_words == 50


class TestDelivery:
    def test_empty_phase_costs_zero_rounds(self):
        net = CongestNetwork(path_graph(3))
        result = net.run_phase("idle", lambda u: _Silent())
        assert result.metrics.rounds == 0
        assert result.metrics.messages == 0

    def test_ping_delivered_next_round(self):
        net = CongestNetwork(star_graph(5))
        result = net.run_phase("ping", lambda u: _PingOnce())
        assert result.metrics.rounds == 1
        pings = result.output_map("ping")
        assert pings == {u: 42 for u in range(1, 5)}

    def test_send_to_non_neighbour_raises(self):
        class Bad(NodeProgram):
            def on_start(self, ctx):
                if ctx.node == 0:
                    ctx.send(2, "x")

        net = CongestNetwork(path_graph(3))
        with pytest.raises(KeyError):
            net.run_phase("bad", lambda u: Bad())

    def test_pipelining_one_message_per_round(self):
        net = CongestNetwork(path_graph(2))
        result = net.run_phase("burst", lambda u: _Burst(5))
        # 5 messages over one edge need exactly 5 rounds.
        assert result.metrics.rounds == 5
        arrived = net.memory[1]["arrived"]
        assert arrived == [(r + 1, r) for r in range(5)]

    def test_backlog_metric_tracks_queue(self):
        net = CongestNetwork(path_graph(2))
        result = net.run_phase("burst", lambda u: _Burst(7))
        assert result.metrics.max_edge_backlog == 7

    def test_round_limit_enforced(self):
        class Forever(NodeProgram):
            def on_start(self, ctx):
                if ctx.node == 0:
                    ctx.send(1, "tick")

            def on_round(self, ctx, inbox):
                for src, _msg in inbox:
                    ctx.send(src, "tick")

        net = CongestNetwork(path_graph(2))
        with pytest.raises(RoundLimitExceededError):
            net.run_phase("forever", lambda u: Forever(), max_rounds=25)

    def test_send_from_on_stop_rejected(self):
        class SneakySend(NodeProgram):
            def on_stop(self, ctx):
                if ctx.node == 0:
                    ctx.send(1, "late")

        net = CongestNetwork(path_graph(2))
        with pytest.raises(CongestError):
            net.run_phase("sneaky", lambda u: SneakySend())


class TestTicksAndContext:
    def test_request_tick_schedules_without_messages(self):
        class Counter(NodeProgram):
            def on_start(self, ctx):
                if ctx.node == 0:
                    ctx.memory["ticks"] = 0
                    ctx.request_tick()

            def on_round(self, ctx, inbox):
                ctx.memory["ticks"] += 1
                if ctx.memory["ticks"] < 3:
                    ctx.request_tick()

        net = CongestNetwork(path_graph(2))
        result = net.run_phase("ticks", lambda u: Counter())
        assert net.memory[0]["ticks"] == 3
        assert result.metrics.rounds == 3

    def test_context_exposes_initial_knowledge(self):
        seen = {}

        class Probe(NodeProgram):
            def on_start(self, ctx):
                seen[ctx.node] = (
                    sorted(ctx.neighbors),
                    ctx.weighted_degree(),
                    ctx.network_size,
                )

        g = WeightedGraph([(0, 1, 2.0), (1, 2, 3.0)])
        net = CongestNetwork(g)
        net.run_phase("probe", lambda u: Probe())
        assert seen[1] == ([0, 2], 5.0, 3)
        assert seen[0] == ([1], 2.0, 3)

    def test_memory_persists_across_phases(self):
        class WriteOnce(NodeProgram):
            def on_start(self, ctx):
                ctx.memory["x"] = ctx.node * 10

        class ReadBack(NodeProgram):
            def on_start(self, ctx):
                ctx.output("x", ctx.memory["x"])

        net = CongestNetwork(path_graph(3))
        net.run_phase("w", lambda u: WriteOnce())
        result = net.run_phase("r", lambda u: ReadBack())
        assert result.output_map("x") == {0: 0, 1: 10, 2: 20}

    def test_reset_memory(self):
        net = CongestNetwork(path_graph(2))
        net.memory[0]["x"] = 1
        net.reset_memory()
        assert net.memory[0] == {}


class TestMetricsAccumulation:
    def test_run_metrics_totals(self):
        net = CongestNetwork(star_graph(4))
        net.run_phase("p1", lambda u: _PingOnce())
        net.run_phase("p2", lambda u: _PingOnce())
        assert net.metrics.measured_rounds == 2
        assert net.metrics.total_messages == 6
        assert len(net.metrics.phases) == 2

    def test_charged_rounds_tracked_separately(self):
        net = CongestNetwork(path_graph(2))
        net.run_phase("p", lambda u: _PingOnce())
        net.charge(100, "substituted subroutine")
        assert net.metrics.charged_rounds == 100
        assert net.metrics.total_rounds == net.metrics.measured_rounds + 100
        assert "substituted subroutine" in net.metrics.charged_notes[0]

    def test_negative_charge_rejected(self):
        net = CongestNetwork(path_graph(2))
        with pytest.raises(ValueError):
            net.charge(-1, "bad")

    def test_metrics_summary_keys(self):
        net = CongestNetwork(path_graph(2))
        net.run_phase("p", lambda u: _PingOnce())
        summary = net.metrics.summary()
        assert summary["measured_rounds"] == 1
        assert summary["messages"] == 1
        assert summary["max_message_words"] == 1

    def test_single_message_helper_rejects_duplicates(self):
        msgs = [(0, Message("a", (1,))), (0, Message("a", (2,)))]
        with pytest.raises(ValueError):
            single_message(msgs, "a")


class _Traffic(NodeProgram):
    """Keeps work in flight for six rounds: node 0 bursts six items to
    node 1, and node 2 ticks and pings both neighbours in rounds 0-3."""

    def on_start(self, ctx):
        if ctx.node == 0:
            for i in range(6):
                ctx.send(1, "item", i)
        if ctx.node == 2:
            ctx.broadcast("ping", 0)
            ctx.request_tick()

    def on_round(self, ctx, inbox):
        if ctx.node == 2 and ctx.round < 4:
            ctx.broadcast("ping", ctx.round)
            ctx.request_tick()


class _AbortAt(_Traffic):
    """_Traffic, plus node 3 misbehaves in round 2, or in ``on_stop``."""

    def __init__(self, how):
        self.how = how

    def on_round(self, ctx, inbox):
        super().on_round(ctx, inbox)
        if ctx.node == 3 and ctx.round == 2:
            if self.how == "oversize":
                ctx.send(2, "big", *range(50))
            elif self.how == "non-neighbour":
                ctx.send(0, "x")

    def on_stop(self, ctx):
        if self.how == "on-stop" and ctx.node == 3:
            ctx.request_tick()
            ctx.send(2, "late")


class _Follow(_Traffic):
    """The phase run after an aborted one; records what it receives."""

    def on_round(self, ctx, inbox):
        super().on_round(ctx, inbox)
        log = ctx.memory.setdefault("log", [])
        log.extend((ctx.round, src, msg.kind, msg.payload) for src, msg in inbox)


class TestAbortedPhases:
    """FIFOs, inboxes and tick requests belong to the network and are
    reused across phases; a phase that raises must leave none of its
    traffic behind for the next phase."""

    CASES = {
        "oversize": BandwidthExceededError,
        "non-neighbour": KeyError,
        "round-limit": RoundLimitExceededError,
        "on-stop": CongestError,
    }

    @pytest.mark.parametrize("how", sorted(CASES))
    def test_abort_raises_and_next_phase_matches_fresh(self, how):
        net = CongestNetwork(path_graph(5))
        limit = 3 if how == "round-limit" else None
        with pytest.raises(self.CASES[how]):
            net.run_phase("abort", lambda u: _AbortAt(how), max_rounds=limit)
        assert net.metrics.phases == []
        for u in net.nodes:
            net.memory[u].pop("log", None)
        after = net.run_phase("follow", lambda u: _Follow())

        fresh = CongestNetwork(path_graph(5))
        expected = fresh.run_phase("follow", lambda u: _Follow())
        assert after.metrics == expected.metrics
        assert after.outputs == expected.outputs
        assert net.memory == fresh.memory
        assert net.metrics.phases == [expected.metrics]

    def test_oversize_raises_at_send(self):
        raised_in = []

        class Oversend(NodeProgram):
            def on_start(self, ctx):
                if ctx.node == 0:
                    try:
                        ctx.send(1, "big", *range(9))
                    except BandwidthExceededError:
                        raised_in.append("send")
                        raise

        with pytest.raises(BandwidthExceededError):
            CongestNetwork(path_graph(2)).run_phase("big", lambda u: Oversend())
        assert raised_in == ["send"]

    @pytest.mark.parametrize("via", ["multicast", "relay"])
    def test_oversize_multicast_and_relay_raise(self, via):
        class Oversend(NodeProgram):
            def on_start(self, ctx):
                if ctx.node == 1:
                    if via == "multicast":
                        ctx.multicast([0, 2], "big", *range(9))
                    else:
                        ctx.relay([0, 2])(Message("big", tuple(range(9))))

        with pytest.raises(BandwidthExceededError):
            CongestNetwork(path_graph(3)).run_phase("big", lambda u: Oversend())

    @pytest.mark.parametrize("via", ["multicast", "relay"])
    def test_multicast_and_relay_to_non_neighbour_raise(self, via):
        class Bad(NodeProgram):
            def on_start(self, ctx):
                if ctx.node == 0:
                    if via == "multicast":
                        ctx.multicast([1, 2], "x")
                    else:
                        ctx.relay([1, 2])

        with pytest.raises(KeyError, match="has no edge to 2"):
            CongestNetwork(path_graph(3)).run_phase("bad", lambda u: Bad())

    def test_not_strict_delivers_oversize_message(self):
        class Oversend(NodeProgram):
            def on_start(self, ctx):
                if ctx.node == 0:
                    ctx.send(1, "big", *range(50))

            def on_round(self, ctx, inbox):
                for _src, msg in inbox:
                    ctx.output("got", msg.payload)

        net = CongestNetwork(path_graph(2), strict=False)
        result = net.run_phase("big", lambda u: Oversend())
        assert result.output_map("got") == {1: tuple(range(50))}
        assert result.metrics.max_message_words == 50
        assert result.metrics.words == 50

    def test_overridden_on_stop_runs_and_its_tick_is_dropped(self):
        class Finish(NodeProgram):
            def on_stop(self, ctx):
                ctx.output("stopped", ctx.node)
                ctx.request_tick()

        net = CongestNetwork(path_graph(3))
        result = net.run_phase("stop", lambda u: Finish())
        assert result.output_map("stopped") == {0: 0, 1: 1, 2: 2}
        assert net.run_phase("idle", lambda u: _Silent()).metrics.rounds == 0


class _RelayBig(NodeProgram):
    """Node 0 relays one 50-word message to node 1; node 1 records it."""

    def on_start(self, ctx):
        if ctx.node == 0:
            ctx.memory["forwarder"] = ctx.relay([1])
            ctx.memory["forwarder"](Message("big", tuple(range(50))))

    def on_round(self, ctx, inbox):
        for _src, msg in inbox:
            ctx.output("got", msg.payload)


class TestCachedRelay:
    """Forwarders from ``ctx.relay`` are cached for the network's lifetime."""

    def test_same_targets_give_the_same_forwarder_across_phases(self):
        net = CongestNetwork(path_graph(3))
        seen = []

        class Ask(NodeProgram):
            def on_start(self, ctx):
                if ctx.node == 1:
                    seen.append((ctx.relay([0, 2]), ctx.relay((0, 2)), ctx.relay([2, 0])))

        net.run_phase("a", lambda u: Ask())
        net.reset_memory()
        net.run_phase("b", lambda u: Ask())
        (a1, a2, a3), (b1, _b2, b3) = seen
        assert a1 is a2 is b1
        assert a3 is b3 and a3 is not a1  # the target order is part of the key

    def test_cached_relay_follows_strict(self):
        net = CongestNetwork(path_graph(2), strict=False)
        result = net.run_phase("loose", lambda u: _RelayBig())
        assert result.output_map("got") == {1: tuple(range(50))}
        assert result.metrics.words == 50
        loose_forwarder = net.memory[0]["forwarder"]

        net.strict = True
        raised_in = []

        class Guarded(_RelayBig):
            def on_start(self, ctx):
                try:
                    super().on_start(ctx)
                except BandwidthExceededError:
                    raised_in.append("send")
                    raise

        with pytest.raises(BandwidthExceededError, match="50 words"):
            net.run_phase("strict", lambda u: Guarded())
        assert raised_in == ["send"]

        net.strict = False
        again = net.run_phase("loose-again", lambda u: _RelayBig())
        assert again.output_map("got") == {1: tuple(range(50))}
        assert net.memory[0]["forwarder"] is loose_forwarder

    def test_relays_target_the_new_children_after_reset_memory(self):
        graph = cycle_graph(6)
        first = RootedTree(0, {1: 0, 2: 1, 3: 2, 4: 3, 5: 4})
        second = RootedTree(0, {5: 0, 4: 5, 3: 4, 1: 0, 2: 1})
        tracer = MessageTracer()
        net = CongestNetwork(graph, tracer=tracer)
        for name, tree in (("first", first), ("second", second)):
            net.reset_memory()
            load_tree_into_memory(net, tree, SPANNING_TREE)
            net.run_phase(
                name,
                lambda u: DowncastItems(
                    SPANNING_TREE, lambda ctx: [("x", 1)] if ctx.node == 0 else []
                ),
            )
            hops = {(e.src, e.dst) for e in tracer.events if e.phase == name}
            assert hops == {(p, c) for c, p in tree.edges()}
            assert all(net.memory[u]["dc:items"] == [("x", 1)] for u in net.nodes)


class TestMessageValue:
    def test_words_counted_once_at_construction(self):
        assert Message("k", (1, (2, 3), None, "s")).words == 4

    def test_equality_hash_and_repr(self):
        a, b = Message("k", (1, 2)), Message("k", (1, 2))
        assert a == b and hash(a) == hash(b)
        assert a != Message("k", (1, 3)) and a != Message("j", (1, 2))
        assert a != ("k", (1, 2))
        assert repr(a) == "Message(kind='k', payload=(1, 2))"

    def test_pickles(self):
        import pickle

        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(Message("k", (1, (2, 3))), protocol))
            assert copy == Message("k", (1, (2, 3)))
            assert copy.words == 3
