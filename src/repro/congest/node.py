"""Per-node programming interface for the CONGEST simulator.

A distributed algorithm is written as a :class:`NodeProgram` subclass.
One instance is created per node per phase; the engine calls
:meth:`NodeProgram.on_start` once and then :meth:`NodeProgram.on_round`
on every round in which the node has incoming messages (or has requested
a tick).  All interaction with the world goes through the
:class:`NodeContext`, which exposes exactly the knowledge a CONGEST node
is allowed to have initially: its own identifier, its neighbours, the
weights of incident edges, and (by the standard convention) ``n``.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Hashable, Sequence
from typing import Any, Optional

from .message import Message, check_message_size

NodeId = Hashable
Inbox = list[tuple[NodeId, Message]]


class NodeContext:
    """Capability handle passed to node programs by the engine.

    A send is the enqueue: :meth:`send`, :meth:`multicast` and the
    forwarders from :meth:`relay` append one ``(sender, message)`` entry
    straight onto each target edge's FIFO, which the network owns, and
    in strict mode check the message's size once, when it is sent.
    ``memory`` persists across phases of a pipeline (it models the
    node's local storage), while program instances are per-phase.
    """

    __slots__ = (
        "node",
        "neighbors",
        "_weights",
        "round",
        "network_size",
        "memory",
        "_outputs",
        "_edge_ids",
        "_queues",
        "_active",
        "_ticks",
        "_max_words",
        "_relays",
    )

    def __init__(self, network, i: int) -> None:
        index = network.index
        self.node = index.nodes[i]
        self.neighbors: Sequence[NodeId] = index.neighbor_lists[i]
        self._weights: dict[NodeId, float] = index.weight_maps[i]
        self.round = 0
        self.network_size = len(index.nodes)
        self.memory: dict[str, Any] = network.memory[self.node]
        self._outputs: dict[str, Any] = {}
        # The network's delivery state: this node's {neighbour: directed
        # edge id}, the per-edge FIFOs (made on first use), the busy
        # edge ids in activation order, and the tick requests.
        self._edge_ids: dict[NodeId, int] = index.edge_id_maps[i]
        self._queues: list[Optional[deque[tuple[NodeId, Message]]]] = network._queues
        self._active: list[int] = network._active
        self._ticks: set = network._ticks
        self._max_words: int = network.max_words_per_message
        # Forwarders built by relay(), by (targets, word budget).
        self._relays: dict[tuple, Callable[[Message], None]] = {}

    # -- knowledge ------------------------------------------------------
    def edge_weight(self, neighbor: NodeId) -> float:
        """Weight of the incident edge to ``neighbor`` (initial knowledge)."""
        return self._weights[neighbor]

    @property
    def degree(self) -> int:
        return len(self.neighbors)

    def weighted_degree(self) -> float:
        """δ(node): total weight of incident edges."""
        return sum(self._weights.values())

    # -- actions --------------------------------------------------------
    def send(self, neighbor: NodeId, kind: str, *payload: Any) -> None:
        """Enqueue a message to ``neighbor``.

        Queued messages drain at one per round per (edge, direction) —
        the engine's FIFO implements CONGEST pipelining, so enqueueing k
        messages at once is allowed and they arrive over k rounds.
        """
        try:
            e = self._edge_ids[neighbor]
        except KeyError:
            raise _no_edge(self.node, neighbor) from None
        message = Message(kind, payload)
        if message.words > self._max_words:
            check_message_size(message, self._max_words)  # raises
        queue = self._queues[e]
        if not queue:
            if queue is None:
                queue = self._queues[e] = deque()
            self._active.append(e)
        queue.append((self.node, message))

    def multicast(self, neighbors: "Sequence[NodeId]", kind: str, *payload: Any) -> None:
        """Send one identical message to several neighbours.

        Semantically identical to calling :meth:`send` per neighbour, but
        one :class:`Message` and one ``(sender, message)`` entry are
        built, and size-checked, for all of them.  Flood and downcast
        primitives, which forward the same item to every child, use this.
        """
        if not neighbors:  # leaves multicast to no one constantly
            return
        message = Message(kind, payload)
        if message.words > self._max_words:
            check_message_size(message, self._max_words)  # raises
        entry = (self.node, message)
        edge_ids = self._edge_ids
        queues = self._queues
        for v in neighbors:
            try:
                e = edge_ids[v]
            except KeyError:
                raise _no_edge(self.node, v) from None
            queue = queues[e]
            if not queue:
                if queue is None:
                    queue = queues[e] = deque()
                self._active.append(e)
            queue.append(entry)

    def broadcast(self, kind: str, *payload: Any) -> None:
        """Send the same message to every neighbour."""
        self.multicast(self.neighbors, kind, *payload)

    def relay(self, neighbors: "Sequence[NodeId]") -> Callable[[Message], None]:
        """A prevalidated forwarder of received messages over a fixed
        neighbour set.

        Returns ``relay(message)``, which enqueues ``message`` itself,
        unchanged, on every target edge.  Streaming relays (downcast,
        flood) call it once per hop on the hot path, so the edge lookups
        are done once, when the forwarder is built, and not per call.

        Forwarders are cached on the context, keyed by the target tuple
        and the word budget in force, so a program that asks for the
        same targets in every phase (a tree primitive's children or
        parent) gets the same forwarder back without rebuilding it.  A
        forwarder is valid for the network's lifetime; one asked for
        after ``strict`` changes checks the new budget.
        """
        key = (tuple(neighbors), self._max_words)
        forwarder = self._relays.get(key)
        if forwarder is None:
            forwarder = self._relays[key] = self._build_relay(*key)
        return forwarder

    def _build_relay(
        self, neighbors: tuple, max_words: int
    ) -> Callable[[Message], None]:
        own = self._edge_ids
        try:
            edge_ids = [own[v] for v in neighbors]
        except KeyError:
            missing = next(v for v in neighbors if v not in own)
            raise _no_edge(self.node, missing) from None
        queues = self._queues
        active = self._active
        node = self.node
        if len(edge_ids) == 1:  # a parent, or a path's one child
            (edge,) = edge_ids

            def _relay_one(message: Message) -> None:
                if message.words > max_words:
                    check_message_size(message, max_words)  # raises
                queue = queues[edge]
                if not queue:
                    if queue is None:
                        queue = queues[edge] = deque()
                    active.append(edge)
                queue.append((node, message))

            return _relay_one

        def _relay(message: Message) -> None:
            if message.words > max_words:
                check_message_size(message, max_words)  # raises
            entry = (node, message)
            for e in edge_ids:
                queue = queues[e]
                if not queue:
                    if queue is None:
                        queue = queues[e] = deque()
                    active.append(e)
                queue.append(entry)

        return _relay

    def output(self, key: str, value: Any) -> None:
        """Record a named result of this node (collected by the engine)."""
        self._outputs[key] = value

    def request_tick(self) -> None:
        """Ask to be scheduled next round even with an empty inbox.

        Programs that are purely message-driven never need this; it
        exists for round-counting protocols (e.g. tests of the engine).
        """
        self._ticks.add(self.node)


def _no_edge(node: NodeId, neighbor: NodeId) -> KeyError:
    return KeyError(f"node {node!r} has no edge to {neighbor!r}")


class NodeProgram:
    """Base class for per-node CONGEST programs.

    Subclasses override :meth:`on_start` (round 0 initialisation; may
    send) and :meth:`on_round` (invoked whenever messages arrive, with
    the inbox of ``(sender, message)`` pairs delivered this round).
    Instance attributes are the node's phase-local state.  The base
    class has no instance dict of its own, so a subclass that declares
    ``__slots__`` builds with none; one that does not keeps its
    ``__dict__`` as usual.
    """

    __slots__ = ()

    def on_start(self, ctx: NodeContext) -> None:
        """One-time initialisation before the first round."""

    def on_round(self, ctx: NodeContext, inbox: Inbox) -> None:
        """Handle this round's inbox; send via ``ctx.send``.

        The inbox list is engine-owned and reused across rounds: read
        it (or keep the ``(sender, message)`` entries) during the call,
        but do not store a reference to the list itself.
        """

    def on_stop(self, ctx: NodeContext) -> None:
        """Called once when the phase reaches quiescence (finalise
        outputs)."""


def single_message(inbox: Inbox, kind: str) -> Optional[tuple[NodeId, Message]]:
    """Convenience: the unique message of ``kind`` in the inbox, or None.

    Raises :class:`ValueError` when several messages of that kind arrived
    — a protocol bug worth failing loudly on.
    """
    matches = [(src, msg) for src, msg in inbox if msg.kind == kind]
    if not matches:
        return None
    if len(matches) > 1:
        raise ValueError(f"expected at most one {kind!r} message, got {len(matches)}")
    return matches[0]
