"""The synchronous CONGEST engine.

The engine owns, for every directed edge, a FIFO of pending messages.
A round consists of:

1. **delivery** — the head message (if any) of every directed-edge FIFO
   is removed and placed in the receiver's inbox; at most one message
   crosses each edge per direction per round *by construction*, which is
   exactly the CONGEST bandwidth constraint;
2. **computation** — every node with a non-empty inbox (plus nodes that
   requested a tick) runs ``on_round``; messages it sends are appended to
   the FIFOs and become eligible for delivery from the next round on.

Enqueueing many messages at once is therefore legal and models
*pipelining*: `k` messages to the same neighbour drain over `k` rounds.
Strict mode additionally audits every message's size in words
(:mod:`repro.congest.message`), so an algorithm that tries to stuff a
non-constant amount of data into one message fails loudly.

A phase ends at **quiescence**: no FIFO holds a message and no node
requested a tick.  Phases of a larger algorithm share each node's
persistent ``memory`` dict, modelling local storage across phases (the
phase barrier itself is charged by drivers as O(D) where relevant).

The round loop runs on the graph's cached
:class:`~repro.graphs.index.GraphIndex` rather than on dicts keyed by
``(u, v)`` tuples: every directed edge has an integer id, its FIFO
lives in a flat slot array, and the busy edges form an
**activation-ordered list** of ids.  Each FIFO holds ready-made
``(src, msg)`` inbox entries, built once when the sender's outbox is
flushed, so delivery moves an entry from a FIFO to an inbox and a
:class:`~repro.congest.trace.MessageTracer` sees the same hop.  Delivery
order, dispatch order and therefore every protocol's output are
deterministic; ``tests/test_congest_golden.py`` pins them bit for bit
against golden fixtures.

The per-node programming API (:class:`~repro.congest.node.NodeContext`
/ :class:`~repro.congest.node.NodeProgram`) sees original node
identifiers everywhere.

One behavioural note: inbox lists are owned by the engine and are only
valid for the duration of the ``on_round`` call — programs must not
store a reference to the inbox itself (storing the messages is fine).
No library program does.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Callable, Hashable
from typing import Any, Optional

from ..errors import CongestError, RoundLimitExceededError
from ..graphs.graph import WeightedGraph
from .message import Message, check_message_size
from .metrics import PhaseMetrics, RunMetrics
from .node import Inbox, NodeContext, NodeProgram

NodeId = Hashable
ProgramFactory = Callable[[NodeId], NodeProgram]

DEFAULT_MAX_WORDS = 8
DEFAULT_ROUND_LIMIT = 2_000_000


class PhaseResult:
    """Outcome of one phase: metrics plus collected node outputs."""

    def __init__(self, metrics: PhaseMetrics, outputs: dict[NodeId, dict[str, Any]]):
        self.metrics = metrics
        self.outputs = outputs

    def output_map(self, key: str) -> dict[NodeId, Any]:
        """``{node: value}`` for one output key, restricted to nodes that
        produced it."""
        return {u: vals[key] for u, vals in self.outputs.items() if key in vals}



class CongestNetwork:
    """A CONGEST network over a :class:`WeightedGraph`.

    Parameters
    ----------
    graph:
        The communication topology; must be connected for most protocols
        (checked by the algorithms, not the engine).
    max_words_per_message:
        Per-message budget in words (one word models O(log n) bits).
    strict:
        When True (default), oversize messages raise
        :class:`~repro.errors.BandwidthExceededError`.
    tracer:
        Optional :class:`~repro.congest.trace.MessageTracer`, shown every
        hop in delivery order.
    """

    def __init__(
        self,
        graph: WeightedGraph,
        max_words_per_message: int = DEFAULT_MAX_WORDS,
        strict: bool = True,
        tracer=None,
    ) -> None:
        self.graph = graph
        self.strict = strict
        self.tracer = tracer
        self.max_words_per_message = max_words_per_message
        index = graph.index()
        self.index = index
        self._nodes: tuple[NodeId, ...] = index.nodes
        # Original-id views shared with (and cached on) the graph index;
        # node programs read these through their NodeContext.
        self._neighbors = index.neighbor_lists
        self._weights = index.weight_maps
        self.memory: dict[NodeId, dict[str, Any]] = {u: {} for u in self._nodes}
        self.metrics = RunMetrics()
        # Reusable per-node contexts: rebound (memory/outputs/round) at
        # the start of every phase instead of reconstructed.
        n = len(self._nodes)
        self._contexts: list[NodeContext] = [
            NodeContext(
                node=u,
                neighbors=self._neighbors[i],
                weights=self._weights[i],
                network_size=n,
                memory=self.memory[u],
                outputs={},
            )
            for i, u in enumerate(self._nodes)
        ]

    @property
    def nodes(self) -> tuple[NodeId, ...]:
        """All nodes, in index order (a cached tuple — hot loops may
        read this property per iteration without paying a copy)."""
        return self._nodes

    @property
    def size(self) -> int:
        return len(self._nodes)

    # ------------------------------------------------------------------
    def reset_memory(self) -> None:
        """Clear all persistent node memory (fresh computation)."""
        self.memory = {u: {} for u in self._nodes}

    def run_phase(
        self,
        name: str,
        program_factory: ProgramFactory,
        max_rounds: Optional[int] = None,
    ) -> PhaseResult:
        """Run one phase to quiescence and record its metrics.

        ``program_factory(node)`` builds the per-node program.  Raises
        :class:`RoundLimitExceededError` if quiescence is not reached
        within ``max_rounds`` (default: a large engine-level limit that
        only trips on livelocked protocols).  The phase's wall-clock
        duration is recorded on ``PhaseMetrics.wall_time``.
        """
        started = time.perf_counter()
        limit = max_rounds if max_rounds is not None else DEFAULT_ROUND_LIMIT
        phase = PhaseMetrics(name=name)
        nodes = self._nodes
        outputs: dict[NodeId, dict[str, Any]] = {u: {} for u in nodes}
        contexts = self._contexts
        programs: list[NodeProgram] = []
        for i, u in enumerate(nodes):
            ctx = contexts[i]
            ctx.memory = self.memory[u]
            ctx._outputs = outputs[u]
            ctx.round = 0
            ctx._outbox.clear()
            ctx._tick_requested = False
            programs.append(program_factory(u))

        index = self.index
        n = len(nodes)
        node_id = index.node_id
        edge_id_maps = index.edge_id_maps
        adj_target = index.adj_target
        strict = self.strict
        max_words = self.max_words_per_message
        tracer = self.tracer

        # FIFOs and inboxes hold the same (src, msg) entries.
        queues: list[Optional[deque[tuple[NodeId, Message]]]] = [
            None
        ] * index.directed_edge_count
        active_edges: list[int] = []
        inboxes: list[Inbox] = [[] for _ in range(n)]
        receivers: list[int] = []
        tick_nodes: set[NodeId] = set()

        def flush_outbox(i: int, ctx: NodeContext) -> None:
            outbox = ctx._outbox
            if outbox:
                edge_ids = edge_id_maps[i]
                src = nodes[i]
                backlog = phase.max_edge_backlog
                for v, msg in outbox:
                    if strict and msg.words > max_words:
                        check_message_size(msg, max_words)  # raises
                    e = edge_ids[v]
                    queue = queues[e]
                    if queue is None:
                        queue = queues[e] = deque()
                    if not queue:
                        active_edges.append(e)
                    queue.append((src, msg))
                    if len(queue) > backlog:
                        backlog = len(queue)
                phase.max_edge_backlog = backlog
                outbox.clear()
            if ctx._tick_requested:
                ctx._tick_requested = False
                tick_nodes.add(ctx.node)

        # Round 0: on_start for everyone.
        for i in range(n):
            ctx = contexts[i]
            programs[i].on_start(ctx)
            if ctx._outbox or ctx._tick_requested:
                flush_outbox(i, ctx)

        rounds = 0
        message_count = 0
        word_count = 0
        max_word = 0
        while active_edges or tick_nodes:
            if rounds >= limit:
                raise RoundLimitExceededError(
                    f"phase {name!r} did not reach quiescence within "
                    f"{limit} rounds ({len(active_edges)} busy edges)"
                )
            rounds += 1
            # 1. Delivery: one message per busy directed edge, scanned
            # in activation order over the flat edge-id list.
            still_active: list[int] = []
            for e in active_edges:
                queue = queues[e]
                entry = queue.popleft()
                w = entry[1].words
                message_count += 1
                word_count += w
                if w > max_word:
                    max_word = w
                dst = adj_target[e]
                if tracer is not None:
                    tracer.record(name, rounds, entry[0], nodes[dst], entry[1])
                box = inboxes[dst]
                if not box:
                    receivers.append(dst)
                box.append(entry)
                if queue:
                    still_active.append(e)
            active_edges = still_active
            # 2. Computation for receivers and tick requesters, over
            # *original* node ids.  Building the set from a dict in
            # first-touch order fixes its table layout, and with it the
            # dispatch order the golden fixtures pin.
            active = set(dict.fromkeys(nodes[i] for i in receivers)) | tick_nodes
            tick_nodes = set()
            for u in active:
                i = node_id[u]
                ctx = contexts[i]
                ctx.round = rounds
                programs[i].on_round(ctx, inboxes[i])
                if ctx._outbox or ctx._tick_requested:
                    flush_outbox(i, ctx)
            for i in receivers:
                inboxes[i].clear()
            receivers.clear()

        phase.rounds = rounds
        phase.messages = message_count
        phase.words = word_count
        phase.max_message_words = max_word

        for i in range(n):
            programs[i].on_stop(contexts[i])
            if contexts[i]._outbox:
                raise CongestError(
                    f"node {nodes[i]!r} attempted to send from on_stop "
                    f"in phase {name!r}"
                )
        phase.wall_time = time.perf_counter() - started
        self.metrics.add_phase(phase)
        return PhaseResult(phase, outputs)

    # ------------------------------------------------------------------
    def charge(self, rounds: int, note: str) -> None:
        """Record an analytic round cost (substituted subroutine)."""
        self.metrics.charge(rounds, note)

    def memory_map(self, key: str) -> dict[NodeId, Any]:
        """``{node: memory[key]}`` over nodes that have ``key`` set."""
        return {u: mem[key] for u, mem in self.memory.items() if key in mem}
