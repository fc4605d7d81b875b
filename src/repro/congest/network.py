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
Strict mode additionally checks every message's size in words when it
is sent (:mod:`repro.congest.message`), so an algorithm that tries to
stuff a non-constant amount of data into one message fails loudly.

A phase ends at **quiescence**: no FIFO holds a message and no node
requested a tick.  Phases of a larger algorithm share each node's
persistent ``memory`` dict, modelling local storage across phases (the
phase barrier itself is charged by drivers as O(D) where relevant).

The round loop runs on the graph's cached
:class:`~repro.graphs.index.GraphIndex` rather than on dicts keyed by
``(u, v)`` tuples: every directed edge has an integer id, its FIFO
lives in a flat slot array, and the busy edges form an
**activation-ordered list** of ids.  A send is the enqueue: the
:class:`~repro.congest.node.NodeContext` appends one ready-made
``(src, msg)`` inbox entry to each target edge's FIFO, and the edge id
to the busy list when its FIFO was empty.  Delivery moves an entry from
a FIFO to an inbox, counts its words, and shows a
:class:`~repro.congest.trace.MessageTracer` the same hop.  Delivery
order, dispatch order and therefore every protocol's output are
deterministic; ``tests/test_congest_golden.py`` pins them bit for bit
against golden fixtures.

FIFOs, the busy list, the tick set and the inboxes belong to the
network and are reused from phase to phase.  A phase drains them all on
the way to quiescence; a phase that raises clears them, so the next
phase starts as on a fresh network.

**What a phase costs.**  Beyond its traffic, a phase pays a fixed
per-node setup: rebinding each node's context, one factory call and one
``on_start``.  A Theorem 2.1 run is 24 phases of 64 such calls on a
64-node graph, most of them carrying little traffic, so that setup is
kept small: the contexts (and the relay forwarders cached on them) live
as long as the network, the library programs are slotted and read their
tree keys from memory directly, the ``on_stop`` pass runs only when some
program class overrides it, and when every node id is the int equal to
its index, the dispatch loop does not translate ids.

The per-node programming API (:class:`~repro.congest.node.NodeContext`
/ :class:`~repro.congest.node.NodeProgram`) sees original node
identifiers everywhere.

One behavioural note: inbox lists are owned by the engine and are only
valid for the duration of the ``on_round`` call — programs must not
store a reference to the inbox itself (storing the messages is fine).
No library program does.
"""

from __future__ import annotations

import sys
import time
from collections import deque
from collections.abc import Callable, Hashable
from typing import Any, Optional

from ..errors import CongestError, RoundLimitExceededError
from ..graphs.graph import WeightedGraph
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
        # True when every node id is the int equal to its index, so the
        # round loop can dispatch without translating ids.
        self._identity_ids = all(
            type(u) is int and u == i for i, u in enumerate(index.nodes)
        )
        self.memory: dict[NodeId, dict[str, Any]] = {u: {} for u in self._nodes}
        self.metrics = RunMetrics()
        # Delivery state, reused by every phase: one FIFO slot per
        # directed edge (a deque made on the edge's first send), the busy
        # edge ids in activation order, the tick requests, one inbox per
        # node, and the ids of this round's receivers.
        self._queues: list[Optional[deque]] = [None] * index.directed_edge_count
        self._active: list[int] = []
        self._ticks: set[NodeId] = set()
        self._inboxes: list[Inbox] = [[] for _ in self._nodes]
        self._receivers: list[int] = []
        # Per-node contexts, rebound (memory/outputs/round) every phase.
        self._contexts = [NodeContext(self, i) for i in range(len(self._nodes))]

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
        duration is recorded on ``PhaseMetrics.wall_time``.  A phase
        that raises records no metrics and leaves no message queued.
        """
        started = time.perf_counter()
        memory = self.memory
        max_words = self.max_words_per_message if self.strict else sys.maxsize
        outputs: dict[NodeId, dict[str, Any]] = {}
        for ctx in self._contexts:
            u = ctx.node
            ctx.memory = memory[u]
            ctx._outputs = outputs[u] = {}
            ctx.round = 0
            ctx._max_words = max_words
        programs = list(map(program_factory, self._nodes))
        limit = max_rounds if max_rounds is not None else DEFAULT_ROUND_LIMIT
        try:
            phase = self._run_to_quiescence(name, programs, limit)
        except BaseException:
            self._clear_delivery_state()
            raise
        phase.wall_time = time.perf_counter() - started
        self.metrics.add_phase(phase)
        return PhaseResult(phase, outputs)

    def _run_to_quiescence(
        self, name: str, programs: list[NodeProgram], limit: int
    ) -> PhaseMetrics:
        nodes = self._nodes
        node_id = self.index.node_id
        identity = self._identity_ids
        adj_target = self.index.adj_target
        tracer = self.tracer
        contexts = self._contexts
        queues = self._queues
        active = self._active
        ticks = self._ticks
        inboxes = self._inboxes
        receivers = self._receivers

        # Round 0: on_start for everyone.
        for program, ctx in zip(programs, contexts):
            program.on_start(ctx)

        rounds = 0
        message_count = 0
        word_count = 0
        max_word = 0
        backlog = 0
        while active or ticks:
            if rounds >= limit:
                raise RoundLimitExceededError(
                    f"phase {name!r} did not reach quiescence within "
                    f"{limit} rounds ({len(active)} busy edges)"
                )
            rounds += 1
            # 1. Delivery: one message per busy directed edge, scanned
            # in activation order.  A queue only grows between two
            # deliveries, so its length before the pop is its peak.
            message_count += len(active)
            still_active: list[int] = []
            for e in active:
                queue = queues[e]
                length = len(queue)
                if length > backlog:
                    backlog = length
                entry = queue.popleft()
                w = entry[1].words
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
                if length > 1:
                    still_active.append(e)
            # Sends during computation append newly busy edges after the
            # ones still draining.
            active[:] = still_active
            # 2. Computation for receivers and tick requesters, in the
            # iteration order of a set of their *original* node ids.  A
            # set built from a dict is sized for the dict's length up
            # front and filled in first-touch order; that table layout
            # fixes the dispatch order, which the golden fixtures pin (a
            # set built from a list grows step by step and, on tuple
            # ids, iterates differently).  When every id equals its
            # index the ids need no translation either way.
            if identity:
                dispatch = set(dict.fromkeys(receivers))
            else:
                dispatch = set(dict.fromkeys(map(nodes.__getitem__, receivers)))
            if ticks:
                dispatch |= ticks
                ticks.clear()
            for i in dispatch if identity else map(node_id.__getitem__, dispatch):
                ctx = contexts[i]
                ctx.round = rounds
                box = inboxes[i]
                programs[i].on_round(ctx, box)
                box.clear()
            receivers.clear()

        base_on_stop = NodeProgram.on_stop
        if any(cls.on_stop is not base_on_stop for cls in set(map(type, programs))):
            for program, ctx in zip(programs, contexts):
                if type(program).on_stop is not base_on_stop:
                    program.on_stop(ctx)
                    if active:
                        raise CongestError(
                            f"node {ctx.node!r} attempted to send from "
                            f"on_stop in phase {name!r}"
                        )
        ticks.clear()  # a tick requested in on_stop has no round to run in
        return PhaseMetrics(
            name=name,
            rounds=rounds,
            messages=message_count,
            words=word_count,
            max_message_words=max_word,
            max_edge_backlog=backlog,
        )

    def _clear_delivery_state(self) -> None:
        """Drop everything an aborted phase left queued."""
        queues = self._queues
        for e in self._active:
            queues[e].clear()
        self._active.clear()
        self._ticks.clear()
        for i in self._receivers:
            self._inboxes[i].clear()
        self._receivers.clear()

    # ------------------------------------------------------------------
    def charge(self, rounds: int, note: str) -> None:
        """Record an analytic round cost (substituted subroutine)."""
        self.metrics.charge(rounds, note)

    def memory_map(self, key: str) -> dict[NodeId, Any]:
        """``{node: memory[key]}`` over nodes that have ``key`` set."""
        return {u: mem[key] for u, mem in self.memory.items() if key in mem}
