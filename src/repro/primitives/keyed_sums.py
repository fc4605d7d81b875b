"""Pipelined keyed sums: k independent subtree sums in O(depth + k) rounds.

This primitive implements the pipelining trick behind Step 5 of the
paper (and Kutten–Peleg-style upcasts in general).  Every node holds a
multiset of ``(key, value)`` contributions; for every key we want the sum
of contributions over each subtree.  A naive solution waits for whole
subtrees and costs O(depth · k) rounds; the classic fix is **monotone
streaming**: every node emits its finished ``(key, sum)`` pairs in
globally increasing key order, so a node can finalise key ``K`` as soon
as every child's stream has advanced past ``K`` — the watermark rule.
The streams then interleave perfectly and the whole computation finishes
in O(depth + k) rounds.

Two consumption modes, matching the paper's two uses:

* ``capture_own_key=True`` (Step 5 type (ii)): the sum for key ``v``
  (a node id) is *absorbed* when the stream passes through node ``v``
  itself — every node ends up knowing the count of ⟨v⟩ messages in its
  own fragment-subtree.  Keys flowing through a node that does not own
  them continue upward.
* ``capture_own_key=False`` (Step 5 type (i)): all sums travel to the
  tree root, which records the full ``{key: total}`` map (then typically
  gossips it).
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterable

from ..congest.node import Inbox, NodeContext, NodeProgram
from .treespec import TreeSpec

ContributionsFn = Callable[[NodeContext], Iterable[tuple]]

_NOTHING = object()


class PipelinedKeyedSum(NodeProgram):
    """Sum values per key over every subtree, pipelined (see module doc).

    Parameters
    ----------
    spec:
        The tree to aggregate over.
    contributions:
        Callable returning this node's own ``(key, value)`` pairs.  Keys
        must be mutually comparable (ints in all library uses) and each
        key may appear multiple times (values are summed).
    out_key:
        Memory key for results.  With ``capture_own_key`` the captured
        sum is stored there (a number); at the root the full dict of
        sums that reached it is stored at ``out_key + ":root"``.
    capture_own_key:
        Absorb key ``K`` at node ``K`` instead of forwarding (the key
        space must then be node ids).
    """

    VALUE_KIND = "ks"
    DONE_KIND = "ks!"

    __slots__ = (
        "spec",
        "contributions",
        "out_key",
        "capture_own_key",
        "_buffer",
        "_heap",
        "_watermark",
        "_done_sent",
        "_parent",
    )

    def __init__(
        self,
        spec: TreeSpec,
        contributions: ContributionsFn,
        out_key: str = "ks:sum",
        capture_own_key: bool = False,
    ) -> None:
        self.spec = spec
        self.contributions = contributions
        self.out_key = out_key
        self.capture_own_key = capture_own_key

    def on_start(self, ctx: NodeContext) -> None:
        memory = ctx.memory
        spec = self.spec
        self._parent = memory.get(spec.parent_key)
        self._watermark = dict.fromkeys(memory.get(spec.children_key, ()), _NOTHING)
        self._done_sent = False
        if self.capture_own_key:
            memory[self.out_key] = 0
        buffer = self._buffer = {}
        heap = self._heap = []
        for key, value in self.contributions(ctx):
            if key in buffer:
                buffer[key] += value
            else:
                buffer[key] = value
                heapq.heappush(heap, key)
        self._try_emit(ctx)

    def on_round(self, ctx: NodeContext, inbox: Inbox) -> None:
        buffer = self._buffer
        watermark = self._watermark
        value_kind = self.VALUE_KIND
        for src, msg in inbox:
            kind = msg.kind
            if kind == value_kind:
                key, value = msg.payload
                if key in buffer:
                    buffer[key] += value
                else:
                    buffer[key] = value
                    heapq.heappush(self._heap, key)
                watermark[src] = key
            elif kind == self.DONE_KIND:
                watermark[src] = _DONE
        self._try_emit(ctx)

    # ------------------------------------------------------------------
    def _try_emit(self, ctx: NodeContext) -> None:
        parent = self._parent
        heap = self._heap
        buffer = self._buffer
        marks = self._watermark.values()
        while heap:
            key = heap[0]
            # Key is final once every child's stream has advanced to it
            # or beyond, so no further contribution to it can arrive.
            for mark in marks:
                if mark is _NOTHING or (mark is not _DONE and mark < key):
                    return
            heapq.heappop(heap)
            value = buffer.pop(key)
            if self.capture_own_key and key == ctx.node:
                ctx.memory[self.out_key] = value
                ctx.output(self.out_key, value)
            elif parent is None:
                root_map = ctx.memory.setdefault(f"{self.out_key}:root", {})
                root_map[key] = value
            else:
                ctx.send(parent, self.VALUE_KIND, key, value)
        if not self._done_sent and not buffer and all(
            mark is _DONE for mark in self._watermark.values()
        ):
            self._done_sent = True
            if parent is not None:
                ctx.send(parent, self.DONE_KIND)


class BlockingKeyedSum(NodeProgram):
    """The *unpipelined* strawman: wait for whole subtrees per node.

    Identical semantics to :class:`PipelinedKeyedSum` but every node
    buffers until **all** children have finished before emitting
    anything, so streams never interleave — worst-case O(depth · k)
    rounds instead of O(depth + k).  Exists purely as the ablation
    comparator (benchmark A2) quantifying what the paper's pipelining
    trick buys; never used by the algorithm itself.
    """

    VALUE_KIND = "bk"
    DONE_KIND = "bk!"

    def __init__(
        self,
        spec: TreeSpec,
        contributions: ContributionsFn,
        out_key: str = "bks:sum",
        capture_own_key: bool = False,
    ) -> None:
        self.spec = spec
        self.contributions = contributions
        self.out_key = out_key
        self.capture_own_key = capture_own_key
        self._sums: dict = {}
        self._waiting: set = set()

    def on_start(self, ctx: NodeContext) -> None:
        if self.capture_own_key:
            ctx.memory[self.out_key] = 0
        for key, value in self.contributions(ctx):
            self._sums[key] = self._sums.get(key, 0) + value
        self._waiting = set(self.spec.children(ctx))
        if not self._waiting:
            self._emit(ctx)

    def on_round(self, ctx: NodeContext, inbox: Inbox) -> None:
        for src, msg in inbox:
            if msg.kind == self.VALUE_KIND:
                key, value = msg.payload
                self._sums[key] = self._sums.get(key, 0) + value
            elif msg.kind == self.DONE_KIND:
                self._waiting.discard(src)
        if not self._waiting:
            self._emit(ctx)

    def _emit(self, ctx: NodeContext) -> None:
        self._waiting = {None}  # guard against re-emission
        parent = self.spec.parent(ctx)
        for key in sorted(self._sums, key=repr):
            value = self._sums[key]
            if self.capture_own_key and key == ctx.node:
                ctx.memory[self.out_key] = value
                ctx.output(self.out_key, value)
            elif parent is None:
                ctx.memory.setdefault(f"{self.out_key}:root", {})[key] = value
            else:
                ctx.send(parent, self.VALUE_KIND, key, value)
        if parent is not None:
            ctx.send(parent, self.DONE_KIND)


class _DoneSentinel:
    """Watermark sentinel: the child's stream is complete."""

    def __repr__(self) -> str:  # pragma: no cover
        return "<done>"


_DONE = _DoneSentinel()
