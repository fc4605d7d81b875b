"""Item dissemination primitives: downcast, upcast-union, and gossip.

These are the pipelined O(depth + k) building blocks of the paper:

* :class:`DowncastItems` — every node holding items streams them to all
  of its children; every node records everything that passes through it.
  With the engine's per-edge FIFOs, k items pipeline in O(depth + k)
  rounds.
* :class:`UpcastUnion` — every node holds a set of items; at quiescence
  every node has recorded the union of the items in its subtree, and the
  root knows the union of all items.  Duplicate suppression keeps each
  edge's traffic at one message per *distinct* item.
* :func:`gossip_items` — upcast to the BFS root then downcast, making
  every node know the union of all items in O(D + k) rounds.  This is
  the "broadcast to the whole network" operation used throughout
  Steps 1–5 (inter-fragment edges, fragment degrees, merging nodes,
  the tree ``T'_F``).

Items are tuples of scalars (O(1) words each).

Cost notes.  Gossip phases are the library's most frequent: Theorem 2.1
runs six gossips per tree, 12 of its 24 phases, and in the upcast half
most nodes neither send nor receive.  So the per-node setup is what a
gossip phase mostly costs, and it is kept to a few memory reads: both
programs are slotted, read the tree keys from memory directly, and take
their forwarder from the context's relay cache, which returns the same
one in every phase with the same children or parent; an upcast node
asks for it only when it first forwards.  On the hot path a
received payload is recorded as is (it is already a tuple) and the
message object itself is relayed, so a hop builds only its FIFO entry.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Iterable

from ..congest.network import CongestNetwork
from ..congest.node import Inbox, NodeContext, NodeProgram
from .bfs import BFS_TREE, build_bfs_tree
from .treespec import TreeSpec

ItemsFn = Callable[[NodeContext], Iterable[tuple]]


class DowncastItems(NodeProgram):
    """Stream items down the tree; every node records what it sees.

    ``items`` produces the items originating at each node (typically only
    the root has any).  Each node appends every item it originates or
    receives to ``memory[out_key]`` (a list, in arrival order) and
    forwards it to all children.
    """

    KIND = "dc"

    __slots__ = ("spec", "items", "out_key", "_record_append", "_relay")

    def __init__(self, spec: TreeSpec, items: ItemsFn, out_key: str = "dc:items") -> None:
        self.spec = spec
        self.items = items
        self.out_key = out_key

    def on_start(self, ctx: NodeContext) -> None:
        memory = ctx.memory
        record = memory.setdefault(self.out_key, [])
        # The tree is static for the phase: read it once, and bind the
        # per-hop operations (record, cached relay) once — on_round runs
        # once per delivered item, the hottest program path in the
        # library.  A payload is already a tuple, so it is recorded as is.
        children = memory.get(self.spec.children_key, ())
        self._record_append = record.append
        self._relay = ctx.relay(children) if children else None
        for item in self.items(ctx):
            record.append(tuple(item))
            ctx.multicast(children, self.KIND, *item)

    def on_round(self, ctx: NodeContext, inbox: Inbox) -> None:
        record_append = self._record_append
        relay = self._relay
        kind = self.KIND
        if relay is None:  # leaf: record only
            for _src, msg in inbox:
                if msg.kind == kind:
                    record_append(msg.payload)
            return
        for _src, msg in inbox:
            if msg.kind == kind:
                record_append(msg.payload)
                relay(msg)


class UpcastUnion(NodeProgram):
    """Union of item sets, aggregated towards the root with dedup.

    At quiescence ``memory[out_key]`` at node ``v`` is the union of the
    initial items over ``v``'s subtree (a :class:`set` of tuples).
    """

    KIND = "uu"

    __slots__ = ("spec", "items", "out_key", "_seen", "_parent", "_relay")

    def __init__(self, spec: TreeSpec, items: ItemsFn, out_key: str = "uu:items") -> None:
        self.spec = spec
        self.items = items
        self.out_key = out_key

    def on_start(self, ctx: NodeContext) -> None:
        seen: set[tuple] = set()
        self._seen = seen
        ctx.memory[self.out_key] = seen
        parent = self._parent = ctx.memory.get(self.spec.parent_key)
        # Most nodes of an upcast never forward anything: the relay to
        # the parent is fetched on the first forward.
        self._relay = None
        for item in self.items(ctx):
            item = tuple(item)
            if item not in seen:
                seen.add(item)
                if parent is not None:
                    ctx.send(parent, self.KIND, *item)

    def on_round(self, ctx: NodeContext, inbox: Inbox) -> None:
        seen = self._seen
        kind = self.KIND
        parent = self._parent
        if parent is None:  # root: dedup only
            for _src, msg in inbox:
                if msg.kind == kind:
                    seen.add(msg.payload)
            return
        relay = self._relay
        for _src, msg in inbox:
            if msg.kind == kind:
                item = msg.payload
                if item not in seen:
                    seen.add(item)
                    if relay is None:
                        relay = self._relay = ctx.relay((parent,))
                    relay(msg)


def gossip_items(
    network: CongestNetwork,
    items: ItemsFn,
    out_key: str,
    phase_name: str = "gossip",
    bfs_spec: TreeSpec = BFS_TREE,
    build_tree_if_missing: bool = True,
) -> None:
    """Make every node know the union of all nodes' items.

    Runs an upcast-union to the BFS root followed by a downcast of the
    root's collected set.  Afterwards every node's ``memory[out_key]``
    holds the full set of items (as a set of tuples).  Costs
    O(D + k) measured rounds where k is the number of distinct items.
    """
    sample = network.memory[network.nodes[0]]
    if build_tree_if_missing and bfs_spec.root_key not in sample:
        build_bfs_tree(network, spec=bfs_spec)

    # A result keeps every phase's name in its metrics: interned, the
    # names of repeated gossips share one string instead of one per call.
    up_key = f"{out_key}:up"
    network.run_phase(
        sys.intern(f"{phase_name}:up"),
        lambda u: UpcastUnion(bfs_spec, items, out_key=up_key),
    )

    parent_key = bfs_spec.parent_key

    def root_items(ctx: NodeContext) -> Iterable[tuple]:
        if ctx.memory.get(parent_key) is None:
            return sorted(ctx.memory[up_key])
        return ()

    down_key = f"{out_key}:down"
    network.run_phase(
        sys.intern(f"{phase_name}:down"),
        lambda u: DowncastItems(bfs_spec, root_items, out_key=down_key),
    )
    for mem in network.memory.values():
        mem[out_key] = set(mem.pop(down_key, ()))
        mem.pop(up_key, None)
