"""Distributed BFS-tree construction (flooding), O(D) rounds.

The BFS tree rooted at a designated node is the backbone for global
aggregation and broadcast: its depth is at most the network diameter
``D``, so convergecasts over it cost O(D) rounds and pipelined streams of
``k`` items cost O(D + k).

Protocol: the root floods a ``bfs`` token carrying its depth; every other
node adopts the first proposer as its parent (ties within a round broken
by smallest sender id for determinism), acknowledges with ``adopt`` so
parents learn their children, and forwards the token.
"""

from __future__ import annotations

from typing import Optional

from ..congest.node import Inbox, NodeContext, NodeId, NodeProgram
from .treespec import BFS_TREE, TreeSpec


class BFSTreeBuild(NodeProgram):
    """Per-node program building a BFS tree rooted at ``root``.

    After quiescence every node's memory holds, under ``spec``'s keys,
    its parent (None at the root), its list of children, and its depth;
    ``spec.root_key`` records the root id.
    """

    __slots__ = ("root", "spec", "_decided")

    def __init__(self, root: NodeId, spec: TreeSpec = BFS_TREE) -> None:
        self.root = root
        self.spec = spec
        self._decided = False

    def on_start(self, ctx: NodeContext) -> None:
        memory = ctx.memory
        spec = self.spec
        memory[spec.children_key] = []
        memory[spec.root_key] = self.root
        if ctx.node == self.root:
            self._decided = True
            memory[spec.parent_key] = None
            memory[spec.depth_key] = 0
            ctx.broadcast("bfs", 0)

    def on_round(self, ctx: NodeContext, inbox: Inbox) -> None:
        # One pass: record adopting children in inbox order, and pick
        # the first smallest (depth, sender) offer.
        decided = self._decided
        best = None
        for src, msg in inbox:
            kind = msg.kind
            if kind == "bfs":
                if not decided:
                    offer = _offer_order(msg.payload[0], src)
                    if best is None or offer < best[0]:
                        best = (offer, msg.payload[0], src)
            elif kind == "adopt":
                ctx.memory[self.spec.children_key].append(src)
        if best is None:
            return
        _order, depth, parent = best
        self._decided = True
        memory = ctx.memory
        memory[self.spec.parent_key] = parent
        memory[self.spec.depth_key] = depth + 1
        ctx.send(parent, "adopt")
        ctx.multicast(
            [v for v in ctx.neighbors if v != parent], "bfs", depth + 1
        )


def _offer_order(depth: int, src: NodeId):
    return (depth, src) if isinstance(src, int) else (depth, repr(src))


def build_bfs_tree(network, root: Optional[NodeId] = None, spec: TreeSpec = BFS_TREE):
    """Driver helper: run :class:`BFSTreeBuild` on ``network``.

    Returns the phase result; the tree lives in node memory afterwards.
    The root defaults to the minimum node id (a common symmetry-breaking
    convention; electing it by flooding costs another O(D), which callers
    can charge if they model leaderless starts).
    """
    chosen = root if root is not None else min(network.nodes)
    return network.run_phase("bfs-tree", lambda u: BFSTreeBuild(chosen, spec))
