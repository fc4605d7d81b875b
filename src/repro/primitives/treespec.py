"""Tree wiring for primitives: where a node finds its parent and children.

Distributed primitives (convergecast, downcast, pipelined sums) operate
over *some* tree — the input spanning tree ``T``, a BFS tree built at run
time, or ``T`` restricted to a fragment.  A :class:`TreeSpec` names the
node-memory keys where that tree's parent pointer and children list live,
so one primitive implementation serves every tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..congest.node import NodeContext, NodeId
from ..congest.network import CongestNetwork
from ..graphs.trees import RootedTree


@dataclass(frozen=True)
class TreeSpec:
    """Names the memory keys of a tree structure known to each node."""

    prefix: str
    # The memory keys, built once: primitives read them on every
    # on_start of every node.
    parent_key: str = field(init=False, repr=False, compare=False)
    children_key: str = field(init=False, repr=False, compare=False)
    depth_key: str = field(init=False, repr=False, compare=False)
    root_key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "parent_key", f"{self.prefix}:parent")
        object.__setattr__(self, "children_key", f"{self.prefix}:children")
        object.__setattr__(self, "depth_key", f"{self.prefix}:depth")
        object.__setattr__(self, "root_key", f"{self.prefix}:root")

    def parent(self, ctx: NodeContext) -> Optional[NodeId]:
        """This node's parent in the tree (None at the root)."""
        return ctx.memory.get(self.parent_key)

    def children(self, ctx: NodeContext) -> list[NodeId]:
        """This node's children in the tree."""
        return ctx.memory.get(self.children_key, [])

    def depth(self, ctx: NodeContext) -> Optional[int]:
        return ctx.memory.get(self.depth_key)

    def is_root(self, ctx: NodeContext) -> bool:
        return self.parent(ctx) is None


SPANNING_TREE = TreeSpec("T")
"""The input spanning tree of Theorem 2.1 (preloaded into node memory)."""

BFS_TREE = TreeSpec("bfs")
"""The breadth-first tree built by :class:`~repro.primitives.bfs.BFSTreeBuild`."""

FRAGMENT_TREE = TreeSpec("fragT")
"""The input tree restricted to each node's fragment (Step 1 artefact)."""


def load_tree_into_memory(
    network: CongestNetwork, tree: RootedTree, spec: TreeSpec = SPANNING_TREE
) -> None:
    """Install a rooted tree as *input knowledge* of every node.

    Theorem 2.1 takes the spanning tree ``T`` as an input: every node
    knows which of its incident edges are tree edges and which neighbour
    is its tree parent.  This helper writes exactly that local knowledge
    (parent, children, depth) into node memory.
    """
    for u in network.nodes:
        mem = network.memory[u]
        mem[spec.parent_key] = tree.parent(u)
        mem[spec.children_key] = tree.children(u)
        mem[spec.depth_key] = tree.depth(u)
