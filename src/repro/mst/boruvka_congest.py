"""Distributed Borůvka MST on the CONGEST simulator.

Each Borůvka iteration lets every component pick its minimum outgoing
edge under the library's deterministic edge total order (ties broken by
endpoint ids), which makes the MST unique and *identical* to the
centralized Kruskal result — the property the tree-packing experiments
rely on.

An iteration runs five small phases:

1. component-id exchange with neighbours,
2. component-tree construction (flood from the component leader — the
   node whose id equals the component id — over already-chosen edges),
3. convergecast of the minimum outgoing edge,
4. announcement of the chosen edge down the component tree and marking
   at its endpoints,
5. min-label flooding over chosen edges to form the merged components.

The number of iterations is ≤ ⌈log2 n⌉; the round cost per iteration is
O(component diameter), so the total is O(n) worst case — this is the
*simple* substitute for Kutten–Peleg's O(√n·log*n + D) MST (see
DESIGN.md §5); drivers that model the paper's cost use
:mod:`repro.mst.kutten_peleg` instead.

``edge_key(ctx, v)`` customises the metric (default: the edge weight);
tree packing passes the node-local load tables through it.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import Optional

from ..errors import AlgorithmError
from ..congest.network import CongestNetwork
from ..congest.node import Inbox, NodeContext, NodeProgram
from ..graphs.trees import RootedTree
from ..primitives.treespec import TreeSpec

EdgeKey = Callable[[NodeContext, object], float]

COMPONENT_TREE = TreeSpec("mstT")
SENTINEL = (float("inf"), -1, -1)


def _default_key(ctx: NodeContext, v) -> float:
    return ctx.edge_weight(v)


def _rank(ctx: NodeContext, v, key: EdgeKey):
    lo, hi = (ctx.node, v) if _ord(ctx.node) <= _ord(v) else (v, ctx.node)
    return (key(ctx, v), _ord(lo), _ord(hi))


def _ord(node):
    return node if isinstance(node, int) else repr(node)


class _CompExchange(NodeProgram):
    """Every node learns each neighbour's current component id."""

    def on_start(self, ctx: NodeContext) -> None:
        ctx.memory.setdefault("mst:comp", ctx.node)
        ctx.memory.setdefault("mst:marked", set())
        ctx.broadcast("comp", ctx.memory["mst:comp"])

    def on_round(self, ctx: NodeContext, inbox: Inbox) -> None:
        table = ctx.memory.setdefault("mst:nbr_comp", {})
        for src, msg in inbox:
            if msg.kind == "comp":
                table[src] = msg.payload[0]


class _ComponentTreeBuild(NodeProgram):
    """Flood from each component leader over chosen edges to orient a
    spanning tree of the component."""

    def on_start(self, ctx: NodeContext) -> None:
        ctx.memory[COMPONENT_TREE.children_key] = []
        ctx.memory[COMPONENT_TREE.parent_key] = None
        self._adopted = ctx.memory["mst:comp"] == ctx.node
        if self._adopted:
            ctx.multicast(list(ctx.memory["mst:marked"]), "tree")

    def on_round(self, ctx: NodeContext, inbox: Inbox) -> None:
        for src, msg in inbox:
            if msg.kind == "adopt":
                ctx.memory[COMPONENT_TREE.children_key].append(src)
            elif msg.kind == "tree" and not self._adopted:
                self._adopted = True
                ctx.memory[COMPONENT_TREE.parent_key] = src
                ctx.send(src, "adopt")
                ctx.multicast(
                    [v for v in ctx.memory["mst:marked"] if v != src], "tree"
                )


class _MinOutgoingEdge(NodeProgram):
    """Convergecast the minimum outgoing edge to the component leader."""

    def __init__(self, edge_key: EdgeKey) -> None:
        self.edge_key = edge_key
        self._pending: set = set()
        self._best = SENTINEL

    def on_start(self, ctx: NodeContext) -> None:
        my_comp = ctx.memory["mst:comp"]
        candidates = [
            _rank(ctx, v, self.edge_key)
            for v in ctx.neighbors
            if ctx.memory["mst:nbr_comp"][v] != my_comp
        ]
        self._best = min(candidates) if candidates else SENTINEL
        self._pending = set(ctx.memory[COMPONENT_TREE.children_key])
        if not self._pending:
            self._report(ctx)

    def on_round(self, ctx: NodeContext, inbox: Inbox) -> None:
        for src, msg in inbox:
            if msg.kind == "moe":
                self._best = min(self._best, tuple(msg.payload))
                self._pending.discard(src)
        if not self._pending:
            self._report(ctx)

    def _report(self, ctx: NodeContext) -> None:
        self._pending = {None}
        parent = ctx.memory[COMPONENT_TREE.parent_key]
        if parent is None:
            ctx.memory["mst:chosen"] = None if self._best == SENTINEL else self._best
        else:
            ctx.send(parent, "moe", *self._best)


class _AnnounceChosen(NodeProgram):
    """Leaders broadcast the chosen edge; its endpoints mark it."""

    def on_start(self, ctx: NodeContext) -> None:
        if ctx.memory[COMPONENT_TREE.parent_key] is None:
            chosen = ctx.memory.pop("mst:chosen", None)
            if chosen is not None:
                self._handle(ctx, chosen)

    def on_round(self, ctx: NodeContext, inbox: Inbox) -> None:
        for src, msg in inbox:
            if msg.kind == "chosen":
                self._handle(ctx, tuple(msg.payload))
            elif msg.kind == "mark":
                ctx.memory["mst:marked"].add(src)

    def _handle(self, ctx: NodeContext, chosen) -> None:
        # The chosen edge names its endpoints by ``_ord`` (a ``repr``
        # for non-int ids), so match and resolve them the same way.
        _key, lo, hi = chosen
        me = _ord(ctx.node)
        if me in (lo, hi):
            target = hi if me == lo else lo
            other = next(v for v in ctx.neighbors if _ord(v) == target)
            if other not in ctx.memory["mst:marked"]:
                ctx.memory["mst:marked"].add(other)
                ctx.send(other, "mark")
        ctx.multicast(ctx.memory[COMPONENT_TREE.children_key], "chosen", *chosen)


class _MinLabelFlood(NodeProgram):
    """Flood the minimum component label over chosen edges."""

    def on_start(self, ctx: NodeContext) -> None:
        ctx.multicast(
            list(ctx.memory["mst:marked"]), "label", ctx.memory["mst:comp"]
        )

    def on_round(self, ctx: NodeContext, inbox: Inbox) -> None:
        best = ctx.memory["mst:comp"]
        improved = False
        for _src, msg in inbox:
            if msg.kind == "label" and _ord(msg.payload[0]) < _ord(best):
                best = msg.payload[0]
                improved = True
        if improved:
            ctx.memory["mst:comp"] = best
            ctx.multicast(list(ctx.memory["mst:marked"]), "label", best)


def boruvka_mst(
    network: CongestNetwork,
    edge_key: Optional[EdgeKey] = None,
    root=None,
) -> RootedTree:
    """Run distributed Borůvka; returns the (unique) MST as a RootedTree.

    Node memory keys ``mst:*`` are consumed/overwritten; the chosen tree
    is also left behind in each node's ``mst:marked`` set (its incident
    MST edges), which is the knowledge a real deployment would keep.
    """
    key = edge_key if edge_key is not None else _default_key
    for u in network.nodes:
        network.memory[u].pop("mst:comp", None)
        network.memory[u].pop("mst:marked", None)
    max_iterations = max(1, math.ceil(math.log2(max(2, network.size)))) + 1
    for iteration in range(max_iterations):
        network.run_phase(f"mst:comp[{iteration}]", lambda u: _CompExchange())
        if len({network.memory[u]["mst:comp"] for u in network.nodes}) == 1:
            break
        network.run_phase(f"mst:tree[{iteration}]", lambda u: _ComponentTreeBuild())
        network.run_phase(f"mst:moe[{iteration}]", lambda u: _MinOutgoingEdge(key))
        network.run_phase(f"mst:announce[{iteration}]", lambda u: _AnnounceChosen())
        network.run_phase(f"mst:labels[{iteration}]", lambda u: _MinLabelFlood())
    else:
        raise AlgorithmError(
            "Boruvka did not converge within log2(n) iterations; "
            "is the graph connected?"
        )
    edges = set()
    for u in network.nodes:
        for v in network.memory[u]["mst:marked"]:
            edges.add((u, v) if _ord(u) <= _ord(v) else (v, u))
    chosen_root = root if root is not None else min(network.nodes, key=_ord)
    return RootedTree.from_edges(chosen_root, sorted(edges))
