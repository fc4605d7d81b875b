"""Convergecast: aggregate one value up a tree in O(depth) rounds.

Every node combines its own initial value with the aggregates of its
children and forwards the result to its parent.  Besides the root total,
every node retains its own *subtree aggregate* — exactly the quantity
``Σ_{u ∈ v↓∩F} f(u)`` that Step 3 of the paper needs within fragments.

The aggregate value must fit in O(1) words (numbers or small tuples);
the engine's size audit enforces this.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from ..congest.node import Inbox, NodeContext, NodeProgram
from .treespec import TreeSpec

InitialFn = Callable[[NodeContext], Any]
CombineFn = Callable[[Any, Any], Any]


def add(a, b):
    """Default combiner: numeric addition."""
    return a + b


def min_pair(a, b):
    """Combiner for (value, witness) minimisation with deterministic ties."""
    return a if tuple(a) <= tuple(b) else b


class Convergecast(NodeProgram):
    """Aggregate ``initial(ctx)`` over every subtree of ``spec``'s tree.

    Parameters
    ----------
    spec:
        Which tree to aggregate over (e.g. the input spanning tree, a BFS
        tree, or the fragment-restricted tree).
    initial:
        Callable producing the node's own contribution.
    combine:
        Associative, commutative combiner.
    out_key:
        Memory key under which each node stores its subtree aggregate.
    """

    KIND = "cc"

    __slots__ = ("spec", "initial", "combine", "out_key", "_pending", "_acc")

    def __init__(
        self,
        spec: TreeSpec,
        initial: InitialFn,
        combine: CombineFn = add,
        out_key: str = "cc:sum",
    ) -> None:
        self.spec = spec
        self.initial = initial
        self.combine = combine
        self.out_key = out_key

    def on_start(self, ctx: NodeContext) -> None:
        self._pending = set(ctx.memory.get(self.spec.children_key, ()))
        self._acc = self.initial(ctx)
        if not self._pending:
            self._finish(ctx)

    def on_round(self, ctx: NodeContext, inbox: Inbox) -> None:
        pending = self._pending
        for src, msg in inbox:
            if msg.kind != self.KIND:
                continue
            if src not in pending:
                raise ValueError(
                    f"convergecast value from unexpected child {src!r} at "
                    f"{ctx.node!r}"
                )
            pending.discard(src)
            self._acc = self.combine(self._acc, msg.payload[0])
        if not pending and self._acc is not None:
            self._finish(ctx)

    def _finish(self, ctx: NodeContext) -> None:
        acc = self._acc
        ctx.memory[self.out_key] = acc
        ctx.output(self.out_key, acc)
        parent = ctx.memory.get(self.spec.parent_key)
        if parent is not None:
            ctx.send(parent, self.KIND, _encode(acc))
        self._acc = None  # guard against double finish


def _encode(value):
    return tuple(value) if isinstance(value, (list, tuple)) else value
