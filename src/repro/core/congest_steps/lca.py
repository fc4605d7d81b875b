"""Distributed Step 5a: per-edge LCA computation.

For every graph edge ``(x, y)`` the two endpoints determine the least
common ancestor ``z`` of ``x`` and ``y`` in ``T`` by exchanging O(√n)
messages *over that edge* (pipelined by the engine's per-edge FIFOs), as
in the paper's three cases:

* **Case 1** (same fragment): both endpoints stream their within-fragment
  ancestor chains ``(ancestor, hops)``; ``z`` is the deepest common
  entry.  Depth comparisons use hop counts relative to the *sender*,
  which order ancestors of the sender exactly as global depths do.
* **Case 3** (different fragments, ``z`` in one endpoint's fragment):
  the endpoint whose lowest-holder map contains the other endpoint's
  fragment *with a holder inside its own fragment* announces the holder:
  that holder is ``z``.  At most one endpoint can make such an
  announcement (proved in the module tests), and its announcement is
  sent as the verdict.
* **Case 2** (``z`` in neither fragment): both verdicts are empty; the
  endpoints stream their skeleton-ancestor chains (root-paths in
  ``T'_F``); ``z`` is the deepest common entry — necessarily a merging
  node.

The phase also settles the ρ-message bookkeeping of Step 5:

* case 2 edges are **type (i)**: the endpoint with the smaller id
  creates the global message ⟨z⟩;
* case 1/3 edges are **type (ii)**: the endpoint in ``z``'s fragment
  creates ⟨z⟩ (for case 1, the deeper endpoint; ties by smaller id).

Each node ends with ``memory["or:lca"] = {neighbour: EdgeLCA}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from ...errors import ProtocolError
from ...congest.node import Inbox, NodeContext, NodeProgram

TYPE_GLOBAL = 1
"""ρ-message type (i): endpoints lie outside the LCA's fragment."""

TYPE_FRAGMENT = 2
"""ρ-message type (ii): the holder shares the LCA's fragment."""


@dataclass(slots=True)
class EdgeLCA:
    """Resolved LCA bookkeeping for one incident edge.

    A value by convention: nothing assigns to it after the exchange
    commits it.  Slotted rather than frozen, because the exchange builds
    one per incident edge and a frozen dataclass pays a guarded
    ``object.__setattr__`` per field.
    """

    lca: object
    lca_fragment: object
    message_type: int
    i_am_holder: bool
    weight: float


#: ``_EdgeState.verdict`` before the peer's verdict arrives.
_PENDING = object()


class _EdgeState:
    """Per-neighbour state while an edge's exchange is in flight.

    A same-fragment neighbour streams its within-fragment ancestor chain
    and a cross-fragment one its skeleton chain; ``stream`` buffers
    whichever it is and ``done`` marks its end.  ``mine`` is this
    endpoint's own case-3 verdict on a cross-fragment edge (None when
    it has none), and ``verdict`` the peer's: the LCA it announced,
    None for "no verdict", or ``_PENDING``.
    """

    __slots__ = ("frag", "cross", "mine", "stream", "done", "verdict", "resolved")

    def __init__(self, frag, cross: bool, mine) -> None:
        self.frag = frag
        self.cross = cross
        self.mine = mine
        self.stream: list = []
        self.done = False
        self.verdict = _PENDING
        self.resolved = False


class LCAExchange(NodeProgram):
    """The per-edge exchange program (see module docstring)."""

    OUT_KEY = "or:lca"

    __slots__ = ("_edges", "_out", "_my_frag", "_my_chain_map", "_my_skeleton")

    # ------------------------------------------------------------------
    def on_start(self, ctx: NodeContext) -> None:
        memory = ctx.memory
        self._out = memory[self.OUT_KEY] = {}
        my_frag = self._my_frag = memory["frag:id"]
        chain_map = self._my_chain_map = {
            ancestor: hops
            for ancestor, frag_a, hops in memory["or:A"]
            if frag_a == my_frag
        }
        self._my_skeleton = None  # built on the first case-2 edge
        holder_map = memory["or:holder"]
        nbr_frag = memory["frag:nbr"]
        # Group neighbours by the stream they receive: the chain and
        # skeleton streams are identical for every target, so each item
        # is one multicast message shared across those edges (each edge
        # still carries every item — the per-edge FIFO order, and hence
        # the exchange, is unchanged).
        edges = self._edges = {}
        same_fragment: list = []
        needs_skeleton: list = []
        for v in ctx.neighbors:
            v_frag = nbr_frag[v]
            if v_frag == my_frag:
                edges[v] = _EdgeState(v_frag, False, None)
                same_fragment.append(v)
                continue
            verdict = holder_map.get(v_frag)
            if verdict is not None and verdict[1] == my_frag:
                edges[v] = _EdgeState(v_frag, True, verdict[0])
                ctx.send(v, "vd", verdict[0])
            else:
                edges[v] = _EdgeState(v_frag, True, None)
                needs_skeleton.append(v)
        if same_fragment:
            for ancestor, hops in sorted(chain_map.items(), key=itemgetter(1)):
                ctx.multicast(same_fragment, "ch", ancestor, hops)
            ctx.multicast(same_fragment, "che")
        if needs_skeleton:
            ctx.multicast(needs_skeleton, "vdn")
            for skeleton_node in memory["or:skeleton_chain"]:
                ctx.multicast(needs_skeleton, "sk", skeleton_node)
            ctx.multicast(needs_skeleton, "ske")

    def on_round(self, ctx: NodeContext, inbox: Inbox) -> None:
        # Stream items ("ch"/"sk") only buffer; resolution can advance
        # only on the decisive kinds, so the (hot) item path skips the
        # resolution attempt entirely.  Commit timing is unchanged: on a
        # cross-fragment edge the peer's verdict is the first message in
        # its FIFO, exactly when the old per-message attempt first fired.
        edges = self._edges
        for src, msg in inbox:
            kind = msg.kind
            state = edges[src]
            if kind == "ch":
                state.stream.append(msg.payload)
            elif kind == "sk":
                state.stream.append(msg.payload[0])
            else:
                if kind == "che" or kind == "ske":
                    state.done = True
                elif kind == "vd":
                    state.verdict = msg.payload[0]
                elif kind == "vdn":
                    state.verdict = None
                else:
                    raise ProtocolError(f"unexpected message kind {kind!r}")
                if not state.resolved:
                    if state.cross:
                        self._resolve_cross_fragment(ctx, src, state)
                    elif state.done:
                        self._resolve_same_fragment(ctx, src, state)

    # ------------------------------------------------------------------
    def _resolve_same_fragment(self, ctx: NodeContext, v, state: _EdgeState) -> None:
        chain_map = self._my_chain_map
        common = [
            (hops_theirs, ancestor)
            for ancestor, hops_theirs in state.stream
            if ancestor in chain_map
        ]
        if not common:
            raise ProtocolError(
                f"no common within-fragment ancestor on edge "
                f"({ctx.node!r}, {v!r}); fragments must be connected"
            )
        hops_theirs, lca = min(common)
        hops_mine = chain_map[lca]
        if hops_mine != hops_theirs:
            i_hold = hops_mine > hops_theirs
        else:
            i_hold = _node_order(ctx.node) < _node_order(v)
        self._commit(ctx, v, lca, self._my_frag, TYPE_FRAGMENT, i_hold, state)

    def _resolve_cross_fragment(self, ctx: NodeContext, v, state: _EdgeState) -> None:
        verdict = state.verdict
        if state.mine is not None:
            if verdict is not _PENDING and verdict is not None:
                raise ProtocolError(
                    f"both endpoints of ({ctx.node!r}, {v!r}) claim the LCA"
                )
            self._commit(
                ctx, v, state.mine, self._my_frag, TYPE_FRAGMENT, True, state
            )
            return
        if verdict is _PENDING:
            return
        if verdict is not None:
            self._commit(ctx, v, verdict, state.frag, TYPE_FRAGMENT, False, state)
            return
        # Case 2: both verdicts empty — need the full skeleton chain.
        if not state.done:
            return
        my_skeleton = self._my_skeleton
        if my_skeleton is None:
            my_skeleton = self._my_skeleton = set(ctx.memory["or:skeleton_chain"])
        lca = next((s for s in state.stream if s in my_skeleton), None)
        if lca is None:
            raise ProtocolError(
                f"no common skeleton ancestor on edge ({ctx.node!r}, {v!r})"
            )
        i_create = _node_order(ctx.node) < _node_order(v)
        lca_frag = ctx.memory["or:skeleton_frag"][lca]
        self._commit(ctx, v, lca, lca_frag, TYPE_GLOBAL, i_create, state)

    def _commit(
        self, ctx: NodeContext, v, lca, lca_frag, message_type, i_hold, state
    ) -> None:
        state.resolved = True
        self._out[v] = EdgeLCA(lca, lca_frag, message_type, i_hold, ctx.edge_weight(v))


def _node_order(node):
    return node if isinstance(node, int) else repr(node)


def rho_contributions(ctx: NodeContext, message_type: int):
    """This node's ``(lca, weight)`` contributions of a given type —
    the inputs of the two keyed-sum phases of Step 5b."""
    out = []
    for edge in ctx.memory[LCAExchange.OUT_KEY].values():
        if edge.message_type == message_type and edge.i_am_holder:
            out.append((edge.lca, edge.weight))
    return out
