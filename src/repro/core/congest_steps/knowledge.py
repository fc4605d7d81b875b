"""Distributed Steps 1b–2 of the paper: structural knowledge phases.

After the fragment partition (Step 1a, :mod:`repro.fragments.distributed`)
these phases make every node know:

* the fragment tree ``T_F`` and every fragment's root (Step 1b — gossip
  of the O(√n) inter-fragment edges);
* which child fragments hang inside its own fragment-subtree, hence
  ``F(v)`` — the fragments wholly contained in ``v↓`` (Step 2, upcast
  within fragments + local closure over ``T_F``);
* ``A(v)`` — its ancestors within its own and its parent fragment, as
  ``(id, fragment, hops-above)`` triples (Step 2, scoped downcast);
* for every fragment ``F'`` with a holder in scope, the *lowest ancestor*
  ``u''`` with ``F' ∈ F(u'')`` (Step 2's "minor modification", the
  engine of Step 5 case 3).

Hop counts (``h`` = tree distance above the receiving node) replace
global depths: all comparisons the algorithm makes are between ancestors
of a common node, where hop counts order identically to depths, so no
O(depth(T))-round depth computation is ever needed.

All phases respect the scope rule: information about a node ``u'`` is
forwarded to a child ``c`` only while ``frag(u') ∈ {frag(c),
parent-fragment(frag(c))}``, which caps travel depth at two fragment
depths (O(√n)) and per-edge traffic at O(√n) messages.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ...congest.node import Inbox, NodeContext, NodeProgram
from ...primitives.treespec import SPANNING_TREE, TreeSpec

NONE_FRAG = "-"
"""Wire sentinel for "no parent fragment" (payloads must be scalars)."""


# ----------------------------------------------------------------------
# Step 1b: gossip items describing T_F
# ----------------------------------------------------------------------
def fragment_tree_items(ctx: NodeContext, tree: TreeSpec = SPANNING_TREE):
    """Items for the T_F gossip, emitted by fragment roots.

    A node is a fragment root iff its tree parent is absent or lies in a
    different fragment; it announces ``(own fragment, parent fragment,
    own id)`` — which simultaneously publishes the fragment-tree edge and
    the fragment root's identity.
    """
    memory = ctx.memory
    parent = memory.get(tree.parent_key)
    my_frag = memory["frag:id"]
    if parent is None:
        return [(my_frag, NONE_FRAG, ctx.node)]
    parent_frag = memory["frag:nbr"][parent]
    if parent_frag != my_frag:
        return [(my_frag, parent_frag, ctx.node)]
    return []


def install_fragment_tree(ctx_memory: dict, gossip_key: str) -> None:
    """Local post-processing: build ``or:tf`` (fragment → parent fragment)
    and ``or:frag_roots`` (fragment → root node) from the gossiped items.

    Uses only the node's own memory — a purely local computation.
    """
    tf_parent: dict = {}
    frag_roots: dict = {}
    for my_frag, parent_frag, root_node in ctx_memory[gossip_key]:
        tf_parent[my_frag] = None if parent_frag == NONE_FRAG else parent_frag
        frag_roots[my_frag] = root_node
    ctx_memory["or:tf"] = tf_parent
    ctx_memory["or:frag_roots"] = frag_roots


def tf_descendants(tf_parent: dict, roots: Iterable) -> set:
    """All T_F descendants of the ``roots`` fragments (roots included),
    from the parent map every node holds locally.  The children map is
    built once; each root's subtree is merged in turn, which fixes the
    set's iteration order (the send order of LowestHolderDowncast)."""
    children: dict = {}
    for fid, parent in tf_parent.items():
        if parent is not None:
            children.setdefault(parent, []).append(fid)
    below: set = set()
    for root in roots:
        out = set()
        stack = [root]
        while stack:
            f = stack.pop()
            out.add(f)
            stack.extend(children.get(f, ()))
        below |= out
    return below


# ----------------------------------------------------------------------
# Step 2: hanging child fragments  →  F(v)
# ----------------------------------------------------------------------
def hanging_fragment_items(ctx: NodeContext, tree: TreeSpec = SPANNING_TREE):
    """Initial items of the intra-fragment upcast: the child fragments
    hanging directly below this node (one item per inter-fragment child
    edge)."""
    memory = ctx.memory
    my_frag = memory["frag:id"]
    nbr_frag = memory["frag:nbr"]
    items = []
    for child in memory.get(tree.children_key, ()):
        child_frag = nbr_frag[child]
        if child_frag != my_frag:
            items.append((child_frag,))
    return items


def install_fragments_below(ctx_memory: dict, hang_key: str) -> None:
    """Local: ``F(v)`` = union of T_F subtrees of the recorded hanging
    child fragments; also the predicate "v↓ contains a whole fragment"."""
    hanging = {item[0] for item in ctx_memory.get(hang_key, ())}
    below = tf_descendants(ctx_memory["or:tf"], hanging) if hanging else set()
    ctx_memory["or:F"] = frozenset(below)
    ctx_memory["or:contains_fragment"] = bool(below) or bool(
        ctx_memory.get("frag:is_root")
    )


# ----------------------------------------------------------------------
# Step 2: scoped ancestor downcast  →  A(v)
# ----------------------------------------------------------------------
def _scope_children(ctx_memory: dict, tree: TreeSpec = SPANNING_TREE) -> dict:
    """Local: ``{fragment: children}`` — the tree children to which
    information about a node of that fragment is forwarded.

    Child ``c`` is in scope for fragment ``F`` when ``F`` is ``c``'s own
    fragment or its parent fragment (the scope rule in the module
    docstring).  Each list keeps the children's order, so a forward to
    it enqueues exactly as a scan of the children would; the downcasts
    build the map once per phase instead of rescanning per item.
    """
    tf_parent = ctx_memory["or:tf"]
    nbr_frag = ctx_memory["frag:nbr"]
    scope: dict = {}
    for child in ctx_memory.get(tree.children_key, ()):
        child_frag = nbr_frag[child]
        parent_frag = tf_parent.get(child_frag)
        scope.setdefault(child_frag, []).append(child)
        if parent_frag != child_frag:
            scope.setdefault(parent_frag, []).append(child)
    return scope


class AncestorDowncast(NodeProgram):
    """Every node learns ``A(v)`` as ``(ancestor, fragment, hops)``.

    Each node injects itself; a node receiving ``(a, frag_a, h)`` from
    its tree parent records it and forwards ``(a, frag_a, h+1)`` to each
    child still in scope for ``a``.
    """

    OUT_KEY = "or:A"
    KIND = "anc"

    __slots__ = ("tree", "_record", "_scope")

    def __init__(self, tree: TreeSpec = SPANNING_TREE) -> None:
        self.tree = tree

    def on_start(self, ctx: NodeContext) -> None:
        memory = ctx.memory
        my_frag = memory["frag:id"]
        self._scope = scope = _scope_children(memory, self.tree)
        self._record = memory[self.OUT_KEY] = [(ctx.node, my_frag, 0)]
        targets = scope.get(my_frag)
        if targets:
            ctx.multicast(targets, self.KIND, ctx.node, my_frag, 1)

    def on_round(self, ctx: NodeContext, inbox: Inbox) -> None:
        record = self._record
        scope = self._scope
        kind = self.KIND
        for _src, msg in inbox:
            if msg.kind != kind:
                continue
            entry = msg.payload
            record.append(entry)
            ancestor, frag_a, hops = entry
            targets = scope.get(frag_a)
            if targets:
                ctx.multicast(targets, kind, ancestor, frag_a, hops + 1)


# ----------------------------------------------------------------------
# Step 2 (modified): lowest-holder downcast  →  F(u) for u ∈ A(v)
# ----------------------------------------------------------------------
class LowestHolderDowncast(NodeProgram):
    """Every node learns, per fragment ``F'``, its lowest ancestor ``u''``
    (in scope) with ``F' ∈ F(u'')``.

    Each node announces ``(self, frag(self), F', 0)`` for every
    ``F' ∈ F(self)``; a node receiving ``(u', frag_u, F', h)`` *drops* it
    when ``F' ∈ F(self)`` (its own, lower entry wins) and otherwise
    records and forwards within scope.  The recorded map directly powers
    Step 5's case-3 LCA: the lowest holder of the other endpoint's
    fragment *is* the LCA.
    """

    OUT_KEY = "or:holder"
    KIND = "hold"

    __slots__ = ("tree", "_holder", "_own_f", "_scope")

    def __init__(self, tree: TreeSpec = SPANNING_TREE) -> None:
        self.tree = tree

    def on_start(self, ctx: NodeContext) -> None:
        memory = ctx.memory
        holder: dict = {}
        self._holder = memory[self.OUT_KEY] = holder
        self._own_f = own_f = memory["or:F"]
        self._scope = scope = _scope_children(memory, self.tree)
        if not own_f:
            return
        node = ctx.node
        my_frag = memory["frag:id"]
        targets = scope.get(my_frag)
        for frag_below in own_f:
            holder[frag_below] = (node, my_frag, 0)
            if targets:
                ctx.multicast(targets, self.KIND, node, my_frag, frag_below, 1)

    def on_round(self, ctx: NodeContext, inbox: Inbox) -> None:
        holder = self._holder
        own_f = self._own_f
        scope = self._scope
        kind = self.KIND
        for _src, msg in inbox:
            if msg.kind != kind:
                continue
            u_prime, frag_u, frag_below, hops = msg.payload
            if frag_below in own_f:
                continue  # a strictly lower holder (this node) exists
            holder[frag_below] = (u_prime, frag_u, hops)
            targets = scope.get(frag_u)
            if targets:
                ctx.multicast(targets, kind, u_prime, frag_u, frag_below, hops + 1)


# ----------------------------------------------------------------------
# Step 4 helpers: merging-node detection and skeleton wiring
# ----------------------------------------------------------------------
class ContainsFragmentBit(NodeProgram):
    """One-round phase: every node tells its tree parent whether its
    subtree contains a whole fragment; parents count the bits and mark
    themselves merging nodes when at least two children say yes."""

    KIND = "cfb"

    __slots__ = ("tree", "_loaded_children")

    def __init__(self, tree: TreeSpec = SPANNING_TREE) -> None:
        self.tree = tree
        self._loaded_children = 0

    def on_start(self, ctx: NodeContext) -> None:
        memory = ctx.memory
        memory["or:is_merging"] = False
        parent = memory.get(self.tree.parent_key)
        if parent is not None and memory["or:contains_fragment"]:
            ctx.send(parent, self.KIND)

    def on_round(self, ctx: NodeContext, inbox: Inbox) -> None:
        for _src, msg in inbox:
            if msg.kind == self.KIND:
                self._loaded_children += 1
        if self._loaded_children >= 2:
            ctx.memory["or:is_merging"] = True


def skeleton_membership_items(ctx: NodeContext):
    """Gossip items announcing T'_F membership: fragment roots and
    merging nodes publish ``(id, fragment)``."""
    if ctx.memory.get("frag:is_root") or ctx.memory.get("or:is_merging"):
        return [(ctx.node, ctx.memory["frag:id"])]
    return []


def install_skeleton_parent(ctx_memory: dict, node, members_key: str) -> None:
    """Local: a skeleton node finds its T'_F parent — its lowest proper
    ancestor in the membership set, guaranteed to appear in ``A(v)``."""
    members = {m for m, _f in ctx_memory[members_key]}
    ctx_memory["or:skeleton_members"] = members
    ctx_memory["or:skeleton_frag"] = dict(ctx_memory[members_key])
    if node not in members:
        return
    candidates = [
        (hops, ancestor)
        for ancestor, _frag, hops in ctx_memory["or:A"]
        if hops > 0 and ancestor in members
    ]
    ctx_memory["or:skeleton_parent_self"] = (
        min(candidates)[1] if candidates else None
    )


def skeleton_edge_items(ctx: NodeContext):
    """Gossip items publishing T'_F edges ``(node, parent-or-sentinel)``."""
    if "or:skeleton_parent_self" not in ctx.memory:
        return []
    parent = ctx.memory["or:skeleton_parent_self"]
    return [(ctx.node, NONE_FRAG if parent is None else parent)]


def install_skeleton_tree(ctx_memory: dict, node, edges_key: str) -> None:
    """Local: assemble T'_F's parent map and this node's own skeleton
    ancestor chain (lowest first), used by Step 5 case 2."""
    parent_map = {
        child: (None if parent == NONE_FRAG else parent)
        for child, parent in ctx_memory[edges_key]
    }
    ctx_memory["or:tfprime"] = parent_map
    members = ctx_memory["or:skeleton_members"]
    if node in members:
        lowest: Optional[object] = node
    else:
        candidates = [
            (hops, ancestor)
            for ancestor, _frag, hops in ctx_memory["or:A"]
            if ancestor in members
        ]
        lowest = min(candidates)[1] if candidates else None
    chain = []
    cursor = lowest
    while cursor is not None:
        chain.append(cursor)
        cursor = parent_map.get(cursor)
    ctx_memory["or:skeleton_chain"] = chain
