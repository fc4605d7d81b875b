"""Incremental ``content_hash`` maintenance and the O(1) weight patch.

Every acknowledgement a :class:`~repro.dynamic.session.DynamicSession`
sends echoes the mutated graph's ``content_hash``, and a cold digest
sorts every edge line again.  :class:`DigestState` keeps the sorted
node/edge lines of :meth:`WeightedGraph.content_hash` as a live sorted
list, so the hash after an op is an O(log m) splice plus one SHA-256
over the joined lines — bit-identical to the cold digest, which is what
lets :class:`~repro.exec.cache.ResultCache` keep serving entries for
every previously-seen graph state across a mutation session.

The :class:`GraphIndex` is patched only where that is O(1): a
``reweight`` or ``merge_edge`` overwrites one edge's weight, which
touches two ``adj_weight`` slots and two weight-map entries.  Every
structural op (``add_edge``, ``remove_edge``, ``add_node``,
``remove_node``, applied or undone) adopts only the new digest, and
``graph.index()`` is rebuilt from scratch on its next use — an in-place
CSR splice is no cheaper than a rebuild by more than a few tens of
microseconds at n = 64.

Both caches are re-registered on the graph through the
``WeightedGraph._adopt_caches`` seam.  ``validate=True`` asserts
equivalence with a from-scratch rebuild after every op, and the test
suite runs whole mutation streams under it.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, insort
from typing import Optional

from ..errors import AlgorithmError
from ..graphs.graph import Node, WeightedGraph
from ..graphs.index import GraphIndex
from .ops import Effect

# ----------------------------------------------------------------------
# Incremental content-hash state
# ----------------------------------------------------------------------


def _edge_entry(u: Node, v: Node, w: float) -> tuple[tuple, str]:
    """Sort key and formatted line for one edge, as the cold hash sorts.

    The cold digest sorts ``(min_repr, max_repr, weight_repr)`` tuples
    *before* formatting, so the live state must keep tuple keys — the
    formatted lines themselves sort differently around the ``|``
    separator.
    """
    ru, rv = repr(u), repr(v)
    a, b = (ru, rv) if ru <= rv else (rv, ru)
    key = (a, b, repr(float(w)))
    return key, f"e:{key[0]}|{key[1]}|{key[2]}"


class DigestState:
    """Live sorted node/edge lines mirroring ``content_hash``'s input."""

    __slots__ = ("_node_lines", "_node_text", "_edge_keys", "_edge_lines")

    def __init__(self, graph: WeightedGraph) -> None:
        # ``n:`` is a common prefix, so the lines sort as the reprs do.
        self._node_lines: list[str] = sorted(f"n:{u!r}" for u in graph.nodes)
        # The node lines joined and encoded; ``None`` once a node changed.
        self._node_text: Optional[bytes] = None
        entries = sorted(_edge_entry(u, v, w) for u, v, w in graph.edges())
        self._edge_keys: list[tuple] = [key for key, _ in entries]
        self._edge_lines: list[str] = [line for _, line in entries]

    def digest(self) -> str:
        """sha256 of ``"\\n".join(node_lines + edge_lines)``, fed in two parts."""
        node_text = self._node_text
        if node_text is None:
            node_text = self._node_text = "\n".join(self._node_lines).encode("utf-8")
        h = hashlib.sha256(node_text)
        if self._edge_lines:  # edges imply nodes, so the separator goes first
            h.update(b"\n")
            h.update("\n".join(self._edge_lines).encode("utf-8"))
        return h.hexdigest()

    # -- primitive splices ---------------------------------------------
    def _add_node(self, u: Node) -> None:
        insort(self._node_lines, f"n:{u!r}")
        self._node_text = None

    def _remove_node(self, u: Node) -> None:
        i = bisect_left(self._node_lines, f"n:{u!r}")
        del self._node_lines[i]
        self._node_text = None

    def _add_edge(self, u: Node, v: Node, w: float) -> None:
        key, line = _edge_entry(u, v, w)
        i = bisect_left(self._edge_keys, key)
        self._edge_keys.insert(i, key)
        self._edge_lines.insert(i, line)

    def _remove_edge(self, u: Node, v: Node, w: float) -> None:
        key, _ = _edge_entry(u, v, w)
        i = bisect_left(self._edge_keys, key)
        if i >= len(self._edge_keys) or self._edge_keys[i] != key:
            raise AlgorithmError(
                f"digest state out of sync: edge ({u!r}, {v!r}, {w!r}) "
                "not tracked"
            )
        del self._edge_keys[i]
        del self._edge_lines[i]

    # -- effect application --------------------------------------------
    def apply(self, effect: Effect) -> None:
        kind = effect.kind
        if kind == "noop":
            return
        if kind == "add_edge":
            for node in effect.created_nodes:
                self._add_node(node)
            self._add_edge(effect.u, effect.v, effect.new_weight)
        elif kind in ("merge_edge", "reweight"):
            self._remove_edge(effect.u, effect.v, effect.old_weight)
            self._add_edge(effect.u, effect.v, effect.new_weight)
        elif kind == "remove_edge":
            self._remove_edge(effect.u, effect.v, effect.old_weight)
        elif kind == "add_node":
            self._add_node(effect.u)
        elif kind == "remove_node":
            self._remove_node(effect.u)
            for v, w, _pos in effect.incident:
                self._remove_edge(effect.u, v, w)
        else:  # pragma: no cover - kinds are library-controlled
            raise AlgorithmError(f"unknown effect kind {kind!r}")

    def unapply(self, effect: Effect) -> None:
        kind = effect.kind
        if kind == "noop":
            return
        if kind == "add_edge":
            self._remove_edge(effect.u, effect.v, effect.new_weight)
            for node in effect.created_nodes:
                self._remove_node(node)
        elif kind in ("merge_edge", "reweight"):
            self._remove_edge(effect.u, effect.v, effect.new_weight)
            self._add_edge(effect.u, effect.v, effect.old_weight)
        elif kind == "remove_edge":
            self._add_edge(effect.u, effect.v, effect.old_weight)
        elif kind == "add_node":
            self._remove_node(effect.u)
        elif kind == "remove_node":
            self._add_node(effect.u)
            for v, w, _pos in effect.incident:
                self._add_edge(effect.u, v, w)
        else:  # pragma: no cover - kinds are library-controlled
            raise AlgorithmError(f"unknown effect kind {kind!r}")


# ----------------------------------------------------------------------
# The O(1) weight patch
# ----------------------------------------------------------------------


def _patch_set_weight(index: GraphIndex, u: Node, v: Node, w: float) -> None:
    iu, iv = index.node_id[u], index.node_id[v]
    e_uv = index.edge_id_maps[iu][v]
    e_vu = index.edge_id_maps[iv][u]
    index.adj_weight[e_uv] = w
    index.adj_weight[e_vu] = w
    index.weight_maps[iu][v] = w
    index.weight_maps[iv][u] = w


def index_equal(a: GraphIndex, b: GraphIndex) -> bool:
    """Field-by-field equality of two indexes (the equivalence oracle)."""
    return all(
        getattr(a, name) == getattr(b, name) for name in GraphIndex.CORE_FIELDS
    )


# ----------------------------------------------------------------------
# The maintainer
# ----------------------------------------------------------------------


class IncrementalIndexer:
    """Keeps a graph's content hash, and its index where O(1), current.

    Observes the :class:`~repro.dynamic.ops.Effect` records a
    :class:`~repro.dynamic.ops.MutationLog` produces and re-registers
    the live digest on the graph via ``_adopt_caches`` after every op,
    so ``graph.content_hash()`` stays O(1) across a mutation stream.  A
    weight overwrite also patches the index the graph has cached for
    the version just before the op, if there is one, and re-adopts it
    (verb ``patched``); any other op leaves no current index, and
    ``graph.index()`` builds one on next use (verb ``rebuilt``).

    Parameters
    ----------
    validate:
        Assert bit-identical equivalence with a from-scratch rebuild
        after every op — the equivalence oracle the test suite runs
        whole mutation streams under.
    """

    def __init__(self, graph: WeightedGraph, *, validate: bool = False) -> None:
        self.graph = graph
        self.validate = validate
        self.patched = 0
        self.rebuilt = 0
        self.noops = 0
        self._digest = DigestState(graph)
        graph.index()  # so the first weight overwrite has an index to patch
        self._version = graph._version  # the version the last op left
        if self._digest.digest() != graph.content_hash():
            raise AlgorithmError(
                "digest state diverged from content_hash at init"
            )

    def content_hash(self) -> str:
        return self._digest.digest()

    def stats(self) -> dict:
        return {
            "patched": self.patched,
            "rebuilt": self.rebuilt,
            "noops": self.noops,
        }

    def apply(self, effect: Effect) -> str:
        """Absorb one applied effect; returns ``patched``/``rebuilt``/``noop``."""
        return self._absorb(effect, forward=True)

    def unapply(self, effect: Effect) -> str:
        """Absorb one reverted effect (the graph is already restored)."""
        return self._absorb(effect, forward=False)

    def _absorb(self, effect: Effect, *, forward: bool) -> str:
        if effect.kind == "noop":
            self.noops += 1
            return "noop"
        if forward:
            self._digest.apply(effect)
        else:
            self._digest.unapply(effect)
        graph = self.graph
        index = None
        if effect.kind in ("merge_edge", "reweight"):
            index = graph._index_at(self._version)
        if index is not None:
            w = effect.new_weight if forward else effect.old_weight
            _patch_set_weight(index, effect.u, effect.v, w)
            self.patched += 1
            verb = "patched"
        else:
            self.rebuilt += 1
            verb = "rebuilt"
        graph._adopt_caches(index=index, content_hash=self._digest.digest())
        self._version = graph._version
        if self.validate:
            self._check_equivalence(index)
        return verb

    def _check_equivalence(self, index: Optional[GraphIndex]) -> None:
        if index is not None and not index_equal(index, GraphIndex(self.graph)):
            raise AlgorithmError(
                "incremental index diverged from rebuild-from-scratch"
            )
        cold = self.graph.copy().content_hash()
        if self._digest.digest() != cold:
            raise AlgorithmError(
                "incremental content_hash diverged from cold digest"
            )


__all__ = [
    "DigestState",
    "IncrementalIndexer",
    "index_equal",
]
