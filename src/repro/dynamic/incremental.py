"""Incremental :class:`GraphIndex` and ``content_hash`` maintenance.

P2 showed the full CSR rebuild is the dominant fixed cost of touching a
graph: every mutation bumps the version and the next ``graph.index()``
call pays O(n + m) again.  For single-edge ops that is absurd — the new
index differs from the old one in two slots and a couple of boundary
shifts.  This module patches the arrays in place:

* ``reweight`` touches two ``adj_weight`` slots and two weight-map
  entries — O(1);
* ``add_node`` appends one empty CSR row;
* ``add_edge`` / ``remove_edge`` splice two directed edge slots in or
  out, shift the ``adj_start`` boundaries after the touched rows, and
  remap the edge ids stored in ``reverse_edge`` / ``edge_id_maps``
  (ids are row-contiguous, so only rows at or after the first touched
  row can hold a shifted id).

The companion digest state keeps the sorted node/edge lines of
:meth:`WeightedGraph.content_hash` as a live sorted list, so the hash
of the mutated graph is an O(log m) splice plus one SHA-256 over the
joined lines — bit-identical to the cold digest, which is what lets
:class:`~repro.exec.cache.ResultCache` keep serving entries for every
previously-seen graph state across a mutation session.

Patched results are re-registered on the graph through the
``WeightedGraph._adopt_caches`` seam.  When a patch would shift more
slots than the configured budget (or the op shape is unsupported, e.g.
removing a connected node), the maintainer falls back to an ordinary
rebuild; ``validate=True`` asserts equivalence with a from-scratch
rebuild after every op, and the test suite runs whole mutation streams
under it.
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

    __slots__ = ("_node_lines", "_edge_keys", "_edge_lines")

    def __init__(self, graph: WeightedGraph) -> None:
        # ``n:`` is a common prefix, so the lines sort as the reprs do.
        self._node_lines: list[str] = sorted(f"n:{u!r}" for u in graph.nodes)
        entries = sorted(_edge_entry(u, v, w) for u, v, w in graph.edges())
        self._edge_keys: list[tuple] = [key for key, _ in entries]
        self._edge_lines: list[str] = [line for _, line in entries]

    def digest(self) -> str:
        lines = self._node_lines + self._edge_lines
        return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()

    # -- primitive splices ---------------------------------------------
    def _add_node(self, u: Node) -> None:
        insort(self._node_lines, f"n:{u!r}")

    def _remove_node(self, u: Node) -> None:
        i = bisect_left(self._node_lines, f"n:{u!r}")
        del self._node_lines[i]

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
# In-place CSR patches
# ----------------------------------------------------------------------


def _tuple_set(tpl: tuple, i: int, value) -> tuple:
    lst = list(tpl)
    lst[i] = value
    return tuple(lst)


def _dict_insert(d: dict, pos: int, key, value) -> dict:
    """Insert ``key: value`` at ``pos`` in insertion order.

    Appends in place (returning the same dict) when ``pos`` is the end;
    otherwise rebuilds, and the caller must reinstall the returned dict.
    """
    if pos >= len(d):
        d[key] = value
        return d
    items = list(d.items())
    items.insert(pos, (key, value))
    return dict(items)


def _patch_set_weight(index: GraphIndex, u: Node, v: Node, w: float) -> None:
    iu, iv = index.node_id[u], index.node_id[v]
    e_uv = index.edge_id_maps[iu][v]
    e_vu = index.edge_id_maps[iv][u]
    index.adj_weight[e_uv] = w
    index.adj_weight[e_vu] = w
    index.weight_maps[iu][v] = w
    index.weight_maps[iv][u] = w


def _patch_append_node(index: GraphIndex, u: Node) -> None:
    index.node_id[u] = len(index.nodes)
    index.nodes = index.nodes + (u,)
    index.adj_start.append(index.adj_start[-1])
    index.neighbor_lists = index.neighbor_lists + ((),)
    index.weight_maps = index.weight_maps + ({},)
    index.edge_id_maps = index.edge_id_maps + ({},)


def _patch_pop_last_node(index: GraphIndex, u: Node) -> None:
    """Remove the final node, which must be isolated."""
    index.nodes = index.nodes[:-1]
    del index.node_id[u]
    index.adj_start.pop()
    index.neighbor_lists = index.neighbor_lists[:-1]
    index.weight_maps = index.weight_maps[:-1]
    index.edge_id_maps = index.edge_id_maps[:-1]


def _remap_edge_ids(
    index: GraphIndex, first_row: int, remap
) -> None:
    """Apply ``remap`` to every stored directed edge id that may shift.

    Edge ids are row-contiguous, so ids in rows before ``first_row``
    are untouched by a splice at or after that row's slots.
    """
    rv = index.reverse_edge
    for i in range(len(rv)):
        rv[i] = remap(rv[i])
    for k in range(first_row, len(index.nodes)):
        row = index.edge_id_maps[k]
        for key in row:
            row[key] = remap(row[key])


def _patch_insert_edge(
    index: GraphIndex,
    u: Node,
    v: Node,
    w: float,
    pos_u: Optional[int] = None,
    pos_v: Optional[int] = None,
) -> None:
    """Splice the two directed slots of new edge ``{u, v}`` into the CSR.

    ``pos_u``/``pos_v`` are adjacency positions within each endpoint's
    row (default: append — the forward-apply case; undo passes the
    recorded original positions).
    """
    node_id = index.node_id
    iu, iv = node_id[u], node_id[v]
    adj_start = index.adj_start
    n = len(index.nodes)
    du = adj_start[iu + 1] - adj_start[iu]
    dv = adj_start[iv + 1] - adj_start[iv]
    pu = du if pos_u is None else pos_u
    pv = dv if pos_v is None else pos_v
    o_uv = adj_start[iu] + pu
    o_vu = adj_start[iv] + pv
    # Final slot ids after both insertions; ties (u's row end touching
    # v's row start) break toward the earlier row.
    if (o_uv, iu) < (o_vu, iv):
        f_uv, f_vu = o_uv, o_vu + 1
    else:
        f_uv, f_vu = o_uv + 1, o_vu
    f_low, f_high = (f_uv, f_vu) if f_uv < f_vu else (f_vu, f_uv)
    lo, hi1 = f_low, f_high - 1  # old-id remap thresholds

    _remap_edge_ids(
        index, min(iu, iv), lambda x: x + (x >= lo) + (x >= hi1)
    )

    low_is_uv = f_low == f_uv
    for arr, uv_value, vu_value in (
        (index.adj_target, iv, iu),
        (index.adj_weight, w, w),
        (index.edge_source, iu, iv),
        (index.reverse_edge, f_vu, f_uv),
    ):
        arr.insert(f_low, uv_value if low_is_uv else vu_value)
        arr.insert(f_high, vu_value if low_is_uv else uv_value)

    for k in range(iu + 1, n + 1):
        adj_start[k] += 1
    for k in range(iv + 1, n + 1):
        adj_start[k] += 1

    for i, other, pos, slot in ((iu, v, pu, f_uv), (iv, u, pv, f_vu)):
        nl = index.neighbor_lists[i]
        index.neighbor_lists = _tuple_set(
            index.neighbor_lists, i, nl[:pos] + (other,) + nl[pos:]
        )
        wm = _dict_insert(index.weight_maps[i], pos, other, w)
        if wm is not index.weight_maps[i]:
            index.weight_maps = _tuple_set(index.weight_maps, i, wm)
        em = _dict_insert(index.edge_id_maps[i], pos, other, slot)
        if em is not index.edge_id_maps[i]:
            index.edge_id_maps = _tuple_set(index.edge_id_maps, i, em)


def _patch_delete_edge(index: GraphIndex, u: Node, v: Node) -> None:
    """Splice the two directed slots of edge ``{u, v}`` out of the CSR."""
    node_id = index.node_id
    iu, iv = node_id[u], node_id[v]
    adj_start = index.adj_start
    n = len(index.nodes)
    e_uv = index.edge_id_maps[iu][v]
    e_vu = index.edge_id_maps[iv][u]
    d_low, d_high = (e_uv, e_vu) if e_uv < e_vu else (e_vu, e_uv)

    for arr in (index.adj_target, index.adj_weight, index.edge_source,
                index.reverse_edge):
        del arr[d_high]
        del arr[d_low]

    _remap_edge_ids(
        index, min(iu, iv), lambda x: x - (x > d_low) - (x > d_high)
    )

    for k in range(iu + 1, n + 1):
        adj_start[k] -= 1
    for k in range(iv + 1, n + 1):
        adj_start[k] -= 1

    for i, other in ((iu, v), (iv, u)):
        nl = index.neighbor_lists[i]
        index.neighbor_lists = _tuple_set(
            index.neighbor_lists, i, tuple(x for x in nl if x != other)
        )
        del index.weight_maps[i][other]
        del index.edge_id_maps[i][other]


def index_equal(a: GraphIndex, b: GraphIndex) -> bool:
    """Field-by-field equality of two indexes (the equivalence oracle)."""
    return all(
        getattr(a, name) == getattr(b, name) for name in GraphIndex.CORE_FIELDS
    )


# ----------------------------------------------------------------------
# The maintainer
# ----------------------------------------------------------------------


class IncrementalIndexer:
    """Keeps a graph's index and content hash current across mutations.

    Observes the :class:`~repro.dynamic.ops.Effect` records a
    :class:`~repro.dynamic.ops.MutationLog` produces, patches the live
    :class:`GraphIndex` and digest in place, and re-registers both on
    the graph via ``_adopt_caches`` — so ``graph.index()`` and
    ``graph.content_hash()`` stay O(1) across a mutation stream.

    Parameters
    ----------
    patch_budget:
        Upper bound on the number of CSR slots a structural patch may
        shift; costlier ops fall back to a full rebuild.  ``None``
        (default) always patches; ``0`` effectively rebuilds on every
        structural op (reweights are O(1) and always patch).
    validate:
        Assert bit-identical equivalence with a from-scratch rebuild
        after every op — the equivalence oracle the test suite runs
        whole mutation streams under.
    """

    def __init__(
        self,
        graph: WeightedGraph,
        *,
        patch_budget: Optional[int] = None,
        validate: bool = False,
    ) -> None:
        self.graph = graph
        self.patch_budget = patch_budget
        self.validate = validate
        self.patched = 0
        self.rebuilt = 0
        self.noops = 0
        self._digest = DigestState(graph)
        self._index = graph.index()
        first = self._digest.digest()
        if first != graph.content_hash():
            raise AlgorithmError(
                "digest state diverged from content_hash at init"
            )

    @property
    def index(self) -> GraphIndex:
        return self._index

    def content_hash(self) -> str:
        return self._digest.digest()

    def stats(self) -> dict:
        return {
            "patched": self.patched,
            "rebuilt": self.rebuilt,
            "noops": self.noops,
        }

    # -- cost model -----------------------------------------------------
    def _splice_cost(self, effect: Effect) -> int:
        """Approximate CSR slots shifted by a structural edge splice."""
        index = self._index
        starts = [
            index.adj_start[index.node_id[x]]
            for x in (effect.u, effect.v)
            if x in index.node_id
        ]
        if not starts:  # brand-new endpoints splice at the end
            return 0
        return index.directed_edge_count - min(starts)

    def _over_budget(self, effect: Effect) -> bool:
        return (
            self.patch_budget is not None
            and self._splice_cost(effect) > self.patch_budget
        )

    # -- forward --------------------------------------------------------
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
        index = self._index
        patcher = self._patcher(effect, forward)
        if patcher is not None:
            patcher(index)
            self.patched += 1
            verb = "patched"
        else:
            index = GraphIndex(self.graph)
            self._index = index
            self.rebuilt += 1
            verb = "rebuilt"
        self.graph._adopt_caches(
            index=index, content_hash=self._digest.digest()
        )
        if self.validate:
            self._check_equivalence()
        return verb

    def _patcher(self, effect: Effect, forward: bool):
        """The in-place patch closure for ``effect``, or ``None`` to rebuild."""
        kind, u, v = effect.kind, effect.u, effect.v
        if kind in ("merge_edge", "reweight"):
            w = effect.new_weight if forward else effect.old_weight
            return lambda idx: _patch_set_weight(idx, u, v, w)
        if kind == "add_node":
            node = effect.u
            if forward:
                return lambda idx: _patch_append_node(idx, node)
            return lambda idx: _patch_pop_last_node(idx, node)
        if kind == "remove_node":
            if forward and not effect.incident and (
                effect.node_pos == len(self._index.nodes) - 1
            ):
                node = effect.u
                return lambda idx: _patch_pop_last_node(idx, node)
            return None  # connected/interior node removal: rebuild
        if kind == "add_edge":
            if self._over_budget(effect):
                return None
            created = effect.created_nodes
            if forward:

                def splice_in(idx):
                    for node in created:
                        _patch_append_node(idx, node)
                    _patch_insert_edge(idx, u, v, effect.new_weight)

                return splice_in

            def splice_out(idx):
                _patch_delete_edge(idx, u, v)
                for node in reversed(created):
                    _patch_pop_last_node(idx, node)

            return splice_out
        if kind == "remove_edge":
            if self._over_budget(effect):
                return None
            if forward:
                return lambda idx: _patch_delete_edge(idx, u, v)
            pos_u, pos_v = effect.positions
            return lambda idx: _patch_insert_edge(
                idx, u, v, effect.old_weight, pos_u, pos_v
            )
        return None  # pragma: no cover - kinds are library-controlled

    def _check_equivalence(self) -> None:
        fresh = GraphIndex(self.graph)
        if not index_equal(self._index, fresh):
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
