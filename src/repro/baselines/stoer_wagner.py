"""Exact global minimum cut — the ground-truth oracle.

The registry name is still ``stoer_wagner``, but the routine is the
Nagamochi–Ono–Ibaraki contraction loop with the min-degree bound, as
engineered by Henzinger, Noe, Schulz and Strash ("Practical Minimum Cut
Algorithms", ALENEX 2018).  It works on the int ids of the cached
:class:`~repro.graphs.index.GraphIndex`:

* λ̂, the lightest cut seen so far, starts as the minimum weighted
  degree; its node is the first witness.
* Each round runs one maximum-adjacency (MA) scan over the contracted
  graph.  When the scanned node ``x`` adds edge ``e = (x, y)`` to the
  scanned weight ``r(y)``, the new ``q(e) = r(y)`` lower-bounds the
  ``x``–``y`` edge connectivity (Nagamochi–Ibaraki), so if ``q(e) ≥ λ̂``
  no cut lighter than λ̂ separates ``x`` and ``y`` and the edge is
  contracted through a union–find.  The scan's last node ``t`` also
  yields the Stoer–Wagner cut of the phase ``r(t)``; it is recorded,
  and when no edge qualified the last two scanned nodes are contracted
  instead, exactly the Stoer–Wagner step.
* The weighted degrees of the merged super-nodes are cuts of the input
  graph and lower λ̂.  The loop stops at two super-nodes, whose one
  cut is already a degree that λ̂ has seen.

Every round contracts at least one edge, and on dense graphs, where λ
is the minimum degree, the first few scans contract almost every edge.
The scan keeps the scanned weights in one flat list ``r`` indexed by
super-node id, ``-inf`` once a node is scanned or absorbed, and always
takes the largest ``r``, the smallest id on ties.  On a live graph of
average degree :data:`SPARSE_DEGREE` or more it finds that node through
per-block maxima over about √n ids: each edge increment raises its
block's maximum, each pick is a few C-level ``max``/``index`` passes,
and a round costs O(m + n√n) plus the merge work.  On a sparser live
graph those passes cost more than the few increments they save, and
the pick pops a lazy-deletion heap of ``(-r, id)`` instead, O(m log n)
a round.  Both picks yield the same order, so the cuts, the
contractions and every float sum do not depend on which one ran.  The
worst case (a cycle: one contraction per round) is the O(n·m log n) of
the plain Stoer–Wagner loop this replaces.

Floats: ``q(e)`` and the degrees are float sums, each within a few ulps
of its exact value.  A rounded-up ``q(e) ≥ λ̂`` can contract an edge
whose true connectivity is that many ulps below λ̂, so on non-dyadic
weights the returned λ can differ from the exact minimum by that much;
integer and dyadic weights sum exactly.  The returned value is the
witness side re-valued on the input graph (``graph.cut_value``), so it
always equals :meth:`~repro.api.result.CutResult.verify` exactly.
Every other min-cut algorithm in the library is cross-validated
against this one, and this one against brute force and Gomory–Hu.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf, isqrt

from ..api.result import CutResult
from ..errors import AlgorithmError
from ..graphs.graph import WeightedGraph

#: A scan picks through block maxima when the live graph's average
#: degree is at least this, and through the heap below it.  Timed one
#: scan at a time on random graphs of 32 to 4096 live super-nodes, the
#: two picks cost the same at an average degree of about 7 at every size.
SPARSE_DEGREE = 7

#: ``r`` of a scanned or absorbed id, tested by identity: a sum of
#: positive weights is never this object.
_SCANNED = -inf


def stoer_wagner_min_cut(graph: WeightedGraph) -> CutResult:
    """Global minimum cut of a connected graph with ≥ 2 nodes."""
    graph.require_connected()
    if graph.number_of_nodes < 2:
        raise AlgorithmError("minimum cut requires at least two nodes")
    index = graph.index()
    n = index.node_count
    starts, targets, weights = index.adj_start, index.adj_target, index.adj_weight
    # Super-node id → {neighbour super-node id: summed weight}; a
    # super-node keeps the id of its union–find root.
    adjacency = {
        i: dict(zip(targets[starts[i]:starts[i + 1]], weights[starts[i]:starts[i + 1]]))
        for i in range(n)
    }
    members = {i: [i] for i in range(n)}
    degrees = [sum(nbrs.values()) for nbrs in adjacency.values()]
    bound = min(degrees)
    best_side = [degrees.index(bound)]
    # Each scan's starting ``r``: 0.0 for a live super-node, -inf for
    # an absorbed id.
    unscanned = [0.0] * n

    while len(adjacency) > 2:
        parent = list(range(n))
        last, second_last, phase_cut, contracted = _scan(adjacency, unscanned, bound, parent)
        if phase_cut < bound:
            bound, best_side = phase_cut, list(members[last])
        if not contracted:
            parent[last] = second_last
        for root in _contract(adjacency, members, parent, unscanned):
            degree = sum(adjacency[root].values())
            if degree < bound and len(adjacency) > 1:
                bound, best_side = degree, list(members[root])

    side = frozenset(index.nodes[i] for i in best_side)
    return CutResult(value=graph.cut_value(side), side=side)


def _find(parent: list, x: int) -> int:
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _scan(adjacency: dict, unscanned: list, bound: float, parent: list):
    """One MA scan: (last, second-to-last, cut of the phase, contracted?).

    Unions every edge whose scan value ``q(e)`` reaches ``bound`` into
    ``parent``.  ``r[v]`` is the weight from scanned nodes to ``v``, or
    ``-inf`` once ``v`` is scanned or absorbed; the next node is the
    largest ``r``, the smallest id on ties.  Dense live graphs find it
    through ``tops``, the maximum of each block of ``size`` ids; sparse
    ones pop ``heap``, where ``r`` only grows, so a node's first pop
    carries its current value and later entries for it are stale.
    """
    r = unscanned.copy()
    picks = len(adjacency)
    if sum(map(len, adjacency.values())) < SPARSE_DEGREE * picks:
        # The keys ascend (built in id order, only ever popped): this is
        # the smallest live id, where the block pick starts too.
        heap = [(0.0, next(iter(adjacency)))]
    else:
        heap = None
        shift = (isqrt(len(r)) - 1).bit_length()
        size = 1 << shift
        tops = [max(r[lo:lo + size]) for lo in range(0, len(r), size)]
    last = second_last = None
    contracted = False
    for _ in range(picks):
        if heap is None:
            top = max(tops)
            block = tops.index(top)
            lo = block << shift
            x = r.index(top, lo)
            r[x] = _SCANNED
            tops[block] = max(r[lo:lo + size])
        else:
            negated, x = heappop(heap)
            while r[x] is _SCANNED:
                negated, x = heappop(heap)
            r[x] = _SCANNED
            top = -negated
        second_last, last = last, x
        for y, w in adjacency[x].items():
            q = r[y]
            if q is not _SCANNED:
                q = r[y] = q + w
                if q >= bound:
                    a, b = _find(parent, x), _find(parent, y)
                    if a != b:
                        parent[b] = a
                    contracted = True
                if heap is None:
                    if q > tops[y >> shift]:
                        tops[y >> shift] = q
                else:
                    heappush(heap, (-q, y))
    return last, second_last, top, contracted


def _contract(adjacency: dict, members: dict, parent: list, unscanned: list) -> list:
    """Merge every super-node into its union–find root; return the roots
    that absorbed something (their degrees are new cuts)."""
    merged = {}
    for v in list(adjacency):
        if parent[v] == v:
            continue
        keep = _find(parent, v)
        merged[keep] = None
        kept = adjacency[keep]
        # Every key of every dict is a live super-node: a merge rewires
        # the absorbed node's neighbours to ``keep`` as it goes.
        for u, w in adjacency.pop(v).items():
            neighbour = adjacency[u]
            del neighbour[v]
            if u != keep:
                kept[u] = neighbour[keep] = kept.get(u, 0.0) + w
        members[keep] += members.pop(v)
        unscanned[v] = _SCANNED
    return list(merged)
