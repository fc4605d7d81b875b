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
A round costs O(m log n) for the heap-based scan plus the merge work,
so the worst case (a cycle: one contraction per round) is the
O(n·m log n) of the plain Stoer–Wagner loop this replaces.

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

from ..api.result import CutResult
from ..errors import AlgorithmError
from ..graphs.graph import WeightedGraph


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
    degree = {i: sum(nbrs.values()) for i, nbrs in adjacency.items()}
    best = min(degree, key=degree.__getitem__)
    bound, best_side = degree[best], [best]

    while len(adjacency) > 2:
        parent = list(range(n))
        last, second_last, phase_cut, contracted = _scan(adjacency, n, bound, parent)
        if phase_cut < bound:
            bound, best_side = phase_cut, list(members[last])
        if not contracted:
            parent[last] = second_last
        for root in _contract(adjacency, members, parent):
            degree = sum(adjacency[root].values())
            if degree < bound and len(adjacency) > 1:
                bound, best_side = degree, list(members[root])

    side = frozenset(index.nodes[i] for i in best_side)
    return CutResult(value=graph.cut_value(side), side=side)


def _find(parent: list, x: int) -> int:
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _scan(adjacency: dict, n: int, bound: float, parent: list):
    """One MA scan: (last, second-to-last, cut of the phase, contracted?).

    Unions every edge whose scan value ``q(e)`` reaches ``bound`` into
    ``parent``.  ``r`` only grows, so a node's first heap pop carries its
    final value and later entries for it are stale.
    """
    r = [0.0] * n
    scanned = [False] * n
    start = next(iter(adjacency))
    heap = [(0.0, start)]
    last = second_last = start
    contracted = False
    while heap:
        x = heappop(heap)[1]
        if scanned[x]:
            continue
        scanned[x] = True
        second_last, last = last, x
        for y, w in adjacency[x].items():
            if not scanned[y]:
                q = r[y] = r[y] + w
                if q >= bound:
                    a, b = _find(parent, x), _find(parent, y)
                    if a != b:
                        parent[b] = a
                    contracted = True
                heappush(heap, (-q, y))
    return last, second_last, r[last], contracted


def _contract(adjacency: dict, members: dict, parent: list) -> list:
    """Merge every super-node into its union–find root; return the roots
    that absorbed something (their degrees are new cuts)."""
    merged = {}
    for v in list(adjacency):
        keep = _find(parent, v)
        if keep == v:
            continue
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
    return list(merged)
