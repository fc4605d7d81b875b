"""P2 — index-first centralized baselines: GraphIndex vs per-call rebuilds.

Not a paper claim: this is the library's own performance trajectory
(the first slice of the ROADMAP "index-first algorithms" item).  Prim
and Stoer–Wagner historically rebuilt ``{u: {v: w}}`` adjacency (or
walked ``neighbors()``/``weight()`` per edge) on every call; they now
read the cached :class:`~repro.graphs.index.GraphIndex` — Stoer–Wagner
builds its contractible super-node adjacency from the index's CSR
slices (``adj_target``/``adj_weight``, int ids), Prim scans CSR slices
too — so one shared index serves the whole ``compare`` fan-out.  The
"after" rebuild timed here copies the index's per-node weight maps,
the node-labelled form of the same adjacency.

Regenerated series: the legacy access patterns are preserved inline
here as the "before" reference and timed against the shipped
index-based implementations on the standard families.  The tree /
cut-value equality of both paths is asserted on every instance (the
index port must be a pure access-path change), and the table records
the before/after wall times for (a) the adjacency-rebuild slice alone
and (b) the end-to-end algorithms.
"""

import heapq
import os
import statistics
import timeit

from conftest import run_once

from repro.analysis import format_table
from repro.baselines.stoer_wagner import stoer_wagner_min_cut
from repro.graphs import build_family
from repro.graphs.trees import RootedTree
from repro.mst.kruskal import edge_total_order
from repro.mst.prim import minimum_spanning_tree_prim

FAMILIES = (("gnp", 160), ("grid", 225), ("complete", 96))


def _legacy_rebuild(graph):
    """The pre-PR-5 Stoer–Wagner adjacency construction, verbatim."""
    return {
        u: {v: graph.weight(u, v) for v in graph.neighbors(u)}
        for u in graph.nodes
    }


def _index_rebuild(graph):
    """The index-backed construction: copy the index's per-node weight maps."""
    index = graph.index()
    return {u: dict(w) for u, w in zip(index.nodes, index.weight_maps)}


def _legacy_prim(graph, root=None):
    """The pre-PR-5 Prim loop (dict walks per edge), verbatim."""
    graph.require_connected()
    start = root if root is not None else graph.nodes[0]
    parent = {}
    in_tree = {start}
    heap = [
        (edge_total_order(start, v, graph.weight(start, v)), start, v)
        for v in graph.neighbors(start)
    ]
    heapq.heapify(heap)
    while heap and len(in_tree) < graph.number_of_nodes:
        _rank, u, v = heapq.heappop(heap)
        if v in in_tree:
            continue
        in_tree.add(v)
        parent[v] = u
        for w in graph.neighbors(v):
            if w not in in_tree:
                heapq.heappush(
                    heap, (edge_total_order(v, w, graph.weight(v, w)), v, w)
                )
    return RootedTree(start, parent)


#: Timing passes; each table cell and the aggregate speedup are the
#: median over the passes (as in P4), so one slow moment on a shared
#: host moves neither.
REPEATS = 5


def _best(fn, number, repeat=3):
    return min(timeit.repeat(fn, number=number, repeat=repeat)) / number


def _per_call(fn, number):
    return timeit.timeit(fn, number=number) / number


def _timing_pass(graph):
    """``(rebuild before, rebuild after, prim before, prim after)``,
    seconds per call."""
    return (
        _per_call(lambda: _legacy_rebuild(graph), 25),
        _per_call(lambda: _index_rebuild(graph), 25),
        _per_call(lambda: _legacy_prim(graph), 5),
        _per_call(lambda: minimum_spanning_tree_prim(graph), 5),
    )


def _experiment():
    graphs = []
    for family, n in FAMILIES:
        graph = build_family(family, n, seed=1)
        graph.require_connected()
        graph.index()  # pre-build: the index is cached and shared anyway

        # Identity: the index port is an access-path change only.
        assert _legacy_rebuild(graph) == _index_rebuild(graph)
        legacy_tree = _legacy_prim(graph)
        indexed_tree = minimum_spanning_tree_prim(graph)
        assert sorted(legacy_tree.edges()) == sorted(indexed_tree.edges())
        assert legacy_tree.root == indexed_tree.root
        cut = stoer_wagner_min_cut(graph)
        assert cut.matches(graph)
        graphs.append((family, graph))

    # passes[r][f] is pass r's timings of family f; a pass's aggregate
    # is its sum before / sum after over all families.
    passes = [[_timing_pass(graph) for _f, graph in graphs] for _ in range(REPEATS)]
    aggregate_speedup = statistics.median(
        sum(t[0] + t[2] for t in p) / sum(t[1] + t[3] for t in p) for p in passes
    )
    rows = []
    for f, (family, graph) in enumerate(graphs):
        rebuild_before, rebuild_after, prim_before, prim_after = (
            statistics.median(p[f][k] for p in passes) for k in range(4)
        )
        sw_after = _best(lambda: stoer_wagner_min_cut(graph), 2)
        rows.append(
            [
                family,
                graph.number_of_nodes,
                graph.number_of_edges,
                round(rebuild_before * 1e6, 1),
                round(rebuild_after * 1e6, 1),
                round(rebuild_before / rebuild_after, 1),
                round(prim_before * 1e3, 3),
                round(prim_after * 1e3, 3),
                round(prim_before / prim_after, 2),
                round(sw_after * 1e3, 2),
            ]
        )
    return rows, aggregate_speedup


def test_p2_index_baselines(benchmark, record_table):
    rows, aggregate_speedup = run_once(benchmark, _experiment)
    table = format_table(
        [
            "family",
            "n",
            "m",
            "rebuild before us",
            "rebuild after us",
            "speedup",
            "prim before ms",
            "prim after ms",
            "speedup",
            "stoer-wagner ms",
        ],
        rows,
        title=(
            "P2 — index-first centralized baselines (Prim / Stoer–Wagner)\n"
            "before: per-call {u: {v: w}} rebuilds and neighbors()/weight() "
            "walks; after: cached GraphIndex views; each cell the median "
            f"of {REPEATS} timing passes\n"
            "identical trees and adjacency asserted per instance; "
            "Stoer–Wagner end-to-end shown for scale (its MA scans dominate: "
            "2-3 on gnp and grid, n/2 on complete; the rebuild win is a "
            "fixed setup saving)"
        ),
    )
    table += (
        "\n\naggregate rebuild+prim speedup "
        f"(median over {REPEATS} passes of sum before / sum after): "
        f"{aggregate_speedup:.2f}x"
    )
    record_table("P2_index_baselines", table)

    # Identity is always enforced above; the wall-clock floor only means
    # something on a quiet machine (same policy as P4 and P5).
    if not benchmark.disabled and not os.environ.get("CI"):
        assert aggregate_speedup >= 1.1
        # The rebuild slice itself must clearly win on every family.
        assert all(row[5] > 2.0 for row in rows)
