"""Minimum spanning tree substrate (system S5 of DESIGN.md)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".kruskal": (
        "DisjointSets", "edge_total_order", "minimum_spanning_tree", "tree_weight",
    ),
    ".prim": ("minimum_spanning_tree_prim",),
    ".boruvka_congest": ("boruvka_mst", "COMPONENT_TREE"),
    ".kutten_peleg": ("kutten_peleg_mst", "kutten_peleg_round_cost", "log_star"),
})
