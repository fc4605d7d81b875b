"""Thorup greedy tree packing (system S7 of DESIGN.md)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".bounds": ("CutBounds", "certified_cut_bounds", "edge_disjoint_packing"),
    ".greedy": ("GreedyTreePacking", "greedy_tree_packing", "thorup_tree_bound"),
    ".respect": (
        "crossing_count", "crossing_tree_edges", "one_respects",
        "respecting_subtree_node", "trees_until_one_respecting",
    ),
})
