"""Phase programs of the distributed 1-respecting min-cut (Theorem 2.1)."""

from ..._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".knowledge": (
        "AncestorDowncast", "ContainsFragmentBit", "LowestHolderDowncast",
        "fragment_tree_items", "hanging_fragment_items", "install_fragment_tree",
        "install_fragments_below", "install_skeleton_parent", "install_skeleton_tree",
        "skeleton_edge_items", "skeleton_membership_items", "tf_descendants",
    ),
    ".lca": ("EdgeLCA", "LCAExchange", "TYPE_FRAGMENT", "TYPE_GLOBAL", "rho_contributions"),
})
