"""Distributed building blocks over the CONGEST simulator (system S4).

* BFS-tree construction — O(D) rounds.
* Convergecast — one aggregate up a tree, O(depth) rounds.
* Downcast / upcast-union / gossip — k items in O(depth + k) rounds.
* Pipelined keyed sums — k independent subtree sums in O(depth + k)
  rounds via monotone streaming (the Step 5 workhorse).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".bfs": ("BFSTreeBuild", "build_bfs_tree"),
    ".convergecast": ("Convergecast", "add", "min_pair"),
    ".dissemination": ("DowncastItems", "UpcastUnion", "gossip_items"),
    ".keyed_sums": ("BlockingKeyedSum", "PipelinedKeyedSum"),
    ".treespec": (
        "BFS_TREE", "FRAGMENT_TREE", "SPANNING_TREE", "TreeSpec",
        "load_tree_into_memory",
    ),
})
