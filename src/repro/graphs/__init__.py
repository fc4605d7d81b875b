"""Graph and rooted-tree substrates (systems S1 and S2 of DESIGN.md)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".graph": ("WeightedGraph", "edge_key"),
    ".index": ("GraphIndex",),
    ".trees": ("RootedTree",),
    ".generators": (
        "barbell_graph", "caveman_graph", "hypercube_graph", "torus_graph",
        "build_family", "complete_graph", "connected_gnp_graph", "cycle_graph",
        "cycle_power_graph", "gnp_random_graph", "grid_graph", "path_graph",
        "planted_cut_graph", "planted_cut_sides", "random_regular_graph",
        "random_spanning_tree", "random_tree", "star_graph", "weighted_ring_of_cliques",
        "FAMILY_BUILDERS",
    ),
    ".properties": (
        "bfs_distances", "bfs_tree_parents", "degree_statistics", "diameter",
        "eccentricity", "edge_connectivity_upper_bound", "is_spanning_tree",
        "min_weighted_degree",
    ),
    ".io": (
        "from_networkx", "edge_list_from_text", "graph_from_json", "graph_to_json",
        "read_edge_list", "to_networkx", "write_edge_list",
    ),
})
