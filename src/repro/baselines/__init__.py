"""Baseline minimum-cut algorithms (system S10 of DESIGN.md).

Exact: Stoer–Wagner (ground truth), brute force (validates Stoer–Wagner),
Karger contraction and Karger–Stein (Monte Carlo).  Approximate:
Matula (2+ε) via Nagamochi–Ibaraki certificates — the centralized analog
of the paper's Ghaffari–Kuhn comparator — and Su's sampling + bridges
(1+ε) concurrent result.

Every global min-cut entry point here is also registered with
:mod:`repro.api`, so ``solve(graph, solver="stoer_wagner")`` (etc.)
returns the canonical :class:`repro.api.CutResult`; the functions
called directly return it too.
"""

from .stoer_wagner import stoer_wagner_min_cut
from .brute_force import MAX_BRUTE_FORCE_NODES, brute_force_min_cut
from .contraction import karger_min_cut, karger_stein_min_cut
from .bridges import bridge_component, find_bridges
from .nagamochi_ibaraki import contractible_edges, scan_intervals, sparse_certificate
from .matula import matula_approx_min_cut
from .su_sampling import su_approx_min_cut
from .su_congest import SuCongestResult, su_minimum_cut_congest
from .maxflow import FlowResult, max_flow_min_cut, minimum_st_cut_value
from .gomory_hu import GomoryHuTree, gomory_hu_min_cut, gomory_hu_tree


__all__ = [
    "stoer_wagner_min_cut",
    "MAX_BRUTE_FORCE_NODES",
    "brute_force_min_cut",
    "karger_min_cut",
    "karger_stein_min_cut",
    "bridge_component",
    "find_bridges",
    "contractible_edges",
    "scan_intervals",
    "sparse_certificate",
    "matula_approx_min_cut",
    "su_approx_min_cut",
    "SuCongestResult",
    "su_minimum_cut_congest",
    "FlowResult",
    "max_flow_min_cut",
    "minimum_st_cut_value",
    "GomoryHuTree",
    "gomory_hu_min_cut",
    "gomory_hu_tree",
]
