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

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".stoer_wagner": ("stoer_wagner_min_cut",),
    ".brute_force": ("MAX_BRUTE_FORCE_NODES", "brute_force_min_cut"),
    ".contraction": ("karger_min_cut", "karger_stein_min_cut"),
    ".bridges": ("bridge_component", "find_bridges"),
    ".nagamochi_ibaraki": ("contractible_edges", "scan_intervals", "sparse_certificate"),
    ".matula": ("matula_approx_min_cut",),
    ".su_sampling": ("su_approx_min_cut",),
    ".su_congest": ("SuCongestResult", "su_minimum_cut_congest"),
    ".maxflow": ("FlowResult", "max_flow_min_cut", "minimum_st_cut_value"),
    ".gomory_hu": ("GomoryHuTree", "gomory_hu_min_cut", "gomory_hu_tree"),
})
