"""The paper's core contribution (system S9 of DESIGN.md).

* Karger's lemma and the centralized 1-respecting reference.
* The distributed Theorem 2.1 implementation on the CONGEST simulator.
* Exact min cut via Thorup tree packing, and (1+ε)-approximation via
  Karger skeleton sampling (see :mod:`repro.core.mincut_exact` and
  :mod:`repro.core.mincut_approx`).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".karger_lemma": (
        "KargerQuantities", "compute_karger_quantities", "lca_weights", "subtree_sums",
        "weighted_degrees",
    ),
    ".one_respect_reference": ("OneRespectResult", "one_respecting_min_cut_reference"),
    ".one_respect_congest": (
        "DistributedOneRespectResult", "install_partition_knowledge",
        "one_respecting_min_cut_congest",
    ),
    ".structures": ("StructuresReference",),
    ".two_respect": (
        "TwoRespectResult", "minimum_cut_exact_two_respect",
        "two_respecting_min_cut_reference",
    ),
})
