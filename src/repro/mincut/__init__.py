"""The paper's headline algorithms: exact and (1+ε) minimum cut.

These entry points keep their specific result dataclasses
(:class:`ExactMinCut`, :class:`ApproxMinCut`,
:class:`FullyDistributedExact`); for a uniform surface returning the
canonical :class:`repro.api.CutResult` — and capability-based solver
selection across all baselines — use :func:`repro.api.solve`, where
each of these algorithms is registered (as ``"exact"``,
``"exact_congest_full"`` and ``"approx"``).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".exact": ("ExactMinCut", "default_tree_schedule", "minimum_cut_exact"),
    ".exact_distributed": ("FullyDistributedExact", "minimum_cut_exact_congest_full"),
    ".approx": ("ApproxMinCut", "minimum_cut_approx"),
})
