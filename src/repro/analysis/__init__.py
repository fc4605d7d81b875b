"""Measurement analysis helpers (system S12 of DESIGN.md)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".report": ("build_report", "solver_comparison_section", "write_report"),
    ".rounds": ("PowerLawFit", "fit_power_law", "normalized_rounds"),
    ".tables": ("format_cut_results", "format_table"),
})
