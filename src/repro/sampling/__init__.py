"""Karger skeleton sampling (system S8 of DESIGN.md)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".skeleton": (
        "SAMPLING_CONSTANT", "sample_skeleton", "sampling_probability",
        "skeleton_cut_estimate",
    ),
})
