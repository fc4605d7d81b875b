"""Das Sarma et al. lower-bound instance family (system S11)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".das_sarma": ("HardInstance", "das_sarma_instance", "square_instance"),
})
