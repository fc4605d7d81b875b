"""Fragment decomposition of spanning trees (system S6 of DESIGN.md).

Implements Step 1 of the paper: partition the input tree into O(√n)
fragments of O(√n) diameter, both centrally (the default substrate) and
as a distributed bottom-up protocol on the CONGEST simulator.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".partition": ("FragmentDecomposition", "partition_tree"),
    ".distributed": ("run_distributed_partition",),
})
