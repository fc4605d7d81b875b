"""Dynamic-graph subsystem: mutation logs, incremental indexing, sessions.

The static pipeline treats every graph as immutable content: mutate it
and the next access rebuilds the CSR index and content hash from
scratch.  This package turns the engine into a dynamic-graph solver:

* :mod:`repro.dynamic.ops` — typed mutation ops with apply/undo and a
  canonical serialized form (:class:`MutationLog`);
* :mod:`repro.dynamic.incremental` — an incrementally maintained
  ``content_hash`` plus an O(1) :class:`GraphIndex` patch for weight
  overwrites (:class:`IncrementalIndexer`); structural ops leave the
  index to be rebuilt on next use;
* :mod:`repro.dynamic.session` — :class:`DynamicSession`, which gates
  ``solve()`` behind cut certificates and the engine's result cache.

Entry point: :meth:`repro.api.Engine.dynamic_session`.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".incremental": ("DigestState", "IncrementalIndexer", "index_equal"),
    ".ops": (
        "AddEdge", "AddNode", "Effect", "MutationLog", "MutationOp", "RemoveEdge",
        "RemoveNode", "Reweight", "apply_op", "op_from_json", "op_from_text",
        "parse_stream", "revert",
    ),
    ".session": ("CERTIFICATE_KINDS", "DynamicSession", "certify_effect"),
})
