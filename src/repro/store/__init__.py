"""Segmented cache store: append-only JSONL segments + compaction.

The disk tier behind :class:`repro.exec.cache.ResultCache`: workers
append ``put``/``hit`` records to an active segment in O(new entries)
instead of rewriting the whole cache, and a deterministic
:meth:`SegmentStore.compact` folds the log back down under the
retention bounds of a :class:`repro.config.CacheConfig` (entries /
bytes / age, keeping the most-frequently- and most-recently-hit
entries).  See :mod:`repro.store.store` for the on-disk layout and the
determinism contract, and :mod:`repro.store.segment` for the record
format and crash-safety story.

Usage::

    from repro.api import Engine

    engine = Engine(cache="cache_store")      # opens (or creates) the store
    engine.solve_batch(graphs)                # appends, never rewrites

    # maintenance (also: python -m repro cache compact|gc|segments)
    from repro.config import CacheConfig
    from repro.store import SegmentStore
    store = SegmentStore("cache_store")
    store.compact(CacheConfig(max_entries=10_000))
"""

from .segment import ACTIVE_SEGMENT, SEGMENT_SUFFIX, read_segment
from .store import (
    MANIFEST_NAME,
    STORE_KIND,
    STORE_SCHEMA_VERSION,
    CompactionReport,
    SegmentStore,
)

__all__ = [
    "ACTIVE_SEGMENT",
    "CompactionReport",
    "MANIFEST_NAME",
    "SEGMENT_SUFFIX",
    "STORE_KIND",
    "STORE_SCHEMA_VERSION",
    "SegmentStore",
    "read_segment",
]
