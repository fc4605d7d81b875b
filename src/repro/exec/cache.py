"""Content-addressed result cache in front of ``solve``.

A :class:`CacheKey` pins everything that determines a solver's output:
the graph's canonical content hash
(:meth:`repro.graphs.WeightedGraph.content_hash`), the resolved solver
name, epsilon, mode, seed, budget and the extra options.  Two
structurally identical graphs built in different insertion orders
produce the same key, so benchmark sweeps and service traffic
(:mod:`repro.service` holds one cache shared by every connection)
that replay instances skip recomputation entirely.

:class:`ResultCache` is a bounded LRU with hit/miss counters and an
optional persistence tier: pass ``path=`` (a directory) and every
storable entry is appended to a :class:`repro.store.SegmentStore` —
the one on-disk format — and reloaded by later processes.  Disk-tier
hits are appended as usage metadata so compaction can keep the
most-used entries.  An entry's payload is :meth:`CutResult.to_json`
in its strict mode: tuples in ``extras`` (the paper solvers report
e.g. ``per_tree_values``) are persisted via a tagged encoding and
restored as tuples, and results that would not round-trip JSON
faithfully (CONGEST metrics attached, non-scalar nodes, NaN or
non-string dict keys in extras) stay memory-only — the cache never
persists an entry it could not reproduce exactly.

Single-file caches of earlier releases (the ``{"schema": 2}``
envelope and the unversioned bare dict) are **read-only** inputs of
:func:`load_cache_file`, so ``merge_from``, ``Engine.warm_start``,
``repro serve --warm-start`` and ``repro cache merge|stats`` still
accept them; ``python -m repro cache merge --out DIR old.json``
migrates one into a store.  Merging worker stores and handing the
merged (or compacted) store to ``Engine.warm_start`` or ``repro serve
--warm-start`` is the warm-start workflow.

``CutResult.verify(graph)`` makes every hit auditable: the cached
witness side can be re-checked against the graph without trusting the
cache (the façade surfaces hit/miss counters in
``CutResult.extras["cache"]`` for exactly that workflow).
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional, Union

from ..api.result import CutResult
from ..errors import AlgorithmError
from ..graphs.graph import WeightedGraph

if TYPE_CHECKING:
    from ..store.store import SegmentStore

#: Pending disk-tier hit counts are appended to a store-backed cache
#: once this many accumulate, so a stream of single solves that all hit
#: (a warm ``/solve`` worker) still persists its usage metadata; a batch
#: flushes its hits when it ends (``Engine.solve_tasks``).
_HIT_FLUSH_THRESHOLD = 256

#: Newest single-file cache schema :func:`load_cache_file` reads.  The
#: loader also accepts the unversioned (pre-versioning) bare-dict form
#: but never a *newer* schema; nothing writes this format any more.
CACHE_SCHEMA_VERSION = 2


def _entries_of(payload) -> Optional[dict]:
    """The digest → entry dict inside one decoded cache file, or ``None``.

    Accepts the current versioned envelope and the legacy bare dict
    (every value a dict keeps foreign JSON from masquerading as a
    cache).  Files with a newer ``schema`` return ``None`` — refusing
    to half-read a format this code does not know.
    """
    if not isinstance(payload, dict):
        return None
    if "schema" in payload:
        if payload.get("schema") != CACHE_SCHEMA_VERSION:
            return None
        entries = payload.get("entries")
        if not isinstance(entries, dict) or not all(
            isinstance(value, dict) for value in entries.values()
        ):
            return None
        return entries
    if all(isinstance(value, dict) for value in payload.values()):
        return payload  # legacy unversioned tier
    return None


@dataclass(frozen=True, slots=True)
class CacheKey:
    """Everything that determines a ``solve`` outcome, canonicalised."""

    graph_hash: str
    solver: str
    epsilon: Optional[float]
    mode: str
    seed: Optional[int]
    budget: Optional[int]
    options: tuple[tuple[str, str], ...] = ()

    @classmethod
    def for_solve(
        cls,
        graph: WeightedGraph,
        solver: str,
        *,
        epsilon: Optional[float] = None,
        mode: str = "reference",
        seed: int = 0,
        budget: Optional[int] = None,
        options: Optional[dict[str, Any]] = None,
    ) -> "CacheKey":
        """Build the key for one façade call.

        ``solver`` should be the *resolved* registry name (never
        ``"auto"``) so a hit is attributable to a concrete algorithm;
        option values are canonicalised via ``repr`` and numeric knobs
        by type (``epsilon=1`` and ``epsilon=1.0`` are one key, in the
        digest as well as in memory).
        """
        canonical = tuple(
            sorted((str(k), repr(v)) for k, v in (options or {}).items())
        )
        return cls(
            graph_hash=graph.content_hash(),
            solver=str(solver),
            epsilon=None if epsilon is None else float(epsilon),
            mode=str(mode),
            seed=None if seed is None else int(seed),
            budget=None if budget is None else int(budget),
            options=canonical,
        )

    def digest(self) -> str:
        """Stable hex digest — the on-disk dictionary key."""
        blob = repr(
            (
                self.graph_hash,
                self.solver,
                self.epsilon,
                self.mode,
                self.seed,
                self.budget,
                self.options,
            )
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """Bounded LRU over :class:`CacheKey` → :class:`CutResult`.

    Parameters
    ----------
    maxsize:
        In-memory entry cap; least-recently-used entries are evicted.
    path:
        Optional persistence tier: the directory of a
        :class:`repro.store.SegmentStore` (created if missing), whose
        flushes append only the new records.  An existing regular file
        — a schema ≤ 2 single-file cache — raises
        :class:`AlgorithmError` naming the migration command.

    Every public method holds :attr:`lock`, a re-entrant lock, so one
    cache is safe to share between threads: the service probes it for
    ``/solve`` hits on its event loop while solves put into it and flush
    it from the dispatch pool.  A caller that needs a lookup and the
    counters it moved to agree (``Engine`` stamping ``extras["cache"]``)
    holds the lock around both.
    """

    def __init__(
        self, maxsize: int = 1024, path: Union[str, Path, None] = None
    ) -> None:
        if maxsize < 1:
            raise AlgorithmError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = int(maxsize)
        self.path = Path(path) if path is not None else None
        self._memory: OrderedDict[CacheKey, CutResult] = OrderedDict()
        self.store: Optional[SegmentStore] = None
        #: Digest → payload entries not in a store: a store-backed
        #: cache's entries awaiting the next flush, or a path-less
        #: cache's adopted (warm-start) entries, which stay here.
        self._pending_puts: dict[str, dict] = {}
        #: Coalesced per-digest hit counts awaiting the next flush.
        self._pending_hits: dict[str, int] = {}
        self.hits = 0
        self.misses = 0
        self.lock = threading.RLock()
        if self.path is not None:
            from ..store.store import SegmentStore

            self.store = SegmentStore(self.path)

    # -- lookup / store ------------------------------------------------

    def get(self, key: CacheKey) -> Optional[CutResult]:
        """The cached result for ``key``, or ``None`` (counts hit/miss)."""
        with self.lock:
            entry = self._memory.get(key)
            if entry is not None:
                self._memory.move_to_end(key)
                self.hits += 1
                self._note_hit(key)
                return entry
            payload = None
            if self.store is not None or self._pending_puts:  # skip the digest if no tier
                payload = self._disk_payload(key.digest())
            if payload is not None:
                try:
                    result = CutResult.from_json(payload)
                except (KeyError, TypeError, ValueError):
                    pass  # a foreign/corrupt entry reads as a miss
                else:
                    self._remember(key, result)
                    self.hits += 1
                    self._note_hit(key)
                    return result
            self.misses += 1
            return None

    def peek(self, key: CacheKey) -> Optional[CutResult]:
        """The memory tier's result for ``key``, without counting a hit
        or a miss and without touching the LRU order."""
        with self.lock:
            return self._memory.get(key)

    def _note_hit(self, key: CacheKey) -> None:
        """Record usage metadata for the store's retention policy.

        Hit records are what let :meth:`repro.store.SegmentStore.
        compact` keep the most-frequently/most-recently used entries;
        they are coalesced per digest and appended in batches so the
        hot path never touches the disk per hit.
        """
        if self.store is None:
            return
        digest = key.digest()
        self._pending_hits[digest] = self._pending_hits.get(digest, 0) + 1
        if sum(self._pending_hits.values()) >= _HIT_FLUSH_THRESHOLD:
            self.flush()

    def put(self, key: CacheKey, result: CutResult, *, flush: bool = True) -> None:
        """Store ``result`` under ``key`` (memory always, disk if faithful).

        With a store tier the entry's ``put`` record is appended on
        flush — O(1) per entry.  Batch writers pass ``flush=False`` per
        entry and call :meth:`flush` once at the end, so a sweep
        appends in one locked write.
        """
        with self.lock:
            self._remember(key, result)
            if self.store is not None:
                payload = result.to_json(strict=True)
                if payload is not None:
                    digest = key.digest()
                    if not self._on_disk(digest):
                        self._pending_puts[digest] = payload
                if flush:
                    self.flush()

    def _on_disk(self, digest: str) -> bool:
        return digest in self._pending_puts or (
            self.store is not None and digest in self.store
        )

    def _disk_payload(self, digest: str) -> Optional[dict]:
        """The persisted payload for ``digest``: a pending entry, else
        one segment-line read."""
        pending = self._pending_puts.get(digest)
        if pending is None and self.store is not None:
            return self.store.payload(digest)
        return pending

    def _disk_entries(self) -> dict[str, dict]:
        """Every persisted (or adopted) digest → payload (for merges)."""
        stored = self.store.entries() if self.store is not None else {}
        return {**stored, **self._pending_puts}

    def _remember(self, key: CacheKey, result: CutResult) -> None:
        self._memory[key] = result
        self._memory.move_to_end(key)
        while len(self._memory) > self.maxsize:
            self._memory.popitem(last=False)

    # -- maintenance ---------------------------------------------------

    def flush(self) -> None:
        """Append the pending ``put``/``hit`` records to the store's
        active segment — O(new entries) — under the store's own lock
        (no-op for memory-only caches)."""
        if self.store is None:
            return
        with self.lock:
            puts, self._pending_puts = self._pending_puts, {}
            hits, self._pending_hits = self._pending_hits, {}
            self.store.append(puts.items(), hits.items())

    def clear(self) -> None:
        """Drop every entry (both tiers) and reset the counters."""
        with self.lock:
            self._memory.clear()
            self._pending_puts.clear()
            self._pending_hits.clear()
            self.hits = 0
            self.misses = 0
            if self.store is not None:
                self.store.clear()

    def merge_from(
        self, source: Union["ResultCache", str, Path], *, flush: bool = True
    ) -> "MergeCounts":
        """Adopt another cache's persistable entries (ours win on conflict).

        ``source`` is a store directory, a schema ≤ 2 cache file (both
        read by :func:`load_cache_file`), or a live
        :class:`ResultCache`.  A missing, unreadable, corrupt or
        newer-schema source raises
        :class:`AlgorithmError` — a merge *tool* must not silently
        treat a bad input as empty.  From a live cache, both its disk
        tier and the persistable part of its memory tier contribute,
        so memory-only caches merge too.

        Returns a :class:`MergeCounts` — an ``int`` equal to the
        number of entries adopted (so arithmetic keeps working), with
        ``added`` / ``kept_ours`` / ``skipped`` fields reporting the
        full outcome instead of merging silently.  With ``flush``
        (default) the adopted entries are appended when this cache has
        a store; merging a schema ≤ 2 file into a store-backed cache is
        exactly the schema-3 migration path.
        """
        if isinstance(source, ResultCache):
            with source.lock:
                entries = source._disk_entries()
                for key, result in source._memory.items():
                    digest = key.digest()
                    if digest not in entries:
                        payload = result.to_json(strict=True)
                        if payload is not None:
                            entries[digest] = payload
        else:
            entries = load_cache_file(source)
        added = kept_ours = skipped = 0
        with self.lock:
            for digest, payload in entries.items():
                if not isinstance(payload, dict):
                    skipped += 1
                elif self._on_disk(digest):
                    kept_ours += 1
                else:
                    self._pending_puts[digest] = payload
                    added += 1
            if added and flush:
                self.flush()
        return MergeCounts.build(
            added=added, kept_ours=kept_ours, skipped=skipped
        )

    def stats(self) -> dict[str, int]:
        """Counters snapshot: hits, misses, entries per tier.

        With a segment-store tier attached, the store's counters
        (``segments``, ``live_entries``, ``dead_records``,
        ``store_bytes``, ``compactions``, ``appended_records``) ride
        along — which is how ``/healthz`` and ``repro cache stats``
        report them without knowing about the store.
        """
        with self.lock:
            stats = {
                "hits": self.hits,
                "misses": self.misses,
                "memory_entries": len(self._memory),
                "disk_entries": len(self._pending_puts),
            }
            if self.store is not None:
                stats["disk_entries"] += len(self.store)
                stats.update(self.store.stats())
        return stats

    def __len__(self) -> int:
        return len(self._memory)

    def __contains__(self, key: CacheKey) -> bool:
        with self.lock:
            return key in self._memory or self._on_disk(key.digest())


class MergeCounts(int):
    """The outcome of one :meth:`ResultCache.merge_from` call.

    An ``int`` subclass so historic callers (``adopted +=
    cache.merge_from(...)``) keep working: the integer value is the
    number of entries **added**.  The extra fields report what a bare
    count hid — ``kept_ours`` (source entries that conflicted with an
    existing entry, which won) and ``skipped`` (malformed source
    entries that were not adoptable).
    """

    added: int
    kept_ours: int
    skipped: int

    @classmethod
    def build(cls, *, added: int, kept_ours: int, skipped: int) -> "MergeCounts":
        counts = cls(added)
        counts.added = added
        counts.kept_ours = kept_ours
        counts.skipped = skipped
        return counts


def load_cache_file(path: Union[str, Path]) -> dict[str, dict]:
    """A store's or a legacy cache file's digest → payload entries.

    Strict — a bad input raises :class:`AlgorithmError` instead of
    reading as empty — because ``merge_from``, ``Engine.warm_start``
    and ``repro cache merge|stats`` build on it.  A directory is read
    as a :class:`repro.store.SegmentStore`; a file as a read-only
    schema ≤ 2 single-file cache.
    """
    path = Path(path)
    if path.is_dir():
        from ..store.store import SegmentStore

        return SegmentStore(path, create=False).entries()
    try:
        loaded = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise AlgorithmError(f"cannot read cache file {path}: {exc}") from exc
    except ValueError as exc:
        raise AlgorithmError(f"cache file {path} is not valid JSON: {exc}") from exc
    entries = _entries_of(loaded)
    if entries is None:
        schema = loaded.get("schema") if isinstance(loaded, dict) else None
        raise AlgorithmError(
            f"cache file {path} is not a result cache"
            + (
                f" this version can read (schema {schema!r}, "
                f"supported: <= {CACHE_SCHEMA_VERSION})"
                if schema is not None
                else " (unrecognised shape)"
            )
        )
    return entries


__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheKey",
    "MergeCounts",
    "ResultCache",
    "load_cache_file",
]
