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
optional persistence tier: pass ``path=`` and every storable entry is
flushed to disk and reloaded by later processes.  Tuples in ``extras``
(the paper solvers report e.g. ``per_tree_values``) are persisted via
a tagged encoding and restored as tuples; results that still do not
round-trip JSON faithfully (CONGEST metrics attached, non-scalar
nodes, non-string dict keys) stay memory-only — the cache never
persists an entry it could not reproduce exactly.

The persistence tier has two shapes, picked by the ``path``:

* a ``*.json`` **file** — the historic schema-2 envelope, rewritten
  wholesale on flush (fine for short sweeps, shippable as a single
  warm-start artifact);
* a **directory** — a :class:`repro.store.SegmentStore` of append-only
  JSONL segments (manifest schema 3): flushes append only the new
  ``put``/``hit`` records, crash-truncated tails are repaired on open,
  and ``python -m repro cache compact|gc|segments`` maintain it under
  a deterministic :class:`~repro.store.RetentionPolicy`.  Disk-tier
  hits are recorded as usage metadata so compaction can keep the
  most-frequently/most-recently used entries.

The on-disk file is **versioned**: schema
:data:`CACHE_SCHEMA_VERSION` wraps the entry dict in
``{"schema": N, "entries": {digest: payload}}`` so caches can be
shared, shipped and merged across deployments without guessing at
their shape.  Unversioned files from earlier releases (a bare digest →
payload dict) are still read; files claiming a *newer* schema are left
untouched and the cache starts cold rather than misreading them.
:meth:`ResultCache.merge_from` adopts another cache's persisted
entries (existing entries win), which is the warm-start workflow:
merge the worker caches from a sharded sweep — ``python -m repro cache
merge`` is the CLI face — and hand the merged file to
``Engine(cache=...)`` or ``repro serve --warm-start`` so cold-start
sweeps begin warm.

``CutResult.verify(graph)`` makes every hit auditable: the cached
witness side can be re-checked against the graph without trusting the
cache (the façade surfaces hit/miss counters in
``CutResult.extras["cache"]`` for exactly that workflow).
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Union

try:
    import fcntl
except ImportError:  # non-POSIX: merge-on-flush stays best-effort
    fcntl = None

from ..api.result import CutResult
from ..errors import AlgorithmError
from ..graphs.graph import WeightedGraph
from ..store import SegmentStore, is_store_path

#: Pending disk-tier hit counts are appended to a store-backed cache
#: once this many accumulate, so a pure-hit workload (a warm worker
#: replaying a sweep) still persists its usage metadata without a flush.
_HIT_FLUSH_THRESHOLD = 256

#: Version of the on-disk cache file format.  Bumped whenever the JSON
#: shape changes incompatibly; the loader still accepts the unversioned
#: (pre-versioning) bare-dict form but never a *newer* schema.
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
        Optional persistence tier.  A ``*.json`` file path opens the
        historic single-file tier (loaded lazily, tolerant of a
        missing/corrupt file — the cache just starts cold, rewritten
        wholesale on flush).  A *directory* path opens a
        :class:`repro.store.SegmentStore` whose flushes append only
        the new records (see :func:`repro.store.is_store_path` for how
        the two are told apart).
    """

    def __init__(
        self, maxsize: int = 1024, path: Union[str, Path, None] = None
    ) -> None:
        if maxsize < 1:
            raise AlgorithmError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = int(maxsize)
        self.path = Path(path) if path is not None else None
        self._memory: OrderedDict[CacheKey, CutResult] = OrderedDict()
        #: The single-file tier's digest → payload map.  A store-backed
        #: cache leaves it empty: the store indexes its entries on disk.
        self._disk: dict[str, dict] = {}
        self.store: Optional[SegmentStore] = None
        #: Records not yet appended to the store: fresh entries (digest →
        #: payload) and coalesced per-digest hit counts.
        self._pending_puts: dict[str, dict] = {}
        self._pending_hits: dict[str, int] = {}
        self.hits = 0
        self.misses = 0
        if self.path is not None and is_store_path(self.path):
            self.store = SegmentStore(self.path)
        elif self.path is not None and self.path.exists():
            try:
                loaded = json.loads(self.path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                loaded = None
            entries = _entries_of(loaded)
            if entries is not None:
                self._disk = entries

    # -- lookup / store ------------------------------------------------

    def get(self, key: CacheKey) -> Optional[CutResult]:
        """The cached result for ``key``, or ``None`` (counts hit/miss)."""
        entry = self._memory.get(key)
        if entry is not None:
            self._memory.move_to_end(key)
            self.hits += 1
            self._note_hit(key)
            return entry
        payload = None
        if self.store is not None or self._disk:  # skip the digest if no tier
            payload = self._disk_payload(key.digest())
        if payload is not None:
            result = _result_from_payload(payload)
            if result is not None:
                self._remember(key, result)
                self.hits += 1
                self._note_hit(key)
                return result
        self.misses += 1
        return None

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

        With a file-backed tier the file is rewritten on the store —
        even when this entry itself is memory-only — so a corrupt or
        foreign file is healed as soon as the cache is written to.
        Batch writers pass ``flush=False`` per entry and call
        :meth:`flush` once at the end, avoiding an O(N²) rewrite of the
        growing file across a sweep.  A segment-store tier appends
        instead of rewriting, so even per-entry flushes stay O(1).
        """
        self._remember(key, result)
        if self.path is not None:
            payload = _result_to_payload(result)
            if payload is not None:
                digest = key.digest()
                if self.store is None:
                    self._disk[digest] = payload
                elif not self._on_disk(digest):
                    self._pending_puts[digest] = payload
            if flush:
                self.flush()

    def _on_disk(self, digest: str) -> bool:
        if self.store is None:
            return digest in self._disk
        return digest in self._pending_puts or digest in self.store

    def _disk_payload(self, digest: str) -> Optional[dict]:
        """The persisted payload for ``digest``: a dict lookup for the
        file tier, one segment-line read for the store."""
        if self.store is None:
            return self._disk.get(digest)
        pending = self._pending_puts.get(digest)
        return pending if pending is not None else self.store.payload(digest)

    def _disk_entries(self) -> dict[str, dict]:
        """Every persisted digest → payload (for merges)."""
        if self.store is None:
            return dict(self._disk)
        return {**self.store.entries(), **self._pending_puts}

    def _remember(self, key: CacheKey, result: CutResult) -> None:
        self._memory[key] = result
        self._memory.move_to_end(key)
        while len(self._memory) > self.maxsize:
            self._memory.popitem(last=False)

    # -- maintenance ---------------------------------------------------

    def flush(self) -> None:
        """Write the persistence tier (no-op for memory-only caches).

        Store-backed caches append the pending ``put``/``hit`` records
        to the active segment — O(new entries), which is the whole
        point of the segment tier — under the store's own lock.

        File-backed caches re-read and adopt entries another process
        persisted since this cache loaded the file (ours win on
        conflict), so concurrent writers sharing one ``path`` append
        to — rather than erase — each other's work.  The
        read-merge-write runs under an advisory ``flock`` on a sibling
        ``.lock`` file (POSIX; a no-op best-effort elsewhere), and the
        file itself is written to a temp path and atomically renamed
        into place, so a reader (or a crash) mid-write never observes
        truncated JSON.
        """
        if self.path is None:
            return
        if self.store is not None:
            puts, self._pending_puts = self._pending_puts, {}
            hits, self._pending_hits = self._pending_hits, {}
            self.store.append(puts.items(), hits.items())
            return
        with self._file_lock():
            if self.path.exists():
                try:
                    on_disk = json.loads(self.path.read_text(encoding="utf-8"))
                except (OSError, ValueError):
                    on_disk = None  # corrupt/foreign file: overwrite (heal)
                entries = _entries_of(on_disk)
                if entries is not None:
                    for digest, payload in entries.items():
                        self._disk.setdefault(digest, payload)
            self._write()

    @contextmanager
    def _file_lock(self):
        """Exclusive advisory lock serialising flush/clear across processes.

        The ``.lock`` file is deliberately never deleted — unlinking a
        lock file is the classic race (a waiter can hold the lock of an
        unlinked inode while a newcomer locks a fresh file).
        """
        if self.path.parent != Path("."):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        if fcntl is None:
            yield
            return
        lock_path = self.path.with_name(self.path.name + ".lock")
        with open(lock_path, "w", encoding="utf-8") as lock_file:
            fcntl.flock(lock_file, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(lock_file, fcntl.LOCK_UN)

    def _write(self) -> None:
        """Atomically replace the file with this cache's disk tier."""
        tmp = self.path.with_name(self.path.name + f".tmp.{os.getpid()}")
        tmp.write_text(
            json.dumps(
                {"schema": CACHE_SCHEMA_VERSION, "entries": self._disk},
                sort_keys=True,
            ),
            encoding="utf-8",
        )
        os.replace(tmp, self.path)

    def clear(self) -> None:
        """Drop every entry (both tiers) and reset the counters.

        Unlike :meth:`flush`, this truncates the file outright — no
        merge with other writers' entries — because "clear" must mean
        the persisted tier is empty afterwards.
        """
        self._memory.clear()
        self._disk.clear()
        self._pending_puts.clear()
        self._pending_hits.clear()
        self.hits = 0
        self.misses = 0
        if self.store is not None:
            self.store.clear()
        elif self.path is not None and self.path.exists():
            with self._file_lock():
                self._write()

    def merge_from(
        self, source: Union["ResultCache", str, Path], *, flush: bool = True
    ) -> "MergeCounts":
        """Adopt another cache's persistable entries (ours win on conflict).

        ``source`` is a cache file path, a store directory, or a live
        :class:`ResultCache`.  From a file, the digest → payload
        entries are read directly (versioned envelope or the legacy
        bare dict); from a store directory, its live entry map; a
        missing, unreadable, corrupt or newer-schema source raises
        :class:`AlgorithmError` — a merge *tool* must not silently
        treat a bad input as empty.  From a live cache, both its disk
        tier and the persistable part of its memory tier contribute,
        so memory-only caches merge too.

        Returns a :class:`MergeCounts` — an ``int`` equal to the
        number of entries adopted (so arithmetic keeps working), with
        ``added`` / ``kept_ours`` / ``skipped`` fields reporting the
        full outcome instead of merging silently.  With ``flush``
        (default) the merged tier is written out when this cache has a
        ``path``; merging a schema ≤ 2 file into a store-backed cache
        is exactly the schema-3 migration path.
        """
        if isinstance(source, ResultCache):
            entries = source._disk_entries()
            for key, result in source._memory.items():
                digest = key.digest()
                if digest not in entries:
                    payload = _result_to_payload(result)
                    if payload is not None:
                        entries[digest] = payload
        else:
            entries = load_cache_file(source)
        added = kept_ours = skipped = 0
        for digest, payload in entries.items():
            if not isinstance(payload, dict):
                skipped += 1
            elif self._on_disk(digest):
                kept_ours += 1
            else:
                if self.store is None:
                    self._disk[digest] = payload
                else:
                    self._pending_puts[digest] = payload
                added += 1
        if added and flush and self.path is not None:
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
        stats = {
            "hits": self.hits,
            "misses": self.misses,
            "memory_entries": len(self._memory),
            "disk_entries": len(self._disk) if self.store is None
            else len(self.store) + len(self._pending_puts),
        }
        if self.store is not None:
            stats.update(self.store.stats())
        return stats

    def __len__(self) -> int:
        return len(self._memory)

    def __contains__(self, key: CacheKey) -> bool:
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
    """Read a cache file's digest → payload entries, strictly.

    Unlike the cache constructor (which tolerates a missing or corrupt
    file and just starts cold), this loader is for *tooling* —
    ``merge_from``, ``python -m repro cache merge|stats`` — where
    silently treating a bad input as empty would corrupt the workflow:
    it raises :class:`AlgorithmError` for unreadable files, invalid
    JSON, unrecognised shapes and newer schemas.  A *directory* is
    read as a :class:`repro.store.SegmentStore` (manifest schema 3)
    and contributes its live entry map — so every cache tool accepts
    files and stores interchangeably.
    """
    path = Path(path)
    if path.is_dir():
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


#: Marker key for the tagged tuple encoding in persisted extras.
_TUPLE_TAG = "__tuple__"


def encode_extras(value):
    """JSON-safe form of an extras value; tuples get a tagged wrapper.

    Shared with the service layer (:mod:`repro.service.protocol`), so a
    ``CutResult`` crosses the wire with the same fidelity guarantees as
    the persistence tier.

    Raises ``ValueError`` for values the encoding cannot represent
    unambiguously (a dict that itself uses the tag key).
    """
    if isinstance(value, tuple):
        return {_TUPLE_TAG: [encode_extras(item) for item in value]}
    if isinstance(value, list):
        return [encode_extras(item) for item in value]
    if isinstance(value, dict):
        if _TUPLE_TAG in value:
            raise ValueError(f"extras dict uses the reserved key {_TUPLE_TAG!r}")
        return {key: encode_extras(item) for key, item in value.items()}
    return value


def decode_extras(value):
    if isinstance(value, dict):
        if set(value) == {_TUPLE_TAG}:
            return tuple(decode_extras(item) for item in value[_TUPLE_TAG])
        return {key: decode_extras(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode_extras(item) for item in value]
    return value


def _result_to_payload(result: CutResult) -> Optional[dict]:
    """JSON payload for ``result``, or ``None`` when not faithfully storable."""
    if result.metrics is not None:
        return None  # CONGEST metrics carry per-phase objects; memory tier only
    if not all(isinstance(node, (int, str)) for node in result.side):
        return None
    try:
        extras = encode_extras(dict(result.extras))
    except ValueError:
        return None
    payload = {
        "value": result.value,
        "side": sorted(result.side, key=repr),
        "solver": result.solver,
        "guarantee": result.guarantee,
        "seed": result.seed,
        "wall_time": result.wall_time,
        "extras": extras,
    }
    try:
        if json.loads(json.dumps(payload)) != payload:
            return None  # non-string keys/NaN would come back altered — skip
    except (TypeError, ValueError):
        return None
    return payload


def _result_from_payload(payload: dict) -> Optional[CutResult]:
    try:
        return CutResult(
            value=float(payload["value"]),
            side=frozenset(payload["side"]),
            solver=str(payload["solver"]),
            guarantee=str(payload["guarantee"]),
            seed=payload["seed"],
            metrics=None,
            wall_time=float(payload["wall_time"]),
            extras=decode_extras(dict(payload["extras"])),
        )
    except (KeyError, TypeError, ValueError):
        return None  # foreign/corrupt entry: treat as a miss


__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheKey",
    "MergeCounts",
    "ResultCache",
    "decode_extras",
    "encode_extras",
    "load_cache_file",
]
