"""The segmented cache store: immutable segments + manifest + compaction.

Layout of a store directory::

    cache_store/
        MANIFEST.json        {"schema": 3, "kind": "repro-cache-store",
                              "segments": [...], "compactions": N}
        seg-<hash16>.jsonl   sealed, immutable segments (manifest order)
        active.jsonl         the append tail (implicit, folded in last)

The manifest is **schema 3** — the successor of the single-file result
cache's ``{"schema": 2, "entries": ...}`` envelope, which is no longer
written.  Schema ≤ 2 files are still read by
:func:`repro.exec.cache.load_cache_file`, and the migration path is a
merge: adopting a schema-2 file into a store-backed cache appends its
entries as ``put`` records (``python -m repro cache merge --out
STORE_DIR old_cache.json``).

Why segments: a flush *appends* the new records — O(new entries) —
instead of rewriting the whole cache, so a long-lived ``repro serve``
worker never pays O(cache size) per persisted batch; the rewrite cost
is paid only at :meth:`SegmentStore.compact` time, under an explicit
size/age retention policy.

Determinism: ``compact()`` never reads the clock (the age reference
defaults to the newest record timestamp in the store) and orders
retained entries canonically, so the same segments plus the same
policy produce a **byte-identical** compacted segment — compacting
twice is a no-op, and merging worker stores is segment concatenation
followed by one deterministic compact, no coordination required.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

try:
    import fcntl
except ImportError:  # non-POSIX: appends stay best-effort serialised
    fcntl = None

from ..errors import AlgorithmError
from .segment import (
    ACTIVE_SEGMENT,
    SEGMENT_SUFFIX,
    append_lines,
    encode_record,
    hit_record,
    put_record,
    record_at,
    scan_segment,
    segment_name,
)

#: Version of the store's on-disk manifest format.  The single-file
#: result cache stopped at schema 2; the directory store is schema 3.
STORE_SCHEMA_VERSION = 3

#: The ``kind`` tag keeping foreign JSON from masquerading as a manifest.
STORE_KIND = "repro-cache-store"

MANIFEST_NAME = "MANIFEST.json"


@dataclass(slots=True)
class _Live:
    """Folded per-digest state: where the entry's ``put`` line lives, plus
    its usage metadata.  The payload itself stays on disk."""

    segment: str
    offset: int
    hits: int
    last_ts: float


@dataclass
class _SegmentInfo:
    """Per-file bookkeeping for ``repro cache segments`` and stats."""

    name: str
    records: int = 0
    puts: int = 0
    hit_records: int = 0
    bytes: int = 0
    sealed: bool = True

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class CompactionReport:
    """What one ``compact()``/``gc()`` run did, for CLI and tests."""

    kept_entries: int
    dropped_entries: int
    dropped_records: int
    segments_before: int
    segments_after: int
    bytes_before: int
    bytes_after: int
    segment: Optional[str]
    orphans_removed: int = 0


class SegmentStore:
    """A directory of JSONL segments behind one digest → entry map.

    Opening folds every sealed segment (strictly — they were written
    atomically) and then the active segment (leniently — a crash
    mid-append leaves a truncated tail line, which is dropped and
    repaired by truncating the file).  All mutation runs under an
    advisory ``flock`` on a sibling ``.lock`` file so concurrent
    workers sharing one store append instead of clobbering.

    Memory holds an index, digest → (segment, byte offset) of the
    entry's ``put`` line, not the payloads: :meth:`payload` reads one
    line, and :meth:`entries`, compaction and adoption read each
    segment they need once.
    """

    def __init__(self, root: Union[str, Path], *, create: bool = True) -> None:
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise AlgorithmError(
                f"cache path {self.root} is a file, not a store directory; "
                "migrate a schema <= 2 cache file with `python -m repro "
                f"cache merge --out DIR {self.root}` and pass DIR instead"
            )
        if not self.root.exists():
            if not create:
                raise AlgorithmError(f"cache store {self.root} does not exist")
            self.root.mkdir(parents=True, exist_ok=True)
        elif not create and not (
            (self.root / MANIFEST_NAME).exists()
            or (self.root / ACTIVE_SEGMENT).exists()
        ):
            # Strict tooling (`repro cache stats DIR`, merge sources)
            # must not read an arbitrary directory as an empty store.
            raise AlgorithmError(
                f"{self.root} is not a cache store (no {MANIFEST_NAME})"
            )
        self._live: dict[str, _Live] = {}
        self._sealed: list[_SegmentInfo] = []
        self._active = _SegmentInfo(name=ACTIVE_SEGMENT, sealed=False)
        self._manifest_segments: list[str] = []
        self.compactions = 0
        self.total_records = 0
        self.dropped_tail = 0
        self.appended_records = 0
        self._load()

    # -- open ----------------------------------------------------------

    def _manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    def _read_manifest(self) -> None:
        path = self._manifest_path()
        if not path.exists():
            return  # fresh store: no segments yet
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise AlgorithmError(
                f"cache store manifest {path} is unreadable: {exc}"
            ) from exc
        if not isinstance(manifest, dict) or manifest.get("kind") != STORE_KIND:
            raise AlgorithmError(f"{path} is not a cache store manifest")
        schema = manifest.get("schema")
        if schema != STORE_SCHEMA_VERSION:
            raise AlgorithmError(
                f"cache store {self.root} has schema {schema!r}; this "
                f"version reads schema {STORE_SCHEMA_VERSION} only"
            )
        segments = manifest.get("segments")
        if not isinstance(segments, list) or not all(
            isinstance(name, str) for name in segments
        ):
            raise AlgorithmError(f"{path} has a malformed segment list")
        self._manifest_segments = list(segments)
        compactions = manifest.get("compactions", 0)
        self.compactions = compactions if isinstance(compactions, int) else 0

    def _load(self) -> None:
        self._read_manifest()
        for name in self._manifest_segments:
            located, _ = scan_segment(self.root / name)
            info = _SegmentInfo(
                name=name, bytes=(self.root / name).stat().st_size
            )
            self._fold(located, info)
            self._sealed.append(info)
        active = self.root / ACTIVE_SEGMENT
        if active.exists():
            located, truncated_at = scan_segment(active, lenient_tail=True)
            if truncated_at is not None:
                # Repair: drop the half-written tail so later appends
                # start on a clean line boundary instead of gluing new
                # bytes onto the partial record.
                self.dropped_tail += 1
                with self._lock():
                    with open(active, "r+b") as handle:
                        handle.truncate(truncated_at)
            self._active.bytes = active.stat().st_size
            self._fold(located, self._active)

    def _fold(
        self, located: Sequence[tuple[int, dict]], info: _SegmentInfo
    ) -> None:
        """Apply ``(offset, record)`` pairs read from or written to
        ``info``'s file to the live map, and charge them to ``info``."""
        for offset, record in located:
            digest = record["digest"]
            live = self._live.get(digest)
            if record["op"] == "put":
                info.puts += 1
                if live is None:
                    self._live[digest] = _Live(
                        info.name, offset, record["hits"], float(record["ts"])
                    )
                else:
                    # Duplicate put (another worker raced the insert, or
                    # a merge re-adopted): first entry wins — digests pin
                    # the full solve configuration, so payloads agree —
                    # and the usage metadata folds.
                    live.hits += record["hits"]
                    live.last_ts = max(live.last_ts, float(record["ts"]))
            else:
                info.hit_records += 1
                if live is not None:
                    live.hits += record["count"]
                    live.last_ts = max(live.last_ts, float(record["ts"]))
        info.records += len(located)
        self.total_records += len(located)

    # -- locking -------------------------------------------------------

    @contextmanager
    def _lock(self):
        """Advisory exclusive lock shared by every writer of this store.

        The lock file is never deleted — unlinking a lock file is the
        classic race (a waiter can hold the lock of an unlinked inode
        while a newcomer locks a fresh file).
        """
        if fcntl is None:
            yield
            return
        with open(self.root / ".lock", "w", encoding="utf-8") as lock_file:
            fcntl.flock(lock_file, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(lock_file, fcntl.LOCK_UN)

    def _write_manifest(self) -> None:
        manifest = {
            "schema": STORE_SCHEMA_VERSION,
            "kind": STORE_KIND,
            "segments": self._manifest_segments,
            "compactions": self.compactions,
        }
        tmp = self.root / f"{MANIFEST_NAME}.tmp.{os.getpid()}"
        tmp.write_text(json.dumps(manifest, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self._manifest_path())

    # -- append --------------------------------------------------------

    def append(
        self,
        puts: Iterable[tuple[str, dict]] = (),
        hits: Iterable[tuple[str, int]] = (),
        *,
        ts: Optional[float] = None,
    ) -> int:
        """Append insert/hit records to the active segment — O(new).

        ``puts`` are ``(digest, entry)`` pairs, ``hits`` are
        ``(digest, count)`` pairs.  Returns the number of records
        written.  The in-memory view folds the same records, and the
        manifest is materialised on first write so a store directory
        becomes self-describing as soon as it holds data.
        """
        stamp = time.time() if ts is None else float(ts)
        records = [put_record(digest, entry, ts=stamp) for digest, entry in puts]
        records += [
            hit_record(digest, count=count, ts=stamp)
            for digest, count in hits
            if count > 0
        ]
        return self._append_records(records)

    def _append_records(self, records: list[dict]) -> int:
        if not records:
            return 0
        lines = [encode_record(record).encode("utf-8") for record in records]
        with self._lock():
            offset = append_lines(self.root / ACTIVE_SEGMENT, lines)
            if not self._manifest_path().exists():
                self._write_manifest()
        located = []
        for line, record in zip(lines, records):
            located.append((offset, record))
            offset += len(line)
        self._fold(located, self._active)
        self._active.bytes += sum(map(len, lines))
        self.appended_records += len(records)
        return len(records)

    # -- read ----------------------------------------------------------

    def payload(self, digest: str) -> Optional[dict]:
        """The entry stored under ``digest``, read from its one segment
        line; ``None`` when absent or no longer readable (another
        process compacted the store away under this one)."""
        live = self._live.get(digest)
        if live is None:
            return None
        try:
            with open(self.root / live.segment, "rb") as handle:
                handle.seek(live.offset)
                line = handle.readline()
        except OSError:
            return None
        return _entry_of(record_at(line, 0), digest)

    def entries(self) -> dict[str, dict]:
        """Digest → entry payload for every live entry (fold order)."""
        return self._payloads(self._live)

    def _payloads(self, digests: Iterable[str]) -> dict[str, dict]:
        """Digest → payload for ``digests``, reading each segment once;
        unreadable entries (see :meth:`payload`) are skipped."""
        blobs: dict[str, bytes] = {}
        out: dict[str, dict] = {}
        for digest in digests:
            live = self._live.get(digest)
            if live is None:
                continue
            blob = blobs.get(live.segment)
            if blob is None:
                try:
                    blob = (self.root / live.segment).read_bytes()
                except OSError:
                    blob = b""
                blobs[live.segment] = blob
            entry = _entry_of(record_at(blob, live.offset), digest)
            if entry is not None:
                out[digest] = entry
        return out

    def entry_meta(self) -> dict[str, tuple[int, float]]:
        """Digest → ``(hits, last_ts)`` usage metadata for every live entry."""
        return {
            digest: (live.hits, live.last_ts)
            for digest, live in self._live.items()
        }

    def __len__(self) -> int:
        return len(self._live)

    def __contains__(self, digest: str) -> bool:
        return digest in self._live

    def newest_ts(self) -> Optional[float]:
        if not self._live:
            return None
        return max(live.last_ts for live in self._live.values())

    def oldest_ts(self) -> Optional[float]:
        if not self._live:
            return None
        return min(live.last_ts for live in self._live.values())

    def _infos(self) -> list[_SegmentInfo]:
        infos = list(self._sealed)
        if self._active.records or (self.root / ACTIVE_SEGMENT).exists():
            infos.append(self._active)
        return infos

    def disk_bytes(self) -> int:
        return sum(info.bytes for info in self._infos())

    def segment_infos(self) -> list[dict]:
        """Per-segment breakdown (sealed first, active last)."""
        return [info.as_dict() for info in self._infos()]

    def stats(self) -> dict:
        """Store counters, merged into :meth:`ResultCache.stats` and
        surfaced by ``/healthz`` and ``repro cache stats``."""
        return {
            "segments": len(self._infos()),
            "live_entries": len(self._live),
            "dead_records": self.total_records - len(self._live),
            "store_bytes": self.disk_bytes(),
            "compactions": self.compactions,
            "appended_records": self.appended_records,
        }

    # -- retention -----------------------------------------------------

    def _ranked(self) -> list[str]:
        """Every live digest, best-to-keep first (total, deterministic)."""
        return sorted(
            self._live,
            key=lambda digest: (
                -self._live[digest].hits,
                -self._live[digest].last_ts,
                digest,
            ),
        )

    def select(self, policy=None, *, now: Optional[float] = None) -> list[str]:
        """Digests the retention ``policy`` keeps, in digest order.

        ``policy`` is a :class:`repro.config.CacheConfig` (any object
        with its ``max_entries``/``max_bytes``/``max_age``; ``None``
        keeps every live entry).  Entries are ranked most-frequently-
        hit first, most-recently-used to break ties, digest order last
        — a total, deterministic order:

        * ``max_age`` drops entries whose last use is more than this
          many seconds older than the *newest* record in the store
          (not the wall clock, so the same inputs always age the same
          way; pass ``now=`` for wall-clock expiry).
        * ``max_entries`` keeps the best-ranked N entries.
        * ``max_bytes`` keeps the best-ranked prefix whose encoded
          compacted records fit the budget.
        """
        if policy is None:
            return sorted(self._live)
        max_age, max_entries = policy.max_age, policy.max_entries
        reference = self.newest_ts() if now is None else float(now)
        kept: list[str] = []
        budget = policy.max_bytes
        ranked = self._ranked()
        lines = self._compacted_lines(ranked) if budget is not None else {}
        for digest in ranked:
            live = self._live[digest]
            if (
                max_age is not None
                and reference is not None
                and reference - live.last_ts > max_age
            ):
                continue
            if max_entries is not None and len(kept) >= max_entries:
                break
            if budget is not None:
                cost = len(lines.get(digest, "").encode("utf-8"))
                if cost > budget:
                    continue
                budget -= cost
            kept.append(digest)
        return sorted(kept)

    def _compacted_lines(self, digests: Sequence[str]) -> dict[str, str]:
        """Digest → canonical compacted ``put`` line, for the readable
        entries among ``digests``."""
        out = {}
        for digest, payload in self._payloads(digests).items():
            live = self._live[digest]
            out[digest] = encode_record(
                put_record(digest, payload, ts=live.last_ts, hits=live.hits)
            )
        return out

    # -- compaction ----------------------------------------------------

    def compact(self, policy=None, *, now: Optional[float] = None) -> CompactionReport:
        """Fold every segment into one, under the retention ``policy``
        (see :meth:`select`).

        Deterministic and idempotent: the output segment's bytes are a
        pure function of the live entry state and the policy (entries
        are written in digest order, timestamps are carried over, the
        age reference defaults to the newest record in the store), and
        its name is the hash of those bytes — so compacting an
        already-compacted store changes nothing, byte for byte.
        """
        bytes_before = self.disk_bytes()
        segments_before = len(self._infos())
        records_before = self.total_records
        entries_before = len(self._live)
        lines = self._compacted_lines(self.select(policy, now=now))
        kept = sorted(lines)
        encoded = [lines[digest].encode("utf-8") for digest in kept]
        blob = b"".join(encoded)
        with self._lock():
            old_files = [info.name for info in self._infos()]
            if kept:
                name: Optional[str] = segment_name(blob)
                tmp = self.root / f"{name}.tmp.{os.getpid()}"
                tmp.write_bytes(blob)
                os.replace(tmp, self.root / name)
                self._manifest_segments = [name]
            else:
                name = None
                self._manifest_segments = []
            self.compactions += 1
            self._write_manifest()
            for old in old_files:
                if old != name:
                    try:
                        (self.root / old).unlink()
                    except OSError:
                        pass
        live, offset = {}, 0
        for digest, line in zip(kept, encoded):
            old = self._live[digest]
            live[digest] = _Live(name, offset, old.hits, old.last_ts)
            offset += len(line)
        self._live = live
        self.total_records = len(kept)
        self._sealed = (
            [
                _SegmentInfo(
                    name=name, records=len(kept), puts=len(kept),
                    bytes=len(blob),
                )
            ]
            if name is not None
            else []
        )
        self._active = _SegmentInfo(name=ACTIVE_SEGMENT, sealed=False)
        return CompactionReport(
            kept_entries=len(kept),
            dropped_entries=entries_before - len(kept),
            dropped_records=records_before - len(kept),
            segments_before=segments_before,
            segments_after=len(self._sealed),
            bytes_before=bytes_before,
            bytes_after=len(blob),
            segment=name,
        )

    def gc(self) -> CompactionReport:
        """Drop dead records and orphan files; keep every live entry.

        ``gc`` is compaction without a retention policy, plus a sweep
        for ``*.jsonl`` files the manifest no longer references (left
        by a crash between segment write and manifest replace).
        """
        report = self.compact(None)
        referenced = {info.name for info in self._infos()}
        referenced.add(ACTIVE_SEGMENT)
        orphans = 0
        with self._lock():
            for path in self.root.glob(f"*{SEGMENT_SUFFIX}"):
                if path.name not in referenced:
                    try:
                        path.unlink()
                        orphans += 1
                    except OSError:
                        pass
        if orphans:
            report = dataclasses.replace(report, orphans_removed=orphans)
        return report

    def adopt_segments(self, other: "SegmentStore") -> int:
        """Concatenate another store's records into this one.

        The merge primitive: adopting appends the other store's live
        entries (with their folded usage metadata) as ``put`` records —
        segment concatenation — after which one deterministic
        :meth:`compact` yields the canonical merged segment.  Entries
        already present fold as duplicate puts (ours win; their hit
        counts still accumulate).  Returns the records appended.
        """
        records = [
            put_record(
                digest, payload,
                ts=other._live[digest].last_ts, hits=other._live[digest].hits,
            )
            for digest, payload in other.entries().items()
        ]
        return self._append_records(records)

    def clear(self) -> None:
        """Drop every segment and entry; the manifest survives, empty."""
        with self._lock():
            for info in self._infos():
                try:
                    (self.root / info.name).unlink()
                except OSError:
                    pass
            self._manifest_segments = []
            self._write_manifest()
        self._live = {}
        self._sealed = []
        self._active = _SegmentInfo(name=ACTIVE_SEGMENT, sealed=False)
        self.total_records = 0


def _entry_of(record: Optional[dict], digest: str) -> Optional[dict]:
    """The entry of ``digest``'s ``put`` record, or ``None`` when the line
    read holds something else (its file was rewritten underneath)."""
    if (
        record is not None
        and record.get("op") == "put"
        and record.get("digest") == digest
        and isinstance(record.get("entry"), dict)
    ):
        return record["entry"]
    return None


__all__ = [
    "CompactionReport",
    "MANIFEST_NAME",
    "STORE_KIND",
    "STORE_SCHEMA_VERSION",
    "SegmentStore",
]
