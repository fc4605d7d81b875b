"""JSONL segment records: the append-only unit of the cache store.

A segment is a plain-text file of newline-terminated JSON records, one
per line, in the spirit of pod's accountable append-only log: writers
only ever *append*, so persisting a new cache entry is O(1) in the
size of the store instead of a rewrite of the world.  Two record kinds
exist:

``put``
    ``{"digest": d, "entry": {...}, "hits": h, "op": "put", "ts": t}``
    — a cache entry keyed by its :meth:`~repro.exec.cache.CacheKey.
    digest`.  ``hits`` carries accumulated hit counts forward through
    compaction; a fresh insert writes ``hits = 0``.

``hit``
    ``{"count": k, "digest": d, "op": "hit", "ts": t}`` — ``k`` cache
    hits against an entry persisted earlier.  Pure metadata: it never
    resurrects a dropped entry, but it is what lets the retention
    policy keep the most-frequently / most-recently used entries.

Records are encoded canonically (sorted keys, no whitespace), so a
segment's bytes are a pure function of its record sequence — the
property :meth:`repro.store.store.SegmentStore.compact` leans on for
byte-identical deterministic output.

Crash safety: an append is one ``write()`` of a newline-terminated
line.  A crash mid-append leaves a *truncated tail line* (no trailing
newline, or unparsable bytes at EOF); :func:`read_segment` in lenient
mode drops exactly that tail and reports it, so a crashed worker's
store opens clean with every complete record intact.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable, Optional, Union

from ..errors import AlgorithmError

#: Suffix every segment file (sealed and active) carries.
SEGMENT_SUFFIX = ".jsonl"

#: The mutable segment new records are appended to.  Not listed in the
#: manifest — its presence is implicit and it is folded in last.
ACTIVE_SEGMENT = "active" + SEGMENT_SUFFIX


def encode_record(record: dict) -> str:
    """One canonical JSONL line (newline-terminated) for ``record``."""
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def put_record(
    digest: str, entry: dict, *, ts: float, hits: int = 0
) -> dict:
    return {"digest": digest, "entry": entry, "hits": hits, "op": "put", "ts": ts}


def hit_record(digest: str, *, count: int, ts: float) -> dict:
    return {"count": count, "digest": digest, "op": "hit", "ts": ts}


def validate_record(record: object, where: str) -> dict:
    """Check one decoded record's shape; raise :class:`AlgorithmError`."""
    if not isinstance(record, dict):
        raise AlgorithmError(f"{where}: record is not an object: {record!r}")
    op = record.get("op")
    if op not in ("put", "hit"):
        raise AlgorithmError(f"{where}: unknown record op {op!r}")
    if not isinstance(record.get("digest"), str) or not record["digest"]:
        raise AlgorithmError(f"{where}: record has no digest")
    if not isinstance(record.get("ts"), (int, float)):
        raise AlgorithmError(f"{where}: record has no timestamp")
    if op == "put":
        if not isinstance(record.get("entry"), dict):
            raise AlgorithmError(f"{where}: put record has no entry object")
        if not isinstance(record.get("hits"), int) or record["hits"] < 0:
            raise AlgorithmError(f"{where}: put record has a bad hits count")
    else:
        if not isinstance(record.get("count"), int) or record["count"] < 1:
            raise AlgorithmError(f"{where}: hit record has a bad count")
    return record


def read_segment(
    path: Union[str, Path], *, lenient_tail: bool = False
) -> tuple[list[dict], Optional[int]]:
    """Decode one segment file into its records.

    Returns ``(records, truncated_at)``; see :func:`scan_segment`.
    """
    located, truncated_at = scan_segment(path, lenient_tail=lenient_tail)
    return [record for _offset, record in located], truncated_at


def scan_segment(
    path: Union[str, Path], *, lenient_tail: bool = False
) -> tuple[list[tuple[int, dict]], Optional[int]]:
    """Decode one segment file into ``(byte offset, record)`` pairs.

    Returns ``(located, truncated_at)``.  With ``lenient_tail`` (the
    *active* segment — the only file a crash can leave half-written) a
    final line that is missing its newline or fails to parse is
    dropped and its byte offset returned, so the caller can repair the
    file by truncating it there.  Sealed segments are read strictly:
    they were written atomically, so any damage means the file is not
    ours and silently dropping records would corrupt the store.
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise AlgorithmError(f"cannot read segment {path}: {exc}") from exc
    located: list[tuple[int, dict]] = []
    offset = 0
    while offset < len(blob):
        newline = blob.find(b"\n", offset)
        is_tail = newline < 0
        line = blob[offset:] if is_tail else blob[offset:newline]
        where = f"segment {path.name} @ byte {offset}"
        try:
            decoded = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            decoded = None
        if decoded is None or is_tail:
            # No trailing newline, or undecodable bytes: a crash
            # mid-append if (and only if) this is the file's tail.
            if lenient_tail and (is_tail or newline == len(blob) - 1):
                return located, offset
            raise AlgorithmError(
                f"{where}: truncated or corrupt record"
                + ("" if is_tail else f" {line[:80]!r}")
            )
        located.append((offset, validate_record(decoded, where)))
        offset = newline + 1
    return located, None


def record_at(blob: bytes, offset: int) -> Optional[dict]:
    """The record whose line starts at ``offset`` of ``blob``, or ``None``
    when no complete, decodable line starts there."""
    newline = blob.find(b"\n", offset)
    if newline < 0:
        return None
    try:
        record = json.loads(blob[offset:newline].decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None
    return record if isinstance(record, dict) else None


def append_lines(path: Union[str, Path], lines: Iterable[bytes]) -> int:
    """Append encoded lines to ``path`` in one write; returns the byte
    offset the first line landed at (the file's size before the write)."""
    blob = b"".join(lines)
    with open(path, "ab") as handle:
        start = handle.seek(0, 2)
        handle.write(blob)
    return start


def segment_name(content: bytes) -> str:
    """Content-addressed name for a sealed segment.

    Naming sealed segments by their content hash makes compaction
    idempotent at the *file* level too: re-compacting an already
    compacted store produces the same bytes, hence the same name, and
    the store's layout is observably unchanged.
    """
    return f"seg-{hashlib.sha256(content).hexdigest()[:16]}{SEGMENT_SUFFIX}"


__all__ = [
    "ACTIVE_SEGMENT",
    "SEGMENT_SUFFIX",
    "append_lines",
    "encode_record",
    "hit_record",
    "put_record",
    "read_segment",
    "record_at",
    "scan_segment",
    "segment_name",
    "validate_record",
]
