"""P6 — cache store: per-entry appends and warm-start parse time.

Not a paper claim: this measures the persistence tier behind
``ResultCache``, the segment store (``repro.store``).  A flush appends
the new records to the active segment, so persisting one more entry is
O(1) in the store size — the pattern of a long-lived ``repro serve``
worker, one small batch per request.

**What is measured.**  A store is preloaded with ``BASE_ENTRIES``
synthetic entries, then ``TAIL_ENTRIES`` more are persisted one flush
at a time against a cache already holding ~5k entries.  The store's
entry map is asserted equal to the map the same puts build in
process, so the append path can never drop or alter data.

The second table times warm-start parsing: the read-only schema-2
single-file reader (``load_cache_file`` on a file holding the same
map — the format earlier releases wrote, kept as the reference row),
the uncompacted store (its log bloated by per-entry hit records — the
shape a long-lived worker's store grows into), and the same store
after ``compact()`` folded the log to one put record per entry.
Compaction determinism and idempotence are asserted on the way
(compacting twice yields the same content-addressed segment), and the
compacted store must still hold the full map.
"""

import json
import time

from conftest import run_once

from repro.analysis import format_table
from repro.api import CutResult
from repro.exec import CACHE_SCHEMA_VERSION, CacheKey, ResultCache
from repro.exec.cache import load_cache_file
from repro.store import SegmentStore

BASE_ENTRIES = 4800
TAIL_ENTRIES = 200  # appended one flush at a time, at ~5k entries held
HIT_ROUNDS = 2      # per-entry hit records bloating the uncompacted log


def _key(i):
    return CacheKey(
        graph_hash=f"h{i:05d}", solver="fake", epsilon=None,
        mode="reference", seed=0, budget=None,
    )


def _result(i):
    return CutResult(value=float(i % 97), side=frozenset({0, i % 13}))


def _persist_tail(cache):
    """The service pattern: one small flush per persisted entry."""
    started = time.perf_counter()
    for i in range(BASE_ENTRIES, BASE_ENTRIES + TAIL_ENTRIES):
        cache.put(_key(i), _result(i), flush=True)
    return time.perf_counter() - started


def _parse_time(opener):
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        opened = opener()
        best = min(best, time.perf_counter() - started)
    return best, opened


def _experiment(tmp_path):
    store_path = tmp_path / "cache_store"
    total = BASE_ENTRIES + TAIL_ENTRIES
    expected = {
        _key(i).digest(): _result(i).to_json(strict=True) for i in range(total)
    }

    cache = ResultCache(maxsize=8192, path=store_path)
    for i in range(BASE_ENTRIES):
        cache.put(_key(i), _result(i), flush=False)
    cache.flush()
    store_seconds = _persist_tail(cache)

    store = SegmentStore(store_path)
    assert store.entries() == expected  # the appends lost nothing

    # Bloat the store's log the way a long-lived worker does: usage
    # metadata appended per warm replay.
    for _ in range(HIT_ROUNDS):
        store.append([], [(digest, 1) for digest in expected])
    uncompacted_records = store.total_records
    uncompacted_bytes = store.disk_bytes()

    legacy = tmp_path / "legacy.json"
    legacy.write_text(
        json.dumps({"schema": CACHE_SCHEMA_VERSION, "entries": expected},
                   sort_keys=True),
        encoding="utf-8",
    )
    legacy_parse, legacy_entries = _parse_time(lambda: load_cache_file(legacy))
    assert legacy_entries == expected
    raw_parse, _ = _parse_time(lambda: SegmentStore(store_path))

    report = store.compact()
    again = SegmentStore(store_path).compact()
    assert again.segment == report.segment  # deterministic + idempotent
    compact_parse, compacted = _parse_time(lambda: SegmentStore(store_path))
    assert compacted.entries() == expected  # compaction kept the map

    return {
        "store_seconds": store_seconds,
        "legacy_bytes": legacy.stat().st_size,
        "uncompacted_records": uncompacted_records,
        "uncompacted_bytes": uncompacted_bytes,
        "compacted_bytes": report.bytes_after,
        "legacy_parse": legacy_parse,
        "raw_parse": raw_parse,
        "compact_parse": compact_parse,
    }


def test_p6_cache_store(benchmark, record_table, tmp_path):
    data = run_once(benchmark, lambda: _experiment(tmp_path))
    total = BASE_ENTRIES + TAIL_ENTRIES

    append_table = format_table(
        ["tier", "total s", "ms per entry"],
        [["segment store (append)", round(data["store_seconds"], 3),
          round(1e3 * data["store_seconds"] / TAIL_ENTRIES, 3)]],
        title=(
            f"P6 — persisting {TAIL_ENTRIES} entries one flush at a "
            f"time into a store of {total}"
        ),
    )
    warm_rows = [
        ["schema-2 file (read-only)", total, data["legacy_bytes"],
         round(1e3 * data["legacy_parse"], 2)],
        ["store, uncompacted", data["uncompacted_records"],
         data["uncompacted_bytes"], round(1e3 * data["raw_parse"], 2)],
        ["store, compacted", total, data["compacted_bytes"],
         round(1e3 * data["compact_parse"], 2)],
    ]
    warm_table = format_table(
        ["warm-start source", "records", "bytes", "parse ms"],
        warm_rows,
        title=(
            f"warm-start parse time ({total} live entries; uncompacted "
            f"log carries {HIT_ROUNDS} hit records per entry, "
            "compaction folds to one put per entry — byte-identical "
            "and idempotent, asserted)"
        ),
    )
    record_table("P6_cache_store", f"{append_table}\n\n{warm_table}")
