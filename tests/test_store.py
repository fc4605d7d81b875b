"""Segmented cache store: crash safety, deterministic compaction, merge.

The subsystem's three contracts, exercised directly against
:mod:`repro.store` and through :class:`repro.exec.cache.ResultCache`:

* **append-only crash safety** — a truncated tail line (crash
  mid-append) is dropped and repaired on open, never corrupting the
  complete records before it; sealed segments are read strictly;
* **deterministic, idempotent compaction** — the same records plus the
  same retention policy produce a byte-identical compacted segment, so
  compacting twice is a no-op and merge is segment concatenation
  followed by one compact;
* **schema migration** — schema ≤ 2 cache files merge into a schema-3
  store with the exact same entry map (``repro cache merge`` is the
  migration path), and newer/foreign manifests are refused, not
  half-read.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import AlgorithmError
from repro.exec import CACHE_SCHEMA_VERSION, ResultCache
from repro.exec.cache import load_cache_file
from repro.store import (
    ACTIVE_SEGMENT,
    MANIFEST_NAME,
    RetentionPolicy,
    STORE_KIND,
    STORE_SCHEMA_VERSION,
    SegmentStore,
    is_store_path,
    read_segment,
)


def entry(i):
    """A minimal cache-entry payload, distinguishable by ``i``."""
    return {"value": float(i), "solver": "fake"}


def fill(store, count, *, ts=100.0):
    store.append([(f"d{i:04d}", entry(i)) for i in range(count)], ts=ts)


class TestSegmentReading:
    def test_round_trip(self, tmp_path):
        store = SegmentStore(tmp_path / "st")
        store.append([("a", entry(1))], [("a", 2)], ts=5.0)
        records, truncated = read_segment(tmp_path / "st" / ACTIVE_SEGMENT)
        assert truncated is None
        assert [r["op"] for r in records] == ["put", "hit"]
        assert records[0]["entry"] == entry(1)
        assert records[1]["count"] == 2

    def test_truncated_tail_dropped_and_repaired(self, tmp_path):
        store = SegmentStore(tmp_path / "st")
        store.append([("a", entry(1)), ("b", entry(2))], ts=1.0)
        active = tmp_path / "st" / ACTIVE_SEGMENT
        intact = active.read_bytes()
        # Crash mid-append: half of a third record, no newline.
        active.write_bytes(intact + b'{"digest": "c", "en')

        reopened = SegmentStore(tmp_path / "st")
        assert set(reopened.entries()) == {"a", "b"}
        assert reopened.dropped_tail == 1
        # Repair-by-truncate: the file is back on a line boundary, so a
        # later append cannot glue onto the partial record.
        assert active.read_bytes() == intact
        reopened.append([("c", entry(3))], ts=2.0)
        assert set(SegmentStore(tmp_path / "st").entries()) == {"a", "b", "c"}

    def test_mid_file_corruption_is_an_error_even_leniently(self, tmp_path):
        store = SegmentStore(tmp_path / "st")
        store.append([("a", entry(1)), ("b", entry(2))], ts=1.0)
        active = tmp_path / "st" / ACTIVE_SEGMENT
        lines = active.read_bytes().splitlines(keepends=True)
        active.write_bytes(b"garbage\n" + lines[1])
        with pytest.raises(AlgorithmError, match="truncated or corrupt"):
            SegmentStore(tmp_path / "st")

    def test_sealed_segments_read_strictly(self, tmp_path):
        store = SegmentStore(tmp_path / "st")
        fill(store, 3)
        report = store.compact()
        sealed = tmp_path / "st" / report.segment
        sealed.write_bytes(sealed.read_bytes()[:-10])  # damage the tail
        with pytest.raises(AlgorithmError, match="truncated or corrupt"):
            SegmentStore(tmp_path / "st")

    def test_malformed_record_shapes_rejected(self, tmp_path):
        store = SegmentStore(tmp_path / "st")
        active = tmp_path / "st" / ACTIVE_SEGMENT
        for bad in (
            '{"op": "frob", "digest": "a", "ts": 1}',
            '{"op": "put", "digest": "", "entry": {}, "hits": 0, "ts": 1}',
            '{"op": "put", "digest": "a", "entry": [], "hits": 0, "ts": 1}',
            '{"op": "hit", "digest": "a", "count": 0, "ts": 1}',
            '"just a string"',
        ):
            active.write_text(bad + "\n", encoding="utf-8")
            with pytest.raises(AlgorithmError):
                read_segment(active)
        del store


class TestManifest:
    def test_written_on_first_append(self, tmp_path):
        store = SegmentStore(tmp_path / "st")
        assert not (tmp_path / "st" / MANIFEST_NAME).exists()
        store.append([("a", entry(1))], ts=1.0)
        manifest = json.loads(
            (tmp_path / "st" / MANIFEST_NAME).read_text(encoding="utf-8")
        )
        assert manifest["schema"] == STORE_SCHEMA_VERSION
        assert manifest["kind"] == STORE_KIND
        assert manifest["segments"] == []  # active segment is implicit

    def test_newer_schema_refused(self, tmp_path):
        root = tmp_path / "st"
        root.mkdir()
        (root / MANIFEST_NAME).write_text(
            json.dumps({"schema": 99, "kind": STORE_KIND, "segments": []}),
            encoding="utf-8",
        )
        with pytest.raises(AlgorithmError, match="schema 99"):
            SegmentStore(root)

    def test_foreign_manifest_refused(self, tmp_path):
        root = tmp_path / "st"
        root.mkdir()
        (root / MANIFEST_NAME).write_text(
            json.dumps({"schema": 3, "entries": {}}), encoding="utf-8"
        )
        with pytest.raises(AlgorithmError, match="not a cache store"):
            SegmentStore(root)

    def test_plain_directory_not_opened_without_create(self, tmp_path):
        (tmp_path / "not_a_store").mkdir()
        with pytest.raises(AlgorithmError, match="not a cache store"):
            SegmentStore(tmp_path / "not_a_store", create=False)

    def test_is_store_path_conventions(self, tmp_path):
        assert is_store_path(tmp_path)                      # existing dir
        assert is_store_path(tmp_path / "cache_store")      # no suffix
        assert not is_store_path(tmp_path / "cache.json")   # file suffix
        file_path = tmp_path / "weird"
        file_path.write_text("x", encoding="utf-8")
        assert not is_store_path(file_path)                 # existing file


class TestCompaction:
    def test_deterministic_across_append_batching(self, tmp_path):
        # Same records, different append granularity -> byte-identical
        # compacted segments with identical (content-addressed) names.
        one = SegmentStore(tmp_path / "one")
        one.append(
            [(f"d{i}", entry(i)) for i in range(6)],
            [("d1", 3), ("d4", 1)],
            ts=10.0,
        )
        two = SegmentStore(tmp_path / "two")
        for i in range(6):
            two.append([(f"d{i}", entry(i))], ts=10.0)
        two.append([], [("d1", 2)], ts=10.0)
        two.append([], [("d1", 1), ("d4", 1)], ts=10.0)

        policy = RetentionPolicy(max_entries=4)
        report_one = one.compact(policy)
        report_two = two.compact(policy)
        assert report_one.segment == report_two.segment
        assert (
            (tmp_path / "one" / report_one.segment).read_bytes()
            == (tmp_path / "two" / report_two.segment).read_bytes()
        )

    def test_idempotent(self, tmp_path):
        store = SegmentStore(tmp_path / "st")
        fill(store, 8)
        store.append([], [("d0003", 5)], ts=200.0)
        first = store.compact(RetentionPolicy(max_entries=5))
        blob = (tmp_path / "st" / first.segment).read_bytes()
        second = store.compact(RetentionPolicy(max_entries=5))
        assert second.segment == first.segment
        assert (tmp_path / "st" / second.segment).read_bytes() == blob
        assert second.dropped_entries == 0
        assert second.dropped_records == 0
        # And a third time from a fresh open (on-disk state only).
        third = SegmentStore(tmp_path / "st").compact(
            RetentionPolicy(max_entries=5)
        )
        assert third.segment == first.segment

    def test_compaction_folds_dead_records(self, tmp_path):
        store = SegmentStore(tmp_path / "st")
        fill(store, 4)
        store.append([], [(f"d{i:04d}", 1) for i in range(4)], ts=150.0)
        assert store.stats()["dead_records"] == 4  # the hit records
        report = store.compact()
        assert report.kept_entries == 4
        assert store.stats()["dead_records"] == 0
        # Hit metadata survived the fold.
        assert all(hits == 1 for hits, _ in store.entry_meta().values())

    def test_empty_selection_leaves_no_segments(self, tmp_path):
        store = SegmentStore(tmp_path / "st")
        fill(store, 3)
        report = store.compact(RetentionPolicy(max_entries=0))
        assert report.segment is None
        assert report.kept_entries == 0
        assert len(SegmentStore(tmp_path / "st")) == 0

    def test_gc_removes_orphan_segments(self, tmp_path):
        store = SegmentStore(tmp_path / "st")
        fill(store, 3)
        orphan = tmp_path / "st" / "seg-deadbeefdeadbeef.jsonl"
        orphan.write_text("", encoding="utf-8")
        report = store.gc()
        assert report.orphans_removed == 1
        assert not orphan.exists()
        assert report.kept_entries == 3  # gc never drops live entries


class TestRetentionPolicy:
    def test_validation(self):
        with pytest.raises(AlgorithmError, match="max_entries"):
            RetentionPolicy(max_entries=-1)
        with pytest.raises(AlgorithmError, match="max_bytes"):
            RetentionPolicy(max_bytes=-1)
        with pytest.raises(AlgorithmError, match="max_age"):
            RetentionPolicy(max_age=-0.5)

    def test_most_frequently_hit_win(self, tmp_path):
        store = SegmentStore(tmp_path / "st")
        fill(store, 4)
        store.append([], [("d0002", 5), ("d0000", 2)], ts=100.0)
        kept = store.select(RetentionPolicy(max_entries=2))
        assert kept == ["d0000", "d0002"]

    def test_recency_breaks_hit_ties(self, tmp_path):
        store = SegmentStore(tmp_path / "st")
        store.append([("old", entry(1))], ts=10.0)
        store.append([("new", entry(2))], ts=20.0)
        assert store.select(RetentionPolicy(max_entries=1)) == ["new"]

    def test_max_age_measured_from_newest_record(self, tmp_path):
        store = SegmentStore(tmp_path / "st")
        store.append([("stale", entry(1))], ts=100.0)
        store.append([("fresh", entry(2))], ts=500.0)
        assert store.select(RetentionPolicy(max_age=1000.0)) == [
            "fresh",
            "stale",
        ]
        assert store.select(RetentionPolicy(max_age=100.0)) == ["fresh"]
        # Explicit wall-clock reference for expiry-style sweeps.
        assert store.select(RetentionPolicy(max_age=100.0), now=700.0) == []

    def test_max_bytes_budget(self, tmp_path):
        store = SegmentStore(tmp_path / "st")
        fill(store, 6)
        line_cost = len(store._compacted_lines(["d0000"])["d0000"].encode("utf-8"))
        kept = store.select(RetentionPolicy(max_bytes=3 * line_cost))
        assert len(kept) == 3
        report = store.compact(RetentionPolicy(max_bytes=3 * line_cost))
        assert report.bytes_after <= 3 * line_cost


class TestMergeAndMigration:
    def test_adopt_segments_then_compact_is_deterministic(self, tmp_path):
        a = SegmentStore(tmp_path / "a")
        a.append([("x", entry(1)), ("y", entry(2))], [("x", 4)], ts=10.0)
        b = SegmentStore(tmp_path / "b")
        b.append([("y", entry(2)), ("z", entry(3))], [("z", 1)], ts=20.0)

        ab = SegmentStore(tmp_path / "ab")
        ab.adopt_segments(a)
        ab.adopt_segments(b)
        ba = SegmentStore(tmp_path / "ba")
        ba.adopt_segments(b)
        ba.adopt_segments(a)

        assert ab.entries() == ba.entries() == {
            "x": entry(1), "y": entry(2), "z": entry(3),
        }
        # Usage metadata folds across stores: y exists in both.
        assert ab.entry_meta()["x"] == (4, 10.0)
        assert ab.entry_meta()["y"][1] == 20.0
        report_ab = ab.compact()
        report_ba = ba.compact()
        assert report_ab.segment == report_ba.segment

    def test_schema2_file_migrates_via_merge_equivalently(self, tmp_path):
        # A schema-2 single-file cache merged into a store-backed cache
        # must yield the exact entry map the file loader reports.
        legacy = tmp_path / "legacy.json"
        entries = {f"d{i}": entry(i) for i in range(5)}
        legacy.write_text(
            json.dumps({"schema": CACHE_SCHEMA_VERSION, "entries": entries}),
            encoding="utf-8",
        )
        cache = ResultCache(path=tmp_path / "migrated_store")
        counts = cache.merge_from(legacy)
        assert counts == 5 and counts.added == 5
        migrated = load_cache_file(tmp_path / "migrated_store")
        assert migrated == load_cache_file(legacy) == entries

    def test_unversioned_legacy_file_migrates_too(self, tmp_path):
        legacy = tmp_path / "bare.json"
        legacy.write_text(json.dumps({"d1": entry(1)}), encoding="utf-8")
        cache = ResultCache(path=tmp_path / "st")
        assert cache.merge_from(legacy) == 1
        assert SegmentStore(tmp_path / "st").entries() == {"d1": entry(1)}


# -- property-based round trip -------------------------------------------

digests = st.integers(min_value=0, max_value=11).map(lambda i: f"d{i:02d}")
operations = st.lists(
    st.one_of(
        st.tuples(st.just("put"), digests, st.integers(0, 99)),
        st.tuples(st.just("hit"), digests, st.integers(1, 4)),
        st.tuples(st.just("compact"), st.none(), st.none()),
    ),
    max_size=24,
)


class TestPropertyRoundTrip:
    @given(ops=operations)
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture,
                               HealthCheck.too_slow],
    )
    def test_append_compact_merge_preserve_entry_map(self, ops, tmp_path):
        """Any interleaving of appends/compactions preserves the fold.

        A shadow dict applies the same first-put-wins fold the store
        promises; after every operation — and after a crash-free
        reopen, an unbounded compact and a merge into a fresh store —
        the live entry map must equal the shadow.
        """
        import shutil

        root = tmp_path / "st"
        if root.exists():
            shutil.rmtree(root)
        store = SegmentStore(root)
        shadow = {}
        ts = 1.0
        for op, digest, arg in ops:
            ts += 1.0
            if op == "put":
                store.append([(digest, entry(arg))], ts=ts)
                shadow.setdefault(digest, entry(arg))
            elif op == "hit":
                store.append([], [(digest, arg)], ts=ts)
            else:
                store.compact()
            assert store.entries() == shadow
        assert SegmentStore(root).entries() == shadow  # reopen
        store.compact()
        assert store.entries() == shadow  # unbounded compact keeps all
        merged_root = tmp_path / "merged"
        if merged_root.exists():
            shutil.rmtree(merged_root)
        merged = SegmentStore(merged_root)
        merged.adopt_segments(store)
        assert merged.entries() == shadow  # merge preserves the map


class TestResultCacheStoreTier:
    def _key(self, seed):
        from repro.exec import CacheKey
        from repro.graphs import build_family

        return CacheKey.for_solve(
            build_family("cycle", 8), "stoer_wagner", seed=seed
        )

    def _result(self, value=1.0):
        from repro.api import CutResult

        return CutResult(value=value, side=frozenset({0}))

    def test_directory_path_opens_a_store(self, tmp_path):
        cache = ResultCache(path=tmp_path / "cache_store")
        assert cache.store is not None
        cache.put(self._key(0), self._result())
        assert (tmp_path / "cache_store" / ACTIVE_SEGMENT).exists()
        cold = ResultCache(path=tmp_path / "cache_store")
        assert cold.get(self._key(0)) is not None

    def test_memory_holds_line_offsets_not_payloads(self, tmp_path):
        cache = ResultCache(path=tmp_path / "st")
        for seed in range(3):
            cache.put(self._key(seed), self._result(float(seed)))
        cold = ResultCache(path=tmp_path / "st")
        assert cold._disk == {} and cold.stats()["disk_entries"] == 3
        live = cold.store._live[self._key(2).digest()]
        assert not hasattr(live, "__dict__")  # slotted index record
        assert live.segment == ACTIVE_SEGMENT and live.offset > 0
        assert cold.get(self._key(2)).value == 2.0  # one line read
        assert self._key(2) in cold and self._key(7) not in cold

    def test_offsets_follow_compaction_and_adoption(self, tmp_path):
        store = SegmentStore(tmp_path / "a")
        fill(store, 5)
        store.append([], [("d0003", 4)], ts=200.0)
        store.compact()
        assert {live.segment for live in store._live.values()} == {
            store.segment_infos()[0]["name"]
        }
        assert store.payload("d0003") == entry(3)
        assert store.entries() == {f"d{i:04d}": entry(i) for i in range(5)}
        other = SegmentStore(tmp_path / "b")
        fill(other, 2)
        other.adopt_segments(store)
        assert other.payload("d0004") == entry(4)
        assert other.entry_meta()["d0003"][0] == 4

    def test_line_rewritten_underneath_reads_as_a_miss(self, tmp_path):
        store = SegmentStore(tmp_path / "st")
        fill(store, 2)
        other = SegmentStore(tmp_path / "st")  # another process
        other.clear()
        other.append([(f"x{i:04d}", entry(i + 5)) for i in range(2)], ts=300.0)
        # d0001's offset now starts x0001's line: a miss, not its payload.
        assert store.payload("d0001") is None
        assert store.entries() == {}
        assert store.payload("missing") is None

    def test_flush_appends_instead_of_rewriting(self, tmp_path):
        cache = ResultCache(path=tmp_path / "st")
        for seed in range(3):
            cache.put(self._key(seed), self._result())
        store = cache.store
        assert store.appended_records == 3
        # Only new records hit the disk: a second flush with nothing
        # pending appends nothing.
        cache.flush()
        assert store.appended_records == 3

    def test_disk_hits_record_usage_metadata(self, tmp_path):
        cache = ResultCache(path=tmp_path / "st")
        key = self._key(1)
        cache.put(key, self._result())
        cold = ResultCache(path=tmp_path / "st")
        assert cold.get(key) is not None
        assert cold.get(key) is not None
        cold.flush()
        hits, _ts = SegmentStore(tmp_path / "st").entry_meta()[key.digest()]
        assert hits == 2

    def test_stats_carry_store_counters(self, tmp_path):
        cache = ResultCache(path=tmp_path / "st")
        cache.put(self._key(0), self._result())
        stats = cache.stats()
        assert stats["disk_entries"] == 1
        assert stats["segments"] == 1
        assert stats["live_entries"] == 1
        assert stats["store_bytes"] > 0
        assert stats["compactions"] == 0

    def test_clear_empties_the_store(self, tmp_path):
        cache = ResultCache(path=tmp_path / "st")
        cache.put(self._key(0), self._result())
        cache.clear()
        assert cache.stats()["disk_entries"] == 0
        assert len(SegmentStore(tmp_path / "st")) == 0

    def test_merge_counts_report_every_outcome(self, tmp_path):
        ours = ResultCache(path=tmp_path / "ours.json")
        ours.put(self._key(0), self._result(1.0))
        theirs = ResultCache(path=tmp_path / "theirs.json")
        theirs.put(self._key(0), self._result(99.0))  # conflict: ours wins
        theirs.put(self._key(1), self._result(2.0))

        counts = ours.merge_from(tmp_path / "theirs.json")
        assert counts.added == 1
        assert counts.kept_ours == 1
        assert counts.skipped == 0
        assert counts == 1  # int value stays the adopted count
        assert counts + 1 == 2  # arithmetic compatibility (warm_start +=)
        assert ours.stats()["disk_entries"] == 2

    def test_engine_warm_start_accepts_store_dirs(self, tmp_path):
        from repro.api import Engine
        from repro.graphs import build_family

        graphs = [build_family("cycle", 8, seed=s) for s in range(3)]
        recorder = Engine(cache=tmp_path / "record_store")
        recorder.solve_batch(graphs, "stoer_wagner")

        warm = Engine(cache=ResultCache())
        assert warm.warm_start(tmp_path / "record_store") == 3
        replay = warm.solve_batch(graphs, "stoer_wagner")
        assert all(r.extras["cache"]["hit"] for r in replay)
