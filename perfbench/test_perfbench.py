"""Tests for the perfbench helpers (the runner itself is not run here)."""

from __future__ import annotations

import json
import socket
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import harness
import inputs
import truth
import workloads
from repro.graphs.io import graph_to_json
from tracing import SpanRecorder, bucket_of


class TestPercentileRule:
    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert harness.percentile(values, 0.5) == 50.0
        assert harness.percentile(values, 0.9) == 90.0
        assert harness.percentile([3.0], 0.9) == 3.0

    @pytest.mark.parametrize("count, q, supported", [
        (100, 0.9, True), (99, 0.9, False), (20, 0.5, True), (19, 0.5, False),
        (1000, 0.99, True), (999, 0.99, False),
    ])
    def test_ten_samples_beyond(self, count, q, supported):
        assert harness.percentile_supported(count, q) is supported
        assert (harness.samples_beyond(count, q) >= 10) is supported

    def test_summary_flags_and_units(self):
        summary = harness.latency_summary([0.001 * i for i in range(1, 101)])
        assert summary["n"] == 100
        assert summary["p50_ms"] == pytest.approx(50.0)
        assert summary["p90_supported"] and not summary["p99_supported"]

    def test_empty_sample_is_an_error(self):
        with pytest.raises(ValueError):
            harness.percentile([], 0.5)

    def test_min_samples(self):
        assert harness.min_samples(0.9) == 100
        assert harness.min_samples(0.5) == 20
        assert workloads.MIN_OPS == 100

    def test_unsupported_p90_fails_the_run(self):
        out = workloads.Outcome()
        out.tally.add("ok", 99)
        workloads._end_to_end(out, [1.0], [0.01] * 99, 10.0)
        assert out.fatal and "latency_p90_ms" in out.fatal[0]
        supported = workloads.Outcome()
        supported.tally.add("ok", 100)
        workloads._end_to_end(supported, [1.0], [0.01] * 100, 10.0)
        assert not supported.fatal


class TestRotate:
    @pytest.fixture
    def clock(self, monkeypatch):
        """A fake clock for ``rotate``: each op takes exactly one second."""
        now = [0.0]
        monkeypatch.setattr(workloads, "time", SimpleNamespace(perf_counter=lambda: now[0]))

        def step():
            now[0] += 1.0
        return step

    def test_runs_past_the_time_until_min_ops(self, clock):
        lane = workloads.Lane(clock)
        workloads.rotate(10.0, [lane], min_ops=15)
        assert lane.ops == 15

    def test_extension_is_capped_at_another_run_length(self, clock):
        lane = workloads.Lane(clock)
        workloads.rotate(10.0, [lane], min_ops=100)
        assert lane.ops == 20

    def test_no_extension_once_min_ops_reached(self, clock):
        lane = workloads.Lane(clock)
        workloads.rotate(10.0, [lane], min_ops=5)
        assert lane.ops == 10

    def test_exhausted_lane_stops(self):
        steps = iter(range(3))
        lane = workloads.Lane(lambda: next(steps, None) is not None)
        workloads.rotate(5.0, [lane], min_ops=100)
        assert lane.done and lane.ops == 3


class TestSetUp:
    class Server:
        def __init__(self, log):
            self.log, self.stopped = log, False

        def stop(self):
            self.stopped = True

    def test_times_each_launch_and_keeps_only_the_last(self):
        launched = []

        def launch(index):
            launched.append(self.Server(index))
            return 0.1 * (index + 1), [launched[-1]]

        setups = [9.0]
        kept = workloads._set_up(launch, setups, 3, keep=True)
        assert setups == [9.0, pytest.approx(0.2), pytest.approx(0.3), pytest.approx(0.4)]
        assert [server.log for server in launched] == [1, 2, 3]
        assert kept == [launched[-1]] and not kept[0].stopped
        assert all(server.stopped for server in launched[:-1])
        assert workloads._set_up(launch, setups, 2) == []
        assert len(launched) == 5 and all(server.stopped for server in launched[3:])

    def test_failed_launch_stops_the_previous_one(self):
        launched = []

        def launch(index):
            if index:
                raise RuntimeError("no start")
            launched.append(self.Server(index))
            return 0.1, [launched[-1]]

        with pytest.raises(RuntimeError):
            workloads._set_up(launch, [], 2, keep=True)
        assert launched[0].stopped


class TestTally:
    def test_refused_error_and_wrong_answers_fail(self):
        tally = harness.Tally()
        assert tally.classify(200, 4.0, 4.0) == "ok"
        assert tally.classify(429, None, 4.0) == "refused"
        assert tally.classify(500, None, 4.0) == "error"
        assert tally.classify(200, None, 4.0) == "error"
        assert tally.classify(200, 5.0, 4.0) == "wrong"
        assert tally.attempted == 5
        assert tally.failed == 4
        assert tally.ok_ratio == pytest.approx(0.2)

    def test_float_sums_compare_with_tolerance(self):
        tally = harness.Tally()
        assert tally.classify(200, 0.1 + 0.2, 0.3) == "ok"
        assert tally.ok_ratio == 1.0

    def test_unknown_outcome_rejected(self):
        with pytest.raises(ValueError):
            harness.Tally().add("maybe")


class TestKeepAliveClient:
    def test_failed_exchange_is_status_zero_and_an_error(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        client = harness.KeepAliveClient("127.0.0.1", port, timeout=5)
        status, body, elapsed = client.post("/solve", b"{}")
        client.close()
        assert (status, body) == (0, b"") and elapsed >= 0
        tally = harness.Tally()
        assert tally.classify(status, None, 4.0) == "error"


class TestVmHWM:
    def test_parse_status_text(self):
        text = "Name:\tpython3\nVmPeak:\t  300 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40000 kB\n"
        assert harness.parse_vmhwm_kib(text) == 51200

    def test_missing_line_raises(self):
        with pytest.raises(ValueError):
            harness.parse_vmhwm_kib("Name:\tpython3\n")

    def test_reads_this_process(self):
        assert harness.vmhwm_mib() > 1.0


class TestInputsAreSeeded:
    def _bytes(self, seed: int) -> dict:
        congest = [json.dumps(graph_to_json(g)) for g in inputs.congest_graphs(seed)]
        mutate = inputs.mutate_inputs(seed)
        pool = inputs.sweep_pool(seed)
        return {
            "congest": congest,
            "warm": inputs.warm_bodies(seed),
            "mutate": [inputs.open_body(mutate["graph"])]
            + [inputs.ops_json(ops) for ops in mutate["ops"]]
            + [inputs.ops_json(ops) for ops in mutate["warm_ops"]],
            "sweep": [json.dumps(graph_to_json(g)) for g in pool]
            + [json.dumps(graph_to_json(g)) for g in inputs.sweep_graphs(pool, seed, 3)],
        }

    def test_same_seed_same_bytes_other_seed_differs(self):
        first, again, other = self._bytes(5), self._bytes(5), self._bytes(6)
        for name in first:
            assert first[name] == again[name], name
            assert first[name] != other[name], name

    def test_every_mutate_op_is_a_decrease_or_a_floor_reset(self):
        data = inputs.mutate_inputs(1)
        weights = {(u, v): w for u, v, w in data["graph"].edges()}
        for ops in data["ops"]:
            assert len(ops) == inputs.MUTATE_OPS_PER_REQUEST
            for u, v, w in ops:
                assert w < weights[(u, v)] or w >= 1.0
                weights[(u, v)] = w

    def test_sweeps_are_new_to_a_cache_but_isomorphic(self):
        pool = inputs.sweep_pool(2)
        first = inputs.sweep_graphs(pool, 2, 0)
        second = inputs.sweep_graphs(pool, 2, 1)
        seen = {g.content_hash() for g in pool}
        for original, a, b in zip(pool, first, second):
            assert a.content_hash() not in seen and b.content_hash() != a.content_hash()
            assert sorted(a.degree(x) for x in a.nodes) == sorted(
                original.degree(x) for x in original.nodes)


class TestMutateTruth:
    def test_worker_processes_match_the_in_process_replay(self):
        data = inputs.mutate_inputs(3)
        stream = data["ops"][:5]
        edges = [list(edge) for edge in data["graph"].edges()]
        nodes = sorted(data["graph"].nodes)
        sides = [[nodes[:1], nodes[: i + 2]] for i in range(len(stream))]
        root = Path(workloads.__file__).resolve().parent.parent
        got = workloads._mutate_truth(root, edges, stream, [(0, 2), (2, 5)], sides)
        expected = truth.mutate_truth(edges, stream, 0, sides)
        assert [tuple(item) for item in got] == [(v, list(w)) for v, w in expected]


class TestSpanRecorder:
    def test_self_time_partitions_the_root(self):
        class Layer:
            def inner(self):
                time.sleep(0.002)

            def outer(self):
                time.sleep(0.002)
                self.inner()

        recorder = SpanRecorder()
        with recorder.attached([(Layer, "outer", "outer"), (Layer, "inner", "inner")]):
            with recorder.span("op"):
                Layer().outer()
        assert "__wrapped__" not in vars(Layer.outer)
        (op,) = recorder.per_root("op")
        (root,) = recorder.durations("op")
        assert sum(op.values()) == pytest.approx(root)
        assert op["inner"] >= 0.002 and op["outer"] >= 0.002

    def test_package_buckets(self):
        assert bucket_of("/x/src/repro/congest/network.py") == "congest.network"
        assert bucket_of("/x/src/repro/congest/metrics.py") == "other"
        assert bucket_of("/x/src/repro/primitives/bfs.py") == "primitives"
        assert bucket_of("~") == "other"
