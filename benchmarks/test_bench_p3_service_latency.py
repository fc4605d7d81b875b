"""P3 — service tail latency: streaming dispatch under a straggler.

Not a paper claim: this measures the service core.  The fleet is
deliberately unbalanced — two healthy workers plus one **straggler**
(``ServiceConfig.delay`` injects a fixed sleep per task solved), the
deployment shape that motivated streaming dispatch.  Two effects are
measured:

* **solve_batch latency.**  Any dispatch that posts each worker's
  whole bin and waits for all of them ends no earlier than
  ``delay x bin_size`` — the straggler's entire bin slept serially.
  That product is the **block bound**, computed from the plan's bin
  sizes.  The streaming path keeps one small chunk in flight per
  worker and lets the healthy workers steal the straggler's remaining
  chunks (the LPT planner's remainder re-packed mid-sweep), so a sweep
  ends at most ~one chunk after the healthy workers drain everything
  else.  p50/p99 over repeated sweeps are recorded, and off CI the
  committed margin asserts streaming p99 beats the block bound by at
  least ``STREAM_FLOOR``x; at least one chunk must be stolen.
* **concurrent single solves.**  A small client fleet hammers one
  async-transport server over keep-alive connections; per-request
  p50/p99 and aggregate throughput are recorded (the queue-depth gate
  is sized so nothing is throttled — the table records the counter to
  prove it).

Correctness is never traded: every measured configuration's results
are asserted bit-identical (solver, value, cut side, seed) to the
serial backend — including a sweep where the straggler is **killed**
mid-``solve_batch`` (survivors adopt its chunks) and one where a fresh
worker **joins via discovery** (``POST /register`` on a pool manager)
while the sweep is running, with no executor restart.
"""

import os
import threading
import time

from conftest import run_once

from repro.analysis import format_table
from repro.api import Engine
from repro.exec.remote import RemoteExecutor
from repro.graphs import build_family
from repro.service import ServiceClient, ServiceConfig, WorkerPool, create_server

GRAPHS = 12          # instances per solve_batch sweep
N = 12               # instance size (stoer_wagner at this size is ~ms)
SWEEPS = 5           # repeated streaming sweeps (p99 = worst)
STRAGGLER_DELAY = 0.10   # injected seconds per task on the slow worker
CLIENTS = 4          # concurrent single-solve clients
REQUESTS = 8         # requests per client

#: Off-CI floor: streaming p99 must beat the block bound (the
#: straggler's whole bin slept serially, 4 tasks here = 0.4s) by this
#: factor.  Structural, not a tuning accident: streaming leaves the
#: straggler at most ~one chunk (~0.1s).  A measured whole-bin fan-out
#: is never faster than its bound, so this is at least as strict as
#: comparing against one.
STREAM_FLOOR = 1.5


def _identity(outcomes):
    return [
        (o.solver, o.value, tuple(sorted(o.side, key=repr)), o.seed)
        for o in outcomes
    ]


def _graphs():
    return [build_family("gnp", N, seed=s) for s in range(GRAPHS)]


def _start_server(**config_kwargs):
    server = create_server(
        port=0,
        config=ServiceConfig(**config_kwargs) if config_kwargs else None,
    )
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server


def _stop_server(server):
    try:
        server.shutdown()
        server.server_close()
    except OSError:
        pass


def _percentile(samples, q):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def _sweep_latencies(engine, graphs, sweeps):
    latencies = []
    results = None
    for _ in range(sweeps):
        started = time.perf_counter()
        results = engine.solve_batch(graphs, "stoer_wagner")
        latencies.append(time.perf_counter() - started)
    return latencies, results


def _run_experiment():
    graphs = _graphs()
    serial = Engine().solve_batch(graphs, "stoer_wagner")
    truth = _identity(serial)
    rows = []

    fleet = [_start_server(), _start_server(),
             _start_server(delay=STRAGGLER_DELAY)]
    urls = [server.url for server in fleet]
    try:
        # -- streaming solve_batch under the straggler ---------------
        executor = RemoteExecutor(urls)
        latencies, results = _sweep_latencies(
            Engine(backend=executor), graphs, SWEEPS
        )
        assert _identity(results) == truth, "stream diverged from serial"
        p50 = _percentile(latencies, 0.50)
        p99 = _percentile(latencies, 0.99)
        plan = executor.last_plan
        straggler_bin = plan["sizes"][2]  # bin i homes on urls[i]
        block_bound = STRAGGLER_DELAY * straggler_bin
        rows.append([
            "block bound", f"{straggler_bin} tasks x "
            f"{STRAGGLER_DELAY * 1000:.0f}ms (straggler bin)",
            "-", f"{block_bound * 1000:.0f}", "-",
        ])
        rows.append([
            "solve_batch/stream", f"{GRAPHS} tasks x {SWEEPS} sweeps",
            f"{p50 * 1000:.0f}", f"{p99 * 1000:.0f}",
            f"{GRAPHS * SWEEPS / sum(latencies):.1f} task-batches: "
            f"{GRAPHS / p50:.0f} tasks/s",
        ])
        stolen = plan["stolen"]

        # -- straggler killed mid-sweep -------------------------------
        executor = RemoteExecutor(urls)
        killer = threading.Timer(
            STRAGGLER_DELAY, lambda: _stop_server(fleet[2])
        )
        killer.start()
        kill_results = Engine(backend=executor).solve_batch(
            graphs, "stoer_wagner"
        )
        killer.join()
        assert _identity(kill_results) == truth, "mid-sweep kill diverged"
        kill_dead = len(executor.last_plan["dead"])
    finally:
        for server in fleet:
            _stop_server(server)

    # -- worker joins via discovery mid-sweep -------------------------
    manager = _start_server()
    seed_worker = _start_server(delay=0.03)
    late_worker = _start_server()
    pool = WorkerPool(
        [seed_worker.url], manager=manager.url, interval=0.05
    ).start()
    try:
        executor = RemoteExecutor(pool=pool)
        joiner = threading.Timer(
            0.15,
            lambda: ServiceClient(manager.url, keep_alive=False).register(
                late_worker.url
            ),
        )
        joiner.start()
        join_results = Engine(backend=executor).solve_batch(
            graphs, "stoer_wagner"
        )
        joiner.join()
        assert _identity(join_results) == truth, "discovery join diverged"
        joined = executor.last_plan["joined"]
    finally:
        pool.stop()
        for server in (manager, seed_worker, late_worker):
            _stop_server(server)

    # -- concurrent single solves over keep-alive ---------------------
    server = _start_server(queue_depth=CLIENTS * REQUESTS)
    try:
        request_latencies = []
        latency_lock = threading.Lock()

        def client_loop(offset):
            mine = []
            with ServiceClient(server.url) as client:
                for i in range(REQUESTS):
                    graph = graphs[(offset + i) % len(graphs)]
                    started = time.perf_counter()
                    client.solve(graph, solver="stoer_wagner")
                    mine.append(time.perf_counter() - started)
            with latency_lock:
                request_latencies.extend(mine)

        threads = [
            threading.Thread(target=client_loop, args=(c,), daemon=True)
            for c in range(CLIENTS)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        with ServiceClient(server.url) as client:
            throttled = client.health()["requests"]["throttled"]
        rows.append([
            f"/solve x{CLIENTS} clients",
            f"{CLIENTS * REQUESTS} requests, keep-alive",
            f"{_percentile(request_latencies, 0.50) * 1000:.0f}",
            f"{_percentile(request_latencies, 0.99) * 1000:.0f}",
            f"{CLIENTS * REQUESTS / elapsed:.0f} req/s "
            f"({throttled} throttled)",
        ])
    finally:
        _stop_server(server)

    return {
        "rows": rows,
        "stream_p99": p99,
        "block_bound": block_bound,
        "stolen": stolen,
        "kill_dead": kill_dead,
        "joined": joined,
    }


class TestServiceLatency:
    def test_tail_latency_and_membership_churn(
        self, benchmark, record_table
    ):
        report = run_once(benchmark, _run_experiment)

        table = format_table(
            ["scenario", "load", "p50 (ms)", "p99 (ms)", "throughput"],
            report["rows"],
            title=(
                f"P3 — service tail latency: 2 healthy + 1 straggler "
                f"worker ({STRAGGLER_DELAY * 1000:.0f}ms/task injected)"
            ),
        )
        ratio = report["block_bound"] / report["stream_p99"]
        summary = (
            f"\nstreaming p99 vs block bound : {ratio:.2f}x better "
            f"(floor {STREAM_FLOOR}x; {report['stolen']} chunk(s) of the "
            f"straggler's bin re-packed mid-sweep)"
            f"\nmid-sweep worker kill        : {report['kill_dead']} worker "
            f"dead, results bit-identical to serial"
            f"\nmid-sweep discovery join     : joined={report['joined']}, "
            f"results bit-identical to serial"
        )
        record_table("P3_service_latency", table + summary)

        assert report["kill_dead"] == 1
        assert report["stolen"] >= 1
        if not benchmark.disabled and not os.environ.get("CI"):
            assert report["stream_p99"] * STREAM_FLOOR <= report["block_bound"], (
                f"streaming p99 only {ratio:.2f}x better than the "
                f"straggler's whole-bin bound (floor {STREAM_FLOOR}x)"
            )
