"""The four perfbench workloads.

Each ``run_*`` function takes a :class:`Run` (seed, seconds, trace flag,
scratch directory) and returns an :class:`Outcome`: the metric values
it measured, the answer tally, and report lines.  With ``trace`` off
the values are the end-to-end metrics; with it on, the per-layer ones.

Every workload is a closed loop with one caller.  Inputs and expected
answers are prepared before timing, and answers are checked after it.
A layer run rotates between its lanes (untraced end-to-end, untraced
in-process, traced in-process) in short blocks, so that host speed
drift during the run lands on every lane alike.
"""

from __future__ import annotations

import cProfile
import itertools
import json
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import harness
import inputs
import tracing
from harness import KeepAliveClient, ServeProcess, Tally, latency_summary, percentile
from tracing import SpanRecorder

#: setup_s is the median of the launch-to-ready times of a run: this
#: many launches before the timed loop and this many after it, so that
#: the samples span the run rather than one moment of the host.
SETUP_BEFORE = 5
SETUP_AFTER = 4
#: Ops the timed lane must reach, past ``--seconds`` if need be, for its
#: p90 to have ten samples beyond it.
MIN_OPS = harness.min_samples(0.9)
#: Seconds a layer run spends in one lane before moving to the next.
ROTATE_BLOCK_S = 0.5
#: Processes that compute serve-mutate's expected values after timing.
VERIFY_WORKERS = 2


@dataclass
class Run:
    root: Path
    seed: int
    seconds: float
    trace: bool
    scratch: Path

    @property
    def setups_before(self) -> int:
        """Launches before timing; a layer run reports no setup_s and needs one."""
        return 1 if self.trace else SETUP_BEFORE

    @property
    def setups_after(self) -> int:
        return 0 if self.trace else SETUP_AFTER


@dataclass
class Outcome:
    metrics: dict = field(default_factory=dict)
    tally: Tally = field(default_factory=Tally)
    lines: list = field(default_factory=list)
    #: Failed run-level checks (e.g. a serve-warm miss) beyond per-op tallies.
    fatal: list = field(default_factory=list)


@dataclass
class Lane:
    """One closed loop of ops; ``step()`` runs one op, False when exhausted."""

    step: Callable[[], Optional[bool]]
    attach: Optional[Callable] = None
    done: bool = False
    ops: int = 0


def _run_block(lane: Lane, until: Callable[[], bool]) -> None:
    """Step ``lane`` (at least once) until ``until()`` holds or it is exhausted."""
    with lane.attach() if lane.attach else nullcontext():
        while True:
            if lane.step() is False:
                lane.done = True
                return
            lane.ops += 1
            if until():
                return


def rotate(seconds: float, lanes: list[Lane], block: float = ROTATE_BLOCK_S,
           min_ops: int = MIN_OPS) -> None:
    """Run the lanes in turn, ``block`` seconds (at least one op) each.

    Every other round runs in reverse order, so that no lane always
    follows the same neighbour (a block that keeps both CPUs busy slows
    the block after it).  When ``seconds`` are up and the first lane
    (the end-to-end one) has made fewer than ``min_ops`` ops, it runs on
    alone until it has, for at most another ``seconds``.
    """
    deadline = time.perf_counter() + seconds
    rounds = 0
    while time.perf_counter() < deadline and not all(lane.done for lane in lanes):
        rounds += 1
        for lane in lanes if rounds % 2 else lanes[::-1]:
            now = time.perf_counter()
            if lane.done or now >= deadline:
                continue
            end = min(deadline, now + block)
            _run_block(lane, lambda: time.perf_counter() >= end)
    first, cap = lanes[0], deadline + seconds
    if not first.done and first.ops < min_ops and time.perf_counter() < cap:
        _run_block(first, lambda: first.ops >= min_ops or time.perf_counter() >= cap)


def _timed_loop(run: Run, lanes: list[Lane]) -> None:
    """An end-to-end run gives its one lane the whole time (and the ops its
    p90 needs); a layer run, which reports no p90, rotates its lanes."""
    if run.trace:
        rotate(run.seconds, lanes, min_ops=0)
    else:
        rotate(run.seconds, lanes, block=run.seconds)


def _ms(seconds: Optional[float]) -> float:
    return 0.0 if seconds is None else seconds * 1e3


def _median(values) -> Optional[float]:
    return percentile(values, 0.5) if values else None


def _overhead(traced, plain) -> float:
    """Mean traced ÷ mean untraced op time over the interleaved lanes.

    Means, not medians: per-op times cluster by host speed mode, and a
    median can sit in a different cluster on each lane.
    """
    return (sum(traced) / len(traced)) / (sum(plain) / len(plain))


def _end_to_end(out: Outcome, setups, latencies, rss_mib: float) -> None:
    summary = latency_summary(latencies)
    if not summary["p90_supported"]:
        out.fatal.append(
            f"only {summary['n']} timed ops; latency_p90_ms needs {MIN_OPS} "
            f"({harness.MIN_BEYOND} beyond it)"
        )
    out.metrics.update({
        "setup_s": _median(setups),
        "latency_p90_ms": summary["p90_ms"],
        "ok_ratio": out.tally.ok_ratio,
        "peak_rss_mb": rss_mib,
    })
    # Throughput (a mean) and p50 are printed, not reported: both move with
    # the share of the run the host spends in its fast speed mode (see
    # README). p99 lacks ten samples beyond it on most workloads.
    busy_s = sum(latencies)
    throughput = out.tally.ok / busy_s if busy_s > 0 else 0.0
    out.lines.append(
        "latency samples: n={n}; p90 {p90} ({beyond} beyond)".format(
            n=summary["n"],
            p90="supported" if summary["p90_supported"] else "UNSUPPORTED",
            beyond=harness.samples_beyond(summary["n"], 0.9),
        )
    )
    out.lines.append(
        "informational: throughput_ops_s {tput:.3f} 1/s, latency_p50_ms {p50:.3f} ms, "
        "latency_p99_ms {p99:.3f} ms ({p99s})".format(
            tput=throughput,
            p50=summary["p50_ms"],
            p99=summary["p99_ms"],
            p99s="supported" if summary["p99_supported"] else "fewer than 10 samples beyond",
        )
    )
    out.lines.append("setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups))


def _layer_table(out: Outcome, per_op: list[dict], names: dict, title: str) -> dict:
    """p50 over ops of each span's per-op self time, into ``out.metrics``."""
    p50s = {}
    for span, metric in names.items():
        p50s[metric] = _ms(_median([op.get(span, 0.0) for op in per_op]))
        out.metrics[metric] = p50s[metric]
    out.lines.append(f"{title} (self time, p50 per op over {len(per_op)} traced ops):")
    for metric, value in p50s.items():
        out.lines.append(f"  {metric:<34} {value:9.4f} ms")
    return p50s


def _stop(servers) -> None:
    for server in servers:
        server.stop()


def _launch_servers(run: Run, stores, cpus=None) -> tuple[float, list]:
    """Spawn one ``repro serve`` per store (pinned to ``cpus``); returns the
    seconds until every one has opened its store and answered ``/healthz``,
    and the servers."""
    servers: list = []
    started = time.perf_counter()
    try:
        for store in stores:
            servers.append(ServeProcess(run.root, store, cpus).start())
        for server in servers:
            server.wait_ready()
    except BaseException:
        _stop(servers)
        raise
    return time.perf_counter() - started, servers


def _set_up(launch, setups: list, count: int, keep: bool = False) -> list:
    """Launch ``count`` times, appending each launch-to-ready time to ``setups``.

    ``launch(i)`` starts the ``i``-th program of the run and returns
    ``(seconds, servers)``.  Every server is stopped again, except the
    last launch's when ``keep`` is set; those are returned.
    """
    servers: list = []
    try:
        for _ in range(count):
            _stop(servers)
            servers = []
            seconds, servers = launch(len(setups))
            setups.append(seconds)
    except BaseException:
        _stop(servers)
        raise
    if keep:
        return servers
    _stop(servers)
    return []


# -- solve-congest -------------------------------------------------------

#: solve-congest's launch: the program's CLI, from interpreter start to
#: its first CONGEST answer on a small fixed graph.
CLI_READY_ARGS = ("exact", "--family", "regular", "--n", "16", "--mode", "congest")
CLI_READY_ANSWER = "minimum cut value : 4"


def run_solve_congest(run: Run) -> Outcome:
    # On one CPU, as the other workloads: the solves then run on one
    # vCPU's speed and never migrate between the two.
    with harness.one_cpu():
        return _solve_congest(run)


def _solve_congest(run: Run) -> Outcome:
    from repro.api import Engine

    out = Outcome()
    graphs = inputs.congest_graphs(run.seed)
    reference = Engine(cache=None)
    expected = [reference.solve(g, inputs.SOLVER).value for g in graphs]

    def launch(_index: int) -> tuple[float, list]:
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *CLI_READY_ARGS],
            cwd=run.root, env=harness.program_env(run.root),
            capture_output=True, text=True, timeout=60,
        )
        elapsed = time.perf_counter() - started
        if proc.returncode != 0 or CLI_READY_ANSWER not in proc.stdout:
            raise RuntimeError(f"repro {' '.join(CLI_READY_ARGS)} failed: {proc.stderr[-500:]}")
        return elapsed, []

    setups: list = []
    _set_up(launch, setups, run.setups_before)
    engine = Engine(cache=None)
    warm = [engine.solve(g, "exact", mode="congest") for g in graphs]
    counts = {
        key: sum(getattr(r.metrics, f"total_{key}") for r in warm) / len(warm)
        for key in ("rounds", "messages", "words")
    }
    out.lines.append(
        f"inputs: {len(graphs)} random 4-regular graphs n={inputs.CONGEST_N}, "
        f"Engine(cache=None).solve(g, 'exact', mode='congest'); expected λ={sorted(set(expected))}"
    )
    out.lines.append(
        "rounds_per_solve={rounds:.3f} messages_per_solve={messages:.1f} "
        "words_per_solve={words:.1f} (RunMetrics totals, mean over the distinct graphs)"
        .format(**counts)
    )

    def lane(sink: list, profiler: Optional[cProfile.Profile] = None) -> Lane:
        def step():
            index = len(sink) % len(graphs)
            started = time.perf_counter()
            if profiler is not None:
                profiler.enable()
            try:
                result = engine.solve(graphs[index], "exact", mode="congest")
            except Exception as exc:  # noqa: BLE001 - a failed solve is a counted failure
                out.lines.append(f"solve failed: {type(exc).__name__}: {exc}")
                result = None
            finally:
                if profiler is not None:
                    profiler.disable()
            sink.append((index, time.perf_counter() - started, result))
        return Lane(step)

    def check(records) -> None:
        for index, _elapsed, result in records:
            if result is None:
                out.tally.add("error")
                continue
            good = harness.close_enough(result.value, expected[index]) and harness.close_enough(
                graphs[index].cut_value(result.side), result.value)
            out.tally.add("ok" if good else "wrong")

    plain: list = []
    if not run.trace:
        _timed_loop(run, [lane(plain)])
        rss = harness.vmhwm_mib()
        _set_up(launch, setups, run.setups_after)
        check(plain)
        latencies = [elapsed for _i, elapsed, _r in plain]
        _end_to_end(out, setups, latencies, rss)
        return out

    profiler = cProfile.Profile()
    traced: list = []
    _timed_loop(run, [lane(plain), lane(traced, profiler)])
    check(plain)
    check(traced)

    def per_graph_mean(records) -> dict:
        sums: dict = {}
        for index, elapsed, _r in records:
            total, count = sums.get(index, (0.0, 0))
            sums[index] = (total + elapsed, count + 1)
        return {index: total / count for index, (total, count) in sums.items()}

    plain_by, traced_by = per_graph_mean(plain), per_graph_mean(traced)
    common = sorted(set(plain_by) & set(traced_by))
    plain_wall = sum(elapsed for _i, elapsed, _r in plain)
    out.metrics.update({
        "congest.rounds_per_solve": counts["rounds"],
        "congest.messages_per_solve": counts["messages"],
        "congest.words_per_solve": counts["words"],
        "congest.rounds_per_s": sum(r.metrics.total_rounds for *_x, r in plain if r) / plain_wall,
        "congest.messages_per_s": sum(
            r.metrics.total_messages for *_x, r in plain if r) / plain_wall,
        "trace.overhead_x": sum(traced_by[i] for i in common) / sum(plain_by[i] for i in common),
    })
    selftimes = tracing.package_self_times(profiler)
    total = sum(selftimes.values())
    out.lines.append(
        f"selftime per solve under cProfile ({len(traced)} traced solves; read as shares, "
        "never against untraced wall time):"
    )
    for label in tracing.BUCKET_LABELS:
        per_solve = selftimes[label] / len(traced) * 1e3
        out.metrics[f"selftime.{label}_ms"] = per_solve
        out.lines.append(
            f"  selftime.{label + '_ms':<26} {per_solve:9.2f} ms  {selftimes[label] / total:6.1%}"
        )
    out.lines.append(
        f"  sum {total / len(traced) * 1e3:.2f} ms/solve = traced total; traced wall "
        f"{sum(e for _i, e, _r in traced) / len(traced) * 1e3:.2f} ms/solve, untraced "
        f"{plain_wall / len(plain) * 1e3:.2f} ms/solve ({len(plain)} solves)"
    )
    return out


# -- serve-warm ----------------------------------------------------------

def _prepare_warm_store(bodies: list[bytes], store: Path) -> list[float]:
    """Solve every body in-process into a fresh store; returns the values."""
    from repro.api import Engine
    from repro.exec.cache import ResultCache
    from repro.service.protocol import parse_graph

    engine = Engine(cache=ResultCache(path=store))
    values = [
        engine.solve(parse_graph(json.loads(body)["graph"]), inputs.SOLVER).value
        for body in bodies
    ]
    engine.cache.flush()
    return values


def _warm_check(out: Outcome, index: int, status: int, result: Optional[dict], expected) -> bool:
    """Tally one /solve answer; returns whether the cache served it."""
    hit = bool(result and result.get("extras", {}).get("cache", {}).get("hit"))
    if result is not None and not hit:
        out.tally.add("wrong")  # a warm request must be served by the store
    else:
        out.tally.classify(status, result.get("value") if result else None, expected[index])
    return hit


def run_serve_warm(run: Run) -> Outcome:
    out = Outcome()
    bodies = inputs.warm_bodies(run.seed)
    pristine = run.scratch / "warm-store"
    expected = _prepare_warm_store(bodies, pristine)
    out.lines.append(
        f"inputs: {len(bodies)} distinct gnp n={inputs.WARM_N} /solve bodies "
        f"(solver {inputs.SOLVER}), drawn uniformly; store prepared in-process"
    )

    def store_copy(name: str) -> Path:
        store = run.scratch / name
        shutil.copytree(pristine, store)
        return store

    def warm_pass(client: KeepAliveClient) -> None:
        for body in bodies:
            status, _data, _elapsed = client.post("/solve", body)
            if status != 200:
                raise RuntimeError(f"warm-up /solve answered {status}")

    def launch(index: int) -> tuple[float, list]:
        return _launch_servers(run, [store_copy(f"warm-run-{index}")], cpus)

    setups: list = []
    with harness.one_cpu() as cpus:
        [server] = _set_up(launch, setups, run.setups_before, keep=True)
        client = KeepAliveClient(server.host, server.port)
        try:
            warm_pass(client)
            draws = inputs.warm_draws(run.seed)
            records: list = []

            def http_step():
                index = next(draws)
                status, data, elapsed = client.post("/solve", bodies[index])
                records.append((index, status, data, elapsed))

            lanes = [Lane(http_step)]
            if run.trace:
                layers = _WarmLayers(run, out, bodies, store_copy)
                lanes += layers.lanes()
            _timed_loop(run, lanes)
            rss = server.peak_rss_mib()
        finally:
            client.close()
            server.stop()
        _set_up(launch, setups, run.setups_after)

    hits = 0
    for index, status, data, _elapsed in records:
        result = None
        if status == 200:
            try:
                result = json.loads(data).get("result")
            except ValueError:
                pass
        hits += _warm_check(out, index, status, result, expected)
    misses = len(records) - hits
    out.lines.append(f"mix: {hits} hit / {misses} miss of {len(records)} requests")
    if misses:
        out.fatal.append(f"serve-warm saw {misses} cache miss(es); the store should serve all")
    latencies = [elapsed for *_rest, elapsed in records]
    if not run.trace:
        _end_to_end(out, setups, latencies, rss)
        return out
    out.metrics["exec.cache.hit_ratio"] = hits / len(records)
    layers.report(expected, _median(latencies))
    return out


class _WarmLayers:
    """serve-warm's in-process lanes: untraced and traced ``dispatch``."""

    def __init__(self, run: Run, out: Outcome, bodies, store_copy) -> None:
        from repro.api.engine import Engine
        from repro.exec.cache import ResultCache
        from repro.graphs.graph import WeightedGraph
        from repro.service import server as server_module
        from repro.service.protocol import json_default
        from repro.service.server import ReproService

        self.out, self.bodies, self.json_default = out, bodies, json_default
        self.seed = run.seed
        self.recorder = SpanRecorder()
        self.specs = [
            (ReproService, "_decode_body", "decode"),
            (server_module, "parse_solve_request", "parse"),
            (WeightedGraph, "content_hash", "hash"),
            (WeightedGraph, "require_connected", "connected"),
            (Engine, "solve", "hit"),
            (server_module, "cut_result_to_json", "encode"),
        ]
        self.services, opens = [], []
        for name in ("warm-inproc", "warm-traced"):
            store = store_copy(name)
            started = time.perf_counter()
            cache = ResultCache(path=store)
            opens.append(time.perf_counter() - started)
            self.store_stats = cache.store.stats()
            service = ReproService(cache=cache)
            for body in bodies:
                service.dispatch("POST", "/solve", body)
            self.services.append(service)
        self.open_s = _median(opens)
        self.plain: list = []
        self.answers: list = []

    def lanes(self) -> list[Lane]:
        plain_draws = inputs.warm_draws(self.seed)
        traced_draws = inputs.warm_draws(self.seed)
        plain_service, traced_service = self.services
        recorder = self.recorder

        def plain_step():
            index = next(plain_draws)
            started = time.perf_counter()
            status, payload = plain_service.dispatch("POST", "/solve", self.bodies[index])
            json.dumps(payload, default=self.json_default)
            self.plain.append(time.perf_counter() - started)
            self.answers.append((index, status, payload))

        def traced_step():
            index = next(traced_draws)
            with recorder.span("op"):
                status, payload = traced_service.dispatch("POST", "/solve", self.bodies[index])
                with recorder.span("encode"):
                    json.dumps(payload, default=self.json_default)
            self.answers.append((index, status, payload))

        return [Lane(plain_step), Lane(traced_step, lambda: recorder.attached(self.specs))]

    def report(self, expected, e2e_p50: float) -> None:
        out = self.out
        for index, status, payload in self.answers:
            _warm_check(out, index, status, payload.get("result"), expected)
        per_op = self.recorder.per_root("op")
        dispatch_p50 = _median(self.plain)
        layers = _layer_table(out, per_op, {
            "decode": "service.protocol.decode_ms",
            "parse": "service.protocol.parse_ms",
            "hash": "graphs.content_hash_ms",
            "connected": "graphs.require_connected_ms",
            "hit": "api.engine.hit_ms",
            "encode": "service.protocol.encode_ms",
        }, "serve-warm layers")
        routing = _ms(_median([op.get("op", 0.0) for op in per_op]))
        http = max(0.0, _ms(e2e_p50) - _ms(dispatch_p50))
        stats = self.store_stats
        out.metrics.update({
            "service.http_ms": http,
            "service.dispatch_ms": _ms(dispatch_p50),
            "store.open_ms": self.open_s * 1e3,
            "store.segments": stats["segments"],
            "store.bytes": stats["store_bytes"],
            "trace.overhead_x": _overhead(self.recorder.durations("op"), self.plain),
        })
        out.lines.append(f"  {'dispatch routing (self)':<34} {routing:9.4f} ms")
        out.lines.append(f"  {'service.http_ms':<34} {http:9.4f} ms  "
                         "(end-to-end p50 - in-process dispatch p50)")
        out.lines.append(
            f"  sum {sum(layers.values()) + routing + http:.4f} ms vs end-to-end p50 "
            f"{_ms(e2e_p50):.4f} ms (traced layers include tracing overhead); "
            f"in-process dispatch p50 {_ms(dispatch_p50):.4f} ms"
        )
        out.lines.append(
            f"store: open {self.open_s * 1e3:.2f} ms, {stats['segments']} segment(s), "
            f"{stats['store_bytes']} bytes, {stats['live_entries']} live entries"
        )


# -- serve-mutate --------------------------------------------------------

def _mutate_truth(root: Path, edges, stream, chunks, sides) -> list:
    """``(λ, witness cut values)`` per state, from one ``truth.py`` process
    per ``(lo, hi)`` chunk of states.

    The processes run side by side; each is waited for, and killed first
    if the run is leaving early, so none outlives the run.
    """
    script = Path(__file__).resolve().parent / "truth.py"
    procs: list = []
    try:
        for lo, hi in chunks:
            proc = subprocess.Popen(
                [sys.executable, str(script)], cwd=root, env=harness.program_env(root),
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            )
            procs.append(proc)
            job = {"edges": edges, "stream": stream[:hi], "start": lo, "sides": sides[lo:hi]}
            proc.stdin.write(json.dumps(job).encode())
            proc.stdin.close()
        truth = []
        for proc in procs:
            raw = proc.stdout.read()
            if proc.wait() != 0:
                raise RuntimeError(f"truth.py exited with {proc.returncode}")
            truth.extend(json.loads(raw))
        return truth
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()


def verify_mutate(root: Path, graph, stream, lanes_answers, tally: Tally) -> None:
    """Tally every answer of every lane against the stream's true states.

    ``lanes_answers`` holds one list per replay of the stream, of
    ``(status, value, side)`` per request in stream order.  Expected
    values are computed after timing, only for the states some lane
    reached, split over :data:`VERIFY_WORKERS` processes.
    """
    reached = max((len(answers) for answers in lanes_answers), default=0)
    sides = [
        [answers[i][2] for answers in lanes_answers
         if i < len(answers) and answers[i][1] is not None]
        for i in range(reached)
    ]
    step = max(1, -(-reached // VERIFY_WORKERS))
    chunks = [(lo, min(reached, lo + step)) for lo in range(0, reached, step)]
    truth = _mutate_truth(root, [list(edge) for edge in graph.edges()], stream, chunks, sides)
    used = [0] * reached
    for answers in lanes_answers:
        for index, (status, value, _side) in enumerate(answers):
            if status == 429:
                tally.add("refused")
            elif value is None:
                tally.add("error")
            else:
                expected, witness_values = truth[index]
                witness = witness_values[used[index]]
                used[index] += 1
                good = harness.close_enough(value, expected) and harness.close_enough(
                    witness, value)
                tally.add("ok" if good else "wrong")


def _mutate_answer(status: int, payload) -> tuple[Optional[float], object, bool]:
    """(value, side, certified) of a /mutate answer; value None if unusable."""
    if status != 200 or not isinstance(payload, dict) or payload.get("result") is None:
        return None, (), False
    if len(payload.get("acks", ())) != inputs.MUTATE_OPS_PER_REQUEST:
        return None, (), False
    result = payload["result"]
    return result.get("value"), result.get("side", ()), "certificate" in result.get("extras", {})


def _mix_report(out: Outcome, latencies, certified_flags) -> None:
    """Share of each outcome, and whether p50/p90 sit near their boundary."""
    total = len(latencies)
    certified = sum(certified_flags)
    out.lines.append(
        f"mix: {certified} certificate / {total - certified} re-solve of {total} requests "
        f"({certified / total:.1%} certificate)"
    )
    fast = [lat for lat, c in zip(latencies, certified_flags) if c]
    slow = [lat for lat, c in zip(latencies, certified_flags) if not c]
    if fast and slow:
        # The faster outcome fills the bottom of the latency distribution,
        # so the boundary between the two modes sits at its share.
        share = (len(fast) if _median(fast) <= _median(slow) else len(slow)) / total
        for label, q in (("p50", 0.5), ("p90", 0.9)):
            if abs(q - share) < 0.05:
                out.lines.append(
                    f"FLAG: {label} lies within 5 points of the outcome boundary at "
                    f"{share:.1%}; a move in it may be a mix change, not a speed change"
                )


def run_serve_mutate(run: Run) -> Outcome:
    out = Outcome()
    data = inputs.mutate_inputs(run.seed)
    stream = data["ops"]
    encoded = [inputs.ops_json(ops) for ops in stream]
    warm_encoded = [inputs.ops_json(ops) for ops in data["warm_ops"]]
    open_main = inputs.open_body(data["graph"])
    open_warm = inputs.open_body(data["warm_graph"])
    out.lines.append(
        f"inputs: gnp n={inputs.MUTATE_N} session ({inputs.SOLVER}); each request "
        f"{inputs.MUTATE_OPS_PER_REQUEST} reweight decreases + solve; "
        f"{len(stream)} requests pre-generated"
    )

    def post_json(client: KeepAliveClient, body: bytes) -> tuple[int, dict]:
        status, raw, _elapsed = client.post("/mutate", body)
        if status != 200:
            raise RuntimeError(f"/mutate set-up request answered {status}")
        return status, json.loads(raw)

    def warm_pass(client: KeepAliveClient) -> None:
        session = post_json(client, open_warm)[1]["session"]
        for ops in warm_encoded:
            post_json(client, inputs.mutate_body(session, ops))
        post_json(client, json.dumps({"session": session, "close": True}).encode())

    def launch(index: int) -> tuple[float, list]:
        return _launch_servers(run, [run.scratch / f"mutate-run-{index}"], cpus)

    setups: list = []
    with harness.one_cpu() as cpus:
        [server] = _set_up(launch, setups, run.setups_before, keep=True)
        client = KeepAliveClient(server.host, server.port)
        try:
            warm_pass(client)
            session = post_json(client, open_main)[1]["session"]
            bodies = [inputs.mutate_body(session, ops) for ops in encoded]
            records: list = []

            def http_step():
                if len(records) == len(bodies):
                    return False
                records.append(client.post("/mutate", bodies[len(records)]))

            lanes = [Lane(http_step)]
            if run.trace:
                layers = _MutateLayers(run, out, open_main, encoded)
                lanes += layers.lanes()
            _timed_loop(run, lanes)
            rss = server.peak_rss_mib()
        finally:
            client.close()
            server.stop()
        _set_up(launch, setups, run.setups_after)

    answers, latencies, flags = [], [], []
    for status, raw, elapsed in records:
        value, side, certified = _mutate_answer(status, json.loads(raw) if status == 200 else None)
        answers.append((status, value, side))
        latencies.append(elapsed)
        flags.append(certified)
    if len(records) == len(bodies):
        out.lines.append("NOTE: the pre-generated stream ran out before the time did")
    _mix_report(out, latencies, flags)
    lanes_answers = [answers] + (layers.answers if run.trace else [])
    verify_mutate(run.root, data["graph"], stream, lanes_answers, out.tally)
    if run.trace:
        layers.report(_median(latencies))
    else:
        _end_to_end(out, setups, latencies, rss)
    return out


class _MutateLayers:
    """serve-mutate's in-process lanes: two fresh services replaying the stream."""

    def __init__(self, run: Run, out: Outcome, open_main: bytes, encoded) -> None:
        from repro.api import solvers as solvers_module
        from repro.dynamic.session import DynamicSession
        from repro.exec.cache import ResultCache
        from repro.graphs.graph import WeightedGraph
        from repro.service import server as server_module
        from repro.service.protocol import json_default
        from repro.service.server import ReproService
        from repro.store.store import SegmentStore

        self.out, self.encoded, self.json_default = out, encoded, json_default
        self.recorder = SpanRecorder()
        self.specs = [
            (ReproService, "_decode_body", "decode"),
            (server_module, "parse_mutate_request", "parse"),
            (DynamicSession, "apply", "apply"),
            (DynamicSession, "solve", "solve"),
            (ResultCache, "put", "put"),
            (SegmentStore, "append", "append"),
            (solvers_module, "stoer_wagner_min_cut", "stoer_wagner"),
            (WeightedGraph, "content_hash", "hash"),
            (WeightedGraph, "require_connected", "connected"),
            (server_module, "cut_result_to_json", "encode"),
        ]
        self.replays = []
        for name in ("mutate-inproc", "mutate-traced"):
            service = ReproService(cache=ResultCache(path=run.scratch / name))
            _status, payload = service.dispatch("POST", "/mutate", open_main)
            self.replays.append((service, payload["session"]))
        self.plain: list = []
        self.answers: list = [[], []]

    def lanes(self) -> list[Lane]:
        recorder = self.recorder

        def lane(which: int, traced: bool) -> Lane:
            service, session = self.replays[which]
            answers = self.answers[which]

            def step():
                index = len(answers)
                if index == len(self.encoded):
                    return False
                body = inputs.mutate_body(session, self.encoded[index])
                started = time.perf_counter()
                if traced:
                    with recorder.span("op"):
                        status, payload = service.dispatch("POST", "/mutate", body)
                        with recorder.span("encode"):
                            json.dumps(payload, default=self.json_default)
                else:
                    status, payload = service.dispatch("POST", "/mutate", body)
                    json.dumps(payload, default=self.json_default)
                    self.plain.append(time.perf_counter() - started)
                value, side, _certified = _mutate_answer(status, payload)
                answers.append((status, value, side))

            return Lane(step, (lambda: recorder.attached(self.specs)) if traced else None)

        return [lane(0, False), lane(1, True)]

    def report(self, e2e_p50: float) -> None:
        out = self.out
        per_op = self.recorder.per_root("op")
        layers = _layer_table(out, per_op, {
            "decode": "service.protocol.decode_ms",
            "parse": "service.protocol.parse_ms",
            "apply": "dynamic.apply_ms",
            "solve": "dynamic.solve_ms",
            "put": "exec.cache.put_ms",
            "append": "store.append_ms",
            "hash": "graphs.content_hash_ms",
            "connected": "graphs.require_connected_ms",
            "encode": "service.protocol.encode_ms",
        }, "serve-mutate layers (dynamic.solve_ms excludes the solver, put and hash)")
        misses = self.recorder.durations("stoer_wagner")
        dispatch_p50 = _median(self.plain)
        service, session_id = self.replays[1]
        stats = service.sessions[session_id].stats()
        requests = len(per_op)
        out.metrics.update({
            "baselines.stoer_wagner_ms": _ms(_median(misses)),
            "service.dispatch_ms": _ms(dispatch_p50),
            "service.http_ms": max(0.0, _ms(e2e_p50) - _ms(dispatch_p50)),
            "exec.cache.hit_ratio": service.cache.hits / requests,
            "dynamic.certified_ratio": stats["certified"] / stats["solves"],
            "dynamic.index.patched": stats["index"]["patched"] / requests,
            "dynamic.index.rebuilt": stats["index"]["rebuilt"] / requests,
            "trace.overhead_x": _overhead(self.recorder.durations("op"), self.plain),
        })
        routing = _ms(_median([op.get("op", 0.0) for op in per_op]))
        solver = _ms(_median(misses))
        out.lines.append(f"  {'baselines.stoer_wagner_ms':<34} {solver:9.4f} ms "
                         f"(per miss, {len(misses)} misses)")
        out.lines.append(f"  {'dispatch routing (self)':<34} {routing:9.4f} ms")
        out.lines.append(
            f"  sum {sum(layers.values()) + routing + solver:.4f} ms vs in-process dispatch "
            f"p50 {_ms(dispatch_p50):.4f} ms; end-to-end p50 {_ms(e2e_p50):.4f} ms"
        )
        out.lines.append(
            f"dynamic: {stats['certified']}/{stats['solves']} certified (base: solves), "
            f"index patched {stats['index']['patched']} / rebuilt {stats['index']['rebuilt']} "
            f"over {requests} requests; cache hits {service.cache.hits} (base: requests)"
        )


# -- sweep-cold ----------------------------------------------------------

def run_sweep_cold(run: Run) -> Outcome:
    from repro.api import Engine
    from repro.exec import remote as remote_module
    from repro.exec.remote import RemoteExecutor

    out = Outcome()
    pool = inputs.sweep_pool(run.seed)
    serial = Engine(cache=None, solver=inputs.SOLVER).solve_batch(pool)
    expected = [result.value for result in serial]
    out.lines.append(
        f"inputs: sweeps of {len(pool)} relabelled graphs ({'/'.join(inputs.SWEEP_FAMILIES)}, "
        f"n={inputs.SWEEP_N_RANGE[0]}-{inputs.SWEEP_N_RANGE[1]}) on 2 `repro serve` workers, "
        f"solver {inputs.SOLVER}"
    )
    sweeps = itertools.count()
    solver_times: list = []

    def sweep(engine, executor) -> tuple[float, Optional[dict]]:
        graphs = inputs.sweep_graphs(pool, run.seed, next(sweeps))
        started = time.perf_counter()
        try:
            results = engine.solve_batch(graphs)
        except Exception as exc:  # noqa: BLE001 - a failed sweep is a counted failure
            out.lines.append(f"sweep failed: {type(exc).__name__}: {exc}")
            results = None
        elapsed = time.perf_counter() - started
        if results is None:
            out.tally.add("error", len(graphs))
            return elapsed, None
        for graph, result, value in zip(graphs, results, expected):
            good = harness.close_enough(result.value, value) and harness.close_enough(
                graph.cut_value(result.side), result.value)
            out.tally.add("ok" if good else "wrong")
            solver_times.append(result.wall_time)
        return elapsed, executor.last_plan

    def launch(index: int) -> tuple[float, list]:
        return _launch_servers(
            run, [run.scratch / f"sweep-{index}-{w}" for w in range(2)], cpus)

    setups: list = []
    plain: list = []
    traced: list = []
    recorder = SpanRecorder()
    # Driver and both workers share one CPU, as on serve-*: a sweep then
    # waits on one vCPU's speed, not on the slower of two.
    with harness.one_cpu() as cpus:
        workers = _set_up(launch, setups, run.setups_before, keep=True)
        try:
            executor = RemoteExecutor(workers=[w.url for w in workers])
            engine = Engine(backend=executor, cache=None, solver=inputs.SOLVER)
            if sweep(engine, executor)[1] is None:
                raise RuntimeError("warm-up sweep failed")

            def plain_step():
                plain.append(sweep(engine, executor))

            def traced_step():
                with recorder.span("sweep"):
                    traced.append(sweep(engine, executor))

            lanes = [Lane(plain_step)]
            if run.trace:
                lanes.append(Lane(traced_step, lambda: recorder.attached(
                    [(remote_module, "pack_tasks", "pack")])))
            _timed_loop(run, lanes)
            rss = max(worker.peak_rss_mib() for worker in workers)
        finally:
            _stop(workers)
        _set_up(launch, setups, run.setups_after)

    plans = [plan for _elapsed, plan in plain + traced if plan]
    chunks = [plan["chunks"] for plan in plans]
    stolen = [plan["stolen"] for plan in plans]
    idle = [
        1.0 - sum(plan["actual_loads"]) / (len(plan["actual_loads"]) * plan["actual_makespan"])
        for plan in plans if plan["actual_makespan"] > 0
    ]
    out.lines.append(
        f"dispatch: {sum(chunks)} chunks, {sum(stolen)} stolen over {len(plans)} sweeps; "
        f"mean idle ratio {sum(idle) / max(1, len(idle)):.3f}"
    )
    latencies = [elapsed for elapsed, _plan in plain]
    if not run.trace:
        _end_to_end(out, setups, latencies, rss)
        return out
    packs = recorder.durations("pack")
    sweep_p50 = _median(latencies)
    out.metrics.update({
        "exec.plan.pack_ms": _ms(_median(packs)),
        "exec.remote.chunks": sum(chunks) / len(chunks),
        "exec.remote.stolen": sum(stolen) / len(stolen),
        "exec.remote.idle_ratio": sum(idle) / len(idle),
        "baselines.stoer_wagner_ms": _ms(_median(solver_times)),
        "trace.overhead_x": _overhead([elapsed for elapsed, _plan in traced], latencies),
    })
    out.lines.append(
        f"exec.plan.pack_ms p50 {_ms(_median(packs)):.4f} ms; worker-side solve p50 "
        f"{_ms(_median(solver_times)):.3f} ms per graph; sweep p50 {_ms(sweep_p50):.2f} ms"
    )
    return out


WORKLOADS = {
    "solve-congest": run_solve_congest,
    "serve-warm": run_serve_warm,
    "serve-mutate": run_serve_mutate,
    "sweep-cold": run_sweep_cold,
}
