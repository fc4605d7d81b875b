"""P5 — scheduler balance: LPT cost packing vs index striping.

Not a paper claim: this measures the execution layer's shard planner
(PR 8).  The sweep is deliberately skewed — every fourth task is a
``brute_force`` solve on a larger instance, the rest are cheap
``matula`` approximations — and the worker count divides the heavy
stride, so the historic index stripe (task ``i`` on worker ``i % W``)
piles **all** heavy tasks onto worker 0 and the whole sweep waits on
that one straggler.  :func:`repro.exec.pack_tasks` with the engine's
registry cost function isolates each heavy task instead, which is
where the near-linear makespan improvement comes from.

**How makespan is measured.**  Each plan's bins are executed one at a
time and the per-bin busy seconds are measured directly; the plan's
makespan is the maximum — the wall clock a pool of ``W`` independent
workers would see, each running its whole bin (the exact homing the
``remote`` backend uses: bin → worker is fixed up front, no work
stealing hides a bad plan).  Measuring per-bin busy time rather than
racing a local process pool keeps the number honest on small hosts:
on a single-CPU runner a 4-process pool serialises both plans equally
and shows nothing, while per-bin busy time is contention-free on any
host and is the quantity the planner actually optimises.

Both plans execute the identical frozen tasks, and the result
identity (solver, value, cut side, seed) is asserted bit-equal
between serial, striped, packed, and remote (2 live HTTP workers)
runs — the improvement is never allowed to come from divergent
behaviour.
"""

import os
import threading
import time

from conftest import run_once

from repro.analysis import format_table
from repro.api import Engine
from repro.config import ServeConfig
from repro.exec import pack_tasks
from repro.exec.backends import _run_chunk
from repro.exec.remote import RemoteExecutor
from repro.graphs import build_family
from repro.service import create_server

TASK_COUNT = 16
HEAVY_EVERY = 4  # heavy indices 0, 4, 8, 12 — all stripe onto worker 0
WORKERS = 4
HEAVY_N = 16
CHEAP_N = 10
REPEATS = 2

#: Makespan floor (LPT over stripe) asserted off-CI.  The plateau is
#: structural: the stripe serialises all four heavy tasks on one
#: worker, LPT gives each its own — see the committed margin.
LPT_FLOOR = 1.5


def _identity(outcomes):
    return [
        (o.solver, o.value, tuple(sorted(o.side, key=repr)), o.seed)
        for o in outcomes
    ]


def _skewed_tasks(engine):
    graphs, solvers = [], []
    for i in range(TASK_COUNT):
        if i % HEAVY_EVERY == 0:
            graphs.append(build_family("gnp", HEAVY_N, seed=i))
            solvers.append("brute_force")
        else:
            graphs.append(build_family("gnp", CHEAP_N, seed=i))
            solvers.append("matula")
    return engine.build_batch_tasks(graphs, epsilon=0.5, solvers=solvers)


def _measure_plan(tasks, cost_fn):
    """Per-bin busy seconds (best of ``REPEATS``) for one plan."""
    pack = pack_tasks(tasks, WORKERS, cost_fn)
    outcomes = [None] * len(tasks)
    bin_seconds = []
    for indices in pack.assignments:
        chunk = [tasks[i] for i in indices]
        best, kept = float("inf"), []
        for _ in range(REPEATS):
            started = time.perf_counter()
            result = _run_chunk(chunk)
            elapsed = time.perf_counter() - started
            if elapsed < best:
                best, kept = elapsed, result
        for i, outcome in zip(indices, kept):
            outcomes[i] = outcome
        bin_seconds.append(best if indices else 0.0)
    return pack, bin_seconds, outcomes


def _remote_identity(tasks, cost_fn):
    """Run the same tasks through two live HTTP workers, cost-planned."""
    servers = [create_server(ServeConfig(port=0)) for _ in range(2)]
    threads = [
        threading.Thread(target=server.serve_forever, daemon=True)
        for server in servers
    ]
    for thread in threads:
        thread.start()
    try:
        executor = RemoteExecutor(
            [server.url for server in servers], cost_fn=cost_fn
        )
        outcomes = executor.run_tasks(tasks)
        return outcomes, executor.last_plan
    finally:
        for server in servers:
            try:
                server.shutdown()
                server.server_close()
            except OSError:
                pass


def _experiment():
    engine = Engine()
    tasks = _skewed_tasks(engine)
    cost_fn = engine.task_cost_fn()

    serial_started = time.perf_counter()
    serial = _run_chunk(tasks)
    serial_time = time.perf_counter() - serial_started

    stripe_pack, stripe_bins, stripe_out = _measure_plan(tasks, None)
    lpt_pack, lpt_bins, lpt_out = _measure_plan(tasks, cost_fn)

    assert _identity(stripe_out) == _identity(serial)
    assert _identity(lpt_out) == _identity(serial)

    remote_out, remote_plan = _remote_identity(tasks, cost_fn)
    assert _identity(remote_out) == _identity(serial)

    return {
        "serial_time": serial_time,
        "stripe": (stripe_pack, stripe_bins),
        "lpt": (lpt_pack, lpt_bins),
        "remote_plan": remote_plan,
    }


def test_p5_scheduler_balance(benchmark, record_table):
    data = run_once(benchmark, _experiment)
    serial_time = data["serial_time"]
    stripe_pack, stripe_bins = data["stripe"]
    lpt_pack, lpt_bins = data["lpt"]
    stripe_makespan = max(stripe_bins)
    lpt_makespan = max(lpt_bins)
    lpt_speedup = stripe_makespan / lpt_makespan

    def _heavy_counts(pack):
        return "/".join(
            str(sum(1 for i in indices if i % HEAVY_EVERY == 0))
            for indices in pack.assignments
        )

    def _plan_row(name, pack, bins):
        makespan = max(bins)
        return [
            name,
            WORKERS,
            _heavy_counts(pack),
            round(pack.balance, 2),
            round(makespan, 3),
            round(serial_time / makespan, 2),
            round(stripe_makespan / makespan, 2),
        ]

    plan_table = format_table(
        [
            "plan",
            "workers",
            "heavy per bin",
            "pred balance",
            "makespan s",
            "vs serial",
            "vs stripe",
        ],
        [
            ["serial", 1, str(TASK_COUNT // HEAVY_EVERY), "-",
             round(serial_time, 3), 1.0,
             round(stripe_makespan / serial_time, 2)],
            _plan_row("stripe", stripe_pack, stripe_bins),
            _plan_row("lpt", lpt_pack, lpt_bins),
        ],
        title=(
            "P5 — scheduler balance on a skewed sweep "
            f"({TASK_COUNT} tasks, every {HEAVY_EVERY}th brute_force "
            f"n={HEAVY_N}, rest matula n={CHEAP_N}; {WORKERS} "
            "whole-bin workers)\n"
            "makespan = max measured per-bin busy seconds (bin -> "
            "worker fixed up front, as in the remote pool);\n"
            "result identity asserted bit-equal across "
            "serial/stripe/lpt/remote"
        ),
    )
    remote_plan = data["remote_plan"]
    remote_line = (
        f"remote (2 workers, cost plan): bit-identical to serial; "
        f"per-shard seconds {remote_plan['actual_loads']}, "
        f"actual makespan {remote_plan['actual_makespan']:.3f}s"
    )
    table = (
        f"{plan_table}\n\n"
        f"lpt-over-stripe makespan improvement: {lpt_speedup:.2f}x\n"
        f"{remote_line}"
    )
    record_table("P5_scheduler_balance", table)

    # The structural claims hold anywhere; the wall-clock floor only on
    # a quiet non-CI machine (same gating as P2 and P4).
    stripe_heavy = [
        sum(1 for i in indices if i % HEAVY_EVERY == 0)
        for indices in stripe_pack.assignments
    ]
    assert stripe_heavy == [TASK_COUNT // HEAVY_EVERY, 0, 0, 0]
    lpt_heavy = [
        sum(1 for i in indices if i % HEAVY_EVERY == 0)
        for indices in lpt_pack.assignments
    ]
    assert lpt_heavy == [1] * WORKERS  # one heavy task per worker
    if not benchmark.disabled and not os.environ.get("CI"):
        assert lpt_speedup >= LPT_FLOOR
